"""Agent-swarm benchmark for the agent-first data system (see README.md)."""
