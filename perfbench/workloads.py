"""The four workloads: inputs from a seed, set-up, load, answer checks.

Every workload runs on the default :class:`SystemConfig`. Inputs (agent
scripts, rows, write batches, send schedules) are generated from the
seed before anything is timed; the system sees only those inputs.

* ``swarm_explore`` — closed loop, 64 agent slots. BIRD-like retail
  tasks (~700-row fact table), eight agents per task, each agent's
  turn-by-turn SQL recorded by ``SequentialAgent``. A slot takes the next
  agent's script when its current one ends. Redundant exploration over
  small tables: few distinct SQL texts, plans and subplans recur.
* ``scan_analytics`` — closed loop, 8 agents, exact analytic probes with
  fresh literals over a 50k-row fact table and a 16-row dimension.
  Engine-bound; nothing repeats, so history and caches cannot help.
* ``ingest_mixed`` — ``swarm_explore``'s agents on a WAL-attached
  database, beside a writer appending a fixed 20-row batch to the fact
  table under ``gateway.serve_lock`` after every 50 answered probes.
  Every write invalidates history, caches, memory entries and worker
  snapshots.
* ``tenant_shards`` — open loop at a fixed rate into a 4-shard
  ``ShardedSystem``: 64 tenants partitioned by tenant plus a replicated
  tier table. Mostly tenant-pinned aggregates, some scatter aggregates,
  a few cross-tenant top-k and fact-dimension joins.

A run stops sending when its time is up or its pre-generated inputs run
out, whichever comes first, and waits for every probe in flight.
"""

from __future__ import annotations

import asyncio
import dataclasses
import queue
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.agents.model import GPT_4O_MINI_SIM, QWEN_CODER_SIM
from repro.agents.sequential import SequentialAgent
from repro.agents.trace import Activity
from repro.core import AgentFirstDataSystem, Brief, Phase, Probe
from repro.db import Database
from repro.shard import ShardedSystem
from repro.util.rng import RngStream
from repro.workloads.bird import BirdTaskPool, build_domain_db

from perfbench.oracle import Oracle, outcome_correct
from perfbench.stats import lateness_ms

#: Set-ups per run (``setup_s`` is their median): at least the minimum,
#: then more while the total stays under the budget.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
#: A probe unanswered after this long counts as failed.
PROBE_TIMEOUT_S = 60.0
#: Poll interval for tickets without an asyncio view (scatter, noted).
POLL_S = 0.001


@dataclass
class Sample:
    """One probe as sent and answered."""

    agent_id: str
    probe: Probe
    #: When the probe was due: its send time in a closed loop, its
    #: scheduled time in an open loop. Latency is measured from here.
    due: float
    sent: float
    end: float = 0.0
    response: object = None
    error: str | None = None
    correct: bool | None = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.due)


@dataclass
class Write:
    """One writer batch: its rows, schedule, and where it landed."""

    table: str
    rows: list[tuple]
    due: float = 0.0
    sent: float = 0.0
    end: float = 0.0
    #: ``system.turn`` read under the serve lock: the batch is visible to
    #: every probe served at a later turn and to none before.
    turn: int | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.due)

    @property
    def user_bytes(self) -> int:
        """The batch as CSV text: one line per row."""
        return sum(len(",".join(map(str, row))) + 1 for row in self.rows)


@dataclass
class Served:
    """One set-up system under test."""

    system: object  # AgentFirstDataSystem | ShardedSystem
    db: Database
    wal_dir: str | None = None

    @property
    def systems(self) -> list[AgentFirstDataSystem]:
        if isinstance(self.system, ShardedSystem):
            return [handle.system for handle in self.system.shards]
        return [self.system]

    def close(self) -> None:
        self.system.close()


@dataclass
class Drive:
    """What one measured phase produced."""

    samples: list[Sample] = field(default_factory=list)
    writes: list[Write] = field(default_factory=list)
    #: Mean lateness of the load generator (ms): open-loop sends after
    #: their due time, or writer batches after they fell due.
    lag_ms: float = 0.0


# -- load generators -----------------------------------------------------------


async def _answer(ticket, pump=None):
    """Await a ticket; tickets without an asyncio view are polled."""
    if hasattr(ticket, "aresult"):
        return await ticket.aresult()
    while not ticket.done():
        if pump is not None:
            pump()
        await asyncio.sleep(POLL_S)
    return ticket.result()


async def _send(session, agent_id: str, probe: Probe, due: float, pump=None) -> Sample:
    sample = Sample(agent_id, probe, due=due, sent=time.perf_counter())
    try:
        sample.response = await asyncio.wait_for(
            _answer(session.submit(probe), pump), PROBE_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        sample.error = f"no answer within {PROBE_TIMEOUT_S:.0f} s"
    except Exception as exc:  # a raised probe is a failed probe
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.end = time.perf_counter()
    return sample


async def closed_loop(system, scripts, slots: int, deadline: float,
                      on_answer=None) -> list[Sample]:
    """``slots`` agents at a time; each sends its next probe only after
    the previous one is answered, and a free slot takes the next script.
    ``on_answer(count)`` is called with the number answered so far."""
    samples: list[Sample] = []
    pending = iter(scripts)

    async def slot() -> None:
        for agent_id, probes in pending:
            session = system.session(agent_id=agent_id)
            for probe in probes:
                now = time.perf_counter()
                if now >= deadline:
                    return
                samples.append(await _send(session, agent_id, probe, now))
                if on_answer is not None:
                    on_answer(len(samples))

    await asyncio.gather(*(slot() for _ in range(slots)))
    return samples


async def open_loop(system, schedule, start: float, pump=None) -> list[Sample]:
    """Send each ``(offset_s, agent_id, probe)`` at ``start + offset_s``
    whether or not earlier probes have been answered."""
    sessions: dict[str, object] = {}

    async def one(offset: float, agent_id: str, probe: Probe) -> Sample:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        session = sessions.get(agent_id)
        if session is None:
            session = sessions[agent_id] = system.session(agent_id=agent_id)
        return await _send(session, agent_id, probe, due, pump)

    return list(await asyncio.gather(*(one(*item) for item in schedule)))


def run_writer(served: Served, writes: list[Write], due: queue.Queue) -> None:
    """Writer (helper thread): applies the next batch, between admission
    windows, for each due time taken from ``due``; ``None`` ends it and
    drops the batches never due."""
    gateway = served.system.gateway
    for index, write in enumerate(writes):
        write.due = due.get()
        if write.due is None:
            del writes[index:]
            return
        write.sent = time.perf_counter()
        try:
            with gateway.serve_lock:
                write.turn = served.system.turn
                served.db.insert_rows(write.table, write.rows)
        except Exception as exc:  # counted as a failed operation
            write.error = f"{type(exc).__name__}: {exc}"
        write.end = time.perf_counter()


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    #: Latency limit for ``slo_share`` (ms).
    slo_ms = 0.0

    def inputs(self, seed: int):
        raise NotImplementedError

    def build(self, inputs, workdir: str) -> Served:
        """Load the database and construct the system (timed as set-up)."""
        raise NotImplementedError

    def oracle(self, inputs) -> Oracle:
        raise NotImplementedError

    async def drive(self, served: Served, inputs, seconds: float) -> Drive:
        raise NotImplementedError

    def sizes(self, inputs) -> dict:
        return {}


def setup(workload: Workload, inputs, workdir: str) -> Served:
    """Load, construct, analyse and prestart: everything timed as set-up.

    Table statistics are computed once per data version, on first use;
    computing them here keeps that one-off cost out of the first probes.
    """
    served = workload.build(inputs, workdir)
    for system in served.systems:
        for table in system.db.table_names():
            system.db.catalog.stats(table)
    served.system.prestart()
    return served


_EXPLORING = {Activity.EXPLORING_TABLES, Activity.EXPLORING_COLUMNS}
_MODELS = (GPT_4O_MINI_SIM, QWEN_CODER_SIM)


class _ReadOnlyRecorder:
    """A database stand-in for recording agents: answers are memoised
    per SQL text, which is exact because recording never writes."""

    def __init__(self, db: Database) -> None:
        self.catalog = db.catalog
        self._db = db
        self._answers: dict[str, object] = {}

    def execute(self, sql: str):
        answer = self._answers.get(sql)
        if answer is None:
            try:
                answer = self._db.execute(sql)
            except Exception as exc:
                answer = exc
            self._answers[sql] = answer
        if isinstance(answer, Exception):
            raise answer
        return answer


@dataclass
class SwarmInputs:
    #: ``(agent_id, probes)`` in the order free slots take them.
    agents: list[tuple[str, list[Probe]]]
    #: Writer batches (``ingest_mixed`` only).
    writes: list[list[tuple]] = field(default_factory=list)


class SwarmExplore(Workload):
    name = "swarm_explore"
    why = ("64-slot closed loop of BIRD-like agents, 8 per retail task, over a"
           " ~700-row fact table; ~10% distinct SQL, so plans, history and"
           " subplan caches are reused")
    slo_ms = 500.0
    domain = "retail"
    tasks = 200
    cohort = 8
    slots = 64
    #: The database and the task sequence come from this fixed seed; the
    #: run's seed drives every agent. Seeds then differ in what the agents
    #: ask, not in table sizes or in which tasks a run reaches.
    data_seed = 1

    def inputs(self, seed: int) -> SwarmInputs:
        pool = BirdTaskPool(seed=self.data_seed, databases_per_domain=1)
        tasks = [task for task in pool.generate(4 * self.tasks) if task.domain == self.domain]
        recorder = _ReadOnlyRecorder(pool.database(self.domain, 0))
        agents = []
        for task_no, task in enumerate(tasks):
            task = dataclasses.replace(task, db=recorder)
            for member in range(self.cohort):
                agent = SequentialAgent(
                    task,
                    _MODELS[member % len(_MODELS)],
                    RngStream(seed, "perfbench-agent", task_no, member),
                )
                agent_id = f"{task.task_id}-a{member}"
                probes = [
                    Probe(
                        queries=(event.request,),
                        brief=Brief(
                            goal=task.question,
                            phase=(
                                Phase.METADATA_EXPLORATION
                                if event.activity in _EXPLORING
                                else Phase.SOLUTION_FORMULATION
                            ),
                        ),
                        agent_id=agent_id,
                    )
                    for event in agent.run().trace.events
                ]
                agents.append((agent_id, probes))
        return SwarmInputs(agents)

    def _database(self) -> Database:
        # The pool builds domain ``index`` from ``seed * 100 + index``.
        return build_domain_db(self.domain, self.data_seed * 100)

    def build(self, inputs: SwarmInputs, workdir: str) -> Served:
        db = self._database()
        return Served(AgentFirstDataSystem(db), db)

    def oracle(self, inputs: SwarmInputs) -> Oracle:
        return Oracle(self._database())

    async def drive(self, served: Served, inputs: SwarmInputs, seconds: float) -> Drive:
        deadline = time.perf_counter() + seconds
        return Drive(await closed_loop(served.system, inputs.agents, self.slots, deadline))

    def sizes(self, inputs: SwarmInputs) -> dict:
        probes = [probe.queries[0] for _, script in inputs.agents for probe in script]
        return {
            "agents": len(inputs.agents),
            "probes_available": len(probes),
            "distinct_sql_share": round(len(set(probes)) / max(1, len(probes)), 4),
            "slots": self.slots,
        }


class IngestMixed(SwarmExplore):
    name = "ingest_mixed"
    why = ("swarm_explore's agents on a WAL-attached database beside a writer"
           " that appends a 20-row batch after every 50 answered probes; every"
           " write wipes history and caches")
    #: The writer is paced by the readers, not the clock: a batch falls
    #: due after every ``probes_per_write`` answers, so each probe pays
    #: the same share of invalidation however fast the host runs.
    probes_per_write = 50
    #: Batches generated: enough for 60 s at well above today's rate.
    max_writes = 1200
    batch_rows = 20
    table = "sales"

    def inputs(self, seed: int) -> SwarmInputs:
        inputs = super().inputs(seed)
        db = self._database()
        next_id = db.execute("SELECT MAX(id) FROM sales").first_value() + 1
        stores = db.execute("SELECT MAX(id) FROM stores").first_value()
        products = db.execute("SELECT MAX(id) FROM products").first_value()
        rng = RngStream(seed, "perfbench-writes")
        channels = ["In Store", "Online", "Wholesale", "Drive Thru"]
        for _ in range(self.max_writes):
            batch = []
            for _ in range(self.batch_rows):
                year = rng.randint(2021, 2024)
                batch.append((
                    next_id,
                    rng.randint(1, stores),
                    rng.randint(1, products),
                    f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    rng.randint(1, 20),
                    round(rng.uniform(1.0, 500.0), 2),
                    year,
                    rng.choice(channels),
                ))
                next_id += 1
            inputs.writes.append(batch)
        return inputs

    def build(self, inputs: SwarmInputs, workdir: str) -> Served:
        db = self._database()
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
        db.attach_wal(wal_dir)
        return Served(AgentFirstDataSystem(db), db, wal_dir)

    async def drive(self, served: Served, inputs: SwarmInputs, seconds: float) -> Drive:
        deadline = time.perf_counter() + seconds
        writes = [Write(self.table, rows) for rows in inputs.writes]
        due: queue.Queue = queue.Queue()

        def on_answer(count: int) -> None:
            if count % self.probes_per_write == 0:
                due.put(time.perf_counter())

        writer = threading.Thread(
            target=run_writer, args=(served, writes, due), name="perfbench-writer"
        )
        writer.start()
        try:
            samples = await closed_loop(
                served.system, inputs.agents, self.slots, deadline, on_answer
            )
        finally:
            due.put(None)
            writer.join()
        return Drive(samples, writes, lateness_ms([w.due for w in writes], [w.sent for w in writes]))

    def sizes(self, inputs: SwarmInputs) -> dict:
        return {
            **super().sizes(inputs),
            "probes_per_write": self.probes_per_write,
            "batch_rows": self.batch_rows,
        }


@dataclass
class ScanInputs:
    dims: list[tuple]
    facts: list[tuple]
    agents: list[tuple[str, list[Probe]]]


class ScanAnalytics(Workload):
    name = "scan_analytics"
    why = ("8-agent closed loop of exact analytic probes with fresh literals"
           " over a 50k-row fact and 16-row dimension table; engine-bound, no"
           " reuse")
    slo_ms = 4000.0
    fact_rows = 50_000
    dim_rows = 16
    agents = 8
    probes_per_agent = 25

    def inputs(self, seed: int) -> ScanInputs:
        rng = RngStream(seed, "perfbench-scan")
        dims = [(i, f"region{i % 4}", i % 3) for i in range(self.dim_rows)]
        facts = [
            (
                i,
                rng.randint(0, self.dim_rows - 1),
                rng.randint(0, 99),
                round(rng.uniform(0.0, 1000.0), 2),
                rng.randint(0, 364),
                rng.choice("abcdefgh"),
            )
            for i in range(self.fact_rows)
        ]
        agents = []
        for agent in range(self.agents):
            agent_id = f"analyst-{agent}"
            # Kinds rotate so every window of one probe per agent holds
            # the same mix, and literals vary within narrow ranges: fresh
            # SQL every time at a near-constant cost per probe.
            agents.append((
                agent_id,
                [Probe(queries=(self._sql(rng, (agent + turn) % 4),), agent_id=agent_id)
                 for turn in range(self.probes_per_agent)],
            ))
        return ScanInputs(dims, facts, agents)

    @staticmethod
    def _sql(rng: RngStream, kind: int) -> str:
        if kind == 0:
            return (
                "SELECT COUNT(*), SUM(amount) FROM events"
                f" WHERE amount > {rng.uniform(450, 550):.3f} AND qty < {rng.randint(45, 55)}"
            )
        if kind == 1:
            day = rng.randint(0, 300)
            return (
                "SELECT d.region, COUNT(*), AVG(e.amount) FROM events e"
                " JOIN dims d ON e.dim_id = d.id"
                f" WHERE e.day BETWEEN {day} AND {day + rng.randint(25, 35)}"
                " GROUP BY d.region"
            )
        if kind == 2:
            return (
                "SELECT flag, MAX(amount), MIN(qty) FROM events"
                f" WHERE day >= {rng.randint(150, 200)}"
                f" AND amount < {rng.uniform(500, 600):.3f} GROUP BY flag"
            )
        return (
            "SELECT id, amount FROM events"
            f" WHERE qty = {rng.randint(0, 99)} AND amount > {rng.uniform(400, 500):.3f}"
            " ORDER BY amount DESC, id LIMIT 10"
        )

    def _database(self, inputs: ScanInputs) -> Database:
        db = Database("scan")
        db.execute("CREATE TABLE dims (id INT PRIMARY KEY, region TEXT, tier INT)")
        db.execute(
            "CREATE TABLE events (id INT PRIMARY KEY, dim_id INT, qty INT,"
            " amount FLOAT, day INT, flag TEXT)"
        )
        db.insert_rows("dims", inputs.dims)
        db.insert_rows("events", inputs.facts)
        return db

    def build(self, inputs: ScanInputs, workdir: str) -> Served:
        db = self._database(inputs)
        return Served(AgentFirstDataSystem(db), db)

    def oracle(self, inputs: ScanInputs) -> Oracle:
        return Oracle(self._database(inputs))

    async def drive(self, served: Served, inputs: ScanInputs, seconds: float) -> Drive:
        deadline = time.perf_counter() + seconds
        return Drive(await closed_loop(served.system, inputs.agents, self.agents, deadline))

    def sizes(self, inputs: ScanInputs) -> dict:
        return {
            "fact_rows": self.fact_rows,
            "dim_rows": self.dim_rows,
            "agents": self.agents,
            "probes_available": self.agents * self.probes_per_agent,
        }


@dataclass
class TenantInputs:
    rows: list[tuple]
    #: ``(offset_s, agent_id, probe)``, one per send, at a fixed rate.
    schedule: list[tuple[float, str, Probe]]


class TenantShards(Workload):
    name = "tenant_shards"
    why = ("open loop at 15 probes/s (about a third of capacity) into 4 shards"
           " of a 64-tenant table plus a replicated tier table: pinned, scatter,"
           " top-k and join probes")
    slo_ms = 250.0
    tenants = 64
    rows_per_tenant = 150
    shards = 4
    rate = 15.0
    tiers = ("bronze", "silver", "gold", "platinum")
    #: Cumulative shares of tenant-pinned, scatter, top-k; the rest join.
    mix = (0.80, 0.94, 0.97)

    def inputs(self, seed: int) -> TenantInputs:
        rng = RngStream(seed, "perfbench-tenants")
        rows = [
            (f"t{tenant}", 1 + tenant % len(self.tiers), rng.randint(0, 99),
             round(rng.uniform(0.0, 500.0), 2))
            for tenant in range(self.tenants)
            for _ in range(self.rows_per_tenant)
        ]
        schedule = []
        # Enough sends for a 60 s run; the open loop stops at the deadline.
        for index in range(int(self.rate * 60)):
            tenant = rng.randint(0, self.tenants - 1)
            agent_id = f"tenant-{tenant}"
            schedule.append(
                (index / self.rate, agent_id,
                 Probe(queries=(self._sql(rng, tenant),), agent_id=agent_id))
            )
        return TenantInputs(rows, schedule)

    def _sql(self, rng: RngStream, tenant: int) -> str:
        draw = rng.random()
        if draw < self.mix[0]:
            return (
                "SELECT COUNT(*), SUM(amount) FROM sales"
                f" WHERE tenant = 't{tenant}' AND qty >= {rng.randint(0, 89)}"
            )
        if draw < self.mix[1]:
            return (
                "SELECT tier, COUNT(*), SUM(amount) FROM sales"
                f" WHERE qty < {rng.randint(10, 99)} GROUP BY tier"
            )
        if draw < self.mix[2]:
            return (
                "SELECT tenant, qty, amount FROM sales"
                f" WHERE amount > {rng.uniform(0, 400):.2f}"
                " ORDER BY amount DESC, tenant, qty LIMIT 3"
            )
        return (
            "SELECT COUNT(*) FROM sales s JOIN tiers r ON s.tier = r.id"
            f" WHERE r.name = '{rng.choice(list(self.tiers))}'"
            f" AND s.qty < {rng.randint(10, 99)}"
        )

    def _database(self, inputs: TenantInputs) -> Database:
        db = Database("tenants")
        db.execute("CREATE TABLE tiers (id INT PRIMARY KEY, name TEXT)")
        db.insert_rows("tiers", list(enumerate(self.tiers, start=1)))
        db.execute("CREATE TABLE sales (tenant TEXT, tier INT, qty INT, amount FLOAT)")
        db.insert_rows("sales", inputs.rows)
        return db

    def build(self, inputs: TenantInputs, workdir: str) -> Served:
        db = self._database(inputs)
        return Served(ShardedSystem(db, shards=self.shards, partition={"sales": "tenant"}), db)

    def oracle(self, inputs: TenantInputs) -> Oracle:
        return Oracle(self._database(inputs))

    async def drive(self, served: Served, inputs: TenantInputs, seconds: float) -> Drive:
        start = time.perf_counter()
        schedule = [item for item in inputs.schedule if item[0] < seconds]
        samples = await open_loop(served.system, schedule, start, pump=served.system.pump)
        return Drive(samples, lag_ms=lateness_ms([s.due for s in samples], [s.sent for s in samples]))

    def sizes(self, inputs: TenantInputs) -> dict:
        return {
            "tenants": self.tenants,
            "rows": len(inputs.rows),
            "shards": self.shards,
            "rate_per_s": self.rate,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (SwarmExplore(), ScanAnalytics(), IngestMixed(), TenantShards())
}


# -- checks ----------------------------------------------------------------------


def check_answers(samples: list[Sample], oracle: Oracle, writes: list[Write] = ()) -> None:
    """Mark each sample correct or not against the oracle.

    With writes, probes are checked in turn order and each acknowledged
    batch is applied to the oracle before the first probe served after
    it, rebuilding the data version every window saw.
    """
    applied = sorted((w for w in writes if w.error is None), key=lambda w: w.turn)
    answered = sorted(
        (s for s in samples if s.error is None),
        key=lambda s: s.response.turn,
    )
    position = 0
    for sample in answered:
        while position < len(applied) and applied[position].turn < sample.response.turn:
            oracle.apply(applied[position].table, applied[position].rows)
            position += 1
        queries = sample.probe.queries
        outcomes = sample.response.outcomes
        sample.correct = len(outcomes) == len(queries) and all(
            outcome_correct(outcome, oracle.expected(queries[outcome.query_index]))
            for outcome in outcomes
        )
    for sample in samples:
        if sample.error is not None:
            sample.correct = False


def check_durability(served: Served, writes: list[Write]) -> dict:
    """Drop the system without a final checkpoint, recover its WAL
    directory, and compare the catalog version, every table's rows, and
    every acknowledged batch."""
    served.close()
    served.db.catalog.wal.close()
    start = time.perf_counter()
    recovered = Database.recover(served.wal_dir)
    recover_ms = 1000.0 * (time.perf_counter() - start)
    try:
        version_match = (
            recovered.catalog.data_version_tuple() == served.db.catalog.data_version_tuple()
        )
        tables = {
            table: Counter(recovered.execute(f"SELECT * FROM {table}").rows)
            for table in served.db.table_names()
        }
        tables_match = all(
            Counter(served.db.execute(f"SELECT * FROM {table}").rows) == rows
            for table, rows in tables.items()
        )
        acked = [w for w in writes if w.error is None]
        missing = sum(
            1 for w in acked for row in w.rows if tables[w.table][tuple(row)] == 0
        )
        return {
            "ok": version_match and tables_match and missing == 0,
            "recover_ms": recover_ms,
            "acked_batches": len(acked),
            "missing_rows": missing,
            "version_match": version_match,
            "tables_match": tables_match,
        }
    finally:
        recovered.catalog.wal.close()
        shutil.rmtree(served.wal_dir, ignore_errors=True)
