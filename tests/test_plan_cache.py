"""The per-catalog-version plan cache behind ``Database.plan_select``.

A cached plan must always equal what planning from scratch would build
at the current catalog version: every change the planner can see
(statistics, indexes, schema, the virtual ``information_schema``
tables) moves the version and so forces a replan.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

import repro.db.database as database_module
from repro.core import AgentFirstDataSystem, Brief, Probe
from repro.db import Database
from repro.plan.builder import build_plan
from repro.plan.rules import optimize_plan
from repro.sql.parser import parse_statement

JOIN_SQL = "SELECT a.v, b.w FROM a JOIN b ON a.id = b.id"
POINT_SQL = "SELECT v FROM a WHERE id = 2"
TABLE_COUNT_SQL = "SELECT COUNT(*) FROM information_schema.tables"


def build_db() -> Database:
    db = Database("plan-cache")
    db.execute("CREATE TABLE a (id INT, v FLOAT)")
    db.execute("CREATE TABLE b (id INT, w TEXT)")
    db.insert_rows("a", [(i, float(i)) for i in range(5)])
    db.insert_rows("b", [(1, "x")])
    return db


def fresh(db: Database, sql: str):
    return optimize_plan(build_plan(parse_statement(sql), db.catalog), db.catalog)


def assert_fresh(db: Database, sql: str):
    plan = db.plan_select(sql)
    assert plan.describe() == fresh(db, sql).describe(), sql
    return plan


class TestHits:
    def test_repeated_sql_returns_the_same_plan_object(self):
        db = build_db()
        first = db.plan_select(JOIN_SQL)
        assert db.plan_select(JOIN_SQL) is first
        assert db.plan_cache_hits == 1 and db.plan_cache_misses == 1

    def test_execute_shares_the_planning_path(self):
        db = build_db()
        db.execute(POINT_SQL)
        assert db.plan_cache_misses == 1
        plan = db.plan_select(POINT_SQL)
        assert db.plan_cache_hits == 1
        db.execute(POINT_SQL)
        assert db.plan_cache_hits == 2
        assert db.plan_select(POINT_SQL) is plan

    def test_errors_and_non_selects_are_not_cached(self):
        db = build_db()
        with pytest.raises(Exception):
            db.plan_select("SELECT nope FROM a")
        with pytest.raises(Exception):
            db.plan_select("SELECT nope FROM a")
        db.execute("INSERT INTO b VALUES (2, 'y')")
        assert db.plan_cache_size() == 0
        assert db.plan_cache_misses == 0


class TestReplanAfterChanges:
    def test_statistics_change_swaps_the_build_side(self):
        db = build_db()
        before = assert_fresh(db, JOIN_SQL)
        db.insert_rows("b", [(i, "y") for i in range(50)])
        after = assert_fresh(db, JOIN_SQL)
        # The optimizer keeps the smaller input on the build side, so the
        # new row counts must have reached the cached plan.
        assert after.describe() != before.describe()

    def test_hash_index_creation(self):
        db = build_db()
        before = assert_fresh(db, POINT_SQL)
        db.catalog.create_hash_index("a", "id")
        after = assert_fresh(db, POINT_SQL)
        assert "IndexScan" in after.describe()
        assert "IndexScan" not in before.describe()

    def test_auxiliary_index_build(self):
        db = build_db()
        before = assert_fresh(db, POINT_SQL)
        db.catalog.create_auxiliary_hash_index("a", "id")
        assert assert_fresh(db, POINT_SQL) is not before

    def test_drop_then_recreate(self):
        db = build_db()
        assert_fresh(db, JOIN_SQL)
        db.execute("DROP TABLE b")
        with pytest.raises(Exception):
            db.plan_select(JOIN_SQL)
        db.execute("CREATE TABLE b (id INT, w TEXT, extra INT)")
        db.insert_rows("b", [(i, "z", i) for i in range(20)])
        assert_fresh(db, JOIN_SQL)
        assert db.execute("SELECT COUNT(*) FROM a JOIN b ON a.id = b.id").rows == [
            (5,)
        ]


class TestInformationSchema:
    def test_hit_after_ddl_sees_the_new_table(self):
        db = build_db()
        assert db.execute(TABLE_COUNT_SQL).rows == [(2,)]
        assert db.execute(TABLE_COUNT_SQL).rows == [(2,)]
        db.execute("CREATE TABLE c (id INT)")
        assert db.execute(TABLE_COUNT_SQL).rows == [(3,)]
        assert db.plan_select(TABLE_COUNT_SQL) is db.plan_select(TABLE_COUNT_SQL)

    def test_hit_runs_the_refresh_before_the_version_check(self):
        db = build_db()
        db.execute(TABLE_COUNT_SQL)
        plan = db.plan_select(TABLE_COUNT_SQL)
        # Forget that the virtual tables are fresh: the next hit must
        # rebuild them, and the schema bump that causes turns it into a
        # replan.
        db._info_schema_version = -1
        schema_version = db.catalog.schema_version
        assert db.plan_select(TABLE_COUNT_SQL) is not plan
        assert db.catalog.schema_version > schema_version

    def test_subquery_in_join_condition_is_refreshed(self):
        """``information_schema`` read only inside ``JOIN ... ON`` still
        triggers the refresh: on a facade that never refreshed, and after
        DDL on one that did."""
        sql = (
            "SELECT x.id FROM a x JOIN a y ON x.id = y.id AND y.id = "
            "(SELECT COUNT(*) FROM information_schema.tables)"
        )
        never_refreshed = build_db()
        assert never_refreshed.execute(sql).rows == [(2,)]
        db = build_db()
        assert db.execute(sql).rows == [(2,)]
        db.execute("CREATE TABLE c (id INT)")
        assert db.execute(sql).rows == [(3,)]


class TestBounds:
    def test_version_move_releases_every_stale_entry(self):
        db = build_db()
        for i in range(10):
            db.plan_select(f"SELECT v FROM a WHERE id = {i}")
        assert db.plan_cache_size() == 10
        db.insert_rows("a", [(99, 9.9)])
        db.plan_select(POINT_SQL)
        assert db.plan_cache_size() == 1
        assert db.plan_cache_evictions == 10

    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(database_module, "_PLAN_CACHE_MAX", 4)
        db = build_db()
        sqls = [f"SELECT v FROM a WHERE id = {i}" for i in range(6)]
        for sql in sqls:
            db.plan_select(sql)
        assert db.plan_cache_size() == 4
        assert db.plan_cache_evictions == 2
        misses = db.plan_cache_misses
        db.plan_select(sqls[-1])  # most recent: still cached
        assert db.plan_cache_misses == misses
        db.plan_select(sqls[0])  # least recent: evicted
        assert db.plan_cache_misses == misses + 1


class _ReadWriteLock:
    """Many planners at once, or the one writer alone (it goes first)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers = 0  # waiting or writing

    @contextmanager
    def read(self):
        with self._cond:
            self._cond.wait_for(lambda: self._writers == 0)
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers += 1
            self._cond.wait_for(lambda: self._readers == 0)
        try:
            yield
        finally:
            with self._cond:
                self._writers -= 1
                self._cond.notify_all()


def _run_threads(targets, timeout: float = 60.0) -> None:
    """Start every target on its own thread under a short switch interval
    (so the planners interleave finely) and require all to finish."""
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_always_get_current_plans():
    """8 concurrent planners across interleaved writes: within a stretch
    where no write runs, every returned plan equals a fresh plan, and no
    hit or miss count is lost."""
    db = build_db()
    sqls = [JOIN_SQL, POINT_SQL, "SELECT COUNT(*) FROM b WHERE id > 3"]
    rw = _ReadWriteLock()
    errors: list[str] = []
    calls: list[int] = []
    writes_done = threading.Event()

    def planner(worker: int) -> None:
        rounds = 0
        while not writes_done.is_set() or rounds < 20:
            sql = sqls[(worker + rounds) % len(sqls)]
            with rw.read():
                plan = db.plan_select(sql)
                expected = fresh(db, sql)
            if plan.describe() != expected.describe():
                errors.append(sql)
            rounds += 1
        calls.append(rounds)

    def writer() -> None:
        for i in range(30):
            with rw.write():
                db.insert_rows("b", [(100 + i, "w")] * (1 + i % 7))
                if i == 10:
                    db.catalog.create_hash_index("a", "id")
        writes_done.set()

    _run_threads(
        [lambda w=w: planner(w) for w in range(8)] + [writer]
    )
    assert errors == []
    assert db.plan_cache_hits > 0
    assert db.plan_cache_hits + db.plan_cache_misses == sum(calls)


def test_lock_free_planners_never_cache_a_stale_plan():
    """Without a serve lock a planner may race a write; whatever it stores
    must still equal a fresh plan once the writes have stopped."""
    db = build_db()
    barrier = threading.Barrier(9, timeout=60)

    def planner() -> None:
        barrier.wait()
        for _ in range(40):
            db.plan_select(JOIN_SQL)

    def writer() -> None:
        barrier.wait()
        for i in range(40):
            db.insert_rows("b", [(200 + i, "w")] * 3)

    _run_threads([planner] * 8 + [writer])
    assert_fresh(db, JOIN_SQL)


class TestObservability:
    def test_metrics_and_plan_spans(self):
        system = AgentFirstDataSystem(build_db())
        probe = Probe(
            queries=(POINT_SQL, POINT_SQL),
            brief=Brief(goal="compute the exact answer", trace=True),
            agent_id="agent-0",
        )
        response = system.submit(probe)
        spans = response.trace.find("plan")
        assert [span.attrs["cache"] for span in spans if span.name == "plan"] == [
            "miss",
            "hit",
        ]
        snapshot = system.metrics()
        assert snapshot.get("repro_plan_cache_hits") >= 1
        assert snapshot.get("repro_plan_cache_misses") >= 1
        assert snapshot.get("repro_plan_cache_entries") >= 1
        assert snapshot.get("repro_plan_cache_evictions") == 0
