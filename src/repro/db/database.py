"""The relational database facade.

``Database`` owns a :class:`~repro.storage.catalog.Catalog` and runs the
full pipeline: parse → build → optimize → execute. It also

* plans each distinct SELECT text once per catalog version: every SELECT
  (:meth:`Database.plan_select` and :meth:`Database.execute` alike) goes
  through one cache keyed by the SQL text, holding only plans built at
  the current :meth:`~repro.storage.catalog.Catalog.version` — schema,
  data epoch, per-table data versions (which also stamp the statistics
  the optimizer reads) and auxiliary indexes. Any version move drops
  every entry, since stale plans can never hit again. Agents re-ask the
  same SQL far more than humans do (the paper's redundancy trait), so a
  swarm mostly reuses plans, and with them their memoized fingerprints.
  The cache is a lock-guarded LRU bounded by ``_PLAN_CACHE_MAX``; errors
  and non-SELECT statements are never cached,
* serves virtual ``information_schema`` tables (rebuilt when stale; a
  cached plan that reads them still triggers the staleness check),
* evaluates DML (INSERT/UPDATE/DELETE) with index maintenance,
* publishes :class:`ChangeEvent` notifications that the agentic memory
  store's staleness tracker subscribes to (paper Sec. 6.1),
* accepts per-query sampling rates and a shared
  :class:`~repro.engine.executor.SubplanCache` — the hooks the probe
  optimizer drives, and
* optionally attaches a write-ahead log (:meth:`Database.attach_wal`,
  ``REPRO_WAL=1`` for an auto-provisioned temp directory) so committed
  state survives a crash; :meth:`Database.recover` rebuilds a facade from
  a log directory at the exact pre-crash version.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.db import information_schema as info_schema
from repro.engine.columnar import make_executor
from repro.engine.executor import ExecContext, Executor, SubplanCache
from repro.engine.expressions import compile_expr
from repro.engine.result import QueryResult
from repro.errors import CatalogError, ExecutionError, PlanError
from repro.obs import trace as obs_trace
from repro.plan.builder import build_plan
from repro.plan.cost import CostEstimate, estimate_cost
from repro.plan.logical import OneRow, OutputCol, PlanNode
from repro.plan.rules import optimize_plan
from repro.sql import nodes
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, Value

#: Upper bound on cached SELECT plans per facade (least recently used
#: entries go first). Only current-version plans are ever held.
_PLAN_CACHE_MAX = 1024


@dataclass(frozen=True)
class ChangeEvent:
    """A schema or data change, published to registered observers.

    ``details`` carries row-level information for DML: tuples of
    ``(row_id, new_values_or_None)`` — ``None`` marks a delete. The
    branched transaction manager uses these to maintain write sets, and
    the agentic memory store uses the coarse fields for staleness.
    """

    kind: str  # 'create' | 'drop' | 'insert' | 'update' | 'delete'
    table: str
    row_count: int = 0
    details: tuple[tuple[int, tuple | None], ...] = ()


class Database:
    """A single-node SQL database with an agent-friendly surface."""

    def __init__(
        self, name: str = "db", *, wal_dir: str | bool | None = None
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        self._observers: list[Callable[[ChangeEvent], None]] = []
        self._info_schema_version = -1
        #: SQL text -> (optimized plan, reads information_schema), all
        #: planned at ``_plans_stamp`` = (catalog, catalog version).
        self._plans: OrderedDict[str, tuple[PlanNode, bool]] = OrderedDict()
        self._plans_stamp: tuple | None = None
        self._plans_lock = threading.Lock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_evictions = 0
        #: Serve-state recovered alongside the catalog (set by
        #: :meth:`recover`; the serving system consumes it at rebuild).
        self.recovered_serve = None
        self._wal_tmp: str | None = None
        if wal_dir is None:
            # REPRO_WAL=1 turns durability on globally: every facade gets
            # a throwaway log directory (reclaimed at GC / interpreter
            # exit). Pass ``wal_dir=False`` to opt a facade out.
            if os.environ.get("REPRO_WAL", "") not in ("", "0"):
                wal_dir = tempfile.mkdtemp(prefix=f"repro-wal-{name}-")
                self._wal_tmp = wal_dir
        if wal_dir:
            self.attach_wal(wal_dir)

    # -- durability ------------------------------------------------------------

    @property
    def wal(self):
        """The attached :class:`~repro.txn.wal.WriteAheadLog`, or ``None``."""
        return self.catalog.wal

    def attach_wal(self, directory: str, **wal_kwargs) -> None:
        """Attach a write-ahead log rooted at ``directory``.

        The directory must be fresh — reopening an existing log without
        replaying it would fork history, so that path goes through
        :meth:`recover` instead. An initial checkpoint captures whatever
        state the facade already holds, making the log self-contained
        from its first byte (replicas can seed from it immediately).
        """
        from repro.errors import WalError
        from repro.txn.wal import WriteAheadLog

        if self.catalog.wal is not None:
            raise WalError("a write-ahead log is already attached")
        if os.path.isdir(directory) and any(
            entry.startswith(("wal-", "ckpt-")) for entry in os.listdir(directory)
        ):
            raise WalError(
                f"{directory!r} already contains a write-ahead log; "
                "use Database.recover() to resume from it"
            )
        wal = WriteAheadLog(directory, **wal_kwargs)
        self.catalog.wal = wal
        self.checkpoint()
        weakref.finalize(self, _release_wal, wal, self._wal_tmp)

    def checkpoint(self) -> str | None:
        """Write a durable checkpoint now (no-op without a log attached, or
        while an admission window is open). Returns the checkpoint path."""
        wal = self.catalog.wal
        if wal is None:
            return None
        return wal.write_checkpoint(
            self.catalog, info_schema_marker=self._info_schema_version
        )

    @classmethod
    def recover(cls, directory: str, name: str = "db", **wal_kwargs) -> "Database":
        """Rebuild a facade from a WAL directory: checkpoint + tail replay.

        The recovered catalog sits at the exact pre-crash
        ``data_version_tuple()`` — row ids, version counters, and the
        information-schema freshness marker all match, so a recovered run
        is byte-identical to one that never crashed. The log stays
        attached and appendable. ``recovered_serve`` carries the serving
        system's state for :meth:`AgentFirstDataSystem.recover`.
        """
        from repro.txn.wal import recover as wal_recover

        state = wal_recover(directory, **wal_kwargs)
        db = cls(name, wal_dir=False)
        db.catalog = state.catalog
        db._info_schema_version = state.extra.get("info_schema_marker", -1)
        db.recovered_serve = state.serve
        weakref.finalize(db, _release_wal, state.wal, None)
        return db

    # -- observers -------------------------------------------------------------

    def on_change(self, callback: Callable[[ChangeEvent], None]) -> None:
        """Register a callback invoked after every schema/data change."""
        self._observers.append(callback)

    def _publish(self, event: ChangeEvent) -> None:
        for callback in self._observers:
            callback(event)
        # Checkpoint opportunistically at change boundaries (never
        # mid-admission-window; write_checkpoint refuses those).
        wal = self.catalog.wal
        if wal is not None and wal.checkpoint_due():
            self.checkpoint()

    # -- DDL helpers (programmatic API) ------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        self._publish(ChangeEvent("create", schema.name))

    def insert_rows(self, table: str, rows: Iterable[Iterable[Value]]) -> int:
        materialized = [tuple(r) for r in rows]
        row_ids = self.catalog.insert_rows(table, materialized)
        stored = self.catalog.table(table)
        details = tuple((rid, stored.get(rid)) for rid in row_ids)
        self._publish(ChangeEvent("insert", table, len(row_ids), details))
        return len(row_ids)

    def table_names(self) -> list[str]:
        return [
            name
            for name in self.catalog.table_names()
            if not info_schema.is_information_schema(name)
        ]

    # -- query execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
        cache: SubplanCache | None = None,
        engine: str | None = None,
    ) -> QueryResult:
        """Parse and execute one statement, returning a result.

        ``sample_rate`` < 1 runs SELECTs approximately (Bernoulli-sampled
        scans with scaled aggregates); DML always runs exactly. ``engine``
        selects the execution engine for SELECTs (``"row"`` |
        ``"columnar"`` | ``"auto"``; ``None`` defers to the
        ``REPRO_ENGINE`` env override, then the row engine).
        """
        if sql in self._plans:
            # Only SELECTs are cached; a racing eviction just replans.
            return self._run_select(
                self._plan(sql)[0], sample_rate, sample_seed, cache, engine
            )
        statement = parse_statement(sql)
        if isinstance(statement, nodes.Select):
            return self._run_select(
                self._plan(sql, statement)[0], sample_rate, sample_seed, cache, engine
            )
        if isinstance(statement, nodes.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, nodes.DropTable):
            return self._execute_drop(statement)
        if isinstance(statement, nodes.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, nodes.Update):
            return self._execute_update(statement)
        if isinstance(statement, nodes.Delete):
            return self._execute_delete(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def plan_select(self, sql: str) -> PlanNode:
        """Parse and plan (but do not run) a SELECT; used by analyses.

        Repeated text at an unchanged catalog version returns the same
        (shared, immutable) plan object. A traced caller gets a ``plan``
        span whose ``cache`` attribute says ``hit`` or ``miss``.
        """
        parent = obs_trace.current_span()
        if parent is None:
            return self._plan(sql)[0]
        span = parent.child("plan")
        try:
            plan, hit = self._plan(sql)
            span.note(cache="hit" if hit else "miss")
            return plan
        finally:
            span.finish()

    def plan_cache_size(self) -> int:
        """Plans currently cached (all at the current catalog version)."""
        return len(self._plans)

    def _plan(
        self, sql: str, statement: nodes.Statement | None = None
    ) -> tuple[PlanNode, bool]:
        """The one SELECT planning path: ``(plan, cache hit?)`` for ``sql``.

        A hit needs no parse. An entry that reads ``information_schema``
        still runs the refresh first: a stale refresh re-registers the
        virtual tables, which moves the schema version and so turns the
        hit into a replan against the new tables.
        """
        with self._plans_lock:
            entry = self._plans.get(sql)
        if entry is not None and entry[1]:
            self._refresh_information_schema()
        catalog = self.catalog
        stamp = (catalog, catalog.version())
        with self._plans_lock:
            self._sync_plan_stamp(stamp)
            entry = self._plans.get(sql)
            if entry is not None:
                self._plans.move_to_end(sql)
                self.plan_cache_hits += 1
                return entry[0], True
        if statement is None:
            statement = parse_statement(sql)
        if not isinstance(statement, nodes.Select):
            raise PlanError("plan_select requires a SELECT statement")
        plan, reads_info_schema, version = self._build_select(statement)
        with self._plans_lock:
            self.plan_cache_misses += 1
            # A write that landed while planning makes this plan stale
            # before it is stored; it is still a valid answer for the
            # caller, who raced the write.
            if self.catalog is catalog and catalog.version() == version:
                self._sync_plan_stamp((catalog, version))
                self._plans[sql] = (plan, reads_info_schema)
                self._plans.move_to_end(sql)
                if len(self._plans) > _PLAN_CACHE_MAX:
                    self._plans.popitem(last=False)
                    self.plan_cache_evictions += 1
        return plan, False

    def _sync_plan_stamp(self, stamp: tuple) -> None:
        """Drop every cached plan unless they were built at ``stamp``.

        Caller holds ``_plans_lock``.
        """
        if self._plans_stamp != stamp:
            self.plan_cache_evictions += len(self._plans)
            self._plans.clear()
            self._plans_stamp = stamp

    def _build_select(self, statement: nodes.Select) -> tuple[PlanNode, bool, tuple]:
        """Refresh ``information_schema`` if read, then build and optimize.

        Returns ``(plan, reads information_schema, catalog version the
        plan was built at)``.
        """
        reads_info_schema = _references_information_schema(statement)
        if reads_info_schema:
            self._refresh_information_schema()
        catalog = self.catalog
        version = catalog.version()
        plan = optimize_plan(build_plan(statement, catalog), catalog)
        return plan, reads_info_schema, version

    def explain(self, sql: str) -> str:
        """EXPLAIN: the optimized plan plus its cost estimate."""
        plan = self.plan_select(sql)
        estimate = self.estimate(sql)
        return (
            plan.describe()
            + f"\n-- estimated rows: {estimate.rows:.0f}, cost: {estimate.cost:.0f}"
        )

    def estimate(self, sql: str) -> CostEstimate:
        """Cost-estimate a SELECT without executing it."""
        plan = self.plan_select(sql)
        return estimate_cost(plan, self.catalog)

    # -- SELECT ------------------------------------------------------------------

    def _run_select(
        self,
        plan: PlanNode,
        sample_rate: float,
        sample_seed: int,
        cache: SubplanCache | None,
        engine: str | None = None,
    ) -> QueryResult:
        context = ExecContext(
            sample_rate=sample_rate, sample_seed=sample_seed, cache=cache
        )
        executor = make_executor(self.catalog, context, engine)
        return executor.run(plan)

    def _refresh_information_schema(self) -> None:
        """Rebuild the virtual tables if any real table changed since."""
        current = (
            self.catalog.schema_version,
            tuple(
                self.catalog.table(t).data_version
                for t in sorted(self.catalog.table_names())
                if not info_schema.is_information_schema(t)
            ),
        )
        marker = hash(current)
        if marker == self._info_schema_version:
            return
        for name in (info_schema.TABLES_NAME, info_schema.COLUMNS_NAME):
            if self.catalog.has_table(name):
                self.catalog.drop_table(name)
        tables, columns = info_schema.build_tables(self.catalog)
        self.catalog.register_table(tables)
        self.catalog.register_table(columns)
        # register_table/drop_table bump schema_version; recompute the marker
        # so the refresh is stable until a real change happens.
        current = (
            self.catalog.schema_version,
            tuple(
                self.catalog.table(t).data_version
                for t in sorted(self.catalog.table_names())
                if not info_schema.is_information_schema(t)
            ),
        )
        self._info_schema_version = hash(current)
        # Journal the marker: a recovered facade must consider the
        # replayed information-schema tables exactly as fresh as the
        # crashed one did, neither re-registering them (extra
        # schema_version bumps) nor laundering stale ones fresh.
        wal = self.catalog.wal
        if wal is not None:
            wal.append("info_schema_marker", (self._info_schema_version,))

    # -- DDL ------------------------------------------------------------------------

    def _execute_create(self, statement: nodes.CreateTable) -> QueryResult:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return _status_result("ok")
        columns = tuple(
            Column(
                name=definition.name,
                data_type=DataType.parse(definition.type_name),
                nullable=not definition.not_null,
                primary_key=definition.primary_key,
            )
            for definition in statement.columns
        )
        self.create_table(TableSchema(statement.name, columns))
        return _status_result("ok")

    def _execute_drop(self, statement: nodes.DropTable) -> QueryResult:
        if statement.if_exists and not self.catalog.has_table(statement.name):
            return _status_result("ok")
        self.catalog.drop_table(statement.name)
        self._publish(ChangeEvent("drop", statement.name))
        return _status_result("ok")

    # -- DML ------------------------------------------------------------------------

    def _execute_insert(self, statement: nodes.Insert) -> QueryResult:
        if not self.catalog.has_table(statement.table):
            raise CatalogError(f"table {statement.table!r} does not exist")
        table = self.catalog.table(statement.table)
        schema = table.schema
        if statement.select is not None:
            plan = self._build_select(statement.select)[0]
            select_result = self._run_select(plan, 1.0, 0, None)
            raw_rows: list[tuple[Value, ...]] = list(select_result.rows)
        else:
            raw_rows = []
            for row_exprs in statement.rows:
                compiled = [compile_expr(e, (), None) for e in row_exprs]
                raw_rows.append(tuple(fn(()) for fn in compiled))
        rows = [self._widen_row(schema, statement.columns, row) for row in raw_rows]
        count = self.insert_rows(statement.table, rows)
        return _status_result(f"inserted {count}")

    def _widen_row(
        self,
        schema: TableSchema,
        columns: tuple[str, ...] | None,
        values: tuple[Value, ...],
    ) -> tuple[Value, ...]:
        if columns is None:
            if len(values) != len(schema.columns):
                raise ExecutionError(
                    f"INSERT expects {len(schema.columns)} values, got {len(values)}"
                )
            return values
        if len(columns) != len(values):
            raise ExecutionError(
                f"INSERT column list has {len(columns)} names but {len(values)} values"
            )
        full: list[Value] = [None] * len(schema.columns)
        for name, value in zip(columns, values):
            full[schema.position_of(name)] = value
        return tuple(full)

    def _execute_update(self, statement: nodes.Update) -> QueryResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        output = tuple(
            OutputCol(column.name, schema.name) for column in schema.columns
        )
        executor = Executor(self.catalog)
        where = (
            compile_expr(statement.where, output, executor)
            if statement.where is not None
            else None
        )
        assignments = [
            (schema.position_of(column), compile_expr(expr, output, executor))
            for column, expr in statement.assignments
        ]
        updates: list[tuple[int, tuple[Value, ...]]] = []
        for row_id, row in table.scan_with_ids():
            if where is not None:
                verdict = where(row)
                if verdict is None or verdict is False or verdict == 0:
                    continue
            new_row = list(row)
            for position, fn in assignments:
                new_row[position] = fn(row)
            updates.append((row_id, tuple(new_row)))
        for row_id, new_row in updates:
            self.catalog.update_row(statement.table, row_id, new_row)
        details = tuple(
            (rid, self.catalog.table(statement.table).get(rid)) for rid, _ in updates
        )
        self._publish(ChangeEvent("update", statement.table, len(updates), details))
        return _status_result(f"updated {len(updates)}")

    def _execute_delete(self, statement: nodes.Delete) -> QueryResult:
        table = self.catalog.table(statement.table)
        schema = table.schema
        output = tuple(
            OutputCol(column.name, schema.name) for column in schema.columns
        )
        executor = Executor(self.catalog)
        where = (
            compile_expr(statement.where, output, executor)
            if statement.where is not None
            else None
        )
        victims: list[int] = []
        for row_id, row in table.scan_with_ids():
            if where is not None:
                verdict = where(row)
                if verdict is None or verdict is False or verdict == 0:
                    continue
            victims.append(row_id)
        for row_id in victims:
            self.catalog.delete_row(statement.table, row_id)
        details = tuple((rid, None) for rid in victims)
        self._publish(ChangeEvent("delete", statement.table, len(victims), details))
        return _status_result(f"deleted {len(victims)}")


def _release_wal(wal, tmp_dir: str | None) -> None:
    """GC finalizer: close the log, reclaim an auto-provisioned temp dir."""
    try:
        wal.close()
    except Exception:
        pass
    if tmp_dir is not None:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _status_result(message: str) -> QueryResult:
    return QueryResult(columns=["status"], rows=[(message,)])


def _references_information_schema(statement: nodes.Select) -> bool:
    def ref_tables(ref: nodes.TableRef | None) -> list[str]:
        if ref is None:
            return []
        if isinstance(ref, nodes.TableName):
            return [ref.name]
        if isinstance(ref, nodes.SubqueryRef):
            return collect(ref.select)
        if isinstance(ref, nodes.Join):
            found = ref_tables(ref.left) + ref_tables(ref.right)
            if ref.condition is not None:
                for subquery in _subqueries_in([ref.condition]):
                    found.extend(collect(subquery))
            return found
        return []

    def collect(select: nodes.Select) -> list[str]:
        found = ref_tables(select.from_clause)
        for expr_source in _subquery_expressions(select):
            found.extend(collect(expr_source))
        return found

    return any(info_schema.is_information_schema(name) for name in collect(statement))


def _subquery_expressions(select: nodes.Select) -> list[nodes.Select]:
    """All subquery ASTs appearing in expressions of ``select`` (outside
    its FROM clause)."""
    sources: list[nodes.Expr] = [item.expr for item in select.items]
    if select.where is not None:
        sources.append(select.where)
    if select.having is not None:
        sources.append(select.having)
    sources.extend(select.group_by)
    sources.extend(order.expr for order in select.order_by)
    return _subqueries_in(sources)


def _subqueries_in(exprs: list[nodes.Expr]) -> list[nodes.Select]:
    """The subquery ASTs nested in ``exprs`` (not descending into them)."""
    out: list[nodes.Select] = []
    for expr in exprs:
        for node in nodes.walk(expr):
            if isinstance(node, (nodes.InSubquery, nodes.ScalarSubquery, nodes.Exists)):
                out.append(node.subquery)
    return out
