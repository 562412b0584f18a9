"""Answer checking against an unsharded, serial, row-engine database."""

from __future__ import annotations

import math

from repro.db import Database
from repro.sql import nodes
from repro.sql.parser import parse_statement

#: Float tolerance: scatter-gather merges partial sums in another order,
#: so equal answers may differ in the last bits.
REL_TOL = 1e-9
ABS_TOL = 1e-9


class Oracle:
    """Expected answers from ``Database.execute(sql, engine="row")``.

    Answers are cached per SQL text until :meth:`apply` moves the
    database to its next data version.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._cache: dict[str, tuple] = {}

    def expected(self, sql: str) -> tuple:
        """``("rows", rows, ordered)`` or ``("error", message)``."""
        answer = self._cache.get(sql)
        if answer is None:
            try:
                result = self.db.execute(sql, engine="row")
            except Exception as exc:  # the system must fail alike
                answer = ("error", f"{type(exc).__name__}: {exc}")
            else:
                answer = ("rows", result.rows, _is_ordered(sql))
            self._cache[sql] = answer
        return answer

    def apply(self, table: str, rows: list[tuple]) -> None:
        """Apply one write; later answers see the new version."""
        self.db.insert_rows(table, rows)
        self._cache.clear()


def outcome_correct(outcome, expected: tuple) -> bool:
    """Does one query outcome agree with the oracle's answer?

    ``error`` must match an oracle error; ``approximate`` is checked for
    status only; ``pruned`` and ``terminated`` are explicit non-answers;
    ``ok`` and ``from_history`` must return the oracle's rows (in order
    when the query orders them, as a multiset otherwise).
    """
    if expected[0] == "error":
        return outcome.status == "error"
    if outcome.status in ("approximate", "pruned", "terminated"):
        return True
    if outcome.status not in ("ok", "from_history") or outcome.result is None:
        return False
    _, rows, ordered = expected
    return rows_equal(outcome.result.rows, rows, ordered)


def rows_equal(got: list, want: list, ordered: bool) -> bool:
    if len(got) != len(want):
        return False
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    return all(_row_equal(a, b) for a, b in zip(got, want))


def _row_equal(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            if x is None or y is None:
                return False
            if not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
        elif x != y:
            return False
    return True


def _sort_key(row: tuple) -> tuple:
    # Round floats so last-bit differences cannot reorder the multiset.
    return tuple(
        (0, "") if value is None
        else (1, round(value, 6)) if isinstance(value, (int, float))
        else (2, str(value))
        for value in row
    )


def _is_ordered(sql: str) -> bool:
    try:
        statement = parse_statement(sql)
    except Exception:
        return False
    return isinstance(statement, nodes.Select) and bool(statement.order_by)
