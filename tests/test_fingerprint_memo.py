"""Memoized fingerprints must be byte-identical to the per-call path.

The one-pass bottom-up memoization in :mod:`repro.plan.fingerprint` is a
pure performance layer: for every subtree of every plan, both digests
(strict and lenient) and the enumeration used by Figure 2's census must
equal what the original per-call computation produces — including for
plans with shadowed binding names, where the memoizer must fall back.

Digests are Merkle-style (each node hashes its local content plus its
children's digests). A frozen copy of the earlier canonicaliser, which
embedded every child's full canonical tuple, pins that the change kept
the partition: exactly the same plans share a digest under both.
"""

from __future__ import annotations

from repro.db import Database
from repro.plan import logical
from repro.plan.builder import build_plan
from repro.plan.fingerprint import (
    FINGERPRINT_STATS,
    _binding_map,
    _canonical_expr,
    _canonical_predicate,
    _stable_sorted,
    _subexpressions_uncached,
    fingerprint,
    fingerprint_uncached,
    fingerprints,
    subexpressions,
)
from repro.plan.rules import optimize_plan
from repro.sql.parser import parse_statement
from repro.util.hashing import stable_hash

#: A corpus exercising every operator the canonicaliser handles: scans,
#: filters, projections, hash and nested-loop joins, aggregation, sorting,
#: limits, DISTINCT, subquery scans, IN lists, CASE, and equivalence pairs
#: (alias erasure, commuted operands, permuted projections).
CORPUS = [
    "SELECT city FROM stores",
    "SELECT city, state FROM stores",
    "SELECT state, city FROM stores",
    "SELECT * FROM stores WHERE state = 'California' AND id > 1",
    "SELECT * FROM stores WHERE id > 1 AND 'California' = state",
    "SELECT COUNT(*) FROM sales WHERE store_id = 2",
    "SELECT COUNT(*), SUM(amount) FROM sales WHERE amount > 10.0",
    "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
    " ON s.id = x.store_id GROUP BY s.city",
    "SELECT st.city, SUM(sa.amount) FROM stores st JOIN sales sa"
    " ON st.id = sa.store_id GROUP BY st.city",
    "SELECT DISTINCT product FROM sales",
    "SELECT product, AVG(amount) FROM sales GROUP BY product"
    " ORDER BY product DESC LIMIT 2",
    "SELECT city FROM stores WHERE id IN (1, 2, 3) OR state = 'Texas'",
    "SELECT CASE WHEN amount > 20 THEN 'big' ELSE 'small' END FROM sales",
    "SELECT t.id FROM (SELECT id, amount FROM sales WHERE amount > 1.0) t"
    " WHERE t.amount < 50.0",
    "SELECT s.city, x.product FROM stores s JOIN sales x ON s.id < x.id",
]


def build_db() -> Database:
    db = Database("fp-memo")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute(
        "CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)"
    )
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.insert_rows(
        "sales",
        [(i, 1 + i % 3, "coffee" if i % 2 else "tea", float(i % 9)) for i in range(40)],
    )
    return db


def fresh_plan(db: Database, sql: str) -> logical.PlanNode:
    """A newly built tree (``plan_select`` may hand back a cached one)."""
    return optimize_plan(build_plan(parse_statement(sql), db.catalog), db.catalog)


class TestMemoizedDigestsMatchUncached:
    def test_every_subtree_both_strictness_levels(self):
        db = build_db()
        for sql in CORPUS:
            memoized_plan = db.plan_select(sql)
            rebuilt = fresh_plan(db, sql)  # never memoized as a tree
            for memo_node, fresh_node in zip(
                memoized_plan.walk(), rebuilt.walk()
            ):
                for strict in (False, True):
                    assert fingerprint(memo_node, strict=strict) == (
                        fingerprint_uncached(fresh_node, strict=strict)
                    ), (sql, type(memo_node).__name__, strict)

    def test_subexpression_enumeration_matches_legacy(self):
        db = build_db()
        for sql in CORPUS:
            plan = db.plan_select(sql)
            legacy = _subexpressions_uncached(fresh_plan(db, sql))
            memoized = subexpressions(plan)
            assert [
                (s.fingerprint, s.size, s.root_code) for s in memoized
            ] == [(s.fingerprint, s.size, s.root_code) for s in legacy], sql

    def test_size_matches_node_count(self):
        db = build_db()
        for sql in CORPUS:
            plan = db.plan_select(sql)
            for node in plan.walk():
                assert fingerprints(node).size == node.node_count()

    def test_accessor_on_plan_node(self):
        db = build_db()
        plan = db.plan_select(CORPUS[7])
        assert plan.fingerprints() is fingerprints(plan)

    def test_equivalence_pairs_still_collapse(self):
        """Memoization must not weaken the canonicalisation itself."""
        db = build_db()
        permuted_a = db.plan_select("SELECT city, state FROM stores")
        permuted_b = db.plan_select("SELECT state, city FROM stores")
        assert fingerprint(permuted_a) == fingerprint(permuted_b)
        assert fingerprint(permuted_a, strict=True) != fingerprint(
            permuted_b, strict=True
        )
        aliased_a = db.plan_select(
            "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
            " ON s.id = x.store_id GROUP BY s.city"
        )
        aliased_b = db.plan_select(
            "SELECT st.city, SUM(sa.amount) FROM stores st JOIN sales sa"
            " ON st.id = sa.store_id GROUP BY st.city"
        )
        assert fingerprint(aliased_a) == fingerprint(aliased_b)


class TestMemoizationMechanics:
    def test_one_pass_then_lookups(self):
        db = build_db()
        plan = db.plan_select(CORPUS[7])
        FINGERPRINT_STATS.reset()
        fingerprint(plan, strict=True)
        after_first = FINGERPRINT_STATS.nodes_canonicalised
        assert after_first > 0
        # Every further call — root or descendant, either strictness — is
        # a cached lookup: no node is ever canonicalised again.
        for node in plan.walk():
            fingerprint(node, strict=False)
            fingerprint(node, strict=True)
        assert FINGERPRINT_STATS.nodes_canonicalised == after_first
        assert FINGERPRINT_STATS.memo_hits > 0

    def test_shared_subtrees_memoize_once_per_object(self):
        db = build_db()
        plan = db.plan_select(CORPUS[7])
        fingerprint(plan)
        FINGERPRINT_STATS.reset()
        fingerprints(plan.children()[0])  # descendant: already memoized
        assert FINGERPRINT_STATS.nodes_canonicalised == 0

    def test_shadowed_alias_falls_back_to_uncached_path(self):
        """A subquery alias that shadows an inner binding makes subtree
        binding maps diverge; the memoizer must detect it and still return
        the per-call digests."""
        db = build_db()
        sql = "SELECT t.id FROM (SELECT id FROM sales t) t WHERE t.id > 1"
        before = FINGERPRINT_STATS.shadowed_fallbacks
        plan = db.plan_select(sql)
        fresh = fresh_plan(db, sql)
        assert fingerprint(plan) == fingerprint_uncached(fresh)
        assert fingerprint(plan, strict=True) == fingerprint_uncached(
            fresh, strict=True
        )
        assert FINGERPRINT_STATS.shadowed_fallbacks > before
        legacy = _subexpressions_uncached(fresh_plan(db, sql))
        assert [
            (s.fingerprint, s.size) for s in subexpressions(plan)
        ] == [(s.fingerprint, s.size) for s in legacy]


# -- partition: Merkle digests vs embedded canonical tuples --------------------

#: The scheduler corpus: the swarm-wide join plus the per-agent filter,
#: aggregate and group-by families its differential and bench suites send.
SCHEDULER_CORPUS = (
    [
        "SELECT s.city, SUM(x.amount) FROM stores s JOIN sales x"
        " ON s.id = x.store_id GROUP BY s.city"
    ]
    + [f"SELECT COUNT(*) FROM sales WHERE store_id = {k}" for k in (1, 2)]
    + [f"SELECT COUNT(*), SUM(amount) FROM sales WHERE store_id = {k}" for k in (1, 2, 3, 4)]
    + [
        f"SELECT COUNT(*), SUM(amount), MIN(amount) FROM sales WHERE amount > {t}.0"
        for t in (0, 6, 12, 42)
    ]
    + [
        f"SELECT product, COUNT(*) FROM sales WHERE store_id = {k} GROUP BY product"
        for k in (1, 2, 3, 4)
    ]
)

#: Extra equivalence pairs for the partition check: commuted join sides,
#: flipped inequalities, and a shadowed binding.
PARTITION_EXTRAS = [
    "SELECT x.product, s.city FROM sales x JOIN stores s ON x.store_id = s.id",
    "SELECT s.city, x.product FROM stores s JOIN sales x ON s.id = x.store_id",
    "SELECT city FROM stores WHERE 1 < id",
    "SELECT city FROM stores WHERE id > 1",
    "SELECT COUNT(*) FROM stores a JOIN sales b ON a.id < b.store_id",
    "SELECT COUNT(*) FROM sales b JOIN stores a ON a.id < b.store_id",
    "SELECT t.id FROM (SELECT id FROM sales t) t WHERE t.id > 1",
]


def legacy_canonical(node: logical.PlanNode, bindings: dict, strict: bool) -> tuple:
    """Frozen copy of the earlier node canonicaliser: every node's tuple
    embeds its children's full canonical tuples (not their digests)."""
    kids = tuple(legacy_canonical(child, bindings, strict) for child in node.children())
    if isinstance(node, logical.Scan):
        columns = [c.lower() for c in node.columns]
        if not strict:
            columns = sorted(columns)
        return ("scan", node.table.lower(), tuple(columns))
    if isinstance(node, logical.IndexScan):
        index_columns = [c.lower() for c in node.columns]
        if not strict:
            index_columns = sorted(index_columns)
        base = (
            "indexscan", node.table.lower(), tuple(index_columns),
            node.index_column.lower(), node.equal_value, node.low, node.high,
            node.low_inclusive, node.high_inclusive, node.is_equality,
        )
        return base + ("rid-order",) if node.row_id_order else base
    if isinstance(node, logical.ViewScan):
        return ("viewscan", node.source_strict, node.build_id, node.projection)
    if isinstance(node, logical.OneRow):
        return ("onerow",)
    if isinstance(node, logical.SubqueryScan):
        return ("subquery", node.alias.lower(), kids[0])
    if isinstance(node, logical.Filter):
        return ("filter", _canonical_predicate(node.predicate, bindings, node.child), kids[0])
    if isinstance(node, logical.Project):
        exprs = [_canonical_expr(expr, bindings, node.child) for expr in node.exprs]
        if not strict:
            exprs = _stable_sorted(exprs)
        return ("project", tuple(exprs), kids[0])
    if isinstance(node, logical.HashJoin):
        left, right = kids
        pairs = [
            (_canonical_expr(l, bindings, node.left), _canonical_expr(r, bindings, node.right))
            for l, r in zip(node.left_keys, node.right_keys)
        ]
        residual = (
            None if node.residual is None
            else _canonical_predicate(node.residual, bindings, node)
        )
        if node.kind == "INNER" and not strict:
            left_side = (left, tuple(_stable_sorted(p[0] for p in pairs)))
            right_side = (right, tuple(_stable_sorted(p[1] for p in pairs)))
            sides = _stable_sorted([left_side, right_side])
            key_set = tuple(_stable_sorted(tuple(_stable_sorted(p)) for p in pairs))
            return ("hashjoin", "INNER", sides[0], sides[1], key_set, residual)
        return ("hashjoin", node.kind, left, right, tuple(_stable_sorted(pairs)), residual)
    if isinstance(node, logical.NestedLoopJoin):
        condition = (
            None if node.condition is None
            else _canonical_predicate(node.condition, bindings, node)
        )
        left, right = kids
        if node.kind in ("INNER", "CROSS") and not strict:
            first, second = _stable_sorted([left, right])
            return ("nljoin", node.kind, first, second, condition)
        return ("nljoin", node.kind, left, right, condition)
    if isinstance(node, logical.Aggregate):
        group_list = [_canonical_expr(e, bindings, node.child) for e in node.group_exprs]
        agg_list = [_canonical_expr(a, bindings, node.child) for a in node.agg_calls]
        if not strict:
            group_list = _stable_sorted(group_list)
            agg_list = _stable_sorted(agg_list)
        return ("aggregate", tuple(group_list), tuple(agg_list), kids[0])
    if isinstance(node, logical.Sort):
        keys = tuple(
            (_canonical_expr(expr, bindings, node.child), asc) for expr, asc in node.keys
        )
        return ("sort", keys, kids[0])
    if isinstance(node, logical.Limit):
        return ("limit", node.limit, node.offset, kids[0])
    if isinstance(node, logical.Distinct):
        return ("distinct", kids[0])
    raise TypeError(type(node).__name__)


def class_labels(digests: list[str]) -> list[int]:
    """Each item's first index among equal items: equal label lists mean
    the same partition into digest classes."""
    first: dict[str, int] = {}
    return [first.setdefault(d, i) for i, d in enumerate(digests)]


class TestDigestPartitionUnchanged:
    def test_same_plans_share_a_digest_as_before(self):
        for db in (build_db(), build_scheduler_db()):
            nodes = [
                node
                for sql in CORPUS + SCHEDULER_CORPUS + PARTITION_EXTRAS
                for node in fresh_plan(db, sql).walk()
            ]
            for strict in (False, True):
                legacy = [
                    stable_hash(legacy_canonical(node, _binding_map(node), strict))
                    for node in nodes
                ]
                merkle = [fingerprint(node, strict=strict) for node in nodes]
                assert class_labels(merkle) == class_labels(legacy), strict
                # The corpus really exercises sharing, not just distinctness.
                assert len(set(legacy)) < len(legacy)

    def test_lenient_classes_merge_equivalent_queries(self):
        db = build_db()
        for first in (0, 2, 4):
            a, b = (fresh_plan(db, sql) for sql in PARTITION_EXTRAS[first : first + 2])
            assert fingerprint(a) == fingerprint(b), PARTITION_EXTRAS[first]
        a, b = (fresh_plan(db, sql) for sql in PARTITION_EXTRAS[:2])
        assert fingerprint(a, strict=True) != fingerprint(b, strict=True)


def build_scheduler_db() -> Database:
    """The scheduler suite's shape: the same tables, a much larger fact
    table (so the optimizer picks other build sides)."""
    db = Database("fp-sched")
    db.execute("CREATE TABLE stores (id INT PRIMARY KEY, city TEXT, state TEXT)")
    db.execute("CREATE TABLE sales (id INT, store_id INT, product TEXT, amount FLOAT)")
    db.execute(
        "INSERT INTO stores VALUES (1,'Berkeley','California'),"
        "(2,'Oakland','California'),(3,'Seattle','Washington')"
    )
    db.insert_rows(
        "sales",
        [(i, 1 + i % 3, "coffee" if i % 2 else "tea", float(i % 40)) for i in range(900)],
    )
    return db
