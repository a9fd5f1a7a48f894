"""Property-based tests for the SQL engine (hypothesis).

Each example loads random relations into :class:`SqliteDatabase` and checks
a law of relational algebra on the SQL it runs. Column ``i`` is the row's
position, so a selection's result can be compared in input order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import DataType, Database, SqliteDatabase, table_schema

_COLUMNS = [
    ("i", DataType.INTEGER),
    ("k", DataType.INTEGER),
    ("s", DataType.TEXT),
    ("v", DataType.INTEGER),
]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def relations(draw, min_rows=0, max_rows=12):
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    return [
        (draw(st.integers(min_value=0, max_value=9)),
         draw(st.text(alphabet="abc", max_size=3)),
         draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5))))
        for _ in range(n_rows)
    ]


predicates = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda n: f"k = {n}"),
    st.integers(min_value=0, max_value=9).map(lambda n: f"k < {n}"),
    st.integers(min_value=0, max_value=5).map(lambda n: f"v >= {n}"),
    st.text(alphabet="abc", min_size=1, max_size=2).map(
        lambda s: f"s LIKE '%{s}%'"
    ),
)


def _relation(name, rows):
    """Table ``name`` of ``(i, k, s, v)`` rows, ``i`` the row's position."""
    return name, _COLUMNS, [(i, *row) for i, row in enumerate(rows)]


def _engine(*tables) -> SqliteDatabase:
    """Load each ``(name, columns, rows)`` table into one engine."""
    database = Database("props")
    for name, columns, rows in tables:
        database.create_table(table_schema(name, columns))
        database.insert_many(name, rows)
    return SqliteDatabase(database)


def _rows(relation, sql):
    with _engine(_relation("t", relation)) as engine:
        return engine.execute(sql).rows


# ----------------------------------------------------------------------
# Selection laws
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(relations(), predicates, predicates)
def test_selection_commutes(relation, p, q):
    with _engine(_relation("t", relation)) as engine:
        left = engine.execute(
            f"SELECT * FROM (SELECT * FROM t WHERE {p}) WHERE {q} ORDER BY i"
        )
        right = engine.execute(
            f"SELECT * FROM (SELECT * FROM t WHERE {q}) WHERE {p} ORDER BY i"
        )
    assert left.rows == right.rows


@settings(max_examples=60, deadline=None)
@given(relations(), predicates, predicates)
def test_selection_cascade_equals_conjunction(relation, p, q):
    with _engine(_relation("t", relation)) as engine:
        cascaded = engine.execute(
            f"SELECT * FROM (SELECT * FROM t WHERE {p}) WHERE {q} ORDER BY i"
        )
        conjoined = engine.execute(
            f"SELECT * FROM t WHERE ({p}) AND ({q}) ORDER BY i"
        )
    assert cascaded.rows == conjoined.rows


@settings(max_examples=60, deadline=None)
@given(relations(), predicates)
def test_selection_idempotent(relation, p):
    with _engine(_relation("t", relation)) as engine:
        once = engine.execute(f"SELECT * FROM t WHERE {p} ORDER BY i")
        twice = engine.execute(
            f"SELECT * FROM (SELECT * FROM t WHERE {p}) WHERE {p} ORDER BY i"
        )
    assert once.rows == twice.rows


@settings(max_examples=60, deadline=None)
@given(relations(), predicates)
def test_selection_shrinks(relation, p):
    assert len(_rows(relation, f"SELECT * FROM t WHERE {p}")) <= len(relation)


# ----------------------------------------------------------------------
# Distinct / order laws
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(relations())
def test_distinct_idempotent(relation):
    with _engine(_relation("t", relation)) as engine:
        once = engine.execute(
            "SELECT DISTINCT k, s, v FROM t ORDER BY k, s, v"
        ).rows
        twice = engine.execute(
            "SELECT DISTINCT * FROM (SELECT DISTINCT k, s, v FROM t) "
            "ORDER BY k, s, v"
        ).rows
    assert twice == once
    assert len(set(once)) == len(once)


@settings(max_examples=60, deadline=None)
@given(relations())
def test_order_by_preserves_multiset(relation):
    ordered = _rows(relation, "SELECT k, s, v FROM t ORDER BY k")
    assert sorted(map(repr, ordered)) == sorted(map(repr, relation))


@settings(max_examples=60, deadline=None)
@given(relations())
def test_order_by_sorts(relation):
    ordered = _rows(relation, "SELECT k, s, v FROM t ORDER BY k")
    keys = [row[0] for row in ordered]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Join laws
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(relations(max_rows=8), relations(max_rows=8))
def test_join_symmetric_up_to_column_order(left, right):
    with _engine(_relation("t", left), _relation("u", right)) as engine:
        ab = engine.execute(
            "SELECT t.k, t.s, t.v, u.k, u.s, u.v FROM t JOIN u ON t.k = u.k"
        ).rows
        ba = engine.execute(
            "SELECT u.k, u.s, u.v, t.k, t.s, t.v FROM u JOIN t ON u.k = t.k"
        ).rows
    # Same multiset of (left-row, right-row) pairs.
    pairs_ab = sorted(repr((row[:3], row[3:])) for row in ab)
    pairs_ba = sorted(repr((row[3:], row[:3])) for row in ba)
    assert pairs_ab == pairs_ba


@settings(max_examples=40, deadline=None)
@given(relations(max_rows=8), relations(max_rows=8))
def test_join_size_bounded_by_product(left, right):
    with _engine(_relation("t", left), _relation("u", right)) as engine:
        joined = engine.execute("SELECT * FROM t JOIN u ON t.k = u.k").rows
    assert len(joined) <= len(left) * len(right)


@settings(max_examples=40, deadline=None)
@given(relations(max_rows=8), predicates)
def test_selection_pushes_through_join(left, p):
    """σ_p(R ⋈ S) == σ_p(R) ⋈ S when p references only R's columns."""
    keys = ("w", [("k2", DataType.INTEGER)], [(i,) for i in range(5)])
    with _engine(_relation("t", left), keys) as engine:
        filtered_after = engine.execute(
            f"SELECT * FROM t JOIN w ON t.k = w.k2 WHERE {p}"
        ).rows
        filtered_before = engine.execute(
            f"SELECT * FROM (SELECT * FROM t WHERE {p}) AS t "
            "JOIN w ON t.k = w.k2"
        ).rows
    assert sorted(map(repr, filtered_after)) == sorted(
        map(repr, filtered_before)
    )
