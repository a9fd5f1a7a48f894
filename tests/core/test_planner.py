"""Unit tests for the planning + reuse execution engine.

Covers the statistics layer, the secondary indexes, set-at-a-time
candidate evaluation, plan construction (order, cost estimates, explain
text), and the prefix store. Integration-level equivalence against the
reference matcher lives in tests/integration/test_planner_equivalence.py.
"""

import sys
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import TgmError
from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
    conjoin_conditions,
)
from repro.tgm.graph_relation import GraphAttribute, GraphRelation
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import EdgeTypeCategory, NodeType, SchemaGraph
from repro.core.cache import CachingExecutor
from repro.core.matching import match
from repro.core.operators import add, initiate, select, shift
from repro.core.planner import (
    DeltaPlanner,
    PrefixStore,
    build_plan,
    candidate_ids,
    classify_delta,
    estimate_delta_cost,
    estimate_replan_cost,
    estimate_selectivity,
    execute_delta,
    find_cached_base,
    reduce_plan,
    restore_reference_order,
    subpattern_key,
)
from repro.core.transform import execute_pattern, transform


# ----------------------------------------------------------------------
# Statistics layer
# ----------------------------------------------------------------------
class TestGraphStatistics:
    def test_type_cardinalities(self, toy):
        stats = toy.graph.statistics()
        assert stats.cardinality("Papers") == len(
            toy.graph.node_ids_of_type("Papers")
        )
        assert stats.cardinality("NoSuchType") == 0

    def test_edge_degree_histogram(self, toy):
        stats = toy.graph.statistics()
        edge_stats = stats.edge_type_stats("Conferences->Papers")
        assert edge_stats.pairs > 0
        assert edge_stats.sources > 0
        assert edge_stats.max_degree >= 1
        assert sum(edge_stats.histogram.values()) == edge_stats.sources
        assert sum(
            degree * count for degree, count in edge_stats.histogram.items()
        ) == edge_stats.pairs

    def test_avg_fanout_counts_zero_degree_nodes(self, toy):
        stats = toy.graph.statistics()
        fanout = stats.avg_fanout("Conferences->Papers", "Conferences")
        assert fanout == pytest.approx(
            stats.edge_type_stats("Conferences->Papers").pairs
            / stats.cardinality("Conferences")
        )

    def test_distinct_count(self, toy):
        stats = toy.graph.statistics()
        years = {
            node.attributes.get("year")
            for node in toy.graph.nodes_of_type("Papers")
            if node.attributes.get("year") is not None
        }
        assert stats.distinct_count("Papers", "year") == len(years)

    def test_statistics_object_is_cached(self, toy):
        assert toy.graph.statistics() is toy.graph.statistics()


class TestSecondaryIndexes:
    def test_attribute_index_buckets_hold_their_value(self, toy):
        index = toy.graph.attribute_index("Papers", "year")
        for year, ids in index.items():
            for node_id in ids:
                assert toy.graph.node(node_id).attributes["year"] == year

    def test_index_bucket_order_is_insertion_order(self, toy):
        index = toy.graph.attribute_index("Papers", "year")
        by_type = toy.graph.node_ids_of_type("Papers")
        rank = {node_id: i for i, node_id in enumerate(by_type)}
        for ids in index.values():
            assert ids == sorted(ids, key=rank.__getitem__)

    def test_find_by_label_uses_index_and_matches_scan(self, toy):
        label_attr = toy.schema.node_type("Papers").label_attribute
        some = toy.graph.nodes_of_type("Papers")[2]
        found = toy.graph.find_by_label("Papers", some.attributes[label_attr])
        scan = next(
            node
            for node in toy.graph.nodes_of_type("Papers")
            if node.attributes.get(label_attr) == some.attributes[label_attr]
        )
        assert found is not None and found.node_id == scan.node_id

    def test_find_by_label_missing(self, toy):
        assert toy.graph.find_by_label("Papers", "no such title") is None

    def test_find_by_label_null_probe_scans(self):
        """The index omits NULLs; a None probe keeps the legacy scan
        semantics (first node whose label attribute is missing)."""
        from repro.tgm.instance_graph import InstanceGraph
        from repro.tgm.schema_graph import NodeType, SchemaGraph

        schema = SchemaGraph()
        schema.add_node_type(NodeType("T", ("name",), "name"))
        graph = InstanceGraph(schema)
        graph.add_node("T", {"name": "a"})
        unlabeled = graph.add_node("T", {})
        found = graph.find_by_label("T", None)
        assert found is not None and found.node_id == unlabeled.node_id


# ----------------------------------------------------------------------
# Selectivity estimation and candidate enumeration
# ----------------------------------------------------------------------
class TestEstimation:
    def test_equality_uses_exact_bucket_sizes(self, toy):
        """Per-bucket refinement: equality selectivity is the exact
        attribute-index bucket fraction, not the 1/distinct average."""
        stats = toy.graph.statistics()
        graph = toy.graph
        bucket = len(graph.attribute_index("Papers", "year").get(2012, ()))
        selectivity = estimate_selectivity(
            AttributeCompare("year", "=", 2012), "Papers", stats
        )
        assert selectivity == pytest.approx(
            bucket / stats.cardinality("Papers")
        )

    def test_equality_is_exact_under_skew(self):
        """A 90/10 skewed categorical estimates each value exactly."""
        from repro.tgm.instance_graph import InstanceGraph
        from repro.tgm.schema_graph import NodeType, SchemaGraph

        schema = SchemaGraph()
        schema.add_node_type(NodeType("T", ("kind",), "kind"))
        graph = InstanceGraph(schema)
        for index in range(100):
            graph.add_node("T", {"kind": "common" if index < 90 else "rare"})
        stats = graph.statistics()
        common = estimate_selectivity(
            AttributeCompare("kind", "=", "common"), "T", stats
        )
        rare = estimate_selectivity(
            AttributeCompare("kind", "=", "rare"), "T", stats
        )
        missing = estimate_selectivity(
            AttributeCompare("kind", "=", "nope"), "T", stats
        )
        assert common == pytest.approx(0.9)
        assert rare == pytest.approx(0.1)
        assert missing == 0.0
        # The old uniform average would have said 0.5 for both.
        assert stats.distinct_count("T", "kind") == 2

    def test_attribute_in_sums_exact_buckets(self, toy):
        stats = toy.graph.statistics()
        graph = toy.graph
        index = graph.attribute_index("Papers", "year")
        expected = (
            len(index.get(2011, ())) + len(index.get(2012, ()))
        ) / stats.cardinality("Papers")
        selectivity = estimate_selectivity(
            AttributeIn("year", (2011, 2012)), "Papers", stats
        )
        assert selectivity == pytest.approx(min(1.0, expected))

    def test_neighbor_selectivity_uses_degree_histogram(self, toy):
        """NeighborSatisfies estimates P(≥1 matching neighbor) over the
        exact degree histogram instead of min(1, avg_degree × s)."""
        stats = toy.graph.statistics()
        edge_stats = stats.edge_type_stats("Papers->Authors")
        inner = AttributeLike("name", "%a%")
        inner_selectivity = estimate_selectivity(inner, "Authors", stats)
        expected_match = 1.0 - sum(
            count * (1.0 - inner_selectivity) ** degree
            for degree, count in edge_stats.histogram.items()
        ) / edge_stats.sources
        participation = min(
            1.0, edge_stats.sources / stats.cardinality("Papers")
        )
        selectivity = estimate_selectivity(
            NeighborSatisfies("Papers->Authors", inner), "Papers", stats
        )
        assert selectivity == pytest.approx(participation * expected_match)
        assert 0.0 <= selectivity <= 1.0

    def test_neighbor_match_probability_bounds(self, toy):
        stats = toy.graph.statistics()
        assert stats.neighbor_match_probability("Papers->Authors", 0.0) == 0.0
        assert stats.neighbor_match_probability(
            "Papers->Authors", 1.0
        ) == pytest.approx(1.0)
        assert stats.neighbor_match_probability("NoSuchEdge", 0.5) == 0.0

    def test_identity_is_sharpest(self, toy):
        stats = toy.graph.statistics()
        node = toy.graph.nodes_of_type("Papers")[0]
        identity = estimate_selectivity(NodeIs(node.node_id), "Papers", stats)
        like = estimate_selectivity(AttributeLike("title", "%a%"), "Papers", stats)
        assert identity <= like

    def test_conjunction_multiplies(self, toy):
        stats = toy.graph.statistics()
        a = AttributeCompare("year", "=", 2012)
        b = AttributeLike("title", "%a%")
        both = conjoin_conditions([a, b])
        assert estimate_selectivity(both, "Papers", stats) == pytest.approx(
            estimate_selectivity(a, "Papers", stats)
            * estimate_selectivity(b, "Papers", stats)
        )



# ----------------------------------------------------------------------
# Set-at-a-time candidate evaluation
# ----------------------------------------------------------------------
def _mixed_graph():
    """A graph whose ``T`` label attribute holds values the attribute
    index merges (``1``, ``1.0``, ``True``), skips (a list, ``None``) or
    keeps apart (the string ``"1.0"``)."""
    schema = SchemaGraph()
    schema.add_node_type(NodeType("T", ("value",), "value"))
    schema.add_node_type(NodeType("U", ("name",), "name"))
    many = EdgeTypeCategory.MANY_TO_MANY
    schema.add_edge_type_pair("T->U", "U->T", "T", "U", many)
    schema.add_edge_type("T=>U", "T", "U", many)  # no reverse twin
    graph = InstanceGraph(schema)
    ts = [
        graph.add_node("T", {"value": value}).node_id
        for value in (1, 1.0, True, [1, 2], None, "1.0")
    ]
    alpha, beta = (
        graph.add_node("U", {"name": name}).node_id
        for name in ("alpha", "beta")
    )
    for t, u in ((ts[0], alpha), (ts[3], beta), (ts[5], alpha)):
        graph.add_edge("T->U", t, u)
    for t, u in ((ts[1], alpha), (ts[4], beta), (ts[5], beta)):
        graph.add_edge("T=>U", t, u)
    return graph


def _nth(graph, type_name, index):
    return graph.node_ids_of_type(type_name)[index]


def _text_graph(values):
    """One node of type ``T`` per value of its label attribute ``value``."""
    schema = SchemaGraph()
    schema.add_node_type(NodeType("T", ("value",), "value"))
    graph = InstanceGraph(schema)
    for value in values:
        graph.add_node("T", {"value": value})
    return graph


# Strings that re.IGNORECASE matches unlike their lowercase forms ('ſ'
# matches 's', 'İ' and 'ı' match 'i', the Kelvin sign matches 'k', and 'ß'
# does not match 'ss'), an all-caps one and one with a newline, which '_'
# crosses (DOTALL).
_UNICODE_VALUES = ("\u017ftream", "\u0130st", "\u0131st", "\u212aelvin",
                   "\u00dfi", "STREAM", "data\nbase")


def _unicode_graph():
    return _text_graph(_UNICODE_VALUES)


# (graph, type, condition built over that graph)
_CANDIDATE_CASES = {
    "equality-probe": (
        "toy", "Papers", lambda g: AttributeCompare("year", "=", 2012)),
    "identity-probe-checks-type": (
        "toy", "Papers",
        lambda g: NodeIn([_nth(g, "Papers", 0), _nth(g, "Conferences", 0)])),
    "attribute-in-probe": (
        "toy", "Papers", lambda g: AttributeIn("year", (2011, 2012))),
    "like-float-suffix": (
        "mixed", "T", lambda g: AttributeLike("value", "%.0")),
    "like-true": ("mixed", "T", lambda g: AttributeLike("value", "True")),
    "like-list": ("mixed", "T", lambda g: AttributeLike("value", "[%")),
    "not-like": (
        "mixed", "T", lambda g: AttributeLike("value", "1%", negate=True)),
    "not-equal": ("mixed", "T", lambda g: AttributeCompare("value", "!=", 5)),
    "not-of-equality": (
        "mixed", "T",
        lambda g: NotCondition(AttributeCompare("value", "=", 1))),
    "less-than-other-type": (
        "mixed", "T", lambda g: AttributeCompare("value", "<", "a")),
    "equal-unhashable": (
        "mixed", "T", lambda g: AttributeCompare("value", "=", [1, 2])),
    "in-merged-bucket": ("mixed", "T", lambda g: AttributeIn("value", (1,))),
    "in-unhashable": (
        "mixed", "T", lambda g: AttributeIn("value", ([1, 2], "1.0"))),
    "node-is-other-type": ("mixed", "T", lambda g: NodeIs(_nth(g, "U", 0))),
    "node-in-absent-id": (
        "mixed", "T", lambda g: NodeIn([_nth(g, "T", 2), 10_000])),
    "neighbor-edge-leaves-other-type": (
        "mixed", "T", lambda g: NeighborSatisfies("U->T", LabelLike("%"))),
    "neighbor-reverse-twin": (
        "mixed", "T",
        lambda g: NeighborSatisfies("T->U", AttributeLike("name", "a%"))),
    "neighbor-no-twin": (
        "mixed", "T", lambda g: NeighborSatisfies("T=>U", LabelLike("b%"))),
    "label-like": ("mixed", "T", lambda g: LabelLike("1%")),
    "nested-and-or-not": (
        "mixed", "T",
        lambda g: AndCondition((
            OrCondition((LabelLike("%.0"), AttributeLike("value", "[%"))),
            NotCondition(AttributeCompare("value", "=", "1.0")),
        ))),
    "empty-and": ("mixed", "T", lambda g: AndCondition(())),
    "empty-or": ("mixed", "T", lambda g: OrCondition(())),
    # Prefiltered LIKEs (a literal run of three or more ASCII characters).
    "like-long-s": ("unicode", "T", lambda g: AttributeLike("value", "%str%")),
    "like-dotted-and-dotless-i": (
        "unicode", "T", lambda g: AttributeLike("value", "%ist%")),
    "like-kelvin-sign": ("unicode", "T", lambda g: LabelLike("%kel%")),
    "like-sharp-s-unfolded": (
        "unicode", "T", lambda g: AttributeLike("value", "%ssi%")),
    "like-run-split-across-newline": (
        "unicode", "T", lambda g: AttributeLike("value", "%ata_bas%")),
    "not-like-prefiltered": (
        "unicode", "T",
        lambda g: AttributeLike("value", "%STR%", negate=True)),
    "like-absent-trigram": (
        "unicode", "T", lambda g: AttributeLike("value", "%strx%")),
}


# A pattern's choice of path: its literal ASCII runs of three or more
# characters, which '%', '_' and any non-ASCII character end.
_PATH_CASES = {
    "%ab%": False,
    "%a_bc%": False,
    "%st\u212ael%": False,
    "%ata_bas%": True,
    "abc": True,
    "%\u017fTREAM%": True,
}


# Random LIKE cases. Values are any text, text built from pieces that put
# the characters above next to ASCII letters (where a trigram can miss
# them), non-strings, a list and NULL. A pattern is a fragment of a value,
# often cut at a non-ASCII character, with its case changed or folded to
# the ASCII letters re.IGNORECASE matches, some characters turned to '_',
# and '%' or '_' put around or inside it.
_LIKE_PIECES = ("\u017ftr", "\u0130st", "\u0131st", "\u212ael", "\u00dfi",
                "STR", "data", "ba", "\n", " ")
_ASCII_FOLD = str.maketrans("\u017f\u0130\u0131\u212a", "siik")
_CASE_CHANGES = (lambda text: text.translate(_ASCII_FOLD),
                 str.upper, str.swapcase, str.lower, str)
_LIKE_VALUES = st.lists(
    st.one_of(st.lists(st.sampled_from(_LIKE_PIECES), min_size=1,
                       max_size=3).map("".join),
              st.text(max_size=8),
              st.sampled_from((1, 1.0, True, "1.0", [1, 2], None))),
    min_size=1, max_size=10)


@st.composite
def _like_cases(draw):
    values = draw(_LIKE_VALUES)
    texts = [value for value in values if isinstance(value, str)] or [""]
    text = draw(st.sampled_from(texts))
    folding = [i for i, char in enumerate(text) if not char.isascii()]
    start = draw(st.one_of(st.sampled_from(folding or [0]),
                           st.integers(0, len(text))))
    fragment = draw(st.sampled_from(_CASE_CHANGES))(
        text[start:start + draw(st.integers(3, 8))])
    blanks = draw(st.sets(st.integers(0, max(0, len(fragment) - 1)),
                          max_size=2))
    pattern = "".join("_" if i in blanks else char
                      for i, char in enumerate(fragment))
    inside = draw(st.integers(0, len(pattern)))
    pattern = (draw(st.sampled_from(("%", "", "_")))
               + pattern[:inside] + draw(st.sampled_from(("", "%")))
               + pattern[inside:] + draw(st.sampled_from(("%", "", "_"))))
    return values, pattern, draw(st.booleans())


class TestCandidateIds:
    @pytest.fixture(scope="class")
    def graphs(self, toy):
        return {"toy": toy.graph, "mixed": _mixed_graph(),
                "unicode": _unicode_graph()}

    @pytest.mark.parametrize("case", sorted(_CANDIDATE_CASES))
    def test_equals_matching_nodes_in_type_order(self, graphs, case):
        """The set evaluator agrees with ``Condition.matches``, the spec."""
        graph_name, type_name, build = _CANDIDATE_CASES[case]
        graph = graphs[graph_name]
        condition = build(graph)
        expected = [
            node.node_id
            for node in graph.nodes_of_type(type_name)
            if condition.matches(node, graph)
        ]
        assert candidate_ids(graph, type_name, condition) == expected

    @pytest.mark.parametrize("pattern, expected", [
        ("%str%", ["\u017ftream", "STREAM"]),
        ("%ist%", ["\u0130st", "\u0131st"]),
        ("%kel%", ["\u212aelvin"]),
        ("%ssi%", []),
        ("%ata_bas%", ["data\nbase"]),
    ])
    def test_prefilter_keeps_what_the_regex_folds(self, pattern, expected):
        graph = _unicode_graph()
        ids = candidate_ids(graph, "T", AttributeLike("value", pattern))
        assert [graph.node(i).attributes["value"] for i in ids] == expected

    @pytest.mark.parametrize("pattern", sorted(_PATH_CASES))
    def test_pattern_chooses_the_path(self, pattern, monkeypatch):
        graph = _unicode_graph()
        built = []
        trigram_index = graph.trigram_index

        def spy(*key):
            built.append(key)
            return trigram_index(*key)

        monkeypatch.setattr(graph, "trigram_index", spy)
        candidate_ids(graph, "T", AttributeLike("value", pattern))
        assert bool(built) is _PATH_CASES[pattern]

    def test_threads_racing_on_first_use_get_correct_indexes(self):
        """Every thread that builds the attribute and trigram indexes at
        once reads a finished index, whichever copy it gets."""
        graph = _text_graph([f"{'STREAM' if i % 3 else 'pool'} {i}"
                             for i in range(3000)])
        condition = AttributeLike("value", "%strea%")
        expected = [node.node_id for node in graph.nodes_of_type("T")
                    if condition.matches(node, graph)]
        barrier = threading.Barrier(8)
        results = []

        def evaluate():
            barrier.wait(timeout=30)
            results.append(candidate_ids(graph, "T", condition))

        threads = [threading.Thread(target=evaluate) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8

    @seed(26)
    @settings(max_examples=300, deadline=None)
    @given(_like_cases())
    def test_like_equals_matching_nodes(self, case):
        """Prefiltered or scanned, a LIKE selects the nodes ``matches``
        accepts, over strings that ``re.IGNORECASE`` folds unlike their
        lowercase forms and values that are not strings or not hashable."""
        values, pattern, negate = case
        graph = _text_graph(values)
        for condition in (AttributeLike("value", pattern, negate),
                          LabelLike(pattern)):
            expected = [
                node.node_id
                for node in graph.nodes_of_type("T")
                if condition.matches(node, graph)
            ]
            assert candidate_ids(graph, "T", condition) == expected


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestPlan:
    def _korea_pattern(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        pattern = add(pattern, toy.schema, "Papers->Authors")
        return pattern

    def test_plan_starts_at_most_selective_node(self, toy):
        plan = build_plan(self._korea_pattern(toy), toy.graph)
        # The equality-selected Conferences node is the cheapest entry point.
        assert plan.steps[0].key == "Conferences"
        assert plan.steps[0].kind == "scan"
        assert "hash-index probe" in plan.steps[0].detail

    def test_plan_covers_every_node_exactly_once(self, toy):
        pattern = self._korea_pattern(toy)
        plan = build_plan(pattern, toy.graph)
        assert sorted(plan.order) == sorted(node.key for node in pattern.nodes)

    def test_plan_join_steps_connect_to_prefix(self, toy):
        plan = build_plan(self._korea_pattern(toy), toy.graph)
        covered = {plan.steps[0].key}
        for step in plan.steps[1:]:
            assert step.kind == "join"
            assert step.left_key in covered
            covered.add(step.key)

    def test_estimates_are_monotone_nonnegative(self, toy):
        plan = build_plan(self._korea_pattern(toy), toy.graph)
        for step in plan.steps:
            assert step.est_rows >= 0.0

    def test_explain_mentions_every_step(self, toy):
        plan = build_plan(self._korea_pattern(toy), toy.graph)
        text = plan.explain()
        for step in plan.steps:
            assert step.key in text

    def test_single_node_plan(self, toy):
        pattern = initiate(toy.schema, "Papers")
        plan = build_plan(pattern, toy.graph)
        assert [step.kind for step in plan.steps] == ["scan"]


# ----------------------------------------------------------------------
# Execution + order restoration
# ----------------------------------------------------------------------
class TestExecution:
    def test_planned_equals_reference(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        pattern = add(pattern, toy.schema, "Papers->Authors")
        pattern = shift(pattern, "Authors")
        reference = match(pattern, toy.graph)
        planned = CachingExecutor(toy.graph).match(pattern)
        assert planned.keys == reference.keys
        assert planned.tuples == reference.tuples


# ----------------------------------------------------------------------
# Multi-node ETables from the semi-join reduction
# ----------------------------------------------------------------------
def _parallel_edge_case(toy):
    """T* -> U -> T#2 over ``_mixed_graph`` with one ``T->U`` edge added
    twice more, so both endpoints' adjacency lists repeat the neighbor,
    and a T node that meets ``beta`` before ``alpha``, so its cells run
    against id order."""
    graph = _mixed_graph()
    t, u = _nth(graph, "T", 0), _nth(graph, "U", 0)
    graph.add_edge("T->U", t, u)
    graph.add_edge("T->U", t, u)
    graph.add_edge("T->U", _nth(graph, "T", 1), _nth(graph, "U", 1))
    graph.add_edge("T->U", _nth(graph, "T", 1), u)
    pattern = add(initiate(graph.schema, "T"), graph.schema, "T->U")
    pattern = shift(add(pattern, graph.schema, "U->T"), "T")
    return graph, pattern


def _one_way_edge_case(toy):
    """T* -[T=>U]-> U, both filtered: the plan starts at T and the edge
    has no reverse twin, so keeping T's ids scans T's forward adjacency."""
    graph = _mixed_graph()
    pattern = select(initiate(graph.schema, "T"),
                     NodeIn([_nth(graph, "T", 1), _nth(graph, "T", 5)]))
    pattern = add(pattern, graph.schema, "T=>U")
    pattern = shift(select(pattern, AttributeCompare("name", "!=", "gamma")),
                    "T")
    assert build_plan(pattern, graph).steps[0].key == "T"
    return graph, pattern


def _one_way_edge_selective_target_case(toy):
    """T* -[T=>U]-> U[NodeIs beta]: U is the cheaper start, but the edge
    has no reverse twin, so U reaches no T and the plan starts at T."""
    graph = _mixed_graph()
    pattern = add(initiate(graph.schema, "T"), graph.schema, "T=>U")
    pattern = shift(select(pattern, NodeIs(_nth(graph, "U", 1))), "T")
    plan = build_plan(pattern, graph)
    assert plan.node_estimates["U"] < plan.node_estimates["T"]
    assert plan.steps[0].key == "T"
    return graph, pattern


def _empty_branch_case(toy):
    """A star around Papers whose Conferences branch matches nothing."""
    schema = toy.schema
    pattern = shift(add(initiate(schema, "Papers"), schema,
                        "Papers->Authors"), "Papers")
    pattern = add(pattern, schema, "Papers->Conferences")
    pattern = select(pattern, AttributeCompare("acronym", "=", "NONE"))
    return toy.graph, shift(pattern, "Papers")


def _see_all_case(toy):
    """Papers -> Conferences[NodeIs] -> Papers#2*: a see-all click."""
    schema = toy.schema
    pattern = select(initiate(schema, "Papers"),
                     AttributeCompare("year", ">", 2005))
    pattern = add(pattern, schema, "Papers->Conferences")
    pattern = select(pattern, NodeIs(_nth(toy.graph, "Conferences", 0)))
    return toy.graph, add(pattern, schema, "Conferences->Papers")


def _see_all_pivot_case(toy):
    """The see-all pattern pivoted on to Authors: four nodes, with the
    identity condition two steps from the primary."""
    graph, pattern = _see_all_case(toy)
    return graph, add(pattern, toy.schema, "Papers->Authors")


_REDUCED_CASES = {
    "parallel-edge": _parallel_edge_case,
    "one-way-edge": _one_way_edge_case,
    "one-way-edge-selective-target": _one_way_edge_selective_target_case,
    "empty-branch": _empty_branch_case,
    "see-all": _see_all_case,
    "see-all-pivot": _see_all_pivot_case,
}


class TestReducedRows:
    @pytest.mark.parametrize("row_limit", [None, 0, 1, 3])
    @pytest.mark.parametrize("case", sorted(_REDUCED_CASES))
    def test_equals_the_flat_pipeline(self, toy, case, row_limit):
        graph, pattern = _REDUCED_CASES[case](toy)
        expected = transform(pattern, match(pattern, graph), graph,
                             row_limit=row_limit)
        executor = CachingExecutor(graph)
        # A session's cached path and the one-shot path build the table.
        for actual in (executor.execute(pattern, row_limit),
                       execute_pattern(pattern, graph, row_limit)):
            assert actual.columns == expected.columns
            assert actual.hidden_columns == expected.hidden_columns
            assert actual.rows == expected.rows
        assert len(executor.prefixes) == 0  # no join was materialized
        if case == "empty-branch":
            assert not expected.rows and expected.hidden_columns
        elif row_limit is None:
            assert len(expected.rows) > 1

    def test_unconditioned_nodes_stay_symbolic_until_narrowed(self, toy):
        # Every toy conference has papers and every paper a conference, so
        # an unconditioned pair stays "every node of its type".
        graph = toy.graph
        pair = add(initiate(toy.schema, "Conferences"), toy.schema,
                   "Conferences->Papers")
        assert reduce_plan(build_plan(pair, graph), graph) == {
            "Conferences": None, "Papers": None}
        # Behind an identity condition, the unconditioned Papers#2 becomes
        # the papers of that one conference.
        _, pattern = _see_all_case(toy)
        reduced = reduce_plan(build_plan(pattern, graph), graph)
        conference = _nth(graph, "Conferences", 0)
        assert reduced["Conferences"] == {conference}
        assert reduced["Papers#2"] == set(
            graph.neighbors_view(conference, "Conferences->Papers"))

    def test_a_shift_reuses_the_reduction(self, toy):
        graph, pattern = _see_all_pivot_case(toy)
        executor = CachingExecutor(graph)
        executor.execute(pattern)
        shifted = shift(pattern, "Papers")
        assert executor.execute(shifted).rows == transform(
            shifted, match(shifted, graph), graph).rows
        assert (executor.stats.hits, executor.stats.misses) == (1, 1)


# ----------------------------------------------------------------------
# Prefix store + reuse
# ----------------------------------------------------------------------
class TestPrefixStore:
    def test_subpattern_key_is_primary_independent(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        shifted = shift(pattern, "Papers")
        keys = frozenset(node.key for node in pattern.nodes)
        assert subpattern_key(pattern, keys) == subpattern_key(shifted, keys)

    def test_find_cached_base_prefers_larger_subpattern(self, toy):
        pattern = initiate(toy.schema, "Conferences")
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        extended = add(pattern, toy.schema, "Papers->Authors")
        store = PrefixStore()
        small = GraphRelation([GraphAttribute("Conferences", "Conferences")])
        large = GraphRelation(
            [
                GraphAttribute("Conferences", "Conferences"),
                GraphAttribute("Papers", "Papers"),
            ]
        )
        store.put(subpattern_key(extended, frozenset({"Conferences"})), small)
        store.put(
            subpattern_key(extended, frozenset({"Conferences", "Papers"})), large
        )
        found = find_cached_base(extended, store)
        assert found is not None
        keys, relation = found
        assert keys == frozenset({"Conferences", "Papers"})
        assert relation is large

    def test_lru_eviction(self):
        store = PrefixStore(max_entries=2)
        empty = GraphRelation([GraphAttribute("A", "T")])
        store.put(("a",), empty)
        store.put(("b",), empty)
        store.get(("a",))  # refresh
        store.put(("c",), empty)  # evicts b
        assert ("a",) in store and ("c",) in store
        assert ("b",) not in store

    def test_size_weighted_eviction(self):
        """Eviction is budgeted by cells (rows x attributes), not entries:
        a large insert pushes out as many LRU entries as its weight needs."""
        attrs = [GraphAttribute("A", "T")]
        small = GraphRelation(attrs, [(i,) for i in range(10)])    # 10 cells
        large = GraphRelation(attrs, [(i,) for i in range(85)])    # 85 cells
        store = PrefixStore(max_entries=100, max_cells=100)
        for name in ("a", "b", "c"):
            store.put((name,), small)
        assert store.total_cells == 30
        store.put(("big",), large)  # 30 + 85 > 100: evicts a and b
        assert ("a",) not in store and ("b",) not in store
        assert ("c",) in store and ("big",) in store
        assert store.total_cells == 95
        assert store.evictions == 2 and store.evicted_cells == 20

    def test_oversized_relation_cannot_pin_the_cache(self):
        """A relation bigger than the whole budget is refused outright
        (ROADMAP: 'one huge intermediate cannot pin the cache')."""
        attrs = [GraphAttribute("A", "T")]
        small = GraphRelation(attrs, [(i,) for i in range(10)])
        huge = GraphRelation(attrs, [(i,) for i in range(500)])
        store = PrefixStore(max_entries=100, max_cells=100)
        store.put(("a",), small)
        store.put(("huge",), huge)
        assert ("huge",) not in store
        assert ("a",) in store  # the working set survived
        assert store.rejected == 1

    def test_reput_updates_weight_accounting(self):
        attrs = [GraphAttribute("A", "T")]
        store = PrefixStore(max_entries=10, max_cells=1000)
        store.put(("a",), GraphRelation(attrs, [(i,) for i in range(10)]))
        store.put(("a",), GraphRelation(attrs, [(i,) for i in range(20)]))
        assert store.total_cells == 20

    def test_stats_exposes_bytes_weighted_counters(self):
        attrs = [GraphAttribute("A", "T"), GraphAttribute("B", "T")]
        store = PrefixStore(max_entries=4, max_cells=1000)
        store.put(("a",), GraphRelation(attrs, [(1, 2), (3, 4)]))  # 4 cells
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["cells"] == 4
        assert stats["approx_bytes"] == 4 * 8
        assert stats["max_cells"] == 1000
        assert {"evictions", "evicted_cells", "rejected"} <= set(stats)

    def test_clear_resets_weight_accounting(self):
        attrs = [GraphAttribute("A", "T")]
        store = PrefixStore(max_entries=4, max_cells=100)
        store.put(("a",), GraphRelation(attrs, [(1,), (2,)]))
        store.clear()
        assert store.total_cells == 0 and len(store) == 0

    def test_executor_reuses_prefix_for_extension(self, toy):
        executor = CachingExecutor(toy.graph)
        pattern = initiate(toy.schema, "Conferences")
        pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))
        pattern = add(pattern, toy.schema, "Conferences->Papers")
        executor.match(pattern)
        assert executor.stats.prefix_hits == 0
        extended = add(pattern, toy.schema, "Papers->Authors")
        result = executor.match(extended)
        assert executor.stats.prefix_hits == 1
        assert executor.stats.reused_nodes == 2  # Conferences + Papers
        assert result.tuples == match(extended, toy.graph).tuples

    def test_executor_prefix_hit_after_condition_change(self, toy):
        """Changing the leaf's condition still reuses the shared prefix."""
        executor = CachingExecutor(toy.graph)
        base = initiate(toy.schema, "Conferences")
        base = add(base, toy.schema, "Conferences->Papers")  # primary: Papers
        first = select(base, AttributeCompare("year", ">", 2005))
        second = select(base, AttributeCompare("year", ">", 2010))
        executor.match(first)
        executor.match(second)
        # The single-node {Conferences} subpattern is shared between both.
        assert executor.stats.prefix_hits >= 1

    def test_same_label_different_nodes_do_not_collide(self, toy):
        """Regression: ``NodeIs.describe()`` shows the label, and two nodes
        can share one — cache keys must use the structural token instead."""
        from repro.tgm.conditions import NodeIs
        from repro.core.cache import pattern_cache_key

        papers = toy.graph.nodes_of_type("Papers")
        first, second = papers[0], papers[1]
        base = initiate(toy.schema, "Papers")
        one = select(base, NodeIs(first.node_id, label="Same Label"))
        other = select(base, NodeIs(second.node_id, label="Same Label"))
        assert pattern_cache_key(one) != pattern_cache_key(other)
        keys = frozenset({"Papers"})
        assert subpattern_key(one, keys) != subpattern_key(other, keys)
        executor = CachingExecutor(toy.graph)
        assert executor.match(one).tuples == [(first.node_id,)]
        assert executor.match(other).tuples == [(second.node_id,)]


# ----------------------------------------------------------------------
# GraphRelation construction boundaries
# ----------------------------------------------------------------------
class TestGraphRelationConstruction:
    def test_public_constructor_still_validates(self):
        with pytest.raises(TgmError):
            GraphRelation([GraphAttribute("A", "T")], [(1, 2)])

    def test_from_columns_round_trips(self):
        relation = GraphRelation.from_columns(
            [GraphAttribute("A", "T"), GraphAttribute("B", "U")],
            [[1, 2], [3, 4]],
        )
        assert relation.tuples == [(1, 3), (2, 4)]
        assert list(relation.iter_rows()) == [(1, 3), (2, 4)]
        assert relation.column("B") == [3, 4]

    def test_from_rows_skips_validation_but_preserves_views(self):
        rows = [(1, 3), (2, 4)]
        relation = GraphRelation.from_rows(
            [GraphAttribute("A", "T"), GraphAttribute("B", "U")], rows
        )
        assert len(relation) == 2
        assert relation.distinct_column("A") == [1, 2]


class TestStatsPayloads:
    def test_cold_prefix_store_hit_rate_is_guarded(self):
        store = PrefixStore()
        stats = store.stats()
        assert stats["lookups"] == 0
        assert stats["hit_rate"] == 0.0  # no ZeroDivisionError on cold store

    def test_prefix_store_hit_rate_counts(self, toy):
        store = PrefixStore()
        relation = GraphRelation([GraphAttribute("A", "T")], [(1,)])
        store.put(("k",), relation)
        assert store.get(("k",)) is relation
        assert store.get(("missing",)) is None
        stats = store.stats()
        assert stats["lookups"] == 2 and stats["hits"] == 1
        assert stats["hit_rate"] == 0.5

    def test_cold_executor_stats_payload_is_guarded(self, toy):
        executor = CachingExecutor(toy.graph)
        payload = executor.stats_payload()  # cold: zero lookups everywhere
        assert payload["hit_rate"] == 0.0
        assert payload["prefix_hit_rate"] == 0.0
        assert payload["results"]["hit_rate"] == 0.0
        assert payload["prefixes"]["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# Incremental action-delta planning
# ----------------------------------------------------------------------
class TestDeltaClassification:
    """Each user action's pattern transition maps to the right delta kind."""

    def _base(self, toy):
        pattern = initiate(toy.schema, "Papers")
        return select(pattern, AttributeCompare("year", ">", 2005))

    def test_filter_is_pure_select(self, toy):
        previous = self._base(toy)
        pattern = select(previous, AttributeLike("title", "%a%"))
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None
        assert delta.kind == "select"
        assert delta.extension is None
        assert [key for key, _ in delta.selections] == ["Papers"]
        assert delta.order_preserved  # same tree, same primary

    def test_nfilter_is_pure_select(self, toy):
        previous = self._base(toy)
        pattern = select(
            previous,
            NeighborSatisfies("Papers->Authors", AttributeLike("name", "%a%")),
        )
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None and delta.kind == "select"
        assert delta.order_preserved

    def test_pivot_is_single_extend(self, toy):
        previous = self._base(toy)
        pattern = add(previous, toy.schema, "Papers->Authors")
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None
        assert delta.kind == "extend"
        assert delta.selections == ()
        assert delta.extension == ("Papers", "Papers->Authors", "Authors")
        assert not delta.order_preserved  # primary moved to Authors

    def test_seeall_is_select_plus_extend(self, toy):
        previous = self._base(toy)
        node = toy.graph.nodes_of_type("Papers")[0]
        selected = select(previous, NodeIs(node.node_id))
        pattern = add(selected, toy.schema, "Papers->Authors")
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None
        assert delta.kind == "select+extend"
        assert len(delta.selections) == 1
        assert delta.extension is not None

    def test_shift_is_reorder(self, toy):
        previous = add(self._base(toy), toy.schema, "Papers->Authors")
        pattern = shift(previous, "Papers")
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None
        assert delta.kind == "reorder"
        assert not delta.order_preserved

    def test_identical_pattern_is_replay(self, toy):
        previous = self._base(toy)
        delta = classify_delta(previous, previous, toy.graph)
        assert delta is not None
        assert delta.kind == "replay"
        assert delta.order_preserved

    def test_condition_relaxation_falls_back(self, toy):
        """Removing or changing a condition is not monotone: replan."""
        loose = initiate(toy.schema, "Papers")
        previous = select(loose, AttributeCompare("year", ">", 2005))
        assert classify_delta(previous, loose, toy.graph) is None
        changed = select(loose, AttributeCompare("year", ">", 2010))
        assert classify_delta(previous, changed, toy.graph) is None

    def test_different_table_falls_back(self, toy):
        previous = self._base(toy)
        pattern = initiate(toy.schema, "Authors")
        assert classify_delta(previous, pattern, toy.graph) is None

    def test_node_removal_falls_back(self, toy):
        previous = add(self._base(toy), toy.schema, "Papers->Authors")
        assert classify_delta(previous, self._base(toy), toy.graph) is None

    def test_describe_names_the_delta(self, toy):
        previous = self._base(toy)
        pattern = add(previous, toy.schema, "Papers->Authors")
        delta = classify_delta(previous, pattern, toy.graph)
        text = delta.describe()
        assert "extend" in text and "Papers->Authors" in text


class TestDeltaExecution:
    """Every delta kind reproduces the reference matcher bit-for-bit."""

    def _assert_delta_equals_oracle(self, toy, previous, pattern):
        delta = classify_delta(previous, pattern, toy.graph)
        assert delta is not None
        prev_relation = CachingExecutor(toy.graph).match(previous)
        relation, report = execute_delta(
            delta, prev_relation, pattern, toy.graph
        )
        if not delta.order_preserved:
            relation = restore_reference_order(pattern, relation, toy.graph)
        reference = match(pattern, toy.graph)
        assert relation.keys == reference.keys
        assert relation.tuples == reference.tuples
        return report

    def test_select_delta(self, toy):
        previous = select(initiate(toy.schema, "Papers"),
                          AttributeCompare("year", ">", 2005))
        pattern = select(previous, AttributeLike("title", "%a%"))
        report = self._assert_delta_equals_oracle(toy, previous, pattern)
        assert report.rows_touched == report.rows_in

    def test_select_delta_on_joined_pattern(self, toy):
        previous = add(initiate(toy.schema, "Conferences"),
                       toy.schema, "Conferences->Papers")
        pattern = select(previous, AttributeCompare("year", ">", 2005))
        self._assert_delta_equals_oracle(toy, previous, pattern)

    def test_extend_delta(self, toy):
        previous = select(initiate(toy.schema, "Papers"),
                          AttributeCompare("year", ">", 2005))
        pattern = add(previous, toy.schema, "Papers->Authors")
        self._assert_delta_equals_oracle(toy, previous, pattern)

    def test_select_plus_extend_delta(self, toy):
        previous = initiate(toy.schema, "Papers")
        node = toy.graph.nodes_of_type("Papers")[1]
        pattern = add(select(previous, NodeIs(node.node_id)),
                      toy.schema, "Papers->Authors")
        self._assert_delta_equals_oracle(toy, previous, pattern)

    def test_reorder_delta(self, toy):
        previous = add(initiate(toy.schema, "Conferences"),
                       toy.schema, "Conferences->Papers")
        pattern = shift(previous, "Conferences")
        report = self._assert_delta_equals_oracle(toy, previous, pattern)
        assert report.rows_touched == 0  # no selection, no join: a re-rank

    def test_nfilter_delta(self, toy):
        previous = initiate(toy.schema, "Papers")
        pattern = select(
            previous,
            NeighborSatisfies("Papers->Authors", AttributeLike("name", "%a%")),
        )
        self._assert_delta_equals_oracle(toy, previous, pattern)


class TestDeltaPlanner:
    def test_plan_prefers_delta_for_filters(self, toy):
        planner = DeltaPlanner(toy.graph)
        previous = select(initiate(toy.schema, "Papers"),
                          AttributeLike("title", "%a%"))
        pattern = select(previous, AttributeLike("title", "%e%"))
        prev_rows = len(CachingExecutor(toy.graph).match(previous))
        delta, reason = planner.plan(previous, prev_rows, pattern)
        assert delta is not None and reason is None

    def test_plan_without_previous_replans(self, toy):
        planner = DeltaPlanner(toy.graph)
        pattern = initiate(toy.schema, "Papers")
        delta, reason = planner.plan(None, 0, pattern)
        assert delta is None and "no previous" in reason

    def test_cost_gate_prefers_indexed_replan(self):
        """A huge previous relation + a super-selective indexed filter:
        the cost model chooses the full planner's index probe over
        scanning the whole cached relation."""
        from repro.tgm.instance_graph import InstanceGraph
        from repro.tgm.schema_graph import NodeType, SchemaGraph

        schema = SchemaGraph()
        schema.add_node_type(NodeType("T", ("kind", "flag"), "kind"))
        graph = InstanceGraph(schema)
        for index in range(500):
            graph.add_node("T", {"kind": f"k{index}",
                                 "flag": "rare" if index == 0 else "common"})
        planner = DeltaPlanner(graph)
        previous = initiate(schema, "T")
        pattern = select(previous, AttributeCompare("flag", "=", "rare"))
        delta, reason = planner.plan(previous, 500, pattern)
        assert delta is None
        assert reason.startswith("cost model")

    def test_cost_estimates_are_positive(self, toy):
        previous = initiate(toy.schema, "Papers")
        pattern = add(previous, toy.schema, "Papers->Authors")
        delta = classify_delta(previous, pattern, toy.graph)
        stats = toy.graph.statistics()
        assert estimate_delta_cost(delta, 10, pattern, toy.graph, stats) >= 1.0
        assert estimate_replan_cost(pattern, toy.graph, stats) >= 1.0
