"""The TGDB instance graph (Definition 2 of the paper).

Nodes are entities with attribute values; edges are relationships typed by
the schema graph. The graph maintains adjacency indexes in *both* directions
of every edge-type twin pair, so a neighbor lookup — the operation behind
every entity-reference cell in an ETable — is a hash probe plus a list scan.

Beyond adjacency, the graph keeps three families of *secondary indexes*,
built lazily on first use:

* an attribute-equality hash index per ``(type, attribute)`` pair, turning
  ``attribute = value`` selections into probes instead of full type scans;
* a label index per type (the attribute index over the type's label
  attribute), backing ``find_by_label`` and Single/SeeAll-style lookups;
* a trigram index per ``(type, attribute)`` pair (:class:`TrigramIndex`),
  over the attribute's distinct strings, which narrows a ``LIKE`` to the
  values that can hold its literal text before its regex runs.

A :class:`GraphStatistics` summary (per-type cardinalities, per-edge-type
degree histograms, per-attribute distinct counts) feeds the query planner's
selectivity and join-fanout estimates (``repro.core.planner``).

Translation (``repro.translate``) and ``load_graph`` (``repro.tgm.storage``)
write a graph once, before anything queries it. From the first time the
graph builds a secondary index or its statistics it is read-only:
``add_node`` and ``add_edge`` raise :class:`~repro.errors.GraphIntegrityError`.
So nothing derived from a graph ever goes stale, and no cache over it checks
for writes. A graph that only the naive matcher has read derived nothing and
stays writable.

Display labels are kept apart from those indexes: :meth:`InstanceGraph.label_of`
reads a node's label on first use and keeps it in a list indexed by node id.
A write only adds nodes and edges, so a kept label never goes stale, and
keeping one leaves the graph writable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import GraphIntegrityError, TgmError, UnknownNodeType
from repro.tgm.conditions import Condition
from repro.tgm.schema_graph import SchemaGraph


@dataclass
class Node:
    """One entity instance.

    ``node_id`` is globally unique within the graph. ``source_key`` records
    the originating relational primary key (or attribute value, for
    multivalued/categorical nodes), which keeps translation reversible.
    """

    node_id: int
    type_name: str
    attributes: dict[str, Any]
    source_key: Any = None

    def label(self, schema: SchemaGraph) -> Any:
        """The display label: ``label(v) = v[βi]`` (Definition 2)."""
        node_type = schema.node_type(self.type_name)
        return self.attributes.get(node_type.label_attribute)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id


#: A slot of :attr:`InstanceGraph.labels` whose label is not read yet.
UNREAD = object()


@dataclass(frozen=True)
class Edge:
    """One relationship instance (stored once, in the forward direction)."""

    type_name: str
    source_id: int
    target_id: int
    attributes: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class EdgeTypeStats:
    """Degree summary of one edge-type direction (for join-fanout estimates).

    ``pairs`` counts (source, target) adjacency entries; ``sources`` counts
    distinct source nodes with at least one such edge; ``histogram`` maps
    out-degree -> number of source nodes with that degree.
    """

    pairs: int
    sources: int
    max_degree: int
    histogram: dict[int, int] = field(default_factory=dict)

    @property
    def avg_degree(self) -> float:
        return self.pairs / self.sources if self.sources else 0.0


class GraphStatistics:
    """Cheap summary statistics over one read-only :class:`InstanceGraph`.

    Built once, on first use, which makes the graph read-only; all lookups
    afterwards are dictionary probes. The planner uses these for
    selectivity estimation and sizes the reference-order sort key by
    ``max_degree``, so they are always computed from the graph they
    describe and never persisted.
    """

    def __init__(self, graph: "InstanceGraph") -> None:
        self.graph = graph
        self.type_cardinalities: dict[str, int] = {
            name: len(ids) for name, ids in graph._nodes_by_type.items()
        }
        per_edge: dict[str, dict[int, int]] = {}
        for (node_id, edge_name), targets in graph._adjacency.items():
            histogram = per_edge.setdefault(edge_name, {})
            degree = len(targets)
            histogram[degree] = histogram.get(degree, 0) + 1
        self.edge_stats: dict[str, EdgeTypeStats] = {}
        for edge_name, histogram in per_edge.items():
            pairs = sum(degree * count for degree, count in histogram.items())
            sources = sum(histogram.values())
            self.edge_stats[edge_name] = EdgeTypeStats(
                pairs=pairs,
                sources=sources,
                max_degree=max(histogram),
                histogram=dict(histogram),
            )
        self._distinct_counts: dict[tuple[str, str], int] = {}

    def cardinality(self, type_name: str) -> int:
        return self.type_cardinalities.get(type_name, 0)

    def edge_type_stats(self, edge_type_name: str) -> EdgeTypeStats:
        return self.edge_stats.get(
            edge_type_name, EdgeTypeStats(pairs=0, sources=0, max_degree=0)
        )

    def avg_fanout(self, edge_type_name: str, source_type: str) -> float:
        """Expected number of ``edge_type`` neighbors per *source-type node*
        (zero-degree nodes included — this is the join-growth factor)."""
        cardinality = self.cardinality(source_type)
        if cardinality == 0:
            return 0.0
        return self.edge_type_stats(edge_type_name).pairs / cardinality

    def distinct_count(self, type_name: str, attribute: str) -> int:
        """Distinct non-NULL values of one attribute (computed lazily)."""
        key = (type_name, attribute)
        cached = self._distinct_counts.get(key)
        if cached is None:
            cached = len(self.graph.attribute_index(type_name, attribute))
            self._distinct_counts[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Per-bucket refinements (ROADMAP: cost model refinement)
    # ------------------------------------------------------------------
    def equality_count(self, type_name: str, attribute: str,
                       value: Any) -> int | None:
        """Exact number of nodes with ``attribute == value``.

        The attribute hash indexes already hold every equality bucket, so
        an equality selectivity can be *exact* instead of the uniform
        ``1/distinct`` average — the difference between estimating 1 row
        and 500 for a skewed categorical value. Returns ``None`` for
        unhashable probe values (callers fall back to the average).
        """
        index = self.graph.attribute_index(type_name, attribute)
        try:
            return len(index.get(value, ()))
        except TypeError:  # unhashable probe value
            return None

    def equality_fraction(self, type_name: str, attribute: str,
                          value: Any) -> float:
        """Exact fraction of ``type_name`` nodes with ``attribute == value``
        (falls back to the ``1/distinct`` average for unhashable values)."""
        cardinality = max(1, self.cardinality(type_name))
        count = self.equality_count(type_name, attribute, value)
        if count is None:
            return 1.0 / max(1, self.distinct_count(type_name, attribute))
        return count / cardinality

    def neighbor_match_probability(
        self, edge_type_name: str, inner_selectivity: float
    ) -> float:
        """P(a participating source node has ≥ 1 neighbor matching a
        predicate of selectivity ``inner_selectivity``).

        Uses the per-edge degree *histogram* instead of the average degree:
        ``1 - Σ_d hist(d)/sources · (1-s)^d``. For skewed edges (a few hubs,
        many degree-1 nodes) the average-degree estimate badly overstates
        how many low-degree nodes match; the histogram form is exact under
        the independence assumption.
        """
        stats = self.edge_type_stats(edge_type_name)
        if stats.sources == 0:
            return 0.0
        survive = max(0.0, min(1.0, 1.0 - inner_selectivity))
        p_no_match = sum(
            count * survive ** degree
            for degree, count in stats.histogram.items()
        ) / stats.sources
        return 1.0 - p_no_match


class TrigramIndex:
    """Trigram postings over the distinct strings of one ``(type, attribute)``.

    ``values`` holds the attribute's distinct ASCII strings. ``postings``
    maps each trigram of their lowercase forms to a bitmap (a Python int)
    whose bit ``i`` is set when ``values[i]`` holds that trigram; a bitmap
    per trigram takes a fraction of the memory of a set of positions.

    The index covers every node whose value is not NULL. The distinct
    non-ASCII strings are kept apart in ``non_ascii``, because their
    lowercase trigrams do not fold as ``re.IGNORECASE`` does: ``'ſ'``
    matches ``'s'`` and ``'İ'`` matches ``'i'``, yet neither lowercases to
    it. ``other_ids`` lists the nodes whose value is not a string, or is
    one the attribute index skips; their buckets merge values such as
    ``1``, ``1.0`` and ``True``, which ``str()`` tells apart.
    """

    def __init__(self, buckets: dict[Any, list[int]],
                 unindexed: Sequence[int]) -> None:
        self.values: list[str] = []
        self.non_ascii: list[str] = []
        self.other_ids: list[int] = list(unindexed)
        for value, bucket in buckets.items():
            if type(value) is not str:
                self.other_ids.extend(bucket)
            elif value.isascii():
                self.values.append(value)
            else:
                self.non_ascii.append(value)
        positions: dict[str, list[int]] = {}
        for position, value in enumerate(self.values):
            lowered = value.lower()
            for trigram in {lowered[i:i + 3] for i in range(len(lowered) - 2)}:
                positions.setdefault(trigram, []).append(position)
        size = len(self.values) // 8 + 1
        self.postings: dict[str, int] = {}
        for trigram, where in positions.items():
            bitmap = bytearray(size)
            for position in where:
                bitmap[position >> 3] |= 1 << (position & 7)
            self.postings[trigram] = int.from_bytes(bitmap, "little")

    def candidates(self, trigrams: Iterable[str]) -> list[str]:
        """The distinct strings that may hold every one of ``trigrams``
        (given in lowercase): the ASCII values whose lowercase form holds
        them all, and every non-ASCII value."""
        bits = (1 << len(self.values)) - 1
        for trigram in trigrams:
            bits &= self.postings.get(trigram, 0)
            if not bits:
                break
        found = list(self.non_ascii)
        digits = bin(bits)[:1:-1]  # bit i is digits[i]
        position = digits.find("1")
        while position >= 0:
            found.append(self.values[position])
            position = digits.find("1", position + 1)
        return found


class InstanceGraph:
    """A typed instance graph ``GI = (V, E)`` conforming to a schema graph."""

    def __init__(self, schema: SchemaGraph) -> None:
        self.schema = schema
        self._nodes: dict[int, Node] = {}
        self._nodes_by_type: dict[str, list[int]] = {
            node_type.name: [] for node_type in schema.node_types
        }
        self._edges: list[Edge] = []
        # (node_id, edge_type_name) -> [neighbor node ids]
        self._adjacency: dict[tuple[int, str], list[int]] = {}
        # (type_name, source_key) -> node_id, for translation lookups
        self._by_source_key: dict[tuple[str, Any], int] = {}
        self._next_id = 1
        # Display labels by node id, read by label_of on first use. Ids
        # are dense from 1, so slot 0 is unused and add_node appends one
        # slot per node. Callers only read it: a hot loop indexes it and
        # calls label_of for a slot that still holds UNREAD.
        self.labels: list[Any] = [UNREAD]
        # Lazily-built secondary indexes and statistics; building any of
        # them makes the graph read-only (see _require_writable).
        # (type_name, attribute) -> (value -> [node ids, insertion order],
        # the ids of the nodes whose value is unhashable)
        self._attribute_indexes: dict[
            tuple[str, str], tuple[dict[Any, list[int]], tuple[int, ...]]
        ] = {}
        self._trigram_indexes: dict[tuple[str, str], TrigramIndex] = {}
        self._statistics: GraphStatistics | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        type_name: str,
        attributes: dict[str, Any],
        source_key: Any = None,
    ) -> Node:
        self._require_writable()
        node_type = self.schema.node_type(type_name)
        unknown = set(attributes) - set(node_type.attributes)
        if unknown:
            raise GraphIntegrityError(
                f"node of type {type_name!r} has undeclared attributes "
                f"{sorted(unknown)!r}"
            )
        node = Node(self._next_id, type_name, dict(attributes), source_key)
        self._next_id += 1
        self._nodes[node.node_id] = node
        self.labels.append(UNREAD)
        self._nodes_by_type[type_name].append(node.node_id)
        if source_key is not None:
            key = (type_name, source_key)
            if key in self._by_source_key:
                raise GraphIntegrityError(
                    f"duplicate source key {source_key!r} for type {type_name!r}"
                )
            self._by_source_key[key] = node.node_id
        return node

    def add_edge(
        self,
        edge_type_name: str,
        source_id: int,
        target_id: int,
        attributes: dict[str, Any] | None = None,
    ) -> Edge:
        """Add one edge; adjacency is indexed for the reverse twin too."""
        self._require_writable()
        edge_type = self.schema.edge_type(edge_type_name)
        source = self.node(source_id)
        target = self.node(target_id)
        if source.type_name != edge_type.source:
            raise GraphIntegrityError(
                f"edge {edge_type_name!r} expects source type "
                f"{edge_type.source!r}, got {source.type_name!r}"
            )
        if target.type_name != edge_type.target:
            raise GraphIntegrityError(
                f"edge {edge_type_name!r} expects target type "
                f"{edge_type.target!r}, got {target.type_name!r}"
            )
        edge = Edge(
            edge_type_name,
            source_id,
            target_id,
            tuple(sorted((attributes or {}).items())),
        )
        self._edges.append(edge)
        self._adjacency.setdefault((source_id, edge_type_name), []).append(target_id)
        if edge_type.reverse_name is not None:
            self._adjacency.setdefault(
                (target_id, edge_type.reverse_name), []
            ).append(source_id)
        return edge

    def _require_writable(self) -> None:
        """Refuse a write once anything has been derived from the graph."""
        if (self._statistics is not None or self._attribute_indexes
                or self._trigram_indexes):
            raise GraphIntegrityError(
                "the instance graph is read-only once queried: it has "
                "built a secondary index or its statistics"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TgmError(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def label_of(self, node_id: int) -> Any:
        """The display label of node ``node_id`` (:meth:`Node.label`),
        read on first use and kept in :attr:`labels`. Keeping it derives
        no index, so the graph stays writable."""
        labels = self.labels
        label = labels[node_id] if 0 < node_id < len(labels) else UNREAD
        if label is UNREAD:
            label = labels[node_id] = self.node(node_id).label(self.schema)
        return label

    def node_by_source_key(self, type_name: str, source_key: Any) -> Node:
        """Find the node translated from a given relational key (or value)."""
        node_id = self._by_source_key.get((type_name, source_key))
        if node_id is None:
            raise TgmError(
                f"no node of type {type_name!r} with source key {source_key!r}"
            )
        return self._nodes[node_id]

    def nodes_of_type(self, type_name: str) -> list[Node]:
        if type_name not in self._nodes_by_type:
            raise UnknownNodeType(f"no node type named {type_name!r}")
        return [self._nodes[node_id] for node_id in self._nodes_by_type[type_name]]

    def node_ids_of_type(self, type_name: str) -> list[int]:
        if type_name not in self._nodes_by_type:
            raise UnknownNodeType(f"no node type named {type_name!r}")
        return list(self._nodes_by_type[type_name])

    def neighbors(self, node_id: int, edge_type_name: str) -> list[Node]:
        """Direct neighbors along one edge type — the quick neighbor-lookup
        the paper highlights for entity-reference cells."""
        self.schema.edge_type(edge_type_name)
        ids = self._adjacency.get((node_id, edge_type_name), [])
        return [self._nodes[neighbor_id] for neighbor_id in ids]

    def neighbor_ids(self, node_id: int, edge_type_name: str) -> list[int]:
        return list(self._adjacency.get((node_id, edge_type_name), []))

    def neighbors_view(
        self, node_id: int, edge_type_name: str
    ) -> Sequence[int]:
        """The internal adjacency list, without the defensive copy.

        Hot-path counterpart of :meth:`neighbor_ids` for the executor's join
        loops; callers must treat the returned sequence as read-only.
        """
        return self._adjacency.get((node_id, edge_type_name), ())

    def degree(self, node_id: int, edge_type_name: str) -> int:
        return len(self._adjacency.get((node_id, edge_type_name), []))

    def find_nodes(
        self, type_name: str, condition: Condition | None = None
    ) -> list[Node]:
        """All nodes of a type, optionally filtered by a condition."""
        nodes = self.nodes_of_type(type_name)
        if condition is None:
            return nodes
        return [node for node in nodes if condition.matches(node, self)]

    def find_by_label(self, type_name: str, label: Any) -> Node | None:
        """First node of ``type_name`` whose label equals ``label``.

        Rides the label index: a hash probe instead of a type scan. Buckets
        preserve insertion order, so "first" matches the legacy linear scan.
        """
        label_attr = self.schema.node_type(type_name).label_attribute
        if label is not None:
            try:
                ids = self.label_index(type_name).get(label)
            except TypeError:
                ids = None  # unhashable label value: fall back to scanning
            else:
                return self._nodes[ids[0]] if ids else None
        # NULL probes (the index omits NULLs) and unhashable values keep the
        # legacy scan semantics.
        for node in self.nodes_of_type(type_name):
            if node.attributes.get(label_attr) == label:
                return node
        return None

    # ------------------------------------------------------------------
    # Secondary indexes (lazy; building one makes the graph read-only)
    # ------------------------------------------------------------------
    def attribute_index(
        self, type_name: str, attribute: str
    ) -> dict[Any, list[int]]:
        """Hash index ``value -> [node ids]`` for one ``(type, attribute)``.

        Built on first use and kept: from then on the graph is read-only.
        NULLs and unhashable values are omitted (an equality probe can never
        match NULL, and the nodes holding unhashable values are listed by
        :meth:`unindexed_ids` for callers to test one by one). Buckets keep
        node-insertion order.
        """
        return self._attribute_entry(type_name, attribute)[0]

    def unindexed_ids(self, type_name: str, attribute: str) -> tuple[int, ...]:
        """Ids of the ``type_name`` nodes whose ``attribute`` value is not
        NULL but unhashable, which :meth:`attribute_index` skips."""
        return self._attribute_entry(type_name, attribute)[1]

    def _attribute_entry(
        self, type_name: str, attribute: str
    ) -> tuple[dict[Any, list[int]], tuple[int, ...]]:
        key = (type_name, attribute)
        entry = self._attribute_indexes.get(key)
        if entry is None:
            self.schema.node_type(type_name)  # raises UnknownNodeType
            index: dict[Any, list[int]] = {}
            unindexed: list[int] = []
            for node_id in self._nodes_by_type.get(type_name, ()):
                value = self._nodes[node_id].attributes.get(attribute)
                if value is None:
                    continue
                try:
                    index.setdefault(value, []).append(node_id)
                except TypeError:
                    unindexed.append(node_id)
            # One store publishes the finished entry: a thread racing on
            # first use builds its own copy and never sees half of one.
            entry = (index, tuple(unindexed))
            self._attribute_indexes[key] = entry
        return entry

    def trigram_index(self, type_name: str, attribute: str) -> TrigramIndex:
        """The :class:`TrigramIndex` over one ``(type, attribute)``'s
        distinct strings, built on first use and kept: from then on the
        graph is read-only."""
        key = (type_name, attribute)
        index = self._trigram_indexes.get(key)
        if index is None:
            index = TrigramIndex(*self._attribute_entry(type_name, attribute))
            self._trigram_indexes[key] = index
        return index

    def label_index(self, type_name: str) -> dict[Any, list[int]]:
        """The attribute index over the type's label attribute."""
        label_attr = self.schema.node_type(type_name).label_attribute
        return self.attribute_index(type_name, label_attr)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> GraphStatistics:
        """Summary statistics for the planner, built once: from then on
        the graph is read-only."""
        if self._statistics is None:
            self._statistics = GraphStatistics(self)
        return self._statistics

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def type_counts(self) -> dict[str, int]:
        return {
            type_name: len(ids) for type_name, ids in self._nodes_by_type.items()
        }

    def to_ascii(self, max_nodes_per_type: int = 3) -> str:
        """A compact excerpt rendering in the spirit of Figure 5."""
        lines = [f"Instance graph over schema '{self.schema.name}'"]
        for type_name, ids in self._nodes_by_type.items():
            count = len(ids)
            sample = ", ".join(
                str(self._nodes[node_id].label(self.schema))
                for node_id in ids[:max_nodes_per_type]
            )
            suffix = ", ..." if count > max_nodes_per_type else ""
            lines.append(f"  {type_name} ({count}): {sample}{suffix}")
        lines.append(f"  edges: {self.edge_count}")
        return "\n".join(lines)
