"""The typed graph model (TGM) of Section 4.

A typed graph database (TGDB) is a schema graph plus an instance graph.
ETable executes every user operation over these graphs rather than over the
relational database, giving users a conceptual entity-relationship view.

The subpackage also provides the graph relation algebra of Section 5.4.1
(:mod:`repro.tgm.graph_relation`) and the four-table relational persistence
of Section 6.2 (:mod:`repro.tgm.storage`).
"""

from repro.tgm.conditions import (
    AndCondition,
    AttributeCompare,
    AttributeIn,
    AttributeLike,
    Condition,
    LabelLike,
    NeighborSatisfies,
    NodeIn,
    NodeIs,
    NotCondition,
    OrCondition,
    conjoin_conditions,
)
from repro.tgm.graph_relation import (
    GraphAttribute,
    GraphRelation,
    base_relation,
    join,
    projection,
    selection,
)
from repro.tgm.instance_graph import (
    Edge,
    EdgeTypeStats,
    GraphStatistics,
    InstanceGraph,
    Node,
)
from repro.tgm.schema_graph import (
    EdgeType,
    EdgeTypeCategory,
    NodeType,
    NodeTypeCategory,
    SchemaGraph,
)
from repro.tgm.storage import load_graph, save_graph, storage_database

__all__ = [
    "AndCondition",
    "AttributeCompare",
    "AttributeIn",
    "AttributeLike",
    "Condition",
    "Edge",
    "EdgeTypeStats",
    "GraphStatistics",
    "EdgeType",
    "EdgeTypeCategory",
    "GraphAttribute",
    "GraphRelation",
    "InstanceGraph",
    "LabelLike",
    "NeighborSatisfies",
    "Node",
    "NodeIn",
    "NodeIs",
    "NodeType",
    "NodeTypeCategory",
    "NotCondition",
    "OrCondition",
    "SchemaGraph",
    "base_relation",
    "conjoin_conditions",
    "join",
    "load_graph",
    "projection",
    "save_graph",
    "selection",
    "storage_database",
]
