"""Relational persistence of a TGDB (Section 6.2).

The paper's prototype "stores TGDB schema and instance graphs in four
relational tables: nodes, edges, node types, and edge types". We reproduce
that layout as a :class:`~repro.relational.Database`. Node attribute values
are serialized into a JSON text column (the paper does not specify the physical
attribute encoding; JSON-in-a-column matches the PostgreSQL-era idiom and
keeps the table count at exactly four).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import TgmError
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, table_schema
from repro.tgm.instance_graph import InstanceGraph
from repro.tgm.schema_graph import (
    EdgeTypeCategory,
    NodeType,
    NodeTypeCategory,
    SchemaGraph,
)

NODE_TYPES_TABLE = "node_types"
EDGE_TYPES_TABLE = "edge_types"
NODES_TABLE = "nodes"
EDGES_TABLE = "edges"


def storage_database(name: str = "tgdb_storage") -> Database:
    """An empty database with the four TGDB tables declared."""
    db = Database(name)
    db.create_table(
        table_schema(
            NODE_TYPES_TABLE,
            [
                ("name", DataType.TEXT),
                ("attributes", DataType.TEXT),      # JSON array of names
                ("label_attribute", DataType.TEXT),
                ("category", DataType.TEXT),
            ],
            primary_key="name",
        )
    )
    db.create_table(
        table_schema(
            EDGE_TYPES_TABLE,
            [
                ("name", DataType.TEXT),
                ("source", DataType.TEXT),
                ("target", DataType.TEXT),
                ("display_name", DataType.TEXT),
                ("category", DataType.TEXT),
                ("reverse_name", DataType.TEXT),
            ],
            primary_key="name",
            foreign_keys=[
                ForeignKey("source", NODE_TYPES_TABLE, "name"),
                ForeignKey("target", NODE_TYPES_TABLE, "name"),
            ],
        )
    )
    db.create_table(
        table_schema(
            NODES_TABLE,
            [
                ("id", DataType.INTEGER),
                ("type_name", DataType.TEXT),
                ("attributes", DataType.TEXT),      # JSON object
                ("source_key", DataType.TEXT),      # JSON-encoded scalar
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("type_name", NODE_TYPES_TABLE, "name")],
        )
    )
    db.create_table(
        table_schema(
            EDGES_TABLE,
            [
                ("id", DataType.INTEGER),
                ("type_name", DataType.TEXT),
                ("source_id", DataType.INTEGER),
                ("target_id", DataType.INTEGER),
                ("attributes", DataType.TEXT),      # JSON object
            ],
            primary_key="id",
            foreign_keys=[
                ForeignKey("type_name", EDGE_TYPES_TABLE, "name"),
                ForeignKey("source_id", NODES_TABLE, "id"),
                ForeignKey("target_id", NODES_TABLE, "id"),
            ],
        )
    )
    return db


def save_graph(
    schema: SchemaGraph,
    graph: InstanceGraph,
    name: str = "tgdb_storage",
) -> Database:
    """Persist a schema + instance graph into a four-table database."""
    db = storage_database(name)
    for node_type in schema.node_types:
        db.insert(
            NODE_TYPES_TABLE,
            {
                "name": node_type.name,
                "attributes": json.dumps(list(node_type.attributes)),
                "label_attribute": node_type.label_attribute,
                "category": node_type.category.name,
            },
        )
    for edge_type in schema.edge_types:
        db.insert(
            EDGE_TYPES_TABLE,
            {
                "name": edge_type.name,
                "source": edge_type.source,
                "target": edge_type.target,
                "display_name": edge_type.display_name,
                "category": edge_type.category.name,
                "reverse_name": edge_type.reverse_name,
            },
        )
    for node in sorted(
        (graph.node(node_id) for type_name in (t.name for t in schema.node_types)
         for node_id in graph.node_ids_of_type(type_name)),
        key=lambda n: n.node_id,
    ):
        db.insert(
            NODES_TABLE,
            {
                "id": node.node_id,
                "type_name": node.type_name,
                "attributes": json.dumps(node.attributes),
                "source_key": json.dumps(node.source_key),
            },
        )
    for index, edge in enumerate(graph.edges(), start=1):
        db.insert(
            EDGES_TABLE,
            {
                "id": index,
                "type_name": edge.type_name,
                "source_id": edge.source_id,
                "target_id": edge.target_id,
                "attributes": json.dumps(dict(edge.attributes)),
            },
        )
    return db


def load_graph(db: Database) -> tuple[SchemaGraph, InstanceGraph]:
    """Rebuild (schema graph, instance graph) from a four-table database.

    Node ids are preserved so entity references serialized elsewhere stay
    valid across a save/load round trip. The planner's statistics are not
    stored: the loaded graph computes them from its own contents on first
    use.
    """
    schema = SchemaGraph(db.name)
    for row in db.table(NODE_TYPES_TABLE).as_dicts():
        schema.add_node_type(
            NodeType(
                name=row["name"],
                attributes=tuple(json.loads(row["attributes"])),
                label_attribute=row["label_attribute"],
                category=NodeTypeCategory[row["category"]],
            )
        )
    edge_rows = db.table(EDGE_TYPES_TABLE).as_dicts()
    registered: set[str] = set()
    by_name = {row["name"]: row for row in edge_rows}
    for row in edge_rows:
        if row["name"] in registered:
            continue
        reverse_name = row["reverse_name"]
        if reverse_name is None:
            schema.add_edge_type(
                row["name"],
                row["source"],
                row["target"],
                EdgeTypeCategory[row["category"]],
                display_name=row["display_name"],
            )
            registered.add(row["name"])
            continue
        reverse = by_name.get(reverse_name)
        if reverse is None:
            raise TgmError(
                f"edge type {row['name']!r} references missing reverse "
                f"{reverse_name!r}"
            )
        schema.add_edge_type_pair(
            row["name"],
            reverse_name,
            row["source"],
            row["target"],
            EdgeTypeCategory[row["category"]],
            forward_display=row["display_name"],
            reverse_display=reverse["display_name"],
        )
        registered.add(row["name"])
        registered.add(reverse_name)

    graph = InstanceGraph(schema)
    node_rows = sorted(db.table(NODES_TABLE).as_dicts(), key=lambda r: r["id"])
    id_mapping: dict[int, int] = {}
    for row in node_rows:
        node = graph.add_node(
            row["type_name"],
            json.loads(row["attributes"]),
            source_key=_decode_source_key(row["source_key"]),
        )
        id_mapping[row["id"]] = node.node_id
        if node.node_id != row["id"]:
            raise TgmError(
                "node ids were not preserved on load; storage requires "
                "contiguous ids starting at 1"
            )
    for row in sorted(db.table(EDGES_TABLE).as_dicts(), key=lambda r: r["id"]):
        graph.add_edge(
            row["type_name"],
            id_mapping[row["source_id"]],
            id_mapping[row["target_id"]],
            json.loads(row["attributes"]),
        )
    return schema, graph


def _decode_source_key(text: str | None) -> Any:
    if text is None:
        return None
    value = json.loads(text)
    # JSON lists come back as lists; composite keys were tuples originally.
    if isinstance(value, list):
        return tuple(value)
    return value
