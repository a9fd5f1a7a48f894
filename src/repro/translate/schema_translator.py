"""Relational schema → TGDB schema graph (Appendix A).

Besides the schema graph itself, translation produces a
:class:`TranslationMap` that records, for every node and edge type, the
relational machinery it came from (tables, key columns, junction tables).
The ETable SQL-translation layer (Section 8) consumes this map to emit SQL
over the *original* relational schema, which is what lets us cross-validate
graph execution against SQL run on SQLite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TranslationError
from repro.relational.database import Database
from repro.translate.classify import (
    ClassifiedRelation,
    RelationClass,
    classify_database,
)
from repro.translate.labels import choose_label_attribute, is_categorical_candidate
from repro.tgm.schema_graph import (
    EdgeTypeCategory,
    NodeType,
    NodeTypeCategory,
    SchemaGraph,
)


@dataclass(frozen=True)
class NodeMapping:
    """Where a node type's instances come from in the relational database."""

    node_type: str
    category: NodeTypeCategory
    table: str            # entity: the entity table; mv: the attribute table;
                          # categorical: the owning entity table
    key_column: str       # entity: pk column; mv: value column; cat: the column
    owner_table: str | None = None  # mv / categorical: the owning entity table


@dataclass(frozen=True)
class EdgeMapping:
    """How to traverse an edge type relationally.

    ``kind`` is one of: ``fk_forward``, ``fk_reverse``, ``mn_forward``,
    ``mn_reverse``, ``mv_forward``, ``mv_reverse``, ``cat_forward``,
    ``cat_reverse``. ``data`` holds the tables/columns needed to emit a SQL
    join for the traversal (see :mod:`repro.core.sql_translation`).
    """

    edge_type: str
    kind: str
    data: dict[str, str]


@dataclass
class TranslationMap:
    nodes: dict[str, NodeMapping] = field(default_factory=dict)
    edges: dict[str, EdgeMapping] = field(default_factory=dict)
    entity_table_to_node_type: dict[str, str] = field(default_factory=dict)

    def node_for_table(self, table: str) -> str:
        try:
            return self.entity_table_to_node_type[table]
        except KeyError:
            raise TranslationError(
                f"table {table!r} did not translate to an entity node type"
            ) from None


def translate_schema(
    database: Database,
    categorical_attributes: dict[str, list[str]] | None = None,
    label_overrides: dict[str, str] | None = None,
    graph_name: str | None = None,
) -> tuple[SchemaGraph, TranslationMap]:
    """Build the TGDB schema graph and its relational translation map.

    ``categorical_attributes`` maps entity table name → columns to expose as
    categorical-attribute node types (the user-driven, optional last step of
    Appendix A). ``label_overrides`` maps entity table name → label column.
    """
    categorical_attributes = categorical_attributes or {}
    label_overrides = label_overrides or {}
    classified = classify_database(database)
    schema = SchemaGraph(graph_name or f"tgdb({database.name})")
    mapping = TranslationMap()
    used_displays: dict[str, set[str]] = {}

    # Step 1: entity relations become node types.
    for name, info in classified.items():
        if info.relation_class is not RelationClass.ENTITY:
            continue
        table = database.table(name)
        label = choose_label_attribute(table, label_overrides.get(name))
        node_type = NodeType(
            name=name,
            attributes=table.schema.column_names,
            label_attribute=label,
            category=NodeTypeCategory.ENTITY,
        )
        schema.add_node_type(node_type)
        pk = table.schema.primary_key
        mapping.nodes[name] = NodeMapping(
            node_type=name,
            category=NodeTypeCategory.ENTITY,
            table=name,
            key_column=pk[0] if len(pk) == 1 else ",".join(pk),
        )
        mapping.entity_table_to_node_type[name] = name
        used_displays[name] = set()

    # Step 2: foreign keys between entity relations → 1:1 / 1:n edge pairs.
    for name, info in classified.items():
        if info.relation_class is not RelationClass.ENTITY:
            continue
        for fk in info.foreign_keys:
            _add_fk_edge_pair(schema, mapping, used_displays, database,
                              owner=name, fk=fk)

    # Step 3: relationship relations → many-to-many edge pairs.
    for name, info in classified.items():
        if info.relation_class is not RelationClass.MANY_TO_MANY:
            continue
        _add_mn_edge_pair(schema, mapping, used_displays, database, name, info)

    # Step 4: multivalued-attribute relations → value node types + edges.
    for name, info in classified.items():
        if info.relation_class is not RelationClass.MULTIVALUED:
            continue
        _add_multivalued(schema, mapping, used_displays, name, info)

    # Step 5 (optional, user-driven): categorical attributes.
    for table_name, columns in categorical_attributes.items():
        if table_name not in mapping.entity_table_to_node_type:
            raise TranslationError(
                f"categorical attribute owner {table_name!r} is not an "
                "entity relation"
            )
        for column in columns:
            _add_categorical(schema, mapping, used_displays, database,
                             table_name, column)

    return schema, mapping


def default_categorical_attributes(
    database: Database, max_cardinality: int = 30
) -> dict[str, list[str]]:
    """Suggest categorical attributes by the low-cardinality heuristic."""
    classified = classify_database(database)
    suggestions: dict[str, list[str]] = {}
    for name, info in classified.items():
        if info.relation_class is not RelationClass.ENTITY:
            continue
        table = database.table(name)
        columns = [
            column.name
            for column in table.schema.columns
            if is_categorical_candidate(table, column.name, max_cardinality)
        ]
        if columns:
            suggestions[name] = columns
    return suggestions


# ----------------------------------------------------------------------
# Edge-pair construction helpers
# ----------------------------------------------------------------------
def _dedupe_display(
    used_displays: dict[str, set[str]], source: str, wanted: str
) -> str:
    """Keep column-header labels unique per source node type (the "slightly
    different label" rule)."""
    used = used_displays.setdefault(source, set())
    candidate = wanted
    counter = 2
    while candidate in used:
        candidate = f"{wanted} #{counter}"
        counter += 1
    used.add(candidate)
    return candidate


def _add_fk_edge_pair(
    schema: SchemaGraph,
    mapping: TranslationMap,
    used_displays: dict[str, set[str]],
    database: Database,
    owner: str,
    fk,
) -> None:
    target = fk.ref_table
    fk_column = fk.columns[0]
    ref_pk = fk.ref_columns[0]
    if owner == target:
        forward_wanted = f"{target} ({fk_column})"
        reverse_wanted = f"{owner} (rev {fk_column})"
    else:
        forward_wanted = target
        reverse_wanted = owner
    forward_display = _dedupe_display(used_displays, owner, forward_wanted)
    reverse_display = _dedupe_display(used_displays, target, reverse_wanted)
    forward_name = schema.unique_edge_name(f"{owner}->{forward_display}")
    reverse_name = schema.unique_edge_name(f"{target}->{reverse_display}")
    schema.add_edge_type_pair(
        forward_name,
        reverse_name,
        source=owner,
        target=target,
        category=EdgeTypeCategory.ONE_TO_MANY,
        forward_display=forward_display,
        reverse_display=reverse_display,
    )
    data = {
        "owner_table": owner,
        "fk_column": fk_column,
        "ref_table": target,
        "ref_pk": ref_pk,
        "owner_pk": database.table(owner).schema.primary_key[0],
    }
    mapping.edges[forward_name] = EdgeMapping(forward_name, "fk_forward", dict(data))
    mapping.edges[reverse_name] = EdgeMapping(reverse_name, "fk_reverse", dict(data))


def _add_mn_edge_pair(
    schema: SchemaGraph,
    mapping: TranslationMap,
    used_displays: dict[str, set[str]],
    database: Database,
    junction: str,
    info: ClassifiedRelation,
) -> None:
    first_fk, second_fk = info.foreign_keys
    source = first_fk.ref_table
    target = second_fk.ref_table
    if source == target:
        forward_wanted = f"{target} (referenced)"
        reverse_wanted = f"{source} (referencing)"
    else:
        forward_wanted = target
        reverse_wanted = source
    forward_display = _dedupe_display(used_displays, source, forward_wanted)
    reverse_display = _dedupe_display(used_displays, target, reverse_wanted)
    forward_name = schema.unique_edge_name(f"{source}->{forward_display}")
    reverse_name = schema.unique_edge_name(f"{target}->{reverse_display}")
    junction_schema = database.table(junction).schema
    extra_attributes = tuple(
        column.name
        for column in junction_schema.columns
        if column.name not in junction_schema.primary_key
    )
    schema.add_edge_type_pair(
        forward_name,
        reverse_name,
        source=source,
        target=target,
        category=EdgeTypeCategory.MANY_TO_MANY,
        forward_display=forward_display,
        reverse_display=reverse_display,
        attributes=extra_attributes,
    )
    data = {
        "junction_table": junction,
        "source_fk": first_fk.columns[0],
        "target_fk": second_fk.columns[0],
        "source_table": source,
        "source_pk": first_fk.ref_columns[0],
        "target_table": target,
        "target_pk": second_fk.ref_columns[0],
    }
    mapping.edges[forward_name] = EdgeMapping(forward_name, "mn_forward", dict(data))
    mapping.edges[reverse_name] = EdgeMapping(reverse_name, "mn_reverse", dict(data))


def _add_multivalued(
    schema: SchemaGraph,
    mapping: TranslationMap,
    used_displays: dict[str, set[str]],
    attr_table: str,
    info: ClassifiedRelation,
) -> None:
    owner_fk = info.foreign_keys[0]
    owner = owner_fk.ref_table
    value_column = info.value_column
    assert value_column is not None
    node_type_name = f"{attr_table}: {value_column}"
    schema.add_node_type(
        NodeType(
            name=node_type_name,
            attributes=(value_column,),
            label_attribute=value_column,
            category=NodeTypeCategory.MULTIVALUED_ATTRIBUTE,
        )
    )
    used_displays[node_type_name] = set()
    mapping.nodes[node_type_name] = NodeMapping(
        node_type=node_type_name,
        category=NodeTypeCategory.MULTIVALUED_ATTRIBUTE,
        table=attr_table,
        key_column=value_column,
        owner_table=owner,
    )
    forward_display = _dedupe_display(used_displays, owner, attr_table)
    reverse_display = _dedupe_display(used_displays, node_type_name, owner)
    forward_name = schema.unique_edge_name(f"{owner}->{forward_display}")
    reverse_name = schema.unique_edge_name(f"{node_type_name}->{reverse_display}")
    schema.add_edge_type_pair(
        forward_name,
        reverse_name,
        source=owner,
        target=node_type_name,
        category=EdgeTypeCategory.MULTIVALUED_ATTRIBUTE,
        forward_display=forward_display,
        reverse_display=reverse_display,
    )
    data = {
        "attr_table": attr_table,
        "owner_fk": owner_fk.columns[0],
        "value_column": value_column,
        "owner_table": owner,
        "owner_pk": owner_fk.ref_columns[0],
    }
    mapping.edges[forward_name] = EdgeMapping(forward_name, "mv_forward", dict(data))
    mapping.edges[reverse_name] = EdgeMapping(reverse_name, "mv_reverse", dict(data))


def _add_categorical(
    schema: SchemaGraph,
    mapping: TranslationMap,
    used_displays: dict[str, set[str]],
    database: Database,
    table_name: str,
    column: str,
) -> None:
    table = database.table(table_name)
    if not table.schema.has_column(column):
        raise TranslationError(
            f"categorical attribute {table_name}.{column} does not exist"
        )
    node_type_name = f"{table_name}: {column}"
    if schema.has_node_type(node_type_name):
        raise TranslationError(
            f"categorical node type {node_type_name!r} already exists"
        )
    schema.add_node_type(
        NodeType(
            name=node_type_name,
            attributes=(column,),
            label_attribute=column,
            category=NodeTypeCategory.CATEGORICAL_ATTRIBUTE,
        )
    )
    used_displays[node_type_name] = set()
    mapping.nodes[node_type_name] = NodeMapping(
        node_type=node_type_name,
        category=NodeTypeCategory.CATEGORICAL_ATTRIBUTE,
        table=table_name,
        key_column=column,
        owner_table=table_name,
    )
    forward_display = _dedupe_display(used_displays, table_name, node_type_name)
    reverse_display = _dedupe_display(used_displays, node_type_name, table_name)
    forward_name = schema.unique_edge_name(f"{table_name}->{forward_display}")
    reverse_name = schema.unique_edge_name(f"{node_type_name}->{reverse_display}")
    schema.add_edge_type_pair(
        forward_name,
        reverse_name,
        source=table_name,
        target=node_type_name,
        category=EdgeTypeCategory.CATEGORICAL_ATTRIBUTE,
        forward_display=forward_display,
        reverse_display=reverse_display,
    )
    data = {
        "owner_table": table_name,
        "column": column,
        "owner_pk": table.schema.primary_key[0],
    }
    mapping.edges[forward_name] = EdgeMapping(forward_name, "cat_forward", dict(data))
    mapping.edges[reverse_name] = EdgeMapping(reverse_name, "cat_reverse", dict(data))
