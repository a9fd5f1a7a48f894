"""ETable — the paper's presentation data model, operators, and actions.

Typical usage::

    from repro.datasets.academic import (
        generate_academic, default_categorical_attributes,
        default_label_overrides,
    )
    from repro.translate import translate_database
    from repro.core import EtableSession, render_etable
    from repro.tgm import AttributeCompare

    db, _ = generate_academic()
    tgdb = translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )
    session = EtableSession(tgdb.schema, tgdb.graph)
    session.open("Conferences")
    session.filter(AttributeCompare("acronym", "=", "SIGMOD"))
    session.pivot("Papers")
    print(render_etable(session.current))

SQL execution — the Section 6.2 strategies run the translated SQL on a
:class:`~repro.relational.sqlite.SqliteDatabase`. Load it once, query it
many times, and close it::

    from repro.relational import SqliteDatabase
    from repro.core import execute_monolithic, execute_partitioned

    with SqliteDatabase(db) as engine:
        result = execute_monolithic(
            engine, session.current.pattern, tgdb.schema, tgdb.mapping,
            tgdb.graph,
        )
"""

from repro.core.actions import (
    action_filter,
    action_filter_by_neighbor,
    action_open,
    action_pivot,
    action_see_all,
    action_single,
)
from repro.core.cache import CacheStats, CachingExecutor, pattern_cache_key
from repro.core.column_ranking import ColumnScore, score_columns, select_columns
from repro.core.etable import (
    ColumnKind,
    ColumnSpec,
    ETable,
    ETableRow,
    EntityRef,
)
from repro.core.matching import match
from repro.core.planner import (
    Plan,
    PlanStep,
    PrefixStore,
    build_plan,
    candidate_ids,
    estimate_selectivity,
    execute_plan,
    restore_reference_order,
    subpattern_key,
)
from repro.core.operators import add, initiate, select, shift
from repro.core.query_pattern import (
    PatternEdge,
    PatternNode,
    QueryPattern,
    single_node_pattern,
)
from repro.core.render import (
    render_default_table_list,
    render_etable,
    render_history,
    render_interface,
)
from repro.core.session import EtableSession, HistoryEntry
from repro.core.set_ops import (
    etable_difference,
    etable_intersection,
    etable_union,
)
from repro.core.sql_execution import (
    PatternSqlResult,
    build_partitioned_queries,
    execute_monolithic,
    execute_partitioned,
    graph_result_summary,
    results_equal,
)
from repro.core.sql_translation import SqlTranslation, pattern_to_sql
from repro.core.transform import duplication_factor, execute_pattern, transform

__all__ = [
    "CacheStats",
    "CachingExecutor",
    "ColumnKind",
    "ColumnScore",
    "ColumnSpec",
    "ETable",
    "ETableRow",
    "EntityRef",
    "EtableSession",
    "HistoryEntry",
    "PatternEdge",
    "PatternNode",
    "PatternSqlResult",
    "QueryPattern",
    "SqlTranslation",
    "action_filter",
    "action_filter_by_neighbor",
    "action_open",
    "action_pivot",
    "action_see_all",
    "action_single",
    "add",
    "build_partitioned_queries",
    "duplication_factor",
    "etable_difference",
    "etable_intersection",
    "etable_union",
    "execute_monolithic",
    "execute_partitioned",
    "execute_pattern",
    "graph_result_summary",
    "initiate",
    "match",
    "pattern_cache_key",
    "Plan",
    "PlanStep",
    "PrefixStore",
    "build_plan",
    "candidate_ids",
    "estimate_selectivity",
    "execute_plan",
    "restore_reference_order",
    "subpattern_key",
    "pattern_to_sql",
    "score_columns",
    "select_columns",
    "render_default_table_list",
    "render_etable",
    "render_history",
    "render_interface",
    "results_equal",
    "select",
    "shift",
    "single_node_pattern",
    "transform",
]
