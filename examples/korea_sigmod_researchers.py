#!/usr/bin/env python3
"""Figure 7: incrementally build a complex query, step by step.

"Find a list of researchers who have published papers at SIGMOD after 2005
and are currently working at institutions in Korea."

Shows the same query built two ways — the primitive operators P1..P8 and
the user-level actions of the interface — plus the Figure 6 pattern diagram
and the equivalent SQL in both directions (pattern → SQL and SQL → pattern,
Section 8).

Run:  python examples/korea_sigmod_researchers.py
"""

from repro.core import (
    EtableSession,
    execute_pattern,
    pattern_to_sql,
    render_etable,
)
from repro.core.operators import add, initiate, select, shift
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.tgm import AttributeCompare, AttributeLike


def main() -> None:
    tgdb = academic_tgdb(AcademicConfig(papers=1200, seed=7))
    schema, graph = tgdb.schema, tgdb.graph

    # --- Route 1: primitive operators (Figure 7, left) ------------------
    pattern = initiate(schema, "Conferences")                           # P1
    pattern = select(pattern, AttributeCompare("acronym", "=", "SIGMOD"))   # P2
    pattern = add(pattern, schema, "Conferences->Papers")               # P3
    pattern = select(pattern, AttributeCompare("year", ">", 2005))      # P4
    pattern = add(pattern, schema, "Papers->Authors")                   # P5
    pattern = add(pattern, schema, "Authors->Institutions")             # P6
    pattern = select(pattern, AttributeLike("country", "%Korea%"))      # P7
    pattern = shift(pattern, "Authors")                                 # P8

    print("Figure 6 — the final query pattern:")
    print(pattern.to_ascii())

    etable = execute_pattern(pattern, graph)
    print(f"\n{len(etable)} researchers found:")
    print(render_etable(etable, max_rows=8, max_refs=3, label_width=14))

    # --- Route 2: user-level actions (Figure 7, right) ------------------
    session = EtableSession(schema, graph)
    session.open("Conferences")                                         # U1
    sigmod = session.current.find_row_by_attribute("acronym", "SIGMOD")
    session.see_all(sigmod, "Conferences->Papers")                      # U2
    session.filter(AttributeCompare("year", ">", 2005))                 # U3
    session.pivot("Papers->Authors")                                    # U4
    session.pivot("Authors->Institutions")
    session.filter(AttributeLike("country", "%Korea%"))
    by_actions = session.pivot("Authors")

    print("\nHistory panel (user actions):")
    for line in session.history_lines():
        print(" ", line)
    same = [r.attributes["name"] for r in etable.rows] == [
        r.attributes["name"] for r in by_actions.rows
    ]
    print(f"\nOperators and actions agree: {same}")

    # --- Section 8: pattern → SQL ---------------------------------------
    translation = pattern_to_sql(pattern, schema, tgdb.mapping, graph)
    print("\nPattern → SQL (the general Section 8 form):")
    print(translation.sql)
    print("\n(see examples/sql_roundtrip.py for the SQL → ETable direction)")


if __name__ == "__main__":
    main()
