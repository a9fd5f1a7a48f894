#!/usr/bin/env python3
"""Figure 1: SIGMOD papers containing the keyword 'user'.

Rebuilds the paper's opening example: an enriched table of SIGMOD papers
whose keywords match '%user%', with entity-reference columns for the
conference, authors, citations in both directions, and keywords — one row
per paper, no duplication. Also prints the flat-join comparison the paper
uses as motivation ("9 tables would need to be joined").

Run:  python examples/figure1_sigmod_user_papers.py
"""

from repro.core import EtableSession, render_etable
from repro.core.matching import match
from repro.core.operators import add, shift
from repro.datasets.academic import AcademicConfig, academic_tgdb
from repro.tgm import AttributeCompare, AttributeLike


def main() -> None:
    tgdb = academic_tgdb(AcademicConfig(papers=1200, seed=7))

    session = EtableSession(tgdb.schema, tgdb.graph)
    session.open("Papers")
    session.filter_by_neighbor(
        "Papers->Paper_Keywords", AttributeLike("keyword", "%user%")
    )
    session.filter_by_neighbor(
        "Papers->Conferences", AttributeCompare("acronym", "=", "SIGMOD")
    )
    etable = session.sort("Papers->Papers (referenced)", descending=True)

    print("Papers filtered by Paper_Keywords.keyword like '%user%' "
          "AND Conferences.acronym = 'SIGMOD'\n")
    print(render_etable(etable, max_rows=10, max_refs=4, label_width=11))

    print("\nHISTORY")
    for line in session.history_lines():
        print(" ", line)

    # The motivating comparison: the flat join for the same information.
    pattern = etable.pattern
    pattern = add(pattern, tgdb.schema, "Papers->Authors")
    pattern = shift(pattern, "Papers")
    pattern = add(pattern, tgdb.schema, "Papers->Paper_Keywords")
    pattern = shift(pattern, "Papers")
    flat = match(pattern, tgdb.graph)
    print(f"\nETable shows {len(etable)} rows; the flat relational join of "
          f"authors x keywords alone already produces {len(flat)} tuples "
          f"({len(flat) / max(1, len(etable)):.1f}x duplication).")


if __name__ == "__main__":
    main()
