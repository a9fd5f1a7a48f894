#!/usr/bin/env python3
"""Schema independence: browse a movie database with the same pipeline.

ETable's translation is driven purely by keys and cardinalities, so the
identical code path that browses academic papers also browses movies:
FK links (studio, director), a many-to-many cast with an edge attribute,
a multivalued genre attribute, and categorical decade/country nodes.

Run:  python examples/movie_exploration.py
"""

from repro.core import EtableSession, render_etable
from repro.datasets.movies import MoviesConfig, movies_tgdb
from repro.tgm import AttributeCompare


def main() -> None:
    tgdb = movies_tgdb(MoviesConfig(movies=160, people=120, seed=11))

    print("Translated node types:",
          ", ".join(t.name for t in tgdb.schema.node_types))
    print("Columns available from Movies:",
          ", ".join(e.display_name for e in tgdb.schema.edges_from("Movies")))

    session = EtableSession(tgdb.schema, tgdb.graph)

    # Which studio released the most 1990s movies?
    session.open("Movies")
    session.filter(AttributeCompare("decade", "=", "1990s"))
    etable = session.pivot("Movies->Studios")
    session.sort("Movies", descending=True)   # participating column count
    print(f"\nStudios by number of 1990s movies ({len(etable)} studios):")
    print(render_etable(etable, max_rows=6, max_refs=3, label_width=16))

    # Drill into the top studio's people.
    top = session.current.rows[0]
    print(f"\nTop studio: {top.attributes['name']}")
    session.see_all(top, "Movies")
    cast_table = session.pivot("Movies->People")
    session.sort("Movies", descending=True)
    print("\nMost prolific people in that studio's 1990s movies:")
    print(render_etable(cast_table, max_rows=5, max_refs=3, label_width=16))

    print("\nHISTORY")
    for line in session.history_lines():
        print(" ", line)


if __name__ == "__main__":
    main()
