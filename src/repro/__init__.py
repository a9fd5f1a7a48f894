"""Reproduction of "Interactive Browsing and Navigation in Relational
Databases" (Kahng, Navathe, Stasko, Chau — VLDB 2016).

Subpackages:

* :mod:`repro.relational` — typed tables with key constraints, a SQL
  parser, and the stdlib SQLite engine that stands in for the paper's
  PostgreSQL, with the ``ENT_LIST`` aggregate;
* :mod:`repro.tgm` — the typed graph model: schema/instance graphs, the
  graph relation algebra, and four-table relational storage;
* :mod:`repro.translate` — reverse engineering of relational schemas into
  typed graphs (Appendix A / Table 1);
* :mod:`repro.core` — ETable itself: query patterns, primitive operators,
  instance matching, format transformation, user-level actions, sessions,
  rendering, and SQL translation in both directions (Section 8);
* :mod:`repro.datasets` — the synthetic academic corpus (Figure 3), the
  Figure 8 toy instances, and a movies database;
* :mod:`repro.study` — the simulated user study (Section 7): tasks,
  keystroke-level timing, ETable and query-builder user models, statistics;
* :mod:`repro.bench` — table/figure reporting helpers for the benchmarks.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
