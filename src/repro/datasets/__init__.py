"""Dataset generators for the reproduction.

* :mod:`repro.datasets.academic` — the paper's DBLP/ACM-style corpus
  (Figure 3 schema), seeded and scalable to the evaluation's 38k papers;
* :mod:`repro.datasets.toy` — the exact instances of Figure 8's walkthrough;
* :mod:`repro.datasets.movies` — a second domain proving schema independence.

Each module pairs its generator with one recipe — :func:`academic_tgdb`,
:func:`movies_tgdb`, :func:`toy_tgdb` — returning the translated TGDB with
the dataset's categorical attributes and labels.
"""

from repro.datasets.academic import (
    AcademicConfig,
    GenerationReport,
    academic_schema,
    academic_tgdb,
    default_categorical_attributes,
    default_label_overrides,
    generate_academic,
    paper_scale_config,
)
from repro.datasets.movies import (
    MoviesConfig,
    generate_movies,
    movies_schema,
    movies_tgdb,
)
from repro.datasets.toy import FIGURE8_EXPECTED, generate_toy, toy_tgdb

__all__ = [
    "AcademicConfig",
    "FIGURE8_EXPECTED",
    "GenerationReport",
    "MoviesConfig",
    "academic_schema",
    "academic_tgdb",
    "default_categorical_attributes",
    "default_label_overrides",
    "generate_academic",
    "generate_movies",
    "generate_toy",
    "movies_schema",
    "movies_tgdb",
    "paper_scale_config",
    "toy_tgdb",
]
