"""Seeded session scripts for the end-to-end workloads.

A session is what one browsing user does between opening the service and
leaving it: a list of steps, each either one click (a mutating action) or
a page read. Its constants come from a grid with one dimension per
constant. Every dimension is walked in its own seeded cyclic order, so any
run of consecutive sessions as long as a dimension holds each of its
values once, whatever the seed; and with pairwise coprime dimension sizes
no grid point repeats before the whole grid has been visited. Different
seeds therefore change which constants meet, not how often each value
occurs or how often the server's caches can hit, which is what keeps the
metrics steady from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

# The page a click renders: the first 50 rows, five references per cell.
CLICK_PAGE: dict[str, int] = {"limit": 50, "max_refs": 5}
# Untimed sessions run before the timed phase, drawn from the head of the
# same seeded sequence, so the timed phase never replays one of them.
WARMUP_SESSIONS = 10


@dataclass(frozen=True)
class Step:
    """One user step: ``action`` with ``params``, or a page read when
    ``action`` is None (``params`` are then the page's query params)."""

    action: str | None
    params: dict[str, Any]


@dataclass(frozen=True)
class Session:
    session_id: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    # The session shape every session of the workload has (SHAPES).
    shape: str
    fleet: bool
    stream: bool
    # Sessions the reference machine (2 vCPU Xeon, server and load
    # generator on a CPU each) completes per second: ``--seconds`` buys
    # that many sessions' worth of work, the same on every run. The rates
    # of the two small grids are rounded so that 20 seconds buy whole
    # passes over the grid (57 and 7 x 18 sessions): every seed then
    # times the same set of constants.
    sessions_per_s: float


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("cold-filter", "cold", fleet=False, stream=False,
                 sessions_per_s=12.0),
        Workload("pivot-fleet", "pivot", fleet=True, stream=False,
                 sessions_per_s=2.85),
        Workload("refine-stream", "refine", fleet=False, stream=True,
                 sessions_per_s=6.3),
    )
}


def _cmp(attribute: str, op: str, value: Any) -> dict[str, Any]:
    return {"kind": "compare", "attribute": attribute, "op": op,
            "value": value}


def _like(attribute: str, text: str) -> dict[str, Any]:
    return {"kind": "like", "attribute": attribute, "pattern": f"%{text}%"}


def _act(action: str, **params: Any) -> Step:
    return Step(action, params)


def _read(**params: Any) -> Step:
    return Step(None, params)


# ----------------------------------------------------------------------
# Session shapes
# ----------------------------------------------------------------------
# 14 x 11 x 13: pairwise coprime. A (year, keyword) pair recurs every 154
# sessions, after the LRU result cache (256 entries, about two new ones
# per session) has dropped it, and a full triple every 2002 sessions. The
# vocabularies are small on purpose: the executor memoizes every
# condition's verdict per node without bound, so new words in every
# session would grow the server's memory with the run's length and speed
# the run up as it goes.
COLD_GRID = (
    range(2000, 2014),
    ("data", "query", "user", "learning", "mining", "search", "visual",
     "network", "model", "processing", "analysis"),
    ("query", "graph", "data", "stream", "pattern", "index", "cache",
     "join", "schema", "ranking", "adaptive", "systems", "learning"),
)


def cold_steps(point: tuple, rng: random.Random) -> tuple[Step, ...]:
    """Open Papers, then filter by a year bound, a keyword (a subquery on
    the keyword neighbors) and a title word: from the keyword on, nearly
    every pattern misses the result cache."""
    year, keyword, word = point
    return (
        _act("open", type="Papers"),
        _act("filter", condition=_cmp("year", ">", year)),
        _act("nfilter", column="Papers->Paper_Keywords",
             condition=_like("keyword", keyword)),
        _act("filter", condition=_like("title", word)),
    )


# Three year bounds shared by many sessions (shared join prefixes), times
# the 19 conference rows a see-all can click: 57 distinct sessions, about
# one pass per run, so every seed visits nearly the same set.
PIVOT_GRID = ((2003, 2007, 2011), range(19))
_INSTITUTION_SORTS = ("name", "country", "Institutions->Authors")


def pivot_steps(point: tuple, rng: random.Random) -> tuple[Step, ...]:
    """Walk the many-to-many joins: Papers -> Authors -> Institutions,
    sort, revert, -> Conferences, see all papers of one conference, ->
    Authors."""
    year, row = point
    return (
        _act("open", type="Papers"),
        _act("filter", condition=_cmp("year", ">", year)),
        _act("pivot", column="Papers->Authors"),
        _act("pivot", column="Authors->Institutions"),
        _act("sort", column=rng.choice(_INSTITUTION_SORTS),
             descending=rng.random() < 0.5),
        _act("revert", index=1),
        _act("pivot", column="Papers->Conferences"),
        _act("seeall", row=row, column="Conferences->Papers"),
        _act("pivot", column="Papers->Authors"),
    )


_LETTERS = "aeilnorst"
# 2 x 9 = 18 variants in all: the working set fits the result cache.
REFINE_GRID = ((2004, 2008), range(len(_LETTERS)))


def refine_steps(point: tuple, rng: random.Random) -> tuple[Step, ...]:
    """Thirty steps over one Papers table: sorts, hide/show, page reads at
    several offsets, reverts (journal checkpoints) and a few LIKE filters.
    Revert indexes are history positions: every action adds one entry."""
    year, start = point
    a, b, c, d = (_LETTERS[(start + k) % len(_LETTERS)] for k in range(4))
    return (
        _act("open", type="Papers"),                              # 0
        _act("filter", condition=_cmp("year", ">", year)),        # 1
        _act("sort", column="year", descending=True),             # 2
        _read(offset=10, limit=10, max_refs=5),
        _act("filter", condition=_like("title", a)),              # 3
        _act("hide", column="page_start"),                        # 4
        _read(offset=20, limit=10, max_refs=5),
        _act("show", column="page_start"),                        # 5
        _act("sort", column="title"),                             # 6
        _act("nfilter", column="Papers->Authors",
             condition=_like("name", b)),                         # 7
        _read(offset=30, limit=10, max_refs=5),
        _act("revert", index=3),                                  # 8
        _act("filter", condition=_like("title", c)),              # 9
        _act("sort", column="year"),                              # 10
        _read(offset=0, limit=10, max_refs=5),
        _act("hide", column="Papers->Papers (referenced)"),       # 11
        _act("revert", index=6),                                  # 12
        _read(offset=40, limit=10, max_refs=5),
        _act("hide", column="page_end"),                          # 13
        _act("filter", condition=_like("title", d)),              # 14
        _read(offset=10, limit=10, max_refs=5),
        _act("show", column="page_end"),                          # 15
        _act("sort", column="title", descending=True),            # 16
        _act("revert", index=1),                                  # 17
        _read(offset=20, limit=10, max_refs=5),
        _act("nfilter", column="Papers->Paper_Keywords",
             condition=_like("keyword", "data")),                 # 18
        _act("sort", column="Papers->Authors", descending=True),  # 19
        _act("hide", column="Papers->Papers: year"),              # 20
        _read(offset=0, limit=10, max_refs=5),
        _read(),  # the whole table: the final page the gate compares
    )


SHAPES = {
    "cold": (COLD_GRID, cold_steps),
    "pivot": (PIVOT_GRID, pivot_steps),
    "refine": (REFINE_GRID, refine_steps),
}


def sessions(workload: str, seed: int) -> Iterator[Session]:
    """The workload's endless seeded session sequence. Session ``i``
    takes, in each grid dimension, entry ``i`` of a seeded cyclic order
    of that dimension."""
    shape = WORKLOADS[workload].shape
    grid, build = SHAPES[shape]
    rng = random.Random(f"{shape}:{seed}")
    orders = [rng.sample(list(values), len(values)) for values in grid]
    for index in itertools.count():
        # The id leaves the seed out: a fleet places sessions by id, so
        # session ``index`` lands on the same worker for any seed.
        yield Session(f"{workload}-{index:05d}",
                      build(tuple(order[index % len(order)]
                                  for order in orders), rng))
