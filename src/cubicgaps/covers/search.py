"""Exhaustive small-seed cover search and the persisted gap catalog.

Every cubic seed cell is turned into periodic covers by sending one
edge (or an ordered pair of edges) across to neighboring cells.  Global
conjugation of the character flips all offset signs at once, so singles
only need offset +1 and pairs only the relative signs (+1, +1) and
(+1, -1).  Rank-2 covers get every coprime direction |a|, |b| <= 3 of
the torus sliced back down to rank 1, which is how the two reference
band structures [-3,-1] u [1,3] and [-(1+sqrt17)/2,-2] u
[0,(sqrt17-1)/2] u [2,3] are rediscovered from 4- and 6-vertex seeds.

Catalog rows are JSON lines with deterministic content ids; duplicate
band pictures (same spectrum, gaps and flat bands after rounding) are
collapsed, keeping the first in (seed, edge indices, direction) order.
The dedup key reads a sampled interval whose ends agree after rounding
as a point, so solver noise of about 1e-15, which decides whether
`gap_report` stores an isolated eigenvalue as a point or as a tiny
interval, cannot split one picture into two rows.

A seed automorphism carries each choice of redirected edges onto
another choice whose cover is the same periodic graph up to relabelling
(Gross & Tucker, voltage graphs), so its band pictures add nothing new.
Each seed's choices are therefore tried once per automorphism orbit, at
the orbit's first member in catalog order, which keeps every row and
its id as the full sweep would have them.  The automorphisms come from
the library's own matcher (`graphcore.automorphisms`).

A row's `planar_quotients` flag says that every cyclic quotient of its
cover is planar, for every number of decks.  It is decided exactly by
`derived_embedding` from the seed's planar rotation systems
(`planar_rotations`), which are enumerated once per seed; one `is_planar`
call skips that for a non-planar seed, which has none.  networkx serves
the search only through that call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..dynamics.intervals import IntervalSet
from ..errors import BadInput, _field
from ..graphcore.multigraph import Multigraph, automorphisms
from ..graphcore.planarity import is_planar, planar_rotations
from .periodic import (GapReport, PeriodicGraph, bands, derived_embedding,
                       gap_report, restrict_subtorus)

__all__ = [
    "CatalogEntry",
    "iter_search_covers",
    "search_covers",
    "search_planar_covers",
    "coverage_report",
    "planar_coverage",
    "save_catalog",
    "load_catalog",
    "catalog_hash",
    "entry_cover",
    "SUBTORUS_DIRECTIONS",
]

# Coprime (a, b) with |a|, |b| <= 3, one representative per line through
# the origin (negating both components conjugates the character).
SUBTORUS_DIRECTIONS = tuple(sorted(
    (a, b)
    for a in range(0, 4)
    for b in range(-3, 4)
    if (a, b) != (0, 0)
    and math.gcd(abs(a), abs(b)) == 1
    and (a > 0 or b > 0)
))

_ROUND = 6


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: a cover, how it was built, and its gap report.

    For subtorus slices, base/offsets describe the rank-2 parent and
    cover holds the restricted rank-1 graph, so the row alone suffices
    to rebuild the cover.  planar_quotients is True when the cover is
    rank 1 and `derived_embedding` finds a planar rotation system of
    the cell that lifts to every cyclic quotient, which proves all of
    them planar; it is False for rank-2 rows.
    """

    entry_id: str
    cover: PeriodicGraph
    base: Multigraph
    offsets: tuple
    subtorus: tuple | None
    report: GapReport
    planar_quotients: bool

    def to_json(self) -> dict:
        return {
            "id": self.entry_id,
            "base": self.base.to_json(),
            "offsets": [list(o) for o in self.offsets],
            "subtorus": list(self.subtorus) if self.subtorus else None,
            "spectrum": self.report.spectrum_estimate.to_json(),
            "gaps": self.report.gaps.to_json(),
            "flat_bands": [[v, m] for v, m in self.report.flat_bands],
            "planar_quotients": self.planar_quotients,
        }


def _entry_id(base: Multigraph, offsets, subtorus) -> str:
    payload = json.dumps({
        "n": base.n,
        "edges": [list(e) for e in base.edges],
        "offsets": [list(o) for o in offsets],
        "subtorus": list(subtorus) if subtorus else None,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _dedup_key(base_n: int, report: GapReport):
    """Rounded band picture; an interval of rounded width 0 is a point."""
    est = report.spectrum_estimate
    intervals = []
    points = {round(p, _ROUND) for p in est.points}
    for a, b in est.intervals:
        a, b = round(a, _ROUND), round(b, _ROUND)
        if a == b:
            points.add(a)
        else:
            intervals.append((a, b))
    return (
        base_n,
        tuple(intervals),
        tuple(sorted(points)),
        tuple((round(v, _ROUND), m) for v, m in report.flat_bands),
    )


def _offsets_for(m: int, assignment: dict, rank: int):
    zero = (0,) * rank
    return tuple(assignment.get(j, zero) for j in range(m))


def _orbit_firsts(seed: Multigraph, choices):
    """The choices, in the given order, that come first in their orbit
    under the automorphisms of seed.

    A choice is (edges, sign): a tuple of edge indices, and the sign of
    the second edge's offset relative to the first's, or None when the
    sign does not matter.  Parallel edges form one class and any member
    stands for it.  An automorphism sends edge (u, v) to the class of
    (p[u], p[v]) and flips its offset when p[u] > p[v]; a loop's offset
    can take either sign, so a loop makes both relative signs reachable.
    """
    cls = {e: seed.edges.index(e) for e in seed.edges}
    maps = []
    for p in automorphisms(seed):
        image, flip = {}, {}
        for u, v in seed.edges:
            a, b = p[u], p[v]
            image[cls[(u, v)]] = cls[(min(a, b), max(a, b))]
            flip[cls[(u, v)]] = 0 if a == b else (1 if a < b else -1)
        maps.append((image, flip))
    seen = set()
    for choice in choices:
        edges, sign = choice
        classes = tuple(sorted(cls[seed.edges[j]] for j in edges))
        if (classes, sign) in seen:
            continue
        yield choice
        for image, flip in maps:
            moved = tuple(sorted(image[c] for c in classes))
            if sign is None:
                seen.add((moved, None))
                continue
            eps = math.prod(flip[c] for c in classes)
            signs = (sign * eps,) if eps else (1, -1)
            seen.update((moved, t) for t in signs)


def _candidates(seed: Multigraph, rank: int, two_link: bool, N: int):
    """(offsets, subtorus, cover, grid) for the covers of one seed, in
    catalog order, one edge choice per automorphism orbit."""
    m = len(seed.edges)
    if rank == 1:
        choices = [((j,), None) for j in range(m)]
        if two_link:
            choices += [((j, k), s) for j in range(m)
                        for k in range(j + 1, m) for s in (1, -1)]
        for edges, s in _orbit_firsts(seed, choices):
            assignment = {edges[0]: (1,)}
            if s is not None:
                assignment[edges[1]] = (s,)
            offs = _offsets_for(m, assignment, 1)
            try:
                P = PeriodicGraph(seed, 1, offs, name=seed.name)
            except BadInput:
                continue
            yield offs, None, P, N
        return
    N2 = max(32, N // 4)
    if N2 % 2:
        N2 += 1
    pairs = [((j, k), None) for j in range(m) for k in range(j + 1, m)]
    for (j, k), _ in _orbit_firsts(seed, pairs):
        offs = _offsets_for(m, {j: (1, 0), k: (0, 1)}, 2)
        try:
            P2 = PeriodicGraph(seed, 2, offs, name=seed.name)
        except BadInput:
            continue
        yield offs, None, P2, N2
        for a, b in SUBTORUS_DIRECTIONS:
            yield offs, (a, b), restrict_subtorus(P2, a, b), N


def iter_search_covers(seeds, rank: int = 2, two_link: bool = True,
                       N: int = 256):
    """Sweep the seeds and yield the deduplicated CatalogEntry rows one
    at a time, in catalog order.

    rank=1: every single-edge redirect, plus every edge pair with
    relative signs (+,+) and (+,-) when two_link is set.  rank=2: every
    edge pair spans the torus, reported whole (on a reduced grid) and
    sliced along each coprime direction at the full grid N.  Only the
    first edge choice of each seed-automorphism orbit is tried; the
    others give relabelled copies of covers already seen.  A cover that
    repeats one of the same seed exactly (same offsets and grid, as the
    axis slices of two pairs sharing an edge do) is skipped before its
    eigensolve, since its key is the first copy's.  A row is
    dropped when its band picture, rounded to 6 digits with zero-width
    intervals read as points, was seen before.  A kept row's quotient
    planarity reads the seed's planar rotation systems, which are
    enumerated once per seed.
    """
    if rank not in (1, 2):
        raise BadInput("rank must be 1 or 2")
    if N < 16 or N % 2:
        raise BadInput("grid size must be even and at least 16")
    seen = set()
    for i, seed in enumerate(seeds):
        seed.require_cubic(f"cover search seed {i}")
        if seed.half_loops:
            raise BadInput(f"cover search seed {i} carries half-loops, "
                           "which a periodic cover cannot lift")
        if seed.n > 12:
            raise BadInput(f"cover search seed {i} has more than 12 vertices")
        if not seed.is_connected():
            raise BadInput(f"cover search seed {i} is disconnected, so it "
                           "has no connected cover")
        rotations = planar_rotations(seed) if is_planar(seed) else []
        tried = set()
        for offs, subtorus, cover, grid in _candidates(seed, rank, two_link, N):
            # the (1, 0) and (0, 1) slices of pairs sharing an edge are
            # one single-edge cover, whose repeat has a seen key
            if (cover.offsets, grid) in tried:
                continue
            tried.add((cover.offsets, grid))
            report = gap_report(bands(cover, grid))
            key = _dedup_key(seed.n, report)
            if key in seen:
                continue
            seen.add(key)
            yield CatalogEntry(
                entry_id=_entry_id(seed, offs, subtorus),
                cover=cover, base=seed, offsets=tuple(offs),
                subtorus=subtorus, report=report,
                planar_quotients=derived_embedding(cover, rotations)
                is not None)


def search_covers(seeds, rank: int = 2, two_link: bool = True,
                  N: int = 256) -> list:
    """All rows of `iter_search_covers` as a list."""
    return list(iter_search_covers(seeds, rank=rank, two_link=two_link, N=N))


def coverage_report(entries, lo: float, hi: float, resolution: float = 0.01) -> dict:
    """Does the union of the cataloged gap sets cover [lo, hi]?

    Checked on a grid at the given resolution; also reports the longest
    covered interval starting at -3 (the stretch figure)."""
    gap_union = IntervalSet(())
    for e in entries:
        gaps = e.report.gaps if isinstance(e, CatalogEntry) else \
            IntervalSet.from_json(e["gaps"])
        gap_union = gap_union.union(gaps)
    steps = int(round((hi - lo) / resolution))
    missing = []
    for i in range(steps + 1):
        x = lo + i * (hi - lo) / max(steps, 1)
        if not gap_union.contains(x, tol=resolution / 2):
            missing.append(x)
    reach = -3.0
    x = -3.0
    step = resolution
    while x <= 3.0 and gap_union.contains(x, tol=resolution / 2):
        reach = x
        x += step
    return {
        "target": [lo, hi],
        "resolution": resolution,
        "covered": not missing,
        "missing_points": missing[:20],
        "union": gap_union.to_json(),
        "reach_from_minus3": reach,
    }


def planar_coverage(entries) -> dict:
    """The two coverage reports of a set of planar rows, at resolution
    0.01: "required" checks [-2, 0], and "stretch" checks
    [-3, 2*sqrt(2) - 0.01] and reports the reach from -3."""
    return {"required": coverage_report(entries, -2.0, 0.0, 0.01),
            "stretch": coverage_report(entries, -3.0,
                                       2.0 * math.sqrt(2.0) - 0.01, 0.01)}


def search_planar_covers(seeds, N: int = 256) -> tuple:
    """Planar-quotient subset of the full rank-2 search, with its
    `planar_coverage` reports attached."""
    entries = [e for e in search_covers(seeds, rank=2, two_link=True, N=N)
               if e.planar_quotients]
    return entries, planar_coverage(entries)


def save_catalog(entries, path) -> str:
    """Write JSON lines; returns the content hash of the written file."""
    with open(path, "w") as fh:
        for e in entries:
            row = e.to_json() if isinstance(e, CatalogEntry) else e
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    return catalog_hash(path)


def load_catalog(path) -> list:
    """The JSON object on each non-blank line; an unreadable file or a
    line that is not a JSON object raises BadInput."""
    rows = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise BadInput(f"malformed catalog line: {exc}") from exc
                if not isinstance(row, dict):
                    raise BadInput(
                        f"catalog line {number} is not a JSON object")
                rows.append(row)
    except OSError as exc:
        raise BadInput(
            f"cannot read catalog {path}: {exc.strerror or exc}") from exc
    return rows


def catalog_hash(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def entry_cover(row) -> PeriodicGraph:
    """Rebuild the (possibly sliced) cover from a catalog JSON row; a
    missing or malformed field raises BadInput naming it."""
    if isinstance(row, CatalogEntry):
        return row.cover
    base = _field(row, "catalog row", "base", Multigraph.from_json)
    offsets = _field(row, "catalog row", "offsets", _int_rows)
    rank = len(offsets[0]) if offsets else 1
    P = PeriodicGraph(base, rank, offsets, name=base.name)
    if row.get("subtorus"):
        a, b = _field(row, "catalog row", "subtorus", _int_pair)
        P = restrict_subtorus(P, a, b)
    return P


def _int_rows(rows) -> tuple:
    return tuple(tuple(int(c) for c in row) for row in rows)


def _int_pair(pair) -> tuple:
    a, b = pair
    return int(a), int(b)
