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

Two offset assignments on one cell give isomorphic covers, with the
same band samples, when one becomes the other under a cell
automorphism, a coboundary p(u) - p(v), a permutation of parallel
edges, a loop reversal or a signed move of the axes (Gross & Tucker,
voltage graphs), so the later cover adds no band picture.  The search
skips such a cover by its cover-identity key (`_CoverKeys`: the least
gauge-fixed offset vector over the automorphisms and axis moves,
computed in numpy for all choices of a seed at once) before it is built
or eigensolved, keeping the first cover of each key in catalog order,
so every row and its id stay as the full sweep would have them.  A
rank-2 edge pair whose whole cover repeats an earlier pair's key is
skipped with all of its slices.  The automorphisms come from the
library's own matcher (`graphcore.automorphisms`).

A row's `planar_quotients` flag says that every cyclic quotient of its
cover is planar, for every number of decks.  It is decided exactly by
`derived_embedding` from the seed's planar rotation systems
(`planar_rotations`), which are enumerated once per seed; one `is_planar`
call skips that for a non-planar seed, which has none.  networkx serves
the search only through that call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..dynamics.intervals import IntervalSet
from ..errors import BadInput, _field, _json_int
from ..graphcore.multigraph import Multigraph, automorphisms
from ..graphcore.planarity import is_planar, planar_rotations
from .periodic import (GapReport, PeriodicGraph, _json_int_rows, bands,
                       derived_embedding, gap_report, restrict_subtorus)

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


def _axis_moves(rank: int) -> np.ndarray:
    """The signed permutation matrices of Z^rank, as a stack: o -> +-o
    for rank 1, and the 8 symmetries of the square for rank 2."""
    eye = np.eye(rank, dtype=np.int64)
    return np.array([eye[list(order)] * np.array(signs)[:, None]
                     for order in itertools.permutations(range(rank))
                     for signs in itertools.product((1, -1), repeat=rank)])


class _CoverKeys:
    """Cover-identity keys for the covers of one seed cell: covers with
    equal keys are isomorphic, and their band samples on the key's grid
    agree up to rounding.

    key(o, grid) is (grid, rank, the least canonical form of the images
    of o), the lexicographic minimum over every cell automorphism and
    every signed axis move.  The canonical form c(o) of an offset
    vector: take each bundle of parallel edges' least offset m_b
    (lexicographic for rank 2), set the potentials p = T m, where row v
    of T signs the bundles on the path from vertex 0 to v in one BFS
    tree of the bundles, so that every tree bundle's least offset gauges
    to 0; set g_e = o_e + p(u) - p(v); replace a loop's g by the lesser
    of +-g; sort g within each bundle.

    Proof that equal keys mean isomorphic covers with equal samples
    (Gross & Tucker, "Generating all graph coverings by permutation
    voltage assignments", Discrete Math. 18, 1977).  Each of these moves
    of an offset vector gives an isomorphic cover whose twisted
    adjacency at each grid point is unitarily similar to the original's
    at a grid point, through a bijection of the grid that fixes the
    point (-pi, ..., -pi) whose row `flat_values` reads:
    - a coboundary o_e + q(u) - q(v): A(z) becomes D A(z) D^H with D the
      diagonal of z^q, at the same point;
    - permuting the offsets within a bundle, or negating a loop's: the
      offset matrices B_o do not change;
    - a cell automorphism p, which sends edge (u, v) to an edge of
      bundle (p[u], p[v]) and negates its offset when p[u] > p[v]: A(z)
      becomes P A(z) P^T, at the same point;
    - a signed axis move o -> o M: A at angles theta becomes A at
      theta M^T, a signed permutation of the angles, which maps the
      grid onto itself, as each axis has the same even number N of
      angles -pi + 2 pi k / N and negation sends k to (-k) mod N.
    c(o) is o moved by the coboundary p, loop negations and a bundle
    permutation, and each image h o is o moved by h, so key(o) = c(h o)
    is a chain of moves away from o: equal keys put o and o' one chain
    of moves apart, and their covers are isomorphic with equal samples.

    The key is also constant on each class, which is what makes it
    skip: c does not change under a coboundary q (it shifts the offsets
    of bundle (u, v), and so their least one, by q(u) - q(v), which
    moves p by q(0) - q and leaves g as it was), nor under bundle
    permutations and loop negations, and the automorphisms and axis
    moves form a group that carries each of these moves to one of the
    same kind.

    Rank-2 offsets are packed into one integer x S + y, with S odd and
    every component that the form compares below S / 2 in absolute value
    (a tree path adds at most n - 1 bundle minima); the packing is
    linear and orders pairs lexicographically, and the least form is
    unpacked, so the key does not depend on S.
    """

    def __init__(self, seed: Multigraph):
        edges = np.array(seed.edges, dtype=np.int64)
        self.n, m = seed.n, len(edges)
        self.moves = {rank: _axis_moves(rank) for rank in (1, 2)}
        self.u, self.v = edges.T
        self.loop = self.u == self.v
        fresh = np.r_[True, (edges[1:] != edges[:-1]).any(axis=1)]
        self.starts = np.flatnonzero(fresh)
        self.bundle = np.cumsum(fresh) - 1
        self.tree = np.zeros((seed.n, len(self.starts)), dtype=np.int64)
        nbr = [[] for _ in range(seed.n)]
        for b, (a, c) in enumerate(edges[self.starts].tolist()):
            if a != c:
                nbr[a].append((c, b, 1))
                nbr[c].append((a, b, -1))
        reached, queue = {0}, deque([0])
        while queue:
            x = queue.popleft()
            for y, b, sign in nbr[x]:
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
                    self.tree[y] = self.tree[x]
                    self.tree[y, b] += sign
        # automorphism p as a signed edge permutation: the k-th edge of a
        # bundle lands on the k-th edge of the image bundle; src[a, f] is
        # the edge that lands on f and sgn[a, f] its orientation
        first = np.zeros((seed.n, seed.n), dtype=np.int64)
        first[self.u[self.starts], self.v[self.starts]] = self.starts
        perms = np.array(list(automorphisms(seed)), dtype=np.int64)
        pu, pv = perms[:, self.u], perms[:, self.v]
        land = (first[np.minimum(pu, pv), np.maximum(pu, pv)]
                + np.arange(m) - self.starts[self.bundle])
        self.src = np.empty_like(land)
        np.put_along_axis(self.src, land,
                          np.broadcast_to(np.arange(m), land.shape), axis=1)
        self.sgn = np.empty_like(land)
        np.put_along_axis(self.sgn, land, np.where(pu > pv, -1, 1), axis=1)

    def __call__(self, offsets, grid: int) -> list:
        """The keys of a (K, edges, rank) stack of offset vectors."""
        X = np.asarray(offsets, dtype=np.int64)
        K, m, rank = X.shape
        images = X[:, self.src] * self.sgn[:, :, None]
        images = (images[:, :, None] @ self.moves[rank]).reshape(K, -1, m,
                                                                 rank)
        c = (2 * self.n - 1) * max(1, int(np.abs(X).max()))
        S = 2 * c + 1
        radix = S ** np.arange(rank - 1, -1, -1)
        forms = self._canonical(images @ radix, c * int(radix.sum()))
        best = _lexmin(forms)
        if rank == 2:
            x = (best + c) // S
            best = np.stack([x, best - x * S], axis=-1)
        return [(grid, rank, row.tobytes()) for row in best]

    def _canonical(self, Z: np.ndarray, bound: int) -> np.ndarray:
        """c(o) of each packed vector along the last axis; no |g| exceeds
        bound."""
        mins = np.minimum.reduceat(Z, self.starts, axis=-1)
        p = mins @ self.tree.T
        g = Z + p[..., self.u] - p[..., self.v]
        g = np.where(self.loop, np.minimum(g, -g), g)
        shift = self.bundle * (2 * bound + 1)
        return np.sort(g + shift, axis=-1) - shift


def _lexmin(forms: np.ndarray) -> np.ndarray:
    """The lexicographically least row along axis 1 of a (K, G, m)
    array, for each of the K."""
    alive = np.ones(forms.shape[:2], dtype=bool)
    top = np.iinfo(forms.dtype).max
    for j in range(forms.shape[2]):
        col = np.where(alive, forms[:, :, j], top)
        alive &= col == col.min(axis=1, keepdims=True)
    return forms[np.arange(len(forms)), alive.argmax(axis=1)]


def _candidates(seed: Multigraph, rank: int, two_link: bool, N: int):
    """(offsets, subtorus, cover, grid) for the covers of one seed, in
    catalog order, skipping every cover whose `_CoverKeys` key an
    earlier cover of the seed had.  A cover is built only when its key
    is new; a skipped disconnected choice still records its key, as an
    isomorphic copy of a disconnected cover is disconnected.

    Rank 2 skips a whole edge pair, before its cover is built or its
    slices keyed, when an earlier pair had the same whole key: its
    slices then add no key.  Equal whole keys put the pairs one chain of
    the key's moves apart, and slicing along a direction d commutes with
    the automorphisms, coboundaries, bundle permutations and loop
    reversals, while a signed axis move carries the slice along d of one
    pair onto the slice of the other along a signed permutation of d.
    SUBTORUS_DIRECTIONS is closed under signed permutations up to an
    overall sign, and the overall sign is the rank-1 axis move, so both
    pairs have the same set of slice keys."""
    m = len(seed.edges)
    keys = _CoverKeys(seed)
    produced = set()

    def new(key):
        fresh = key not in produced
        produced.add(key)
        return fresh

    if rank == 1:
        grid, choices = N, [{j: (1,)} for j in range(m)]
        if two_link:
            choices += [{j: (1,), k: (s,)} for j in range(m)
                        for k in range(j + 1, m) for s in (1, -1)]
    else:
        grid = max(32, N // 4 + (N // 4) % 2)
        choices = [{j: (1, 0), k: (0, 1)} for j in range(m)
                   for k in range(j + 1, m)]
    choices = [_offsets_for(m, c, rank) for c in choices]
    directions = np.array(SUBTORUS_DIRECTIONS, dtype=np.int64)
    for offs, key in zip(choices, keys(choices, grid)):
        if not new(key):
            continue
        try:
            P = PeriodicGraph(seed, rank, offs, name=seed.name)
        except BadInput:
            continue
        yield offs, None, P, grid
        if rank == 2:
            # slice (a, b) has offsets a o1 + b o2
            slices = (directions @ np.array(offs).T)[:, :, None]
            for (a, b), key in zip(SUBTORUS_DIRECTIONS, keys(slices, N)):
                if new(key):
                    yield offs, (a, b), restrict_subtorus(P, a, b), N


def iter_search_covers(seeds, rank: int = 2, two_link: bool = True,
                       N: int = 256):
    """Sweep the seeds and yield the deduplicated CatalogEntry rows one
    at a time, in catalog order.

    rank=1: every single-edge redirect, plus every edge pair with
    relative signs (+,+) and (+,-) when two_link is set.  rank=2: every
    edge pair spans the torus, reported whole (on a reduced grid) and
    sliced along each coprime direction at the full grid N.  Of each
    seed's covers only those whose cover-identity key (`_CoverKeys`) no
    earlier cover of the same seed had are tried: an equal key means an
    isomorphic cover with the same band samples, whose band picture is
    already seen, so it is skipped before it is built or eigensolved.  A
    row is dropped when its band picture, rounded to 6 digits with
    zero-width intervals read as points, was seen before.  A kept row's
    quotient planarity reads the seed's planar rotation systems, which
    are enumerated once per seed.
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
        for offs, subtorus, cover, grid in _candidates(seed, rank, two_link, N):
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
    offsets = _field(row, "catalog row", "offsets", _json_int_rows)
    rank = len(offsets[0]) if offsets else 1
    P = PeriodicGraph(base, rank, offsets, name=base.name)
    if row.get("subtorus"):
        a, b = _field(row, "catalog row", "subtorus", _int_pair)
        P = restrict_subtorus(P, a, b)
    return P


def _int_pair(pair) -> tuple:
    a, b = pair
    return _json_int(a), _json_int(b)
