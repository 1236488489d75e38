"""Periodic graphs (Abelian covers of a finite base cell) and their bands.

A PeriodicGraph is a cubic base cell where every edge carries an integer
offset vector in Z^rank: offset 0 keeps the edge inside the cell, offset
e_i sends it to the neighboring cell along axis i.  Two constructions
read the cover, and everything else goes through them:

- offset_split, the integer per-offset split {o: B_o}, where B_o counts
  the stored edges (u <= v) that carry offset o.  The twisted adjacency
  at a unit-modulus character z is A(z) = M(z) + M(z)^H with
  M(z) = sum_o z^o B_o.  twisted_adjacency evaluates it at one z or a
  stack of them, bands at one point of each conjugate pair of the
  torus grid, and the touch-point certifier exactly at z = +-1.
- lift, the finite quotient with deck group Z/n or Z/n1 x Z/n2 (a
  voltage-graph lift, Gross & Tucker).  cyclic_quotient and
  torus_quotient are lifts.  A lift's spectrum equals the twisted
  eigenvalues at the matching roots of unity, which the tests verify.
  derived_embedding lifts a planar rotation system of the cell to
  every cyclic quotient at once, which decides their planarity for
  every n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..dynamics.intervals import IntervalSet
from ..errors import BadInput, _field, _json_int, _json_ints
from ..graphcore.multigraph import Multigraph
from ..graphcore.planarity import planar_rotations

__all__ = [
    "PeriodicGraph",
    "BandStructure",
    "GapReport",
    "offset_split",
    "twisted_adjacency",
    "bands",
    "restrict_subtorus",
    "flat_values",
    "gap_report",
    "lift",
    "cyclic_quotient",
    "torus_quotient",
    "derived_embedding",
]


@dataclass(frozen=True)
class PeriodicGraph:
    """Cubic base cell plus per-edge integer offsets (aligned with
    base.edges, which Multigraph keeps sorted).  Use from_links to build
    one from (u, v, offset) triples without worrying about orientation:
    stored edges satisfy u <= v and flipping an edge negates its offset.

    The cover must be connected, which `_is_connected_cover` decides
    exactly.
    """

    base: Multigraph
    rank: int
    offsets: tuple
    name: str = ""

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise BadInput("rank must be 1 or 2")
        self.base.require_cubic("periodic base")
        if self.base.half_loops:
            raise BadInput("periodic base must not carry half-loops")
        offs = tuple(tuple(int(c) for c in o) for o in self.offsets)
        if len(offs) != len(self.base.edges):
            raise BadInput("offsets must align with base edges")
        if any(len(o) != self.rank for o in offs):
            raise BadInput(f"offsets must have length {self.rank}")
        object.__setattr__(self, "offsets", offs)
        if not _is_connected_cover(self.base, self.rank, offs):
            raise BadInput("cover is disconnected")

    @classmethod
    def from_links(cls, n: int, links, rank: int = 1, name: str = "") -> "PeriodicGraph":
        """links: iterables (u, v, offset) with offset an int (rank 1) or
        a length-rank tuple, read as 'u in this cell to v offset cells
        over'."""
        norm = []
        for u, v, o in links:
            off = (int(o),) if rank == 1 and not isinstance(o, (tuple, list)) \
                else tuple(int(c) for c in o)
            if len(off) != rank:
                raise BadInput("offset arity mismatch")
            if u <= v:
                norm.append(((u, v), off))
            else:
                norm.append(((v, u), tuple(-c for c in off)))
        norm.sort()
        base = Multigraph(n, [e for e, _ in norm], name=name)
        return cls(base, rank, tuple(o for _, o in norm), name=name)

    def links(self):
        return tuple((u, v, o) for (u, v), o in zip(self.base.edges, self.offsets))

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "rank": self.rank,
                "offsets": [list(o) for o in self.offsets], "name": self.name}

    @classmethod
    def from_json(cls, data: dict) -> "PeriodicGraph":
        """The cover of a JSON document; a missing field, or a rank or
        offset that is not an integer (a float, a bool), raises BadInput
        naming the field."""
        what = "cover JSON"
        if not isinstance(data, dict):
            raise BadInput(f"malformed {what}: a {type(data).__name__}, "
                           "not an object")
        return cls(_field(data, what, "base", Multigraph.from_json),
                   _field(data, what, "rank", _json_int),
                   _field(data, what, "offsets", _json_int_rows),
                   data.get("name", ""))


def _json_int_rows(rows) -> tuple:
    """Offset rows read from JSON: a list of lists of integers (not
    floats or bools, which int() would truncate or read as 0 or 1)."""
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"expected a list of offset rows, got {rows!r}")
    return tuple(_json_ints(row) for row in rows)


def _is_connected_cover(base: Multigraph, rank: int, offsets) -> bool:
    """Whether the cover of base with these offsets is connected: the
    base is connected and the cycle voltages generate Z^rank, that is,
    their gcd is 1 (rank 1) or the gcd of their 2 x 2 minors is 1
    (rank 2).

    Proof (Gross & Tucker, Topological Graph Theory, 1987, ch. 2): give
    each vertex the potential p(v), the net offset of its path from
    vertex 0 in a spanning tree of the base, and each edge (u, v, o) the
    voltage p(u) + o - p(v), which is 0 on tree edges.  A step along an
    edge from u to v moves the cell by p(v) - p(u) plus its voltage, so
    a walk from (cell 0, vertex 0) ends at (cell c, vertex v) with
    c - p(v) in the lattice L that the voltages generate; conversely the
    fundamental cycle of each edge, walked either way from vertex 0,
    moves the cell by plus or minus its voltage.  The component of
    (cell 0, vertex 0) is therefore {(c, v): c - p(v) in L}, everything
    exactly when L = Z^rank.  In rank 1, L is gcd * Z.  In rank 2, the
    gcd of the 2 x 2 minors of the voltage vectors is the index of L in
    Z^2 (the product of the Smith invariants), or 0 when L has rank
    below 2.  A connected cover has connected lifts, as L = Z^rank maps
    onto every deck group."""
    nbr = [[] for _ in range(base.n)]
    for (u, v), o in zip(base.edges, offsets):
        nbr[u].append((v, o))
        nbr[v].append((u, tuple(-c for c in o)))
    p = [None] * base.n
    p[0] = (0,) * rank
    stack = [0]
    while stack:
        u = stack.pop()
        for v, o in nbr[u]:
            if p[v] is None:
                p[v] = tuple(a + b for a, b in zip(p[u], o))
                stack.append(v)
    if None in p:
        return False
    volts = [tuple(a + b - c for a, b, c in zip(p[u], o, p[v]))
             for (u, v), o in zip(base.edges, offsets)]
    if rank == 1:
        return math.gcd(*(x for (x,) in volts)) == 1
    return math.gcd(*(a * d - b * c for (a, b), (c, d)
                      in itertools.combinations(volts, 2))) == 1


def offset_split(P: PeriodicGraph) -> dict:
    """{o: B_o}: one n x n integer matrix per distinct offset tuple, in
    order of first appearance along base.edges.  B_o[u, v] counts the
    stored edges (u <= v) that carry offset o, so a wrapped loop sits on
    the diagonal once and counts on both sides of A(z) = M(z) + M(z)^H."""
    n = P.base.n
    split = {}
    for (u, v), o in zip(P.base.edges, P.offsets):
        split.setdefault(o, np.zeros((n, n), dtype=np.int64))[u, v] += 1
    return split


def _evaluate(P: PeriodicGraph, z: np.ndarray) -> np.ndarray:
    """A(z) over a stack of characters z of shape (S, rank): one phase
    z^o = prod_i z_i^{o_i} per distinct offset (a zero exponent is
    skipped, as its power is exactly 1), added at (u, v) and conjugated
    at (v, u) for each nonzero entry of B_o."""
    n = P.base.n
    A = np.zeros((len(z), n, n), dtype=complex)
    for o, B in offset_split(P).items():
        powers = [zi ** oi for zi, oi in zip(z.T, o) if oi]
        phase = functools.reduce(np.multiply, powers) if powers else 1
        for u, v in zip(*np.nonzero(B)):
            w = B[u, v] * phase
            A[:, u, v] += w
            A[:, v, u] += np.conj(w)
    return A


def twisted_adjacency(P: PeriodicGraph, z) -> np.ndarray:
    """Hermitian unit-cell adjacency at character z (one unit-modulus
    number per axis).  An edge with offset o contributes z^o at (u, v)
    and its conjugate at (v, u); a wrapped loop contributes both to the
    diagonal, so at z = 1 this reduces to the one-cell cyclic quotient's
    adjacency matrix (plain loops counting 2).

    z of shape (rank,) gives one (n, n) matrix; a stack of shape
    (S, rank) gives the (S, n, n) matrices from one evaluation, each
    equal byte for byte to its own single-character call."""
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    single = zv.shape == (P.rank,)
    if not single and (zv.ndim != 2 or zv.shape[1] != P.rank):
        raise BadInput(f"need {P.rank} character value(s)")
    if np.any(np.abs(np.abs(zv) - 1.0) > 1e-9):
        raise BadInput("character values must have modulus 1")
    return _evaluate(P, zv[None, :])[0] if single else _evaluate(P, zv)


@dataclass(frozen=True)
class BandStructure:
    """Eigenvalue tracks over a torus grid.

    thetas: one angle array per axis (full circle, includes 0 and -pi).
    values: shape (samples, n) with rows sorted ascending; for rank 2
    the samples enumerate the angle grid in row-major order.  Of the
    rows at theta and -theta, the one with the higher row-major index
    is a byte copy of the other: A(-theta) = conj A(theta), since every
    offset matrix B_o is real (see bands).
    """

    rank: int
    thetas: tuple
    values: np.ndarray

    @property
    def nbands(self) -> int:
        return self.values.shape[1]


def _angle_grid(N: int) -> np.ndarray:
    if N < 16 or N % 2:
        raise BadInput("grid size must be even and at least 16")
    return -math.pi + 2.0 * math.pi * np.arange(N) / N


def bands(P: PeriodicGraph, N: int) -> BandStructure:
    """Eigen-decompose the twisted adjacency over an N (or N x N) grid,
    solving one point of each conjugate pair.

    Proof that the pair shares its spectrum: every B_o is a real integer
    matrix, so A(conj z) = M(z)^T + conj M(z) = A(z)^T = conj A(z), and a
    Hermitian matrix, its transpose and its conjugate have the same
    eigenvalues.  Grid index k has angle -pi + 2 pi k / N, so the mirror
    of k is (-k) mod N on each axis; 0 and N/2 are their own mirrors.
    Each pair is solved at its lower row-major index (theta in [-pi, 0]
    on the circle) and the other row is a copy of that row."""
    th = _angle_grid(N)
    axes = np.meshgrid(*[np.exp(1j * th)] * P.rank, indexing="ij")
    z = np.stack([a.ravel() for a in axes], axis=1)
    shape = (N,) * P.rank
    flat = np.arange(len(z))
    mirror = np.ravel_multi_index(
        tuple((-k) % N for k in np.unravel_index(flat, shape)), shape)
    # keep: the representatives in row order; row: each row's position
    keep, row = np.unique(np.minimum(flat, mirror), return_inverse=True)
    vals = np.linalg.eigvalsh(_evaluate(P, z[keep]))[row]
    return BandStructure(P.rank, (th,) * P.rank, vals)


def restrict_subtorus(P: PeriodicGraph, a: int, b: int) -> PeriodicGraph:
    """Slice a rank-2 cover along the line (theta1, theta2) = (a t, b t).

    The resulting rank-1 offsets are a*o1 + b*o2, so (a, b) = (1, 0)
    reproduces the theta2 = 0 axis slice.  Requires gcd(a, b) = 1 so the
    slice winds the torus without retracing."""
    if P.rank != 2:
        raise BadInput("subtorus restriction applies to rank-2 covers")
    a, b = int(a), int(b)
    if a == 0 and b == 0:
        raise BadInput("direction must be nonzero")
    if math.gcd(abs(a), abs(b)) != 1:
        raise BadInput("direction components must be coprime")
    offs = tuple((a * o1 + b * o2,) for o1, o2 in P.offsets)
    name = f"{P.name}|({a},{b})" if P.name else f"slice({a},{b})"
    return PeriodicGraph(P.base, 1, offs, name=name)


@dataclass(frozen=True)
class GapReport:
    """Sampled spectrum, its complement in [-3, 3], and flat bands.

    Gap intervals are stored as closures of the open complementary
    intervals; interior gaps all exceed the detection threshold by
    construction, while boundary gaps (below the sampled minimum or
    above the sampled maximum) are reported at any width above solver
    noise (1e-9), since sampling cannot fabricate those.
    """

    spectrum_estimate: IntervalSet
    gaps: IntervalSet
    flat_bands: tuple
    threshold: float

    def to_json(self) -> dict:
        return {"spectrum": self.spectrum_estimate.to_json(),
                "gaps": self.gaps.to_json(),
                "flat_bands": [[v, m] for v, m in self.flat_bands],
                "threshold": self.threshold}


_FLAT_TOL = 1e-9


def flat_values(vals) -> tuple:
    """Flat-band values with multiplicities from sampled eigenvalue rows.

    A value is flat when every sample row contains an eigenvalue within
    1e-9 of it.  This is detected per value, not per sorted track: a
    flat band crossed by a dispersive band swaps sorted positions at the
    crossing, so no single track stays constant there.  Multiplicity is
    the minimum per-row hit count, which ignores angles where a
    dispersive band happens to touch or cross the flat value.
    """
    out = []
    candidates = []
    for x in np.sort(vals[0]):
        if not candidates or x - candidates[-1] > _FLAT_TOL:
            candidates.append(float(x))
    for v in candidates:
        hits = np.abs(vals - v) < _FLAT_TOL
        counts = hits.sum(axis=1)
        if counts.min() >= 1:
            out.append((v, int(counts.min())))
    return tuple(out)


def gap_report(B: BandStructure, threshold: float = 0.05) -> GapReport:
    """Pool all sampled eigenvalues; runs separated by more than the
    threshold become distinct spectral intervals, the rest is gap."""
    if threshold <= 0:
        raise BadInput("threshold must be positive")
    vals = B.values
    flat_bands = flat_values(vals)
    pooled = np.sort(vals.ravel())
    cuts = np.nonzero(np.diff(pooled) > threshold)[0]
    pieces = []
    start = 0
    for c in list(cuts) + [len(pooled) - 1]:
        pieces.append((float(pooled[start]), float(pooled[c])))
        start = c + 1
    est = IntervalSet(tuple(pieces))
    gaps = est.complement_in(-3.0, 3.0)
    kept = tuple(iv for iv in gaps.intervals
                 if iv[1] - iv[0] >= _FLAT_TOL
                 or (iv[0] > -3.0 + _FLAT_TOL and iv[1] < 3.0 - _FLAT_TOL))
    if kept != gaps.intervals:
        gaps = IntervalSet(kept, gaps.points)
    return GapReport(est, gaps, flat_bands, float(threshold))


def lift(P: PeriodicGraph, decks) -> Multigraph:
    """Wrap the cover on decks = (n,) or (n1, n2) cells, i.e. its finite
    quotient with deck group Z/n or Z/n1 x Z/n2.  Decks are numbered
    row-major and vertex (deck c, base vertex v) becomes c*|base| + v;
    an edge with offset o joins deck c to deck c + o, wrapped per axis,
    so one deck turns nonzero offsets into loops and two decks into
    parallel edges."""
    decks = tuple(int(d) for d in decks)
    if len(decks) != P.rank:
        raise BadInput(f"a rank-{P.rank} cover needs {P.rank} deck count(s)")
    if min(decks) < 1:
        raise BadInput("need at least one deck per axis")
    heads = {}
    for o in set(P.offsets):
        # heads[o][i]: deck i moved by o, built axis by axis row-major
        heads[o] = [0]
        for d, k in zip(o, decks):
            heads[o] = [i * k + (c + d) % k for i in heads[o] for c in range(k)]
    bn = P.base.n
    edges = [(i * bn + u, j * bn + v)
             for (u, v), o in zip(P.base.edges, P.offsets)
             for i, j in enumerate(heads[o])]
    kind = "C" if P.rank == 1 else "T"
    return Multigraph(math.prod(decks) * bn, edges,
                      name=f"{P.name or 'cover'}/{kind}{'x'.join(map(str, decks))}")


def derived_embedding(P: PeriodicGraph, rotations=None):
    """The flips of the first planar rotation system of the cell whose
    face walks carry net offsets exactly {+1, -1, 0, ..., 0}, or None.

    rotations defaults to `planar_rotations(P.base)`; the cover search
    enumerates them once per seed and passes them in.  Dart 2i carries
    the offset of P.base.edges[i] and dart 2i+1 its negative, so a
    face's net offset v_f is the sum over its darts.  Rank-2 covers
    return None.

    Proof that every cyclic quotient lift(P, (n,)) is then planar
    (Gross & Tucker, Topological Graph Theory, 1987, ch. 4): the
    rotation system lifts to a derived embedding of the quotient, in
    which a face f of the cell lifts to gcd(v_f, n) faces (gcd(0, n) is
    n).  The cell has V - E + F = 2, so the lift has Euler
    characteristic chi = 2n - sum_f (n - gcd(v_f, n)).  The faces with
    v_f = +-1 add n - 1 each and the others nothing, so chi = 2 for
    every n >= 1.  A face walk is a closed walk, and one of net offset 1
    reaches every deck of the connected cell's lift, so the quotient is
    connected; an orientable connected surface with chi = 2 is the
    sphere."""
    if P.rank != 1:
        return None
    if rotations is None:
        rotations = planar_rotations(P.base)
    volts = [x for (o,) in P.offsets for x in (o, -o)]
    for flips, faces in rotations:
        # the nets sum to 0, as every edge is walked once each way, so
        # absolute values summing to 2 leave exactly one +1 and one -1
        if sum(abs(sum(volts[d] for d in face)) for face in faces) == 2:
            return flips
    return None


def cyclic_quotient(P: PeriodicGraph, n: int) -> Multigraph:
    """The ring of n cells of a rank-1 cover; see lift."""
    return lift(P, (n,))


def torus_quotient(P: PeriodicGraph, n1: int, n2: int) -> Multigraph:
    """The n1 x n2 torus of cells of a rank-2 cover; see lift."""
    return lift(P, (n1, n2))
