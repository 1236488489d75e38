"""The vertex-to-triangle map on cubic multigraphs and its inverse.

tmap replaces every vertex by a triangle and joins triangles along the
original edges (equivalently: subdivide every edge, then take the line
graph).  It triples the vertex count, preserves cubicity, planarity and
connectivity, and acts on spectra by a fixed quadratic substitution:
each eigenvalue y of the input contributes the two roots of
x^2 - x - 3 = y, and the remaining n/2 + n/2 slots are filled by 0 and
-2.  tmap_spectrum_predict computes that prediction; tmap_inverse
contracts a triangle partition, which exists exactly on the image of
tmap.  Any partition gives a preimage, so the inverse proves its round
trip instead of checking it by an isomorphism search.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadInput
from ..graphcore.multigraph import Multigraph
from .quadratic import f_preimage

__all__ = ["tmap", "tmap_spectrum_predict", "tmap_inverse", "NotInImage"]


class NotInImage:
    """Sentinel value: the graph is not tmap of anything."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotInImage"

    def __bool__(self):
        return False


NOT_IN_IMAGE = NotInImage()


def tmap(G: Multigraph) -> Multigraph:
    """Replace each vertex by a triangle; output has 3|G| vertices.

    Vertex v's triangle sits on slots 3v, 3v+1, 3v+2.  Every original
    edge connects one free slot at each endpoint; a loop at v connects
    two of v's own slots with an extra edge parallel to the triangle
    side.  Half-loops have no line-graph reading here and are rejected.
    """
    G.require_cubic("tmap input")
    if G.half_loops:
        raise BadInput("tmap is defined for ordinary multigraphs only")
    nxt = [0] * G.n

    def take(v):
        s = 3 * v + nxt[v]
        nxt[v] += 1
        return s

    edges = []
    for u, v in G.edges:
        if u == v:
            edges.append((take(u), take(u)))
        else:
            edges.append((take(u), take(v)))
    for v in range(G.n):
        base = 3 * v
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    return Multigraph(3 * G.n, edges, name=f"tmap({G.name})" if G.name else "")


def tmap_spectrum_predict(sigma) -> np.ndarray:
    """Predicted spectrum of tmap(G) from the spectrum of G.

    Input of even size n gives 2n quadratic preimages plus n/2 zeros and
    n/2 copies of -2, sorted ascending.
    """
    sig = np.asarray(sigma, dtype=float)
    n = sig.size
    if n == 0 or n % 2:
        raise BadInput("spectrum size must be even and positive")
    if sig.min() < -3 - 1e-9:
        raise BadInput("input spectrum must lie in [-3, 3]")
    out = []
    for y in sig:
        roots = f_preimage(y)
        if len(roots) != 2:
            raise BadInput(f"eigenvalue {y} has no real preimages")
        out.extend(roots)
    out.extend([0.0] * (n // 2))
    out.extend([-2.0] * (n // 2))
    return np.sort(np.array(out))


def _triangle_partition(G: Multigraph):
    """Partition the vertices into vertex-disjoint triangles, if possible.

    Backtracking on the lowest unassigned vertex; for graphs that are
    tmap images the partition is forced almost immediately, so this
    terminates fast.  The search keeps one iterator of candidate
    triangles per placed triangle on an explicit stack, so its depth is
    not bounded by the recursion limit.  Returns a list of sorted
    3-tuples or None.
    """
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    assigned = [False] * G.n
    out = []

    def triangles(v):
        cands = sorted(w for w in adj[v] if not assigned[w])
        return iter([(v, a, b) for i, a in enumerate(cands)
                     for b in cands[i + 1:] if b in adj[a]])

    stack = [triangles(0)]
    while stack:
        if len(out) == len(stack):
            # every completion of the last triangle failed
            for x in out.pop():
                assigned[x] = False
        tri = next(stack[-1], None)
        if tri is None:
            stack.pop()
            continue
        for x in tri:
            assigned[x] = True
        out.append(tri)
        try:
            stack.append(triangles(assigned.index(False)))
        except ValueError:
            return out
    return None


def tmap_inverse(G: Multigraph):
    """Invert tmap: contract a triangle partition.  Returns the source
    graph or NOT_IN_IMAGE.

    The result needs no isomorphism check.  Let G be cubic without
    half-loops, with its vertices partitioned into triangles.  A
    triangle vertex spends two of its three degrees on its triangle's
    two sides, so it holds exactly one other edge end, and never a
    loop, which would raise its degree to 4.  Contracting triangle i to
    vertex i turns those three ends into the edge ends of Z at i: a
    cross edge joins two triangles, and a doubled side becomes a loop,
    as tmap turns a loop into a doubled side.  So Z is cubic, and
    sending tmap(Z)'s slot for each edge end to the vertex of G that
    holds that end is an isomorphism tmap(Z) -> G.  Every partition
    gives a preimage; this takes the first one found.
    """
    G.require_cubic("tmap_inverse input")
    if G.half_loops or G.n % 3:
        return NOT_IN_IMAGE
    parts = _triangle_partition(G)
    if parts is None:
        return NOT_IN_IMAGE
    part_of = {}
    sides = set()
    for i, (a, b, c) in enumerate(parts):
        part_of.update({a: i, b: i, c: i})
        sides.update(((a, b), (a, c), (b, c)))
    # one copy of each triangle side is structural (sorted triples name
    # sides as G.edges does); every other edge, cross edge or second
    # copy of a side, becomes an edge of Z
    zedges = []
    for e in G.edges:
        if e in sides:
            sides.remove(e)
        else:
            zedges.append((part_of[e[0]], part_of[e[1]]))
    return Multigraph(len(parts), zedges)
