"""Planarity: networkx's left-right test and the planar rotation systems.

`is_planar` runs exactly one left-right test and returns a report whose
truth value is the answer.  A planar graph's report carries the
embedding the test produced (a rotation system).  A non-planar graph's
Kuratowski witness costs many further planarity tests, and most callers
only want the boolean, so the witness is built the first time
`witness_kind` or `witness_edges` is read, and cached after that.

Loops and parallel edges never change planarity, so all work happens on
the simple support.  In a graph of maximum degree 3 only K33 can occur
topologically (K5 needs degree-4 branch vertices).

`planar_rotations` lists every planar rotation system of a cubic
multigraph, which the cover search lifts to the cyclic quotients of a
periodic cover (`covers.derived_embedding`).  It needs no networkx;
`is_planar` imports networkx on its first call, not with the package.
"""

from __future__ import annotations

from ..errors import BadInput
from .multigraph import Multigraph

__all__ = ["PlanarityReport", "is_planar", "planar_rotations"]


class PlanarityReport:
    """Outcome of `is_planar`; truthy exactly when the graph is planar.

    embedding: vertex -> neighbours in clockwise rotation order (planar
    graphs only).  witness_kind ("K33" or "K5") and witness_edges (the
    edges of a Kuratowski subdivision) are None for planar graphs.
    """

    def __init__(self, planar: bool, embedding: dict | None = None,
                 support=None):
        self.planar = planar
        self.embedding = embedding
        self._support = support     # simple support, kept until the witness is read
        self._witness = None

    def __bool__(self):
        return self.planar

    def __repr__(self):
        return f"PlanarityReport(planar={self.planar})"

    def _kuratowski(self) -> tuple:
        if self.planar:
            return None, None
        if self._witness is None:
            from networkx.algorithms.planarity import get_counterexample
            cert = get_counterexample(self._support)
            self._witness = (_classify_kuratowski(cert),
                             sorted(tuple(sorted(e)) for e in cert.edges()))
            self._support = None
        return self._witness

    @property
    def witness_kind(self) -> str | None:
        return self._kuratowski()[0]

    @property
    def witness_edges(self) -> list | None:
        return self._kuratowski()[1]


def _classify_kuratowski(H) -> str:
    branch_degrees = sorted(d for _, d in H.degree() if d >= 3)
    if branch_degrees[-1:] == [4]:
        return "K5"
    return "K33"


def is_planar(G: Multigraph) -> PlanarityReport:
    """One left-right planarity test on the simple support of G.

    Planar: the report holds the embedding's rotation system.  Not
    planar: a topological K33 (or K5) edge list is built when the
    report's witness is first read; `bool(report)` never builds it."""
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from((u, v) for u, v in G.edges if u != v)
    ok, cert = nx.check_planarity(H, counterexample=False)
    if ok:
        embedding = {v: list(cert.neighbors_cw_order(v)) for v in cert.nodes()}
        return PlanarityReport(True, embedding=embedding)
    return PlanarityReport(False, support=H)


def planar_rotations(G: Multigraph) -> list:
    """Every planar rotation system of a connected cubic multigraph, one
    of each mirror pair, as (flips, faces).

    Dart 2i runs along G.edges[i] from its first end and dart 2i+1 runs
    back, so d ^ 1 reverses d.  The three darts leaving vertex v, in
    increasing order (a, b, c), turn a -> b -> c when flips[v] is 0 and
    a -> c -> b when it is 1.  A face is the walk d -> next[d ^ 1], a
    tuple of darts, and every dart lies on exactly one face.

    A system is planar when it has 2 - V + E faces (Euler's formula; no
    system has more).  Mirroring turns every vertex the other way and
    reverses every face, so flips[0] stays 0 and 2^(V-1) systems are
    traced; tracing stops as soon as the darts left cannot make up the
    missing faces.  Loops and parallel edges need no special case: both
    darts of a loop leave its vertex."""
    G.require_cubic("planar rotations")
    if G.half_loops:
        raise BadInput("planar rotations need a graph without half-loops")
    if not G.is_connected():
        raise BadInput("planar rotations need a connected graph")
    darts = [[] for _ in range(G.n)]
    for i, (u, v) in enumerate(G.edges):
        darts[u].append(2 * i)
        darts[v].append(2 * i + 1)
    target = 2 - G.n + len(G.edges)
    out = []
    nxt = [0] * (2 * len(G.edges))
    for code in range(2 ** (G.n - 1)):
        flips = tuple((code << 1 >> v) & 1 for v in range(G.n))
        for (a, b, c), flip in zip(darts, flips):
            if flip:
                b, c = c, b
            nxt[a], nxt[b], nxt[c] = b, c, a
        faces = _spherical_faces(nxt, target)
        if faces is not None:
            out.append((flips, faces))
    return out


def _spherical_faces(nxt: list, target: int):
    """The face walks of rotation nxt when there are target of them,
    else None."""
    seen = [False] * len(nxt)
    faces = []
    left = len(nxt)
    for start in range(len(nxt)):
        if seen[start]:
            continue
        if len(faces) + left < target:
            return None
        face = []
        d = start
        while not seen[d]:
            seen[d] = True
            face.append(d)
            d = nxt[d ^ 1]
        faces.append(tuple(face))
        left -= len(face)
    return tuple(faces) if len(faces) == target else None
