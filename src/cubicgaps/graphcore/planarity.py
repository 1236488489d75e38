"""Planarity testing through networkx's left-right test.

`is_planar` runs exactly one left-right test and returns a report whose
truth value is the answer.  A planar graph's report carries the
embedding the test produced (a rotation system).  A non-planar graph's
Kuratowski witness costs many further planarity tests, and most callers
only want the boolean, so the witness is built the first time
`witness_kind` or `witness_edges` is read, and cached after that.

Loops and parallel edges never change planarity, so all work happens on
the simple support.  In a graph of maximum degree 3 only K33 can occur
topologically (K5 needs degree-4 branch vertices).

networkx is imported on the first call, not with the package.
"""

from __future__ import annotations

from .multigraph import Multigraph

__all__ = ["PlanarityReport", "is_planar"]


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
