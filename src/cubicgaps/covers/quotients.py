"""Finite quotients of multigraphs by one free involution.

Folding a ring cover by a deck-reversing involution halves it while
keeping the spectrum inside the parent's.  The edge classes of the
quotient are decided structurally: an edge (u, sigma u) becomes a
half-loop, since sigma swaps its ends (degree contribution 1), and
every other edge, loops included, descends to one copy per pair
{e, sigma e}.  A full loop only descends from a loop, because an edge
with both ends in one orbit {v, sigma v} is always swapped.  This
reproduces exactly the orbit-summed adjacency matrix, which is the
compression of the parent adjacency to orbit-constant vectors, hence
the spectral containment.

One `ring_reflection` builds the involution, with optional per-vertex
deck shifts for covers whose links reverse only after a shift.
"""

from __future__ import annotations

from ..errors import BadInput
from ..graphcore.multigraph import Multigraph
from .periodic import PeriodicGraph, cyclic_quotient

__all__ = [
    "is_automorphism",
    "quotient_by_involution",
    "ring_reflection",
    "folded_ring",
]


def is_automorphism(G: Multigraph, perm) -> bool:
    """Does relabeling by perm preserve the edge and half-loop
    multisets?  Names are ignored."""
    p = tuple(perm)
    if sorted(p) != list(range(G.n)):
        return False
    edges = sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in G.edges)
    if tuple(edges) != G.edges:
        return False
    return tuple(sorted(p[v] for v in G.half_loops)) == G.half_loops


def quotient_by_involution(G: Multigraph, sigma) -> Multigraph:
    """Quotient by sigma, which must be a fixed-point-free involutive
    automorphism.  Quotient vertices are the orbits {v, sigma v},
    numbered by their smaller member.  Of each pair {e, sigma e} of
    edges the smaller is kept, every parallel copy of it included, and
    a half-loop is kept at the smaller vertex of its orbit."""
    s = tuple(sigma)
    if not is_automorphism(G, s):
        raise BadInput("permutation is not an automorphism")
    if any(s[v] == v or s[s[v]] != v for v in range(G.n)):
        raise BadInput("permutation is not a fixed-point-free involution")
    orbit = {}
    for i, v in enumerate(w for w in range(G.n) if w < s[w]):
        orbit[v] = orbit[s[v]] = i
    edges = []
    half_loops = [orbit[v] for v in G.half_loops if v < s[v]]
    for u, v in G.edges:
        if u != v and s[u] == v:
            half_loops.append(orbit[u])
        elif (u, v) < (min(s[u], s[v]), max(s[u], s[v])):
            edges.append((orbit[u], orbit[v]))
    return Multigraph(G.n // 2, edges, half_loops,
                      name=f"{G.name or 'graph'}/(order 2)")


def ring_reflection(P: PeriodicGraph, decks: int, rho, c: int, shifts=None):
    """Vertex permutation of cyclic_quotient(P, decks) sending deck k to
    (c - k + shifts[v]) mod decks and base vertex v to rho[v]; no
    shifts means zero shifts.  This is an automorphism when rho maps
    every link (u, v, o) to the link (rho u, rho v, -o) up to the
    per-vertex deck shifts; it is a free involution when rho is a
    fixed-point-free involution of the base and
    shifts[rho[v]] == shifts[v]."""
    bn = P.base.n
    if shifts is None:
        shifts = (0,) * bn
    perm = [0] * (decks * bn)
    for k in range(decks):
        for v in range(bn):
            perm[k * bn + v] = ((c - k + shifts[v]) % decks) * bn + rho[v]
    return tuple(perm)


def folded_ring(P: PeriodicGraph, decks: int, rho, c: int, shifts=None) -> Multigraph:
    """cyclic_quotient(P, decks) folded by the (possibly shifted) deck
    reflection.  Raises BadInput if the candidate map fails to be an
    automorphism or a free involution."""
    sigma = ring_reflection(P, decks, rho, c, shifts)
    return quotient_by_involution(cyclic_quotient(P, decks), sigma)
