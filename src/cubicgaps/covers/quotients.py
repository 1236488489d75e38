"""Finite quotients of multigraphs by free automorphism groups.

Folding a ring cover by a deck-reversing involution halves it while
keeping the spectrum inside the parent's.  The edge classes of the
quotient are decided structurally: an orbit of loops stays a loop, an
edge whose endpoints share an orbit becomes a half-loop when some group
element swaps its ends (degree contribution 1) and a full loop when not
(contribution 2), and everything else stays an ordinary edge.  With a
free action this reproduces exactly the orbit-summed adjacency matrix,
which is the compression of the parent adjacency to orbit-constant
vectors, hence the spectral containment.

One `ring_reflection` builds the involution, with optional per-vertex
deck shifts for covers whose links reverse only after a shift.
"""

from __future__ import annotations

from ..errors import BadInput
from ..graphcore.multigraph import Multigraph
from .periodic import PeriodicGraph, cyclic_quotient

__all__ = [
    "is_automorphism",
    "group_closure",
    "quotient_by_automorphism",
    "ring_reflection",
    "folded_ring",
]

_GROUP_CAP = 1024


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


def group_closure(perms, n: int, cap: int = _GROUP_CAP):
    """All products of the given permutations (as tuples), identity
    included.  Raises BadInput past the cap."""
    ident = tuple(range(n))
    group = {ident}
    frontier = [tuple(p) for p in perms]
    for p in frontier:
        group.add(p)
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                gp = tuple(g[p[i]] for i in range(n))
                if gp not in group:
                    group.add(gp)
                    nxt.append(gp)
                    if len(group) > cap:
                        raise BadInput(f"generated group exceeds {cap} elements")
        frontier = nxt
    return sorted(group)


def quotient_by_automorphism(G: Multigraph, perms) -> Multigraph:
    """Quotient by the group generated by perms, which must act freely
    (every orbit as large as the group).  Quotient vertices are orbits
    numbered by their smallest member."""
    for p in perms:
        if not is_automorphism(G, p):
            raise BadInput("permutation is not an automorphism")
    group = group_closure(perms, G.n)
    order = len(group)
    orbit_of = {}
    reps = []
    for v in range(G.n):
        if v in orbit_of:
            continue
        orb = {g[v] for g in group}
        if len(orb) != order:
            raise BadInput(f"action is not free: orbit of {v} has size {len(orb)}")
        idx = len(reps)
        reps.append(min(orb))
        for w in orb:
            orbit_of[w] = idx

    edges = []
    half_loops = []
    seen_pairs = set()
    for u, v in G.edges:
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            continue
        orbit_pairs = {tuple(sorted((g[u], g[v]))) for g in group}
        mult = sum(1 for e in G.edges if e == key)
        seen_pairs.update(orbit_pairs)
        a, b = orbit_of[u], orbit_of[v]
        if u == v:
            edges.extend([(a, a)] * mult)
        elif a != b:
            edges.extend([(min(a, b), max(a, b))] * mult)
        else:
            swapped = any(g[u] == v and g[v] == u for g in group)
            if swapped:
                half_loops.extend([a] * mult)
            else:
                edges.extend([(a, a)] * mult)
    seen_hl = set()
    for v in G.half_loops:
        if v in seen_hl:
            continue
        orb = {g[v] for g in group}
        mult = sum(1 for w in G.half_loops if w == v)
        seen_hl.update(orb)
        half_loops.extend([orbit_of[v]] * mult)
    return Multigraph(len(reps), edges, half_loops,
                      name=f"{G.name or 'graph'}/(order {order})")


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
    automorphism or the action is not free."""
    sigma = ring_reflection(P, decks, rho, c, shifts)
    return quotient_by_automorphism(cyclic_quotient(P, decks), [sigma])
