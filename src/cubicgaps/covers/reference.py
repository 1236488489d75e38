"""The two reference gap families and their ring quotients and folds.

prism_band_cover: triangular prism cell, one triangle edge sent one
cell forward, the mirror triangle edge one cell back.  Its bands fill
[-(1+sqrt17)/2, -2] u [0, (sqrt17-1)/2] u [2, 3] with flat bands at 0
and -2; its ring quotients are the non-planar stacked-prism graphs.

doubled_cycle_cover: 4-cycle cell with two opposite edges doubled, one
copy of each doubled edge sent one cell forward, same orientation.  Its
bands fill [-3, -1] u [1, 3]; the two-cell ring quotient is the cube.
The reversed-orientation variant has no gap at all, which the tests pin
down.

Folding the rings by the deck-reversing reflections below yields the
planar members: the doubled-cycle fold is loop-free on 4n vertices, the
prism fold carries two half-loops on 6n vertices (a single involution
can only produce half-loops: any edge inside one orbit has its ends
swapped by the involution itself).
"""

from __future__ import annotations

from ..errors import BadInput
from ..graphcore.multigraph import Multigraph
from .periodic import PeriodicGraph, cyclic_quotient
from .quotients import folded_ring

__all__ = [
    "prism_band_cover",
    "doubled_cycle_cover",
    "prism_ring",
    "doubled_cycle_ring",
    "folded_prism_ring",
    "folded_doubled_cycle_ring",
]


def prism_band_cover() -> PeriodicGraph:
    return PeriodicGraph.from_links(
        6,
        [(0, 1, 0), (1, 2, 0), (0, 2, 1),
         (3, 4, 0), (4, 5, 0), (5, 3, 1),
         (0, 4, 0), (1, 5, 0), (2, 3, 0)],
        name="prism-band-cover")


def doubled_cycle_cover() -> PeriodicGraph:
    return PeriodicGraph.from_links(
        4,
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0),
         (0, 1, 1), (2, 3, 1)],
        name="doubled-cycle-cover")


def prism_ring(n: int) -> Multigraph:
    """n stacked prism cells in a carousel; 6n vertices."""
    return cyclic_quotient(prism_band_cover(), n)


def doubled_cycle_ring(n: int) -> Multigraph:
    """n doubled-cycle cells in a ring; 4n vertices, bipartite."""
    return cyclic_quotient(doubled_cycle_cover(), n)


# Reflection data: rho must send every link (u, v, o) to a link
# (rho u, rho v, -o), possibly after the per-vertex deck shifts.
_RHO_DOUBLED_CYCLE = (3, 2, 1, 0)
_RHO_PRISM = (4, 5, 3, 2, 0, 1)
_SHIFTS_PRISM = (0, 0, 1, 1, 0, 0)


def folded_doubled_cycle_ring(n: int) -> Multigraph:
    """Planar loop-free fold of the 2n-cell doubled-cycle ring onto 4n
    vertices; keeps the (-1, 1) gap and sits spectrally inside the
    parent ring."""
    if n < 1:
        raise BadInput("need n >= 1")
    return folded_ring(doubled_cycle_cover(), 2 * n, _RHO_DOUBLED_CYCLE, 1)


def folded_prism_ring(n: int) -> Multigraph:
    """Planar fold of the 2n-cell prism ring onto 6n vertices with two
    half-loops on the reflection axis."""
    if n < 1:
        raise BadInput("need n >= 1")
    return folded_ring(prism_band_cover(), 2 * n, _RHO_PRISM, 1,
                       shifts=_SHIFTS_PRISM)
