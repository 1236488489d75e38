"""The quadratic map x -> x^2 - x - 3 and its backward dynamics.

The interval [-3, 3] pulls back under this map to [-2, 0] u [1, 3]; the
iterated pullbacks form a Cantor set of capacity 1, and the preimages of
0 form the isolated-point cloud that a_membership classifies against.
Backward recursion through the closed-form root formula is contracting
and stable; forward iteration expands errors by roughly 3x per step,
which is why the forward classifiers scale their tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import BadInput
from .intervals import IntervalSet

__all__ = [
    "f_apply",
    "f_preimage",
    "CantorApprox",
    "preimage_intervals",
    "Itinerary",
    "itinerary",
    "AMembership",
    "a_membership",
    "pullback_spectral_set",
]

# core interval pieces: 0-bit branch I, 1-bit branch J
I_LO, I_HI = -2.0, 0.0
J_LO, J_HI = 1.0, 3.0


def f_apply(x):
    """x^2 - x - 3, elementwise on arrays."""
    return x * x - x - 3


def f_preimage(y: float):
    """Both real roots of x^2 - x - 3 = y, smaller first.

    Empty tuple when y < -13/4 (no real roots).
    """
    disc = 13.0 + 4.0 * float(y)
    if disc < 0.0:
        return ()
    r = math.sqrt(disc)
    return ((1.0 - r) / 2.0, (1.0 + r) / 2.0)


@dataclass(frozen=True)
class CantorApprox:
    """Level-m backward approximation: 2^m closed intervals whose
    intersection over all m is the invariant Cantor set, plus the
    preimages of 0 down to depth m."""

    m: int
    intervals: IntervalSet
    isolated_points: tuple

    def __post_init__(self):
        if len(self.intervals.intervals) != 2 ** self.m:
            raise BadInput("level-m approximation must have 2^m intervals")


def _pull_interval(a: float, b: float):
    """The two preimage intervals of [a, b], clamped to [-3, 3]: the
    left branch (mb, ma) reverses orientation, the right branch
    (pa, pb) preserves it."""
    ma, pa = f_preimage(max(a, -3.0))
    mb, pb = f_preimage(min(b, 3.0))
    return (mb, ma), (pa, pb)


def preimage_intervals(m: int) -> CantorApprox:
    """Pull [-3, 3] back m times through the quadratic map.

    Endpoints come from the closed-form root formula applied to the
    previous level's endpoints (left branch reverses orientation, right
    branch preserves it).  Cost is O(2^m); the depth cap of 40 marks
    where 64-bit endpoint arithmetic is still trustworthy.
    """
    if not isinstance(m, int) or not 0 <= m <= 40:
        raise BadInput("level must be an integer in [0, 40]")
    ivs = [(-3.0, 3.0)]
    for _ in range(m):
        nxt = []
        for a, b in ivs:
            nxt.extend(_pull_interval(a, b))
        nxt.sort()
        ivs = nxt
    pts = [0.0]
    frontier = [0.0]
    for _ in range(m):
        frontier = [x for p in frontier for x in f_preimage(p)]
        pts.extend(frontier)
    return CantorApprox(m, IntervalSet(tuple(ivs)), tuple(sorted(pts)))


@dataclass(frozen=True)
class Itinerary:
    """Symbol sequence of a forward orbit: bit j is 0 when the j-th
    point sits in [-2, 0] and 1 when it sits in [1, 3] (the orbit point
    for bit j is the (j-1)-th iterate, so bit 1 describes xi itself).

    ``escape`` is None for a full-length itinerary; otherwise it is the
    first iterate index k >= 0 that left both branch intervals, and
    ``bits`` holds the k symbols seen before that.
    """

    bits: tuple
    escape: int | None = None


_BRANCH_TOL = 1e-12


def itinerary(xi: float, m: int) -> Itinerary:
    if m < 0:
        raise BadInput("need m >= 0")
    x = float(xi)
    bits = []
    for k in range(m):
        if I_LO - _BRANCH_TOL <= x <= I_HI + _BRANCH_TOL:
            bits.append(0)
        elif J_LO - _BRANCH_TOL <= x <= J_HI + _BRANCH_TOL:
            bits.append(1)
        else:
            return Itinerary(tuple(bits), escape=k)
        x = f_apply(x)
    return Itinerary(tuple(bits), escape=None)


@dataclass(frozen=True)
class AMembership:
    """Classification at backward resolution m.

    kind is "InLambda" (still inside the level-m interval system),
    "IsolatedPoint" (within tolerance of a depth-k preimage of 0, k in
    ``step``), or "Outside" (orbit left [-3, 3] at iterate ``step``).
    """

    kind: str
    step: int

    @property
    def in_a(self) -> bool:
        return self.kind != "Outside"


def a_membership(xi: float, m: int, tol: float = 1e-9) -> AMembership:
    """Classify xi against the level-m picture by forward iteration.

    The zero test runs before the range test at every step so that
    near-preimages of 0 are reported as such rather than as escapees
    (the orbit of 0 itself leaves [-3, 3] after two steps).  Tolerances
    grow by 3x per step to track forward error amplification; the depth
    cap m <= 12 keeps 3^m * tol meaningful.
    """
    if not 0 <= m <= 12:
        raise BadInput("membership depth capped at 12")
    if tol <= 0:
        raise BadInput("tolerance must be positive")
    x = float(xi)
    for k in range(m + 1):
        scaled = tol * 3.0 ** k
        if abs(x) <= scaled:
            return AMembership("IsolatedPoint", k)
        if not -3.0 - scaled <= x <= 3.0 + scaled:
            return AMembership("Outside", k)
        x = f_apply(x)
    return AMembership("InLambda", m)


def pullback_spectral_set(K: IntervalSet) -> IntervalSet:
    """One backward step on a closed subset of [-3, 3]: the full
    preimage of K, with 0 and -2 adjoined.

    Interval endpoints map through the root formula; each isolated point
    contributes both of its preimages.  Points landing inside intervals
    are absorbed by IntervalSet normalization.
    """
    lo, hi = K.bounds()
    if lo < -3.0 - 1e-9 or hi > 3.0 + 1e-9:
        raise BadInput("pullback input must lie in [-3, 3]")
    ivs = []
    for a, b in K.intervals:
        ivs.extend(_pull_interval(a, b))
    pts = [0.0, -2.0]
    for p in K.points:
        pts.extend(f_preimage(min(max(p, -3.0), 3.0)))
    return IntervalSet(tuple(ivs), tuple(pts))
