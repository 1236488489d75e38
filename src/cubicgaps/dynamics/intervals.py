"""Finite unions of closed intervals plus isolated points.

This is the common currency between the quadratic-dynamics code (preimage
trees, pullbacks), the band-structure code (spectrum estimates, gap
reports) and the capacity estimator.  Everything is kept closed under
union / intersection / complement-in-a-box, with eager normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import BadInput, _field, _json_floats

__all__ = ["IntervalSet"]


def _as_float(x):
    v = float(x)
    if not math.isfinite(v):
        raise BadInput(f"non-finite interval datum {x!r}")
    return v


def _json_pairs(pairs) -> tuple:
    """A JSON list of number pairs as a tuple of float pairs."""
    if not isinstance(pairs, (list, tuple)):
        raise TypeError(f"expected a list of pairs, got {pairs!r}")
    for p in pairs:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ValueError(f"interval {p!r} is not a pair")
    return tuple(_json_floats(p) for p in pairs)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint closed intervals and isolated points.

    Normalization on construction: intervals are sorted and merged when
    they overlap or touch, degenerate intervals [a, a] become points, and
    points lying inside an interval are absorbed.
    """

    intervals: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        raw = []
        pts = [_as_float(p) for p in self.points]
        for pair in self.intervals:
            a, b = (_as_float(pair[0]), _as_float(pair[1]))
            if b < a:
                raise BadInput(f"interval endpoints out of order: [{a}, {b}]")
            if a == b:
                pts.append(a)
            else:
                raw.append((a, b))
        raw.sort()
        merged = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        ivs = tuple((a, b) for a, b in merged)
        keep = sorted({p for p in pts
                       if not any(a <= p <= b for a, b in ivs)})
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "points", tuple(keep))

    # -- queries ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    @property
    def total_length(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def bounds(self):
        xs = [a for a, _ in self.intervals] + [b for _, b in self.intervals]
        xs += list(self.points)
        if not xs:
            raise BadInput("empty set has no bounds")
        return min(xs), max(xs)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        x = float(x)
        if any(a - tol <= x <= b + tol for a, b in self.intervals):
            return True
        return any(abs(x - p) <= tol for p in self.points)

    def contains_set(self, other: "IntervalSet", tol: float = 0.0) -> bool:
        for a, b in other.intervals:
            if not any(c - tol <= a and b <= d + tol for c, d in self.intervals):
                return False
        return all(self.contains(p, tol) for p in other.points)

    # -- algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals,
                           self.points + other.points)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        ivs = []
        pts = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    ivs.append((lo, hi))
        for p in self.points:
            if other.contains(p):
                pts.append(p)
        for p in other.points:
            if self.contains(p):
                pts.append(p)
        return IntervalSet(tuple(ivs), tuple(pts))

    def complement_in(self, lo: float = -3.0, hi: float = 3.0) -> "IntervalSet":
        """Closure of [lo, hi] minus the intervals.

        Isolated points are ignored: removing a point leaves a set whose
        closure fills it back in, so only intervals cut material out.
        Returned pieces are the closed gap intervals; a degenerate box
        [lo, lo] outside every interval leaves the point lo.
        """
        lo, hi = _as_float(lo), _as_float(hi)
        if hi < lo:
            raise BadInput("empty box")
        if lo == hi:
            covered = any(a <= lo <= b for a, b in self.intervals)
            return IntervalSet((), () if covered else (lo,))
        out = []
        cur = lo
        for a, b in self.intervals:
            if b < lo or a > hi:
                continue
            if a > cur:
                out.append((cur, min(a, hi)))
            cur = max(cur, b)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
        return IntervalSet(tuple(out))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals],
                "points": list(self.points)}

    @classmethod
    def from_json(cls, data: dict) -> "IntervalSet":
        """The set of a JSON document with an "intervals" list of number
        pairs and a "points" list of numbers.  A missing field, a bool
        (which float() would read as 0.0 or 1.0), a string or an
        interval that is not a pair raises BadInput naming the field."""
        what = "interval set JSON"
        if not isinstance(data, dict):
            raise BadInput(f"malformed {what}: a {type(data).__name__}, "
                           "not an object")
        return cls(_field(data, what, "intervals", _json_pairs),
                   _field(data, what, "points", _json_floats))
