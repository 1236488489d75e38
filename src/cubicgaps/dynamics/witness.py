"""Planning finite witnesses for gapped points.

A point xi in [-3, 3) is witnessed by a finite graph whose spectrum
stays delta away from xi.  The planner forward-iterates the interval
U = [xi - delta, xi + delta] under the quadratic map until the image
either lands inside a cataloged band gap of a planar periodic family or
leaves [-3, 3] entirely; applying the triangle map k times to a quotient
of that family then produces the witness.  Two side conditions make the
pullback argument sound: every intermediate image must avoid 0 and -2
(the junk eigenvalues injected by each triangle-map application), and
the gap containment carries a safety margin against band-edge sampling
error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BadInput, MaxIterExceeded, _field
from ..graphcore.multigraph import Multigraph
from .intervals import IntervalSet
from .quadratic import f_apply

__all__ = ["WitnessPlan", "plan_gap_witness", "realize_plan"]

_JUNK_MARGIN = 1e-6
_GAP_MARGIN = 1e-3
_ESCAPE_MARGIN = 1e-9


@dataclass(frozen=True)
class WitnessPlan:
    xi: float
    delta: float              # requested half-width
    delta_used: float         # half-width actually certified (<= delta)
    k: int                    # triangle-map iterations
    family_id: str            # catalog id of the periodic family
    route: str                # "gap" or "escape"
    gap: tuple | None         # the target gap interval when route == "gap"

    def to_json(self) -> dict:
        return {"xi": self.xi, "delta": self.delta,
                "delta_used": self.delta_used, "k": self.k,
                "family_id": self.family_id, "route": self.route,
                "gap": list(self.gap) if self.gap else None}


def _image(lo: float, hi: float):
    """Exact interval image under x -> x^2 - x - 3 (vertex at 1/2)."""
    va, vb = f_apply(lo), f_apply(hi)
    if lo < 0.5 < hi:
        return -3.25, max(va, vb)
    return min(va, vb), max(va, vb)


def _gap_pairs(gaps) -> tuple:
    return IntervalSet.from_json(gaps).intervals


def _entry_id(entry) -> str:
    return _field(entry, "catalog row", "id", str)


def _try_plan(xi, delta, dp, catalog, k_max):
    lo, hi = xi - dp, xi + dp
    for k in range(k_max + 1):
        if hi < -3.0 - _ESCAPE_MARGIN or lo > 3.0 + _ESCAPE_MARGIN:
            return WitnessPlan(xi, delta, dp, k, _entry_id(catalog[0]),
                               "escape", None)
        for entry in catalog:
            for a, b in _field(entry, "catalog row", "gaps", _gap_pairs):
                if a + _GAP_MARGIN <= lo and hi <= b - _GAP_MARGIN:
                    return WitnessPlan(xi, delta, dp, k, _entry_id(entry),
                                       "gap", (a, b))
        # advancing injects junk eigenvalues at 0 and -2 one level deeper,
        # so the current interval must stay clear of both
        if (lo - _JUNK_MARGIN <= 0.0 <= hi + _JUNK_MARGIN
                or lo - _JUNK_MARGIN <= -2.0 <= hi + _JUNK_MARGIN):
            return None
        lo, hi = _image(lo, hi)
    return None


def plan_gap_witness(xi: float, delta: float, catalog, k_max: int = 64) -> WitnessPlan:
    """Find the smallest k putting the delta-interval around xi into a
    cataloged gap (or clean escape) after k quadratic steps.

    ``catalog`` is a list of catalog entries (dicts with at least "id"
    and "gaps"); normally the planar subset of the cover catalog.  If
    the full delta fails, the planner retries with halved widths down to
    delta/8 and records the width actually certified.
    """
    xi, delta = float(xi), float(delta)
    if delta <= 0:
        raise BadInput("delta must be positive")
    if not -3.0 <= xi <= 3.0 - delta:
        raise BadInput("xi must lie in [-3, 3 - delta]")
    entries = [e for e in catalog if e.get("planar_quotients")] or list(catalog)
    if not entries:
        raise BadInput("empty catalog")
    dp = delta
    while dp >= delta / 8 - 1e-300:
        plan = _try_plan(xi, delta, dp, entries, k_max)
        if plan is not None:
            return plan
        dp /= 2
    raise MaxIterExceeded(
        f"no witness plan for xi={xi} with k <= {k_max}; "
        "point is too close to 3 or the catalog gaps are insufficient")


def realize_plan(plan: WitnessPlan, Q: Multigraph, size_cap: int = 10_000) -> Multigraph:
    """Apply the triangle map plan.k times to a finite quotient Q of the
    planned family.  The result has no eigenvalue within plan.delta_used
    of plan.xi provided spectrum(Q) avoids the planned gap's family
    bands (true for cyclic quotients of the cataloged family)."""
    from .trianglemap import tmap

    if Q.n * 3 ** plan.k > size_cap:
        raise BadInput(
            f"witness would have {Q.n * 3 ** plan.k} vertices (cap {size_cap})")
    X = Q
    for _ in range(plan.k):
        X = tmap(X)
    return X
