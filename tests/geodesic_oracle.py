"""Test-only oracle: the geodesic bound with no per-graph plan.

`geodesic_bound` is the library function before its lambda-independent
work was kept per graph, as it was: every call decomposes X afresh,
builds the neighbour sets and reads the satellite weights off the dense
adjacency matrix.  The tests require the library to return equal dicts,
float for float, and to raise the same errors with the same messages.
"""

from __future__ import annotations

import math

import numpy as np

from cubicgaps.certifier.bounds import _satellite_excess, decompose_geodesic
from cubicgaps.errors import BadInput, NumericalFailure
from cubicgaps.graphcore import Multigraph


def _neighbor_sets(X: Multigraph):
    return [set(row) for row in X.neighbors()]


def _unit_w(lam: float) -> complex:
    """Root of w^2 - lam*w + 1 = 0 on the unit circle (upper half)."""
    return complex(lam / 2.0, math.sqrt(max(0.0, 4.0 - lam * lam)) / 2.0)


def _test_residual(X: Multigraph, order, lam: float):
    """(f, A, r): the test function f(v_k) = w^k along order (zero off
    it), the adjacency matrix A and the residual r = A f - lam f."""
    w = _unit_w(lam)
    f = np.zeros(X.n, dtype=complex)
    for k, v in enumerate(order):
        f[v] = w ** k
    A = X.adjacency()
    return f, A, A @ f - lam * f


def geodesic_bound(X: Multigraph, lam: float) -> dict:
    """Distance bound from a geodesic-neighborhood test function.

    Valid for |lambda| <= sqrt(2): the per-segment residual accounting
    needs |1 + w^2|^2 = lambda^2 <= 2 for outside vertices attached at
    distance two.  The squared residual is at most |N_t| + 18 (including
    at most 9 from each geodesic endpoint) so
    distance(lambda, sigma(X)) <= sqrt(1 + 18/L(X)).

    Returned "bound" is the distance-space guarantee sqrt(1 + 18/L(X));
    "distance_bound" = sqrt(rayleigh) is the sharper certified value for
    this particular X and lambda.

    The per-segment accounting reports each segment's residual sum
    against a cap of |S| plus two kinds of documented allowances: 9 per
    geodesic endpoint the segment contains (endpoints are excluded from
    the segment ledger and budgeted globally), and the combinatorial
    excess of any satellite whose forced attachment pattern beats one
    unit per edge slot (see _satellite_excess).  The global checks
    (squared residual <= |N_t| + 18 and Rayleigh <= 1 + 18/L) stay hard
    errors regardless of the per-segment ledger.
    """
    if abs(lam) > math.sqrt(2.0) + 1e-12:
        raise BadInput("|lambda| must be at most sqrt(2)")
    dec = decompose_geodesic(X)
    order = dec.order
    n = X.n
    f, A, r = _test_residual(X, order, lam)
    res2_all = float(np.vdot(r, r).real)
    size = len(order)
    if res2_all > size + 18 + 1e-6:
        raise NumericalFailure(
            f"residual norm {res2_all:.6f} exceeds |N_t| + 18 = {size + 18}")
    L = math.log2(n / 3.0)
    rayleigh_cap = 1.0 + 18.0 / L
    rayleigh = res2_all / size
    if rayleigh > rayleigh_cap + 1e-9:
        raise NumericalFailure(
            f"Rayleigh quotient {rayleigh:.6f} exceeds "
            f"1 + 18/L = {rayleigh_cap:.6f}")
    bound = math.sqrt(rayleigh_cap)
    # Per-segment accounting.  The two geodesic endpoints are budgeted
    # globally (at most 9 each covers both their own residuals and
    # whatever hangs off their free slots), so a segment is charged only
    # the part of each residual that does not flow through an endpoint:
    # for an outside vertex that means |sum of f over its non-endpoint
    # neighbors|^2.
    adj = _neighbor_sets(X)
    seg_of = {}
    for i, s in enumerate(dec.segments):
        for v in s.order:
            seg_of[v] = i
    ends = {dec.geodesic[0], dec.geodesic[-1]}
    posmap = {v: k for k, v in enumerate(order)}
    sums = [0.0] * len(dec.segments)
    caps = [float(s.size) for s in dec.segments]
    endpoint_budget = sum(float(abs(r[v]) ** 2) for v in ends)
    for v in order:
        if v in ends:
            continue
        sums[seg_of[v]] += float(abs(r[v]) ** 2)
    for x in range(n):
        if x in dec.neighborhood:
            continue
        inside = [u for u in adj[x] if u in dec.neighborhood]
        if not inside:
            continue
        interior = [u for u in inside if u not in ends]
        part = float(abs(sum(A[x, u] * f[u] for u in interior)) ** 2)
        if interior:
            i = seg_of[interior[0]]
            sums[i] += part
            positions = []
            for u in interior:
                positions.extend([posmap[u]] * int(round(float(A[x, u].real))))
            caps[i] += _satellite_excess(positions)
        endpoint_budget += float(abs(r[x]) ** 2) - part
    # A segment containing a geodesic endpoint draws on that endpoint's
    # global allowance (its own residual is at most 9, and satellites
    # hanging off its free slots ride the same envelope), so its cap
    # grows by 9 per endpoint contained.  Satellites whose attachment
    # positions force a worst case beyond one unit per edge slot widen
    # the cap by that combinatorial excess (see _satellite_excess).
    accounting = []
    for i, s in enumerate(dec.segments):
        cap = caps[i] + 9 * sum(1 for v in ends if v in s.order)
        accounting.append(
            {"tag": s.tag, "span": s.span, "size": s.size,
             "sum": sums[i], "cap": cap,
             "within": bool(sums[i] <= cap + 1e-9)})
    accounting = tuple(accounting)
    if endpoint_budget > 18.0 + 1e-9:
        raise NumericalFailure("geodesic endpoint residuals exceed 18")
    return {"rayleigh": rayleigh, "bound": bound,
            "distance_bound": math.sqrt(rayleigh),
            "accounting": accounting,
            "neighborhood_size": size}
