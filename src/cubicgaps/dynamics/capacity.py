"""Logarithmic capacity of a finite union of intervals, by one linear
solve for its equilibrium measure (S. Olver, "Computation of equilibrium
measures", J. Approx. Theory 163, 2011).

The equilibrium measure mu of a compact set E has total mass 1, and its
log potential U(x) = integral of log|x - y| dmu(y) equals log cap(E) on
E.  On each interval [a, b], in the local variable t = (2x - a - b)/(b - a),
the density is written as sum_k c_k T_k(t)/(pi sqrt(1 - t^2)) with
Chebyshev polynomials T_k.  The log potential of every basis term has a
closed form at a point of local coordinate s: on its own interval it is
-log 2 for k = 0 and -T_k(s)/k for k >= 1; outside the interval it is
log(rho/2) and -sgn(s)^k rho^-k / k, with rho = |s| + sqrt(s^2 - 1).
Each k = 0 term also carries log((b - a)/2), its mass times the log of
the half-width.  Setting the potential equal to log cap(E) at K
Chebyshev nodes per interval, plus total mass 1, gives one dense square
system whose last unknown is log cap(E).  No randomness, no iteration,
no quadrature.  The error falls geometrically in K, more slowly when a
gap is narrow next to the intervals it separates.  Isolated points carry
no capacity and are ignored.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BadInput
from .intervals import IntervalSet

__all__ = ["capacity_estimate"]


def capacity_estimate(S: IntervalSet, npoints: int) -> float:
    """cap(E) of the intervals of S from npoints Chebyshev terms, split
    evenly over the intervals (at least one term each)."""
    if npoints < 16:
        raise BadInput("need npoints >= 16")
    if not S.intervals:
        return 0.0
    a, b = np.array(S.intervals, dtype=float).T
    n = len(a)
    K = max(1, npoints // n)
    size = n * K
    mid, half = (a + b) / 2, (b - a) / 2
    theta = np.pi * (np.arange(K) + 0.5) / K
    k = np.arange(1, K)
    x = (mid[:, None] + half[:, None] * np.cos(theta)).ravel()

    # phi[i, j, k]: potential at node i of term k on interval j
    phi = np.empty((size, n, K))
    own = np.repeat(np.arange(n), K)[:, None] == np.arange(n)
    own_block = np.empty((K, K))
    own_block[:, 0] = -math.log(2.0)
    own_block[:, 1:] = -np.cos(np.outer(theta, k)) / k
    phi[own] = np.tile(own_block, (n, 1))
    s = ((x[:, None] - mid) / half)[~own]
    rho = np.abs(s) + np.sqrt(s * s - 1.0)
    phi[~own, 0] = np.log(rho / 2)
    phi[~own, 1:] = -(np.sign(s) / rho)[:, None] ** k / k
    phi[:, :, 0] += np.log(half)

    A = np.zeros((size + 1, size + 1))
    A[:size, :size] = phi.reshape(size, size)
    A[:size, size] = -1.0
    A[size, :size:K] = 1.0
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    return math.exp(np.linalg.solve(A, rhs)[size])
