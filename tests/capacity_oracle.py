"""Test-only oracle: the Fekete-point capacity estimator that
`capacity_estimate` used before its equilibrium-measure solve.

`fekete_capacity` places npoints approximate Fekete points by greedy
insertion on a dense grid followed by coordinatewise ascent sweeps, then
reads the capacity off the sup-norm of the monic polynomial with those
roots, using the lower bound  sup_E |p| >= 2 c(E)^N  valid for any monic
p of degree N on a compact real set E.  That readout is biased upward (a
few 1e-3 at N = 64), so the tests require the library's value to lie
below it.  No randomness anywhere; ties resolve to the lowest grid index.
"""

from __future__ import annotations

import math

import numpy as np

from cubicgaps.dynamics import IntervalSet
from cubicgaps.errors import BadInput

_GRID_MIN = 4096
_MAX_SWEEPS = 200


def _dense_grid(S: IntervalSet, total: int):
    """Per-interval linspaces, density proportional to length, plus the
    block boundaries so the sup search never misses an endpoint."""
    lengths = np.array([b - a for a, b in S.intervals])
    weights = lengths / lengths.sum()
    blocks = []
    for (a, b), w in zip(S.intervals, weights):
        k = max(16, int(round(w * total)))
        blocks.append(np.linspace(a, b, k))
    grid = np.concatenate(blocks)
    # block id per point, to keep parabolic refinement inside one interval
    ids = np.concatenate([np.full(len(blk), i) for i, blk in enumerate(blocks)])
    return grid, ids


def fekete_capacity(S: IntervalSet, npoints: int) -> float:
    if npoints < 16:
        raise BadInput("need npoints >= 16")
    if not S.intervals:
        return 0.0
    grid, block = _dense_grid(S, max(_GRID_MIN, 8 * npoints))
    g = grid[:, None]

    # greedy insertion: start from the extreme ends, then repeatedly add
    # the grid point maximizing the log-product of distances
    chosen = [0, len(grid) - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        logsum = (np.log(np.abs(grid - grid[0]))
                  + np.log(np.abs(grid - grid[-1])))
        while len(chosen) < npoints:
            j = int(np.argmax(logsum))
            chosen.append(j)
            logsum = logsum + np.log(np.abs(grid - grid[j]))

        pts = grid[chosen]
        M = np.log(np.abs(g - pts[None, :]))  # grid x points
        total = M.sum(axis=1)

        # coordinatewise ascent: move each point to the grid position
        # maximizing the product of distances to the others
        for _ in range(_MAX_SWEEPS):
            moved = False
            for j in range(npoints):
                rest = total - M[:, j]
                cur = int(np.argmin(np.abs(grid - pts[j])))
                rest[cur] = np.delete(M[cur], j).sum()
                best = int(np.argmax(rest))
                if best != cur and rest[best] > rest[cur]:
                    pts[j] = grid[best]
                    col = np.log(np.abs(grid - pts[j]))
                    total = total - M[:, j] + col
                    M[:, j] = col
                    # the vacated row mixed -inf - (-inf); rebuild it
                    total[cur] = M[cur].sum()
                    moved = True
            if not moved:
                break

    # sup-norm readout with a parabolic polish of the grid argmax
    i = int(np.argmax(total))
    lmax = float(total[i])
    if 0 < i < len(grid) - 1 and block[i - 1] == block[i] == block[i + 1]:
        y0, y1, y2 = total[i - 1], total[i], total[i + 1]
        if math.isfinite(y0) and math.isfinite(y2):
            denom = y0 - 2 * y1 + y2
            if denom < -1e-30:
                t = 0.5 * (y0 - y2) / denom
                if -1 < t < 1:
                    lmax = float(y1 - 0.25 * t * (y0 - y2))
    return math.exp((lmax - math.log(2.0)) / npoints)
