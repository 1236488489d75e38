"""Test-only oracle: the per-edge Bloch assembly and the per-rank wraps
the library used before it read the integer per-offset split and the
one deck-group lift.

`oracle_twisted_adjacency` and `oracle_band_values` build the twisted
adjacency one edge at a time: a rank-1 grid raises exp(i theta) to each
edge's offset, a rank-2 grid takes exp(i (o1 theta1 + o2 theta2)) per
edge.  The oracle solves every grid point at its own angle; the tests
compare the library's eigenvalues with these byte for byte on the
points the library solves, one of each conjugate pair, and within
rounding on the mirror rows it copies.  `oracle_quotient` wraps a rank-1 cover on a ring and a rank-2
cover on a torus with its own loops; the lift must give the same
Multigraph, name included.
"""

from __future__ import annotations

import math

import numpy as np

from cubicgaps.graphcore import Multigraph


def oracle_twisted_adjacency(P, z) -> np.ndarray:
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    n = P.base.n
    A = np.zeros((n, n), dtype=complex)
    for (u, v), off in zip(P.base.edges, P.offsets):
        phase = np.prod(zv ** np.array(off))
        if u == v:
            A[u, u] += phase + np.conj(phase)
        else:
            A[u, v] += phase
            A[v, u] += np.conj(phase)
    return A


def oracle_band_values(P, N: int) -> np.ndarray:
    """The sorted eigenvalue rows over the N (or N x N, row-major) grid."""
    th = -math.pi + 2.0 * math.pi * np.arange(N) / N
    n = P.base.n
    if P.rank == 1:
        phases = np.exp(1j * th)
        A = np.zeros((len(th), n, n), dtype=complex)
        for (u, v), (o,) in zip(P.base.edges, P.offsets):
            ph = phases ** o
            if u == v:
                A[:, u, u] += 2.0 * ph.real
            else:
                A[:, u, v] += ph
                A[:, v, u] += np.conj(ph)
        return np.linalg.eigvalsh(A)
    t1 = np.repeat(th, len(th))
    t2 = np.tile(th, len(th))
    A = np.zeros((len(t1), n, n), dtype=complex)
    for (u, v), (o1, o2) in zip(P.base.edges, P.offsets):
        ph = np.exp(1j * (o1 * t1 + o2 * t2))
        if u == v:
            A[:, u, u] += 2.0 * ph.real
        else:
            A[:, u, v] += ph
            A[:, v, u] += np.conj(ph)
    return np.linalg.eigvalsh(A)


def oracle_quotient(P, decks) -> Multigraph:
    bn = P.base.n
    if P.rank == 1:
        (n,) = decks
        edges = []
        for (u, v), (o,) in zip(P.base.edges, P.offsets):
            for c in range(n):
                edges.append((c * bn + u, ((c + o) % n) * bn + v))
        return Multigraph(n * bn, edges, name=f"{P.name or 'cover'}/C{n}")
    n1, n2 = decks

    def vid(c1, c2, v):
        return (c1 * n2 + c2) * bn + v

    edges = []
    for (u, v), (o1, o2) in zip(P.base.edges, P.offsets):
        for c1 in range(n1):
            for c2 in range(n2):
                edges.append((vid(c1, c2, u),
                              vid((c1 + o1) % n1, (c2 + o2) % n2, v)))
    return Multigraph(n1 * n2 * bn, edges,
                      name=f"{P.name or 'cover'}/T{n1}x{n2}")
