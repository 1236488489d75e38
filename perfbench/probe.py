"""A fixed host-speed probe, sampled while the timed body runs.

On a shared host a CPU's speed swings by a third or more over seconds
and minutes as other tenants load the machine, and each CPU swings on
its own.  A Sampler interrupts the body every INTERVAL_S of wall time
(SIGALRM) and runs one short part of a fixed probe on the same CPU, the
parts in turn.  run.py divides the body's own time by the probe's time
(each part's median, summed), so a slow phase that slows the body slows
the probe too and cancels out, however long the body is.

The parts are fixed code on what the library spends its time in (pure
Python, networkx isomorphism and planarity, ``fractions``, numpy) and
call nothing of cubicgaps, so no change to the library moves them.  The
garbage collector is off while a part runs, so the objects the body
keeps alive cannot slow it.  A handler runs only between bytecodes, so a
long call into C (a numpy eigensolve) delays the next sample, nothing
more.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import networkx as nx
import numpy as np

INTERVAL_S = 0.02


def _python(_):
    counts, total = {}, 0
    for i in range(2500):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += (i * 7) % 13
    return total


def _isomorphism(inputs):
    nx.is_isomorphic(*inputs["pair"])


def _planarity(inputs):
    nx.check_planarity(inputs["planar"])


def _fractions(inputs):
    A = inputs["fractions"]
    [[sum(A[i][k] * A[k][j] for k in range(5)) for j in range(5)]
     for i in range(5)]


def _numpy(inputs):
    np.linalg.eigvalsh(inputs["matrices"])


PARTS = (_python, _isomorphism, _planarity, _fractions, _numpy)


class Sampler:
    """Context manager that samples the probe while its block runs.

    ``spent_s`` is the wall time the samples took (to be taken off the
    block's time) and ``probe_s()`` the probe's time."""

    def __init__(self):
        G = nx.random_regular_graph(3, 12, seed=1)
        M = np.random.default_rng(0).standard_normal((16, 24, 24))
        self._inputs = {
            "pair": (G, nx.relabel_nodes(G, {v: (5 * v) % 12 for v in G})),
            "planar": nx.random_regular_graph(3, 24, seed=2),
            "fractions": [[Fraction(3 * i + j - 5, j + 2) for j in range(5)]
                          for i in range(5)],
            "matrices": M + M.transpose(0, 2, 1),
        }
        self.samples = [[] for _ in PARTS]
        self.spent_s = 0.0
        self._turn = 0

    def _sample(self, i):
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        PARTS[i](self._inputs)
        self.samples[i].append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._sample(self._turn % len(PARTS))
        self._turn += 1
        # re-armed here, so the next sample comes INTERVAL_S after this
        # one ends and a handler never interrupts another
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        for part in PARTS:  # warm up, untimed
            part(self._inputs)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_s(self) -> float:
        """Each part's median sample time, summed over the parts.  A part
        that a short block left unsampled is sampled once now."""
        for i, samples in enumerate(self.samples):
            if not samples:
                self._sample(i)
        return sum(statistics.median(s) for s in self.samples)
