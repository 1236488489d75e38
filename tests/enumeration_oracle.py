"""Test-only oracle: cubic multigraph enumeration before orderly generation.

`generate_raw` is the generator without the least-labelling prune: it
yields every first-touch labelling of every connected cubic multigraph
on n vertices, in ascending order of its choice sequence (a loop is
choice 0, an edge to vertex u is choice 1+u), so several labelled copies
of each class.  `oracle_enumerate` deduplicates them exactly as the
library once did: each raw graph is bucketed by (rounded spectrum,
sorted signatures) and matched against the class representatives found
so far in its bucket, and the first raw graph of each class stands for
it.  The tests require `enumerate_cubic_multigraphs` to return the same
representatives in the same order.
"""

from __future__ import annotations

import itertools

import numpy as np

from cubicgaps.graphcore import Multigraph
from cubicgaps.graphcore.multigraph import (_invariants, _isomorphisms,
                                            _match_plan)


def generate_raw(n, allow_loops, allow_multi):
    """Yield edge tuples of connected degree-3 graphs on exactly n vertices.

    ``used`` counts how many vertices have been touched so far; vertex
    indices are assigned in first-touch order, which is what makes the
    non-decreasing menu sound.  A vertex is first touched only by an edge
    from an already-touched one, so those edges span every finished
    graph and no connectivity check is needed.
    """
    deg = [0] * n
    edges = []

    def fill(v, used, min_choice):
        """Add one more edge at vertex v.  Choices are encoded so that a
        loop is 0, an edge to touched vertex u is 1+u, and an edge to the
        fresh vertex is 1+used; requiring choice >= min_choice makes the
        incident-edge menu at v non-decreasing."""
        if deg[v] == 3:
            yield from rec(used)
            return
        rem = 3 - deg[v]
        if allow_loops and min_choice == 0 and rem >= 2:
            deg[v] += 2
            edges.append((v, v))
            yield from fill(v, used, 1 + v)
            edges.pop()
            deg[v] -= 2
        for u in range(v, used):
            choice = 1 + u
            if choice < min_choice:
                continue
            if deg[u] >= 3 or u == v:
                continue
            if not allow_multi and (v, u) in edges:
                continue
            deg[v] += 1
            deg[u] += 1
            edges.append((v, u) if v <= u else (u, v))
            yield from fill(v, used, choice if allow_multi else choice + 1)
            edges.pop()
            deg[v] -= 1
            deg[u] -= 1
        if used < n:
            u = used
            choice = 1 + u
            if choice >= min_choice:
                deg[v] += 1
                deg[u] += 1
                edges.append((v, u))
                yield from fill(v, used + 1, choice if allow_multi else choice + 1)
                edges.pop()
                deg[v] -= 1
                deg[u] -= 1

    def rec(used):
        v = next((i for i in range(used) if deg[i] < 3), None)
        if v is None:
            if used == n:
                yield tuple(edges)
            return
        yield from fill(v, used, 0)

    return fill(0, 1, 0)


# raw graphs per batched eigensolve in the dedup pass
_CHUNK = 32


def oracle_enumerate(n: int, allow_loops: bool = True, allow_multi: bool = True):
    """All connected cubic multigraphs on n vertices up to isomorphism.

    Deterministic order: ascending by (rounded spectrum, sorted vertex
    signatures, edge list) of the chosen class representatives.
    """
    raw = generate_raw(n, allow_loops, allow_multi)
    plans = {}  # bucket key -> match plans of its class representatives
    reps = []
    while chunk := list(itertools.islice(raw, _CHUNK)):
        invs = [_invariants(n, edges) for edges in chunk]
        stacked = np.array([rows for rows, _, _ in invs], dtype=np.float64)
        spectra = np.round(np.linalg.eigvalsh(stacked), 6).tolist()
        for edges, (rows, nbrs, sigs), spec in zip(chunk, invs, spectra):
            key = (tuple(spec), tuple(sorted(sigs)))
            bucket = plans.setdefault(key, [])
            if all(next(_isomorphisms(p, rows, nbrs, sigs), None) is None
                   for p in bucket):
                bucket.append(_match_plan(rows, nbrs, sigs))
                reps.append((key, Multigraph(n=n, edges=edges)))
    reps.sort(key=lambda kg: (kg[0], kg[1].edges))
    return [g for _, g in reps]
