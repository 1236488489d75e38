"""Exhaustive enumeration of connected cubic multigraphs up to isomorphism.

The generator completes the lowest-index vertex that is still short of
degree 3, choosing its next incident edge from a monotone menu (loop,
edge to an already-touched vertex, edge to a fresh vertex).  Forcing the
menu choices at each vertex to be non-decreasing kills most permuted
duplicates cheaply; the survivors are deduplicated exactly in one pass.
Each raw graph's adjacency rows and vertex signatures are built once,
its spectrum comes from one batched eigensolve per chunk of raw graphs,
and (rounded spectrum, sorted signatures) picks its bucket.  Inside the
bucket it is matched against the match plans of the class
representatives found so far, by the exact neighbour-guided
backtracking of ``multigraph``, which stops at its first permutation;
only representatives keep any matcher data, and a raw graph that
matches none becomes the next one.

Known class counts for n = 2..10 (loops and parallel edges allowed):
2, 5, 17, 71, 388; simple graphs: 1 (n=4), 2, 5, 19.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import BadInput
from .multigraph import (Multigraph, _invariants, _isomorphisms, _match_plan,
                         canonical_code)

__all__ = ["enumerate_cubic_multigraphs", "named_graph", "NAMED_BUILDERS"]


def _generate_raw(n, allow_loops, allow_multi):
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


def enumerate_cubic_multigraphs(n: int, allow_loops: bool = True, allow_multi: bool = True):
    """All connected cubic multigraphs on n vertices up to isomorphism.

    Deterministic order: ascending by (rounded spectrum, sorted vertex
    signatures, edge list) of the chosen class representatives.
    """
    if n % 2 != 0 or not 2 <= n <= 12:
        raise BadInput("n must be even with 2 <= n <= 12")
    raw = _generate_raw(n, allow_loops, allow_multi)
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


# -- small named graphs used as seeds and fixtures -----------------------


def _k4():
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], name="k4")


def _cube():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    return Multigraph(8, edges, name="cube")


def _prism3():
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    return Multigraph(6, edges, name="prism3")


def _k33():
    return Multigraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)], name="k33")


def _theta_loop():
    # one loop, a cut edge into a theta block: spectrum {-2, -1, 2, 3}
    return Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)],
                      name="theta_loop")


def _star_loops():
    # center joined to three looped leaves: spectrum {-1, 2, 2, 3}
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)],
                      name="star_loops")


NAMED_BUILDERS = {
    "k4": _k4,
    "cube": _cube,
    "prism3": _prism3,
    "k33": _k33,
    "theta_loop": _theta_loop,
    "star_loops": _star_loops,
}


def named_graph(name: str) -> Multigraph:
    try:
        return NAMED_BUILDERS[name]()
    except KeyError:
        raise BadInput(f"unknown graph name {name!r}; have {sorted(NAMED_BUILDERS)}")


def graph_id(G: Multigraph) -> str:
    """Short hex id from the canonical form (small graphs only)."""
    import hashlib

    return hashlib.sha256(canonical_code(G)).hexdigest()[:16]
