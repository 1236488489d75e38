"""Exhaustive enumeration of connected cubic multigraphs up to isomorphism.

The generator completes the lowest-index vertex that is still short of
degree 3, choosing its next incident edge from an ascending menu: a loop
is choice 0, an edge to an already-touched vertex u is choice 1+u, and
an edge to the fresh vertex is choice 1+used.  Vertices are labelled in
first-touch order and the choices at each vertex are non-decreasing, so
a labelled graph is fixed by its choice sequence, every first-touch
labelling of every class is reachable, and the depth-first search meets
them in lexicographic order of their choice sequences.

The search keeps exactly one labelling per class, the one with the
least choice sequence (orderly generation, after Read, "Every one a
winner", Ann. Discrete Math. 2, 1978).  `_smaller` looks for a
first-touch relabelling with a smaller sequence.  When a vertex is
completed the branch is pruned if one exists: the block of choices of a
complete vertex does not depend on edges added later, so every
completion of the branch also has a smaller labelling.  At a complete
graph the same walk is exact, and the graph is kept if and only if no
relabelling is smaller.  No pair of graphs is ever matched, and only the
kept classes are eigensolved, in one batch.

Known class counts for n = 2..14 (loops and parallel edges allowed,
OEIS A005967): 2, 5, 17, 71, 388, 2592, 21096; simple graphs (OEIS
A002851): 1 (n=4), 2, 5, 19, 85, 509.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadInput
from .multigraph import Multigraph, _invariants

__all__ = ["enumerate_cubic_multigraphs", "named_graph", "NAMED_BUILDERS"]

# label orders for two or three new neighbours of equal multiplicity
_TIES = {2: ((0, 1), (1, 0)),
         3: ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))}


def _smaller(adj, loop, deg, seq):
    """True if a first-touch relabelling has a smaller choice sequence.

    ``adj[x]`` lists x's neighbours once per edge (loops apart, flagged
    in ``loop``); ``seq`` is the generator's choice sequence, known up to
    its end.  The walk roots at each complete vertex and gives labels in
    first-touch order.  The vertex x with label c contributes its block:
    0 if x has a loop, then 1+label of each labelled neighbour above c in
    ascending order, then the fresh labels of its unlabelled neighbours,
    which take labels used, used+1, ... in descending order of
    multiplicity (any other order gives a larger block).  The walk
    branches only among unlabelled neighbours of equal multiplicity and
    abandons a branch at its first larger entry, at a vertex still short
    of degree 3, or at the end of ``seq``.

    A vertex u has label l exactly when l < used and order[l] == u, so
    labels of abandoned branches never need clearing.
    """
    n = len(deg)
    known = len(seq)
    lab = [n] * n
    order = [0] * n

    def walk(c, used, pos):
        while c < used:
            x = order[c]
            if pos == known or deg[x] < 3:
                return False
            if loop[x]:
                if seq[pos]:
                    return True
                pos += 1
            above = []
            fresh = []
            for u in adj[x]:
                lu = lab[u]
                if lu < used and order[lu] == u:
                    if lu > c:
                        above.append(lu + 1)
                else:
                    fresh.append(u)
            if above:
                above.sort()
                for t in above:
                    if pos == known:
                        return False
                    s = seq[pos]
                    if t != s:
                        return t < s
                    pos += 1
            k = len(fresh)
            if k == 0:
                c += 1
                continue
            # group by multiplicity, largest first; degree 3 leaves these
            # few cases, spelled out because a generic grouping made the
            # whole enumeration about 30% slower
            if k == 1:
                verts, mults = fresh, (1,)
            elif k == 2:
                a, b = fresh
                verts, mults = ((a,), (2,)) if a == b else (fresh, (1, 1))
            else:
                a, b, d = fresh
                if a == b == d:
                    verts, mults = (a,), (3,)
                elif a == b or a == d:
                    verts, mults = (a, b if a == d else d), (2, 1)
                elif b == d:
                    verts, mults = (b, a), (2, 1)
                else:
                    verts, mults = fresh, (1, 1, 1)
            t = used
            for m in mults:
                t += 1
                for _ in range(m):
                    if pos == known:
                        return False
                    s = seq[pos]
                    if t != s:
                        return t < s
                    pos += 1
            k = len(verts)
            if k > 1 and mults[0] == 1:
                for perm in _TIES[k]:
                    for i in range(k):
                        u = verts[perm[i]]
                        lab[u] = used + i
                        order[used + i] = u
                    if walk(c + 1, used + k, pos):
                        return True
                return False
            for u in verts:
                lab[u] = used
                order[used] = u
                used += 1
            c += 1
        return False

    for r in range(n):
        if deg[r] == 3:
            lab[r] = 0
            order[0] = r
            if walk(0, 1, 0):
                return True
    return False


def _least_labellings(n, allow_loops, allow_multi):
    """Edge tuples of the least-choice-sequence labelling of every
    connected cubic multigraph on n vertices, in choice-sequence order.

    ``used`` counts the vertices touched so far.  A vertex is first
    touched only by an edge from an already-touched one, so those edges
    span every finished graph and no connectivity check is needed.
    Without parallel edges the choices at a vertex strictly increase;
    that alone excludes them, since an edge from v to a higher vertex is
    only ever added while v is being filled.
    """
    deg = [0] * n
    loop = [False] * n
    adj = [[] for _ in range(n)]
    edges = []
    seq = []
    out = []
    step = 0 if allow_multi else 1

    def fill(v, used, low):
        """Add one more edge at vertex v, by a choice >= low."""
        if deg[v] == 3:
            if used < n and _smaller(adj, loop, deg, seq):
                return
            w = v + 1
            while w < used and deg[w] == 3:
                w += 1
            if w < used:
                fill(w, used, 0)
            elif used == n and not _smaller(adj, loop, deg, seq):
                out.append(tuple(edges))
            return
        if allow_loops and low == 0 and deg[v] <= 1:
            deg[v] += 2
            loop[v] = True
            edges.append((v, v))
            seq.append(0)
            fill(v, used, 1 + v)
            seq.pop()
            edges.pop()
            loop[v] = False
            deg[v] -= 2
        for u in range(max(v + 1, low - 1), used + (used < n)):
            if deg[u] == 3:
                continue
            deg[v] += 1
            deg[u] += 1
            adj[v].append(u)
            adj[u].append(v)
            edges.append((v, u))
            seq.append(1 + u)
            fill(v, used + (u == used), 1 + u + step)
            seq.pop()
            edges.pop()
            adj[u].pop()
            adj[v].pop()
            deg[u] -= 1
            deg[v] -= 1

    fill(0, 1, 0)
    return out


def enumerate_cubic_multigraphs(n: int, allow_loops: bool = True, allow_multi: bool = True):
    """All connected cubic multigraphs on n vertices up to isomorphism.

    The generator meets the first-touch labellings of each class in
    ascending order of their choice sequences (see the module
    docstring), so the first one it meets has the least sequence, and
    that labelling represents the class.  It is generated once and never
    matched against another graph: a branch is cut as soon as a
    completed vertex admits a relabelling with a smaller sequence, which
    then holds for every completion, and a complete graph is kept only
    if no relabelling is smaller.  Deterministic order: ascending by
    (rounded spectrum, sorted vertex signatures, edge list) of the
    representatives.  Loops and parallel edges can be excluded; n is
    even with 2 <= n <= 14.
    """
    if n % 2 != 0 or not 2 <= n <= 14:
        raise BadInput("n must be even with 2 <= n <= 14")
    graphs = [Multigraph(n=n, edges=edges)
              for edges in _least_labellings(n, allow_loops, allow_multi)]
    if not graphs:
        return []
    stacked = np.empty((len(graphs), n, n))
    sigs = []
    for a, G in zip(stacked, graphs):
        rows, _, s = _invariants(n, G.edges)
        a[:] = rows
        sigs.append(tuple(sorted(s)))
    spectra = np.round(np.linalg.eigvalsh(stacked), 6).tolist()
    keys = [(tuple(spec), sig, G.edges)
            for spec, sig, G in zip(spectra, sigs, graphs)]
    return [G for _, G in sorted(zip(keys, graphs), key=lambda kg: kg[0])]


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

