"""Finite multigraphs with adjacency spectra.

Conventions used throughout the package:

* edges are unordered pairs of 0-based vertex indices; a loop is a pair
  with equal endpoints and contributes 2 to its vertex's degree and 2 to
  the diagonal of the adjacency matrix (so row sums of a cubic multigraph
  are exactly 3 and the constant vector is an eigenvector for 3);
* ``half_loops`` lists vertices carrying a self-edge that counts only 1
  toward degree and diagonal.  These never come from user input; they are
  produced when an automorphism quotient folds an edge onto itself, and
  are kept explicit so folded graphs keep integer row sums of 3.

One exact backtracking matcher answers every isomorphism question: it
yields vertex permutations, `are_isomorphic` takes the first one, and
`automorphisms` takes them all.  There is no canonical form.  Runtime
code searches only where it must, for the automorphisms of a small
cover-search seed: enumeration generates each class once (see
`enumeration`), and `tmap_inverse` proves its round trip instead of
searching for it (see `dynamics.trianglemap`).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import BadInput, _field, _json_int, _json_ints

__all__ = [
    "Multigraph",
    "adjacency_matrix",
    "spectrum",
    "diameter_and_geodesic",
    "is_bipartite",
    "signatures",
    "are_isomorphic",
    "automorphisms",
    "permute",
]


def _json_edges(edges) -> list:
    if not isinstance(edges, (list, tuple)):
        raise TypeError(f"expected a list of edges, got {edges!r}")
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"edge {e!r} is not a pair")
    return [_json_ints(e) for e in edges]


def _normalize_edges(edges):
    out = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        out.append((u, v) if u <= v else (v, u))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Multigraph:
    n: int
    edges: tuple = ()
    half_loops: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalize_edges(self.edges))
        object.__setattr__(self, "half_loops", tuple(sorted(int(v) for v in self.half_loops)))
        if self.n <= 0:
            raise BadInput("vertex count must be positive")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise BadInput(f"edge ({u},{v}) out of range for n={self.n}")
        for v in self.half_loops:
            if not 0 <= v < self.n:
                raise BadInput(f"half loop at {v} out of range for n={self.n}")

    # -- basic structure -------------------------------------------------

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            if u == v:
                a[u, u] += 2
            else:
                a[u, v] += 1
                a[v, u] += 1
        for v in self.half_loops:
            a[v, v] += 1
        return a

    def degrees(self):
        deg = [0] * self.n
        for u, v in self.edges:
            if u == v:
                deg[u] += 2
            else:
                deg[u] += 1
                deg[v] += 1
        for v in self.half_loops:
            deg[v] += 1
        return deg

    @property
    def is_cubic(self) -> bool:
        return all(d == 3 for d in self.degrees())

    def require_cubic(self, what="operation"):
        if not self.is_cubic:
            raise BadInput(f"{what} requires a cubic multigraph; degrees are {self.degrees()}")

    def neighbors(self):
        """Neighbor lists of the underlying simple support (loops dropped,
        parallel edges collapsed), sorted for deterministic traversal."""
        nbr = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                nbr[u].add(v)
                nbr[v].add(u)
        return [sorted(s) for s in nbr]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        nbr = self.neighbors()
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in nbr[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    @property
    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges) or bool(self.half_loops)

    @property
    def has_multi(self) -> bool:
        seen = set()
        for e in self.edges:
            if e in seen and e[0] != e[1]:
                return True
            seen.add(e)
        return False

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        d = {"n": self.n, "edges": [list(e) for e in self.edges], "name": self.name}
        if self.half_loops:
            d["half_loops"] = list(self.half_loops)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Multigraph":
        """The graph of a JSON document.  Every number must be an integer
        and every edge a pair: a float, a bool or a longer edge raises
        BadInput naming its field, where int() would truncate the number,
        read the bool as 0 or 1, or drop the extra entries."""
        what = "graph JSON"
        if not isinstance(d, dict):
            raise BadInput(f"malformed {what}: a {type(d).__name__}, "
                           "not an object")
        half_loops = (_field(d, what, "half_loops", _json_ints)
                      if "half_loops" in d else ())
        return cls(n=_field(d, what, "n", _json_int),
                   edges=_field(d, what, "edges", _json_edges),
                   half_loops=half_loops,
                   name=str(d.get("name", "")))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Multigraph":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise BadInput(f"not valid JSON: {path}: {exc}") from exc
        return cls.from_json(d)


# -- spec operations -----------------------------------------------------


def adjacency_matrix(G: Multigraph) -> np.ndarray:
    """Symmetric integer adjacency matrix; (v,v) counts 2 per loop."""
    return G.adjacency()


def spectrum(G: Multigraph) -> np.ndarray:
    """Adjacency eigenvalues, ascending, with multiplicity.  A graph
    whose dense n x n matrix or eigensolve does not fit in memory raises
    BadInput naming n."""
    try:
        return np.linalg.eigvalsh(G.adjacency().astype(np.float64))
    except MemoryError as exc:
        raise BadInput(f"spectrum of a graph with n={G.n} vertices needs a "
                       "dense n x n matrix, which does not fit in "
                       "memory") from exc


def _bfs(G: Multigraph, src: int, nbr=None):
    if nbr is None:
        nbr = G.neighbors()
    dist = [-1] * G.n
    parent = [-1] * G.n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in nbr[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                q.append(v)
    return dist, parent


def _eccentricities(nbr):
    """(ecc, connected): the eccentricity of every vertex within its
    component, from one all-sources pass over Python-int bitsets, and
    whether the graph is connected.

    Bit u of reach[v] says that u lies within distance t of v.  The ball
    of radius t + 1 around v is v's ball of radius t joined with its
    neighbours' balls of radius t, so each step sets reach[v] to
    reach[v] | OR(reach[u] for u in nbr[v]) for all rows at once.
    ecc[v] is the last step at which row v grew.  A row drops out once it
    is full, or once it stops growing short of full (its component is
    smaller than the graph).  The rows take n * n / 8 bytes: 1.8 KB at
    n = 120 and 9.6 MB for T^7(K4), less than the dense 8 * n * n
    matrix that `spectrum` holds for the same graph.
    """
    n = len(nbr)
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    ecc = [0] * n
    live = [v for v in range(n) if reach[v] != full]
    step = 0
    while live:
        step += 1
        grown = []
        for v in live:
            r = reach[v]
            for u in nbr[v]:
                r |= reach[u]
            grown.append(r)
        rest = []
        for v, r in zip(live, grown):
            if r != reach[v]:
                reach[v] = r
                ecc[v] = step
                if r != full:
                    rest.append(v)
        live = rest
    return ecc, reach[0] == full


def diameter_and_geodesic(G: Multigraph):
    """Diameter d and one shortest path realizing it.

    Ties are broken toward the smallest (source, target) pair so the result
    is deterministic: the source s is the first vertex of largest
    eccentricity and the target the first vertex at distance d from s.
    Raises on disconnected input.

    Every eccentricity comes from one all-sources bitset pass
    (`_eccentricities`, n * n / 8 bytes), and one BFS from s gives the
    target and the path.  Proof that this is the tie-break above: a scan
    of the sources in order that keeps a source only when its
    eccentricity is strictly larger than the best so far ends on the
    first vertex of largest eccentricity, which is s = ecc.index(d); its
    first farthest target is dist.index(d) in the BFS from s, and the
    path follows that BFS's parents.
    """
    return _diameter_and_geodesic(G, G.neighbors())


def _diameter_and_geodesic(G: Multigraph, nbr):
    """`diameter_and_geodesic` on the neighbour lists nbr = G.neighbors(),
    for callers that need those lists themselves."""
    ecc, connected = _eccentricities(nbr)
    if not connected:
        raise BadInput("graph is disconnected")
    d = max(ecc)
    s = ecc.index(d)
    dist, parent = _bfs(G, s, nbr)
    t = dist.index(d)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return d, path


def is_bipartite(G: Multigraph) -> bool:
    """2-colorability; any loop or half loop forces False."""
    if G.has_loops:
        return False
    nbr = G.neighbors()
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in nbr[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    q.append(v)
                elif color[v] == color[u]:
                    return False
    return True


# -- isomorphism ---------------------------------------------------------


def _invariants(n, edges, half_loops=()):
    """Integer adjacency rows, sorted neighbour lists (loops dropped,
    parallel edges collapsed) and per-vertex signatures, built once in
    pure Python from the edge list."""
    rows = [[0] * n for _ in range(n)]
    nbrs = [[] for _ in range(n)]
    loops = [0] * n
    halves = [0] * n
    for u, v in edges:
        if u == v:
            rows[u][u] += 2
            loops[u] += 1
        else:
            if not rows[u][v]:
                nbrs[u].append(v)
                nbrs[v].append(u)
            rows[u][v] += 1
            rows[v][u] += 1
    for v in half_loops:
        rows[v][v] += 1
        halves[v] += 1
    sigs = tuple((sum(row), lp, hl, tuple(sorted([row[w] for w in nb])))
                 for row, nb, lp, hl in zip(rows, nbrs, loops, halves))
    for nb in nbrs:
        nb.sort()
    return rows, nbrs, sigs


def signatures(G: Multigraph):
    """Per-vertex local invariants, one sorted tuple per vertex.

    Each vertex gets (degree, loop count, half-loop count, sorted nonzero
    off-diagonal row multiplicities).  The matcher restricts candidates
    by them, and enumeration sorts its classes by them.
    """
    return _invariants(G.n, G.edges, G.half_loops)[2]


def permute(G: Multigraph, perm) -> Multigraph:
    """Relabel vertices: vertex v becomes perm[v]."""
    return Multigraph(
        n=G.n,
        edges=[(perm[u], perm[v]) for u, v in G.edges],
        half_loops=[perm[v] for v in G.half_loops],
        name=G.name,
    )


def _match_plan(rows, nbrs, sigs):
    """Placement order for matching this graph onto another.

    Breadth-first from a vertex of the rarest signature, restarted the
    same way on every further component.  One entry per position: (the
    vertex placed there, its signature, its parent vertex or -1 at a
    root, (earlier vertex, multiplicity) for each neighbour placed
    before it, their total multiplicity).
    """
    freq = Counter(sigs)
    placed = [False] * len(sigs)
    plan = []

    def place(v, parent):
        back = tuple((u, rows[v][u]) for u in nbrs[v] if placed[u])
        placed[v] = True
        plan.append((v, sigs[v], parent, back, sum(m for _, m in back)))

    for root in sorted(range(len(sigs)), key=lambda v: (freq[sigs[v]], sigs[v], v)):
        if placed[root]:
            continue
        place(root, -1)
        queue = [root]
        for u in queue:
            for v in nbrs[u]:
                if not placed[v]:
                    place(v, u)
                    queue.append(v)
    return plan


def _isomorphisms(plan, rows, nbrs, sigs):
    """Yield every isomorphism from the planned graph onto (rows, nbrs,
    sigs), each as a tuple p with p[v] the image of vertex v.  Both
    graphs must have the same number of vertices.

    Exact backtracking: a root may go to any unused vertex of its
    signature, every other vertex to an unused neighbour of its parent's
    image.  A candidate must repeat the multiplicity of every edge to a
    vertex placed earlier and have no further edges into the placed
    part, so a full placement preserves the adjacency matrix, diagonal
    included (equal signatures give equal loop and half-loop counts).
    """
    n = len(plan)
    img = [-1] * n  # image of each vertex of the planned graph
    used = [False] * n
    into = [0] * n  # edge multiplicity from each vertex into the placed part

    def candidates(i):
        _, sig, parent, back, need = plan[i]
        out = []
        for w in (range(n) if parent < 0 else nbrs[img[parent]]):
            if used[w] or into[w] != need or sigs[w] != sig:
                continue
            row = rows[w]
            for u, m in back:
                if row[img[u]] != m:
                    break
            else:
                out.append(w)
        return out

    cands = [None] * n
    nxt = [0] * n
    cands[0] = candidates(0)
    i = 0
    while True:
        if nxt[i] < len(cands[i]):
            w = cands[i][nxt[i]]
            nxt[i] += 1
            img[plan[i][0]] = w
            if i == n - 1:
                # a full placement; then try the last vertex's next image
                yield tuple(img)
                continue
            used[w] = True
            row = rows[w]
            for x in nbrs[w]:
                into[x] += row[x]
            i += 1
            cands[i] = candidates(i)
            nxt[i] = 0
        else:
            i -= 1
            if i < 0:
                return
            w = img[plan[i][0]]
            used[w] = False
            row = rows[w]
            for x in nbrs[w]:
                into[x] -= row[x]


def automorphisms(G: Multigraph):
    """Yield every vertex permutation of G that keeps its edge and
    half-loop multisets, as tuples p with p[v] the image of v."""
    rows, nbrs, sigs = _invariants(G.n, G.edges, G.half_loops)
    yield from _isomorphisms(_match_plan(rows, nbrs, sigs), rows, nbrs, sigs)


def are_isomorphic(G1: Multigraph, G2: Multigraph) -> bool:
    """Exact isomorphism test, loops, parallel edges and half-loops
    included, disconnected inputs too.

    Cheap invariants (sizes, sorted signatures, spectrum) reject first;
    the rest is the first permutation of the neighbour-guided
    backtracking matcher that `automorphisms` also uses.  Intended for
    desk scale.
    """
    if G1.n != G2.n or len(G1.edges) != len(G2.edges):
        return False
    if len(G1.half_loops) != len(G2.half_loops):
        return False
    rows1, nbrs1, s1 = _invariants(G1.n, G1.edges, G1.half_loops)
    rows2, nbrs2, s2 = _invariants(G2.n, G2.edges, G2.half_loops)
    if sorted(s1) != sorted(s2):
        return False
    if np.max(np.abs(spectrum(G1) - spectrum(G2))) > 1e-8:
        return False
    plan = _match_plan(rows1, nbrs1, s1)
    return next(_isomorphisms(plan, rows2, nbrs2, s2), None) is not None

