"""Test-only oracle: the diameter and its geodesic by one BFS per source.

`diameter_and_geodesic` is the library function before the all-sources
bitset pass, kept as it was: a BFS from every vertex in order, keeping a
source only when its eccentricity is strictly larger than the best so
far, with the first farthest vertex from it as the target and the path
read back along that BFS's parents.  The tests require the library to
return the same (d, path).
"""

from __future__ import annotations

from cubicgaps.errors import BadInput
from cubicgaps.graphcore.multigraph import Multigraph, _bfs


def diameter_and_geodesic(G: Multigraph):
    nbr = G.neighbors()
    best = (-1, 0, 0)
    parents = {}
    for s in range(G.n):
        dist, parent = _bfs(G, s, nbr)
        if min(dist) < 0:
            raise BadInput("graph is disconnected")
        far = max(dist)
        t = dist.index(far)
        if far > best[0]:
            best = (far, s, t)
            parents[s] = parent
    d, s, t = best
    parent = parents.get(s)
    if parent is None:
        parent = _bfs(G, s, nbr)[1]
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return d, path
