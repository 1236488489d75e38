"""Independent planarity oracle for the tests.

A Demoucron-Malgrange-Pertuiset (DMP) face-insertion planarity test,
plus an edge-deletion minimisation that shrinks a non-planar graph to a
Kuratowski subdivision.  It shares no code with networkx's left-right
test, which `cubicgaps.graphcore.is_planar` uses, so the tests
cross-check the two.
"""

from __future__ import annotations

from typing import NamedTuple

from cubicgaps.errors import BadInput
from cubicgaps.graphcore import Multigraph


class DmpReport(NamedTuple):
    planar: bool
    witness_kind: str | None = None       # "K33" or "K5"
    witness_edges: list | None = None     # edges of a Kuratowski subdivision


def _adj_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _biconnected_components(n, edges):
    """Edge partition into biconnected components (Hopcroft-Tarjan)."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    comps = []
    disc = [-1] * n
    low = [0] * n
    stack = []
    timer = [0]

    def dfs(root):
        todo = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while todo:
            u, pe, it = todo[-1]
            advanced = False
            for v, ei in it:
                if ei == pe:
                    continue
                if disc[v] < 0:
                    stack.append(ei)
                    disc[v] = low[v] = timer[0]
                    timer[0] += 1
                    todo.append((v, ei, iter(adj[v])))
                    advanced = True
                    break
                elif disc[v] < disc[u]:
                    stack.append(ei)
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            todo.pop()
            if todo:
                p = todo[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    comp = []
                    while True:
                        ei = stack.pop()
                        comp.append(ei)
                        if ei == pe:
                            break
                    comps.append([edges[i] for i in comp])

    for s in range(n):
        if disc[s] < 0:
            dfs(s)
    return comps


def _find_cycle(adj, nodes):
    start = min(nodes)
    parent = {start: None}
    order = [start]
    for u in order:
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                order.append(v)
            elif parent[u] != v:
                # back edge u-v closes a cycle
                pa = []
                x = u
                while x is not None:
                    pa.append(x)
                    x = parent[x]
                pb = []
                x = v
                while x is not None:
                    pb.append(x)
                    x = parent[x]
                sa, sb = set(pa), set(pb)
                meet = next(x for x in pa if x in sb)
                cyc = pa[: pa.index(meet) + 1] + list(reversed(pb[: pb.index(meet)]))
                return cyc
    return None


def dmp_planarity(n, edges):
    """Demoucron-Malgrange-Pertuiset planarity for a 2-connected simple
    graph given as an edge list.  Returns True/False (no embedding)."""
    m = len(edges)
    if m < 9 or n < 5:
        return True
    if m > 3 * n - 6:
        return False
    adj = _adj_from_edges(n, edges)
    nodes = sorted({u for e in edges for u in e})
    cyc = _find_cycle(adj, nodes)
    if cyc is None:
        return True
    embedded_v = set(cyc)
    embedded_e = set()
    for i in range(len(cyc)):
        embedded_e.add(frozenset((cyc[i], cyc[(i + 1) % len(cyc)])))
    faces = [list(cyc), list(reversed(cyc))]

    all_edges = {frozenset((u, v)) for u, v in edges}

    while True:
        rest = all_edges - embedded_e
        if not rest:
            return True
        # fragments: single chords, or components of G minus embedded vertices
        frags = []
        seen_chord = set()
        comp_id = {}
        for e in sorted(rest, key=sorted):
            u, v = sorted(e)
            if u in embedded_v and v in embedded_v:
                if e not in seen_chord:
                    seen_chord.add(e)
                    frags.append(({u, v}, [e]))
        outside = [v for v in nodes if v not in embedded_v]
        for s in outside:
            if s in comp_id:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                comp_id[x] = s
                for y in adj[x]:
                    if y not in embedded_v and y not in comp:
                        comp.add(y)
                        stack.append(y)
            att = set()
            fedges = []
            for x in comp:
                for y in adj[x]:
                    if y in embedded_v:
                        att.add(y)
                        fedges.append(frozenset((x, y)))
                    elif y in comp and x < y:
                        fedges.append(frozenset((x, y)))
            frags.append((att, fedges))
        if not frags:
            return True

        best = None
        for att, fedges in frags:
            admissible = [i for i, f in enumerate(faces) if att <= set(f)]
            if not admissible:
                return False
            if best is None or len(admissible) < len(best[1]):
                best = ((att, fedges), admissible)
            if len(admissible) == 1:
                break
        (att, fedges), admissible = best
        face_i = admissible[0]

        # find a path between two attachment vertices through the fragment
        att_l = sorted(att)
        if len(fedges) == 1 and len(att_l) == 2:
            path = att_l
        else:
            a = att_l[0]
            frag_adj = {}
            for e in fedges:
                x, y = tuple(e)
                frag_adj.setdefault(x, set()).add(y)
                frag_adj.setdefault(y, set()).add(x)
            parent = {a: None}
            q = [a]
            target = None
            for x in q:
                for y in sorted(frag_adj.get(x, ())):
                    if y in parent:
                        continue
                    if y in embedded_v and y not in att:
                        continue
                    parent[y] = x
                    if y in att and y != a:
                        target = y
                        break
                    if y not in embedded_v:
                        q.append(y)
                if target is not None:
                    break
            path = [target]
            while path[-1] is not None:
                path.append(parent[path[-1]])
            path.pop()
            path.reverse()

        # embed the path across the chosen face, splitting it in two
        face = faces[face_i]
        i0 = face.index(path[0])
        j0 = face.index(path[-1])
        if i0 == j0:
            return False
        if i0 < j0:
            seg1 = face[i0: j0 + 1]
            seg2 = face[j0:] + face[: i0 + 1]
        else:
            seg1 = face[i0:] + face[: j0 + 1]
            seg2 = face[j0: i0 + 1]
        interior = path[1:-1]
        f1 = seg1 + list(reversed(interior))
        f2 = seg2 + list(interior)
        faces[face_i] = f1
        faces.append(f2)
        for v in interior:
            embedded_v.add(v)
        for k in range(len(path) - 1):
            embedded_e.add(frozenset((path[k], path[k + 1])))


def kuratowski_witness(G: Multigraph):
    """Shrink a non-planar graph to a Kuratowski subdivision by edge
    deletion (oracle: the DMP test), then classify it.  Returns
    (kind, edges) with vertices labeled as in G."""
    edges = sorted({(u, v) for u, v in G.edges if u != v})
    n = G.n

    if _dmp_planar(n, edges):
        raise BadInput("graph is planar; no Kuratowski witness exists")
    changed = True
    while changed:
        changed = False
        for e in list(edges):
            trial = [x for x in edges if x != e]
            if not _dmp_planar(n, trial):
                edges = trial
                changed = True
    # strip degree-0/1 vertices, then suppress degree-2 vertices
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    while True:
        leaves = [v for v, d in deg.items() if d <= 1]
        if not leaves:
            break
        for u, v in list(edges):
            if u in leaves or v in leaves:
                edges.remove((u, v))
                deg[u] -= 1
                deg[v] -= 1
        deg = {v: d for v, d in deg.items() if d > 0}
    sup = list(edges)
    adj = {}
    for u, v in sup:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, ns in adj.items() if len(ns) >= 3)
    kind = "K5" if any(len(adj[v]) == 4 for v in branch) else "K33"
    return kind, sorted(sup)


def _dmp_planar(n, edges) -> bool:
    """DMP on each biconnected component big enough to hold a K33."""
    for comp in _biconnected_components(n, edges):
        verts = {u for e in comp for u in e}
        if len(comp) >= 9 and len(verts) >= 5 and not dmp_planarity(n, comp):
            return False
    return True


def dmp_report(G: Multigraph) -> DmpReport:
    """Planarity of G by DMP; a Kuratowski witness by edge deletion when
    G is not planar."""
    if G.n > 60:
        raise BadInput("fallback planarity is limited to 60 vertices")
    if _dmp_planar(G.n, sorted({(u, v) for u, v in G.edges if u != v})):
        return DmpReport(True)
    kind, wedges = kuratowski_witness(G)
    return DmpReport(False, kind, wedges)
