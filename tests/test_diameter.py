"""`diameter_and_geodesic` and the Fekete gate's distance pair against
the per-source BFS oracle in `diameter_oracle`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle
from cubicgaps.certifier import bounds, fekete_finiteness
from cubicgaps.dynamics.trianglemap import tmap
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import Multigraph, diameter_and_geodesic, named_graph
from cubicgaps.graphcore import multigraph
from diameter_oracle import diameter_and_geodesic as oracle


@st.composite
def cubic_multigraphs(draw, max_n=60):
    """A random pairing of the half-edges of n vertices, some of which
    carry a half-loop (degree 1) and so offer two half-edges, not three;
    loops and parallel edges come from the pairing."""
    n = draw(st.integers(1, max_n))
    half = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if (3 * n - sum(half)) % 2:
        half[0] = not half[0]
    half_loops = [v for v in range(n) if half[v]]
    stubs = [v for v in range(n) for _ in range(3 - half[v])]
    order = draw(st.permutations(stubs))
    return Multigraph(n, list(zip(order[::2], order[1::2])), half_loops)


def _outcome(f, G):
    try:
        return f(G)
    except BadInput as exc:
        return ("BadInput", str(exc))


@settings(max_examples=300, deadline=None)
@given(cubic_multigraphs())
def test_matches_the_per_source_oracle(G):
    got = _outcome(diameter_and_geodesic, G)
    assert got == _outcome(oracle, G)
    if not G.is_connected():
        assert got == ("BadInput", "graph is disconnected")
        return
    d, path = got
    # a shortest path of length d between vertices at distance d
    nbr = G.neighbors()
    assert len(path) == d + 1
    assert all(b in nbr[a] for a, b in zip(path, path[1:]))
    dist, _ = multigraph._bfs(G, path[0])
    assert dist[path[-1]] == d == max(dist)


@pytest.mark.parametrize("k", range(6))
def test_iterated_triangle_maps_of_k4(k):
    G = named_graph("k4")
    for _ in range(k):
        G = tmap(G)
    assert diameter_and_geodesic(G) == oracle(G)


def test_one_vertex():
    G = Multigraph(1, [(0, 0)], half_loops=(0,))
    assert diameter_and_geodesic(G) == oracle(G) == (0, [0])


def test_disconnected_raises_on_both_sides():
    G = Multigraph(6, [(0, 0), (0, 1), (1, 1), (2, 3), (2, 4), (2, 5),
                       (3, 4), (3, 5), (4, 5)])
    for f in (diameter_and_geodesic, oracle):
        with pytest.raises(BadInput, match="graph is disconnected"):
            f(G)


def _count_bfs(monkeypatch, module, name):
    calls = []
    bfs = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_diameter_runs_one_bfs(monkeypatch):
    G = tmap(tmap(named_graph("k4")))
    calls = _count_bfs(monkeypatch, multigraph, "_bfs")
    d, path = diameter_and_geodesic(G)
    assert calls == [path[0]]


def test_fekete_gate_runs_one_bfs_on_the_path_count_route(monkeypatch):
    calls = _count_bfs(monkeypatch, bounds, "_graph_bfs")
    out = fekete_finiteness(named_graph("cube"), [-1, 1, 3])
    assert out["verdict"] == "SpectrumNotContained"
    assert calls == [out["witness"]["x0"]]
    calls.clear()
    # K4 has diameter 1 < |F|: the exact product decides, with no BFS
    assert fekete_finiteness(named_graph("k4"), [-1, 3])["witness"] is None
    assert calls == []


def test_fekete_gate_on_a_disconnected_graph():
    # K4 beside a prism: the prism's eccentricity 2 gives the pair
    prism = named_graph("prism3")
    G = Multigraph(10, list(named_graph("k4").edges)
                   + [(u + 4, v + 4) for u, v in prism.edges])
    F = [-2, 3]
    out = fekete_finiteness(G, F)
    assert out == fraction_oracle.fekete_finiteness(G, F)
    assert out["witness"]["x0"] == 4 and out["witness"]["distance"] == 2
