import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (
    Multigraph,
    enumerate_cubic_multigraphs,
    is_planar,
    named_graph,
)
from dmp_oracle import dmp_report, kuratowski_witness


def test_planar_basics_both_methods():
    for name in ("k4", "cube", "prism3", "theta_loop", "star_loops"):
        G = named_graph(name)
        assert is_planar(G).planar
        assert dmp_report(G).planar


def test_k33_nonplanar_both_methods():
    G = named_graph("k33")
    r = is_planar(G)
    assert not r.planar and r.witness_kind == "K33"
    r2 = dmp_report(G)
    assert not r2.planar and r2.witness_kind == "K33"


def _check_witness(G, edges, kind):
    """The witness must be a subgraph of G and a subdivision of K33."""
    assert kind == "K33"  # K5 needs degree-4 branch vertices
    support = {tuple(sorted(e)) for e in G.edges if e[0] != e[1]}
    deg = {}
    for u, v in edges:
        assert tuple(sorted((u, v))) in support
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    branch = sorted(v for v, d in deg.items() if d == 3)
    assert len(branch) == 6
    assert all(d in (2, 3) for d in deg.values())
    # contracting degree-2 vertices must give K33 exactly
    H = nx.Graph(edges)
    for v in list(H.nodes()):
        if H.degree(v) == 2:
            a, b = H.neighbors(v)
            H.remove_node(v)
            H.add_edge(a, b)
    assert nx.is_isomorphic(H, nx.complete_bipartite_graph(3, 3))


def test_witness_is_topological_k33():
    G = named_graph("k33")
    kind, edges = kuratowski_witness(G)
    _check_witness(G, edges, kind)


def test_witness_on_moebius_kantor():
    # the Moebius-Kantor graph is cubic, bipartite and non-planar
    G = Multigraph(16, [(i, (i + 1) % 16) for i in range(16)]
                   + [(i, (i + 5) % 16) for i in range(0, 16, 2)])
    assert G.is_cubic
    r = is_planar(G)
    assert not r.planar
    _check_witness(G, r.witness_edges, r.witness_kind)
    kind, edges = kuratowski_witness(G)
    _check_witness(G, edges, kind)


def test_methods_agree_on_enumeration():
    for n in (4, 6, 8):
        for G in enumerate_cubic_multigraphs(n):
            assert is_planar(G).planar == dmp_report(G).planar


def test_methods_agree_on_random_cubic():
    for seed in range(12):
        H = nx.random_regular_graph(3, 20, seed=seed)
        G = Multigraph(20, sorted(tuple(sorted(e)) for e in H.edges()))
        a = is_planar(G)
        b = dmp_report(G)
        assert a.planar == b.planar
        if not a.planar:
            _check_witness(G, a.witness_edges, a.witness_kind)
            _check_witness(G, b.witness_edges, b.witness_kind)


def test_loops_do_not_affect_planarity():
    assert is_planar(named_graph("star_loops")).planar
    G = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
    assert is_planar(G).planar
    assert dmp_report(G).planar


def test_witness_on_planar_graph_rejected():
    with pytest.raises(BadInput):
        kuratowski_witness(named_graph("k4"))


def test_dmp_size_cap():
    H = nx.random_regular_graph(3, 64, seed=1)
    G = Multigraph(64, sorted(tuple(sorted(e)) for e in H.edges()))
    with pytest.raises(BadInput):
        dmp_report(G)


def test_planar_report_has_embedding_and_no_witness():
    r = is_planar(named_graph("cube"))
    assert r.witness_kind is None and r.witness_edges is None
    assert sorted(r.embedding) == list(range(8))
    assert all(len(nbrs) == 3 for nbrs in r.embedding.values())
    assert is_planar(named_graph("k33")).embedding is None


def test_witness_built_only_when_read(monkeypatch):
    import networkx.algorithms.planarity as nxp

    calls = []
    original = nxp.get_counterexample
    monkeypatch.setattr(nxp, "get_counterexample",
                        lambda H: calls.append(1) or original(H))
    r = is_planar(named_graph("k33"))
    assert not bool(r) and not r.planar
    assert calls == []
    edges = r.witness_edges
    assert r.witness_kind == "K33" and r.witness_edges == edges
    assert calls == [1]


def test_import_does_not_load_networkx():
    import cubicgaps

    src = str(Path(cubicgaps.__file__).parents[1])
    code = ("import sys, cubicgaps, cubicgaps.cli; "
            "sys.exit('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@st.composite
def random_cubic_multigraphs(draw):
    """A random pairing of 3n half-edges; loops and multi-edges allowed."""
    n = draw(st.integers(1, 11)) * 2
    halves = draw(st.permutations(range(3 * n)))
    edges = [(halves[i] // 3, halves[i + 1] // 3) for i in range(0, 3 * n, 2)]
    return Multigraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(random_cubic_multigraphs())
def test_random_multigraphs_agree_with_dmp(G):
    r = is_planar(G)
    assert bool(r) == dmp_report(G).planar
    if not r:
        first = (r.witness_kind, r.witness_edges)
        _check_witness(G, first[1], first[0])
        assert (r.witness_kind, r.witness_edges) == first
