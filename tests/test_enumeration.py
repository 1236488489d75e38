import functools
import hashlib
import json

import numpy as np
import pytest

from cubicgaps.covers import quotient_by_involution
from cubicgaps.covers.reference import folded_prism_ring
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (
    Multigraph,
    are_isomorphic,
    enumerate_cubic_multigraphs,
    named_graph,
    signatures,
    spectrum,
)
from cubicgaps.graphcore.enumeration import _smaller
from enumeration_oracle import generate_raw, oracle_enumerate

# connected cubic multigraphs (loops allowed, loop = 2 on the diagonal)
MULTI_COUNTS = {2: 2, 4: 5, 6: 17, 8: 71}
# connected simple cubic graphs
SIMPLE_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}
# (allow_loops, allow_multi)
FLAGS = [(True, True), (True, False), (False, True), (False, False)]

# sha256 of the representatives' edge lists, in output order, first 16
# hex digits; pins which graph stands for each class and the order
MULTI_GOLDEN = {
    2: "7d9ea9614f0f438b",
    4: "fec7e7b5bffae3ec",
    6: "32ecce715e19cbc6",
    8: "3285de9c8fe3330d",
    10: "88cc8196ed7054eb",
}
SIMPLE_GOLDEN = {
    4: "aee9a563bc04b979",
    6: "0d2d17f52dfae21d",
    8: "e42b567df8c7457e",
    10: "2e8319e4196db842",
}


@functools.lru_cache(maxsize=None)
def _classes(n, simple=False):
    if simple:
        return enumerate_cubic_multigraphs(n, allow_loops=False, allow_multi=False)
    return enumerate_cubic_multigraphs(n)


def _digest(graphs):
    text = json.dumps([[list(e) for e in G.edges] for G in graphs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reference_signatures(G):
    """Per-vertex signatures computed from the numpy adjacency matrix,
    independently of the library's own construction."""
    a = G.adjacency()
    loops = [sum(1 for u, v in G.edges if u == v == w) for w in range(G.n)]
    halves = [G.half_loops.count(w) for w in range(G.n)]
    return tuple(
        (int(a[v].sum()), loops[v], halves[v],
         tuple(sorted(int(a[v, w]) for w in range(G.n) if w != v and a[v, w])))
        for v in range(G.n))


@pytest.mark.parametrize("n", sorted(MULTI_COUNTS))
def test_multigraph_counts(n):
    graphs = _classes(n)
    assert len(graphs) == MULTI_COUNTS[n]
    for G in graphs:
        assert G.n == n
        assert G.is_cubic
        assert G.is_connected()


@pytest.mark.parametrize("n", sorted(SIMPLE_COUNTS))
def test_simple_counts(n):
    graphs = _classes(n, simple=True)
    assert len(graphs) == SIMPLE_COUNTS[n]
    for G in graphs:
        assert not G.has_loops and not G.has_multi


def test_multigraph_count_n10():
    assert len(_classes(10)) == 388


@pytest.mark.parametrize("n", sorted(MULTI_GOLDEN))
def test_multigraph_representatives_golden(n):
    assert _digest(_classes(n)) == MULTI_GOLDEN[n]


@pytest.mark.parametrize("n", sorted(SIMPLE_GOLDEN))
def test_simple_representatives_golden(n):
    assert _digest(_classes(n, simple=True)) == SIMPLE_GOLDEN[n]


@pytest.mark.parametrize("n", sorted(MULTI_GOLDEN))
def test_signatures_match_reference_on_classes(n):
    for G in _classes(n):
        assert signatures(G) == _reference_signatures(G)


def test_signatures_match_reference_on_half_loop_quotients():
    k4_fold = quotient_by_involution(named_graph("k4"), (1, 0, 3, 2))
    base = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
    cases = [k4_fold, base, quotient_by_involution(base, (1, 0)),
             folded_prism_ring(3)]
    assert all(G.half_loops for G in cases)
    for G in cases:
        assert signatures(G) == _reference_signatures(G)


def test_pairwise_non_isomorphic_n6():
    graphs = _classes(6)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not are_isomorphic(graphs[i], graphs[j])


def test_known_graphs_present():
    graphs = enumerate_cubic_multigraphs(4)
    for name in ("k4", "theta_loop", "star_loops"):
        target = named_graph(name)
        assert sum(are_isomorphic(G, target) for G in graphs) == 1
    simple6 = enumerate_cubic_multigraphs(6, allow_loops=False, allow_multi=False)
    assert sum(are_isomorphic(G, named_graph("prism3")) for G in simple6) == 1
    assert sum(are_isomorphic(G, named_graph("k33")) for G in simple6) == 1


def test_spectrum_pins_down_theta_loop():
    """Among all 4-vertex cubic multigraphs exactly one has spectrum
    {3, 2, -1, -2} and exactly one has {3, 2, 2, -1}."""
    graphs = enumerate_cubic_multigraphs(4)
    hits_a = [G for G in graphs if np.allclose(spectrum(G), [-2, -1, 2, 3], atol=1e-8)]
    hits_b = [G for G in graphs if np.allclose(spectrum(G), [-1, 2, 2, 3], atol=1e-8)]
    assert len(hits_a) == 1 and are_isomorphic(hits_a[0], named_graph("theta_loop"))
    assert len(hits_b) == 1 and are_isomorphic(hits_b[0], named_graph("star_loops"))


def test_deterministic_order_and_ids():
    a = enumerate_cubic_multigraphs(6)
    b = enumerate_cubic_multigraphs(6)
    assert [G.edges for G in a] == [G.edges for G in b]


def test_bad_n_rejected():
    with pytest.raises(BadInput):
        enumerate_cubic_multigraphs(3)
    with pytest.raises(BadInput):
        enumerate_cubic_multigraphs(0)
    with pytest.raises(BadInput):
        enumerate_cubic_multigraphs(16)


def test_counts_n12():
    """2592 multigraph classes (OEIS A005967) and 85 simple graphs (OEIS
    A002851) on 12 vertices."""
    assert len(enumerate_cubic_multigraphs(12)) == 2592
    assert len(_classes(12, simple=True)) == 85


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("flags", FLAGS)
def test_matches_dedup_oracle(n, flags):
    got = enumerate_cubic_multigraphs(n, *flags)
    assert [G.edges for G in got] == [G.edges for G in oracle_enumerate(n, *flags)]


def test_simple_n10_matches_dedup_oracle():
    want = oracle_enumerate(10, allow_loops=False, allow_multi=False)
    assert [G.edges for G in _classes(10, simple=True)] == [G.edges for G in want]


def _least(n, edges):
    """The leaf check on a complete labelled graph given by its edges in
    generation order: no relabelling has a smaller choice sequence."""
    adj = [[] for _ in range(n)]
    loop = [False] * n
    for v, u in edges:
        if u == v:
            loop[v] = True
        else:
            adj[v].append(u)
            adj[u].append(v)
    seq = [0 if u == v else 1 + u for v, u in edges]
    return not _smaller(adj, loop, [3] * n, seq)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("flags", FLAGS)
def test_leaf_check_keeps_first_raw_graph_of_each_class(n, flags):
    """Among all unpruned labellings exactly one per class passes the
    leaf check, and it is the first one the generator meets."""
    kept = [Multigraph(n, edges).edges for edges in generate_raw(n, *flags)
            if _least(n, edges)]
    firsts = [G.edges for G in oracle_enumerate(n, *flags)]
    assert len(kept) == len(firsts)
    assert set(kept) == set(firsts)
