"""Property tests for the exact isomorphism matcher.

Random relabellings must always be recognized, including half-loop
quotients and disconnected inputs, and pairs that the enumeration cannot
tell apart by (rounded spectrum, sorted signatures) must get the same
verdict as networkx's matcher on the corresponding nx.MultiGraph.
"""

import functools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicgaps.covers import quotient_by_involution
from cubicgaps.covers.reference import folded_prism_ring
from cubicgaps.graphcore import (
    Multigraph,
    are_isomorphic,
    automorphisms,
    enumerate_cubic_multigraphs,
    named_graph,
    permute,
    signatures,
    spectrum,
)
from cubicgaps.graphcore.multigraph import (_invariants, _isomorphisms,
                                            _match_plan)
from enumeration_oracle import generate_raw

SMALL = [G for n in (2, 4, 6, 8) for G in enumerate_cubic_multigraphs(n)]

_BASE = Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1))
HALF_LOOP_QUOTIENTS = [
    quotient_by_involution(named_graph("k4"), (1, 0, 3, 2)),
    _BASE,
    quotient_by_involution(_BASE, (1, 0)),
    folded_prism_ring(2),
    folded_prism_ring(3),
]

PROPS = settings(max_examples=150, deadline=None)


def _key(G):
    return (tuple(np.round(spectrum(G), 6)), tuple(sorted(signatures(G))))


@functools.lru_cache(maxsize=None)
def _shared_buckets():
    """Buckets with at least two members: the unpruned generator's output
    for n <= 8 (relabelled copies of one class) and the n = 10 classes
    (cospectral pairs with equal signatures that are not isomorphic)."""
    buckets = {}
    for n in (4, 6, 8):
        for edges in generate_raw(n, True, True):
            G = Multigraph(n, edges)
            buckets.setdefault(_key(G), []).append(G)
    for G in enumerate_cubic_multigraphs(10):
        buckets.setdefault(_key(G), []).append(G)
    return [b for _, b in sorted(buckets.items()) if len(b) > 1]


def _to_nx(G):
    H = nx.MultiGraph()
    for v in range(G.n):
        H.add_node(v, half=G.half_loops.count(v))
    H.add_edges_from(G.edges)
    return H


def _nx_isomorphic(G1, G2):
    return nx.is_isomorphic(_to_nx(G1), _to_nx(G2),
                            node_match=lambda a, b: a["half"] == b["half"])


def _first(inv1, inv2):
    """First permutation the matcher finds from inv1 onto inv2, or None."""
    return next(_isomorphisms(_match_plan(*inv1), *inv2), None)


def _disjoint_union(G1, G2):
    k = G1.n
    return Multigraph(
        G1.n + G2.n,
        list(G1.edges) + [(u + k, v + k) for u, v in G2.edges],
        half_loops=list(G1.half_loops) + [v + k for v in G2.half_loops],
    )


def _relabel(data, G):
    return permute(G, data.draw(st.permutations(range(G.n))))


@PROPS
@given(st.data())
def test_relabelled_class_is_isomorphic(data):
    G = data.draw(st.sampled_from(SMALL))
    assert are_isomorphic(G, _relabel(data, G))


@PROPS
@given(st.data())
def test_relabelled_half_loop_quotient_is_isomorphic(data):
    G = data.draw(st.sampled_from(HALF_LOOP_QUOTIENTS))
    assert are_isomorphic(G, _relabel(data, G))


@PROPS
@given(st.data())
def test_relabelled_disjoint_union_is_isomorphic(data):
    A = data.draw(st.sampled_from(SMALL + HALF_LOOP_QUOTIENTS[:3]))
    B = data.draw(st.sampled_from(SMALL))
    assert are_isomorphic(_disjoint_union(A, B), _relabel(data, _disjoint_union(B, A)))


@PROPS
@given(st.data())
def test_disjoint_unions_agree_with_networkx(data):
    pool = [G for G in SMALL if G.n <= 4] + HALF_LOOP_QUOTIENTS[:3]
    A, B, C, D = (data.draw(st.sampled_from(pool)) for _ in range(4))
    X, Y = _disjoint_union(A, B), _relabel(data, _disjoint_union(C, D))
    assert are_isomorphic(X, Y) == _nx_isomorphic(X, Y)


@PROPS
@given(st.data())
def test_same_bucket_pairs_agree_with_networkx(data):
    bucket = data.draw(st.sampled_from(_shared_buckets()))
    G1 = data.draw(st.sampled_from(bucket))
    G2 = _relabel(data, data.draw(st.sampled_from(bucket)))
    assert are_isomorphic(G1, G2) == _nx_isomorphic(G1, G2)


def test_shared_buckets_hold_relabelled_copies():
    buckets = _shared_buckets()
    assert len(buckets) == 96
    assert sum(len(b) for b in buckets) == 1574


def test_cospectral_n10_pairs_are_told_apart():
    pairs = [b for b in _shared_buckets() if b[0].n == 10]
    assert len(pairs) == 5
    for G1, G2 in pairs:
        assert not _nx_isomorphic(G1, G2)
        assert not are_isomorphic(G1, G2)
        assert not are_isomorphic(G2, G1)


def test_half_loop_placement_matters():
    # a 4-cycle with half-loops on adjacent or on opposite vertices:
    # equal sizes and signature multisets
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    G1 = Multigraph(4, cycle, half_loops=(0, 1))
    G2 = Multigraph(4, cycle, half_loops=(0, 2))
    assert sorted(signatures(G1)) == sorted(signatures(G2))
    assert not are_isomorphic(G1, G2) and not _nx_isomorphic(G1, G2)
    assert are_isomorphic(G1, Multigraph(4, cycle, half_loops=(2, 3)))


def test_matcher_alone_is_exact_on_disconnected_inputs():
    # two triangles against a 6-cycle: equal signatures, so only the
    # matcher itself (no spectral filter) can tell them apart
    triangles = _invariants(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    hexagon = _invariants(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert sorted(triangles[2]) == sorted(hexagon[2])
    assert _first(triangles, hexagon) is None
    assert _first(hexagon, triangles) is None
    assert _first(triangles, triangles) is not None


@st.composite
def _swapped_pairs(draw):
    """A random multigraph (loops, parallel edges, half-loops) and a
    relabelled copy after a few degree-preserving endpoint swaps; the
    swaps often keep every vertex signature."""
    n = draw(st.integers(3, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=2 * n))
    halves = draw(st.lists(vertex, max_size=2))
    index = st.integers(0, len(edges) - 1)
    swapped = list(edges)
    for i, j in draw(st.lists(st.tuples(index, index), min_size=1, max_size=3)):
        (a, b), (c, d) = swapped[i], swapped[j]
        swapped[i], swapped[j] = (a, d), (c, b)
    perm = draw(st.permutations(range(n)))
    return Multigraph(n, edges, halves), permute(Multigraph(n, swapped, halves), perm)


@settings(max_examples=300, deadline=None)
@given(_swapped_pairs())
def test_matcher_agrees_with_networkx_on_random_multigraphs(pair):
    G1, G2 = pair
    want = _nx_isomorphic(G1, G2)
    assert are_isomorphic(G1, G2) == want
    inv1 = _invariants(G1.n, G1.edges, G1.half_loops)
    inv2 = _invariants(G2.n, G2.edges, G2.half_loops)
    if sorted(inv1[2]) == sorted(inv2[2]):
        perm = _first(inv1, inv2)
        assert (perm is not None) == want
        if perm is not None:
            image = permute(G1, perm)
            assert (image.edges, image.half_loops) == (G2.edges, G2.half_loops)


def test_matcher_checks_each_edge_multiplicity():
    # equal signatures; a matcher that only counted each candidate's
    # edges into the placed part, not where they go, would accept this
    G1 = [(0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (4, 4)]
    G2 = [(0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (4, 4)]
    inv1, inv2 = _invariants(6, G1), _invariants(6, G2)
    assert sorted(inv1[2]) == sorted(inv2[2])
    assert not _nx_isomorphic(Multigraph(6, G1), Multigraph(6, G2))
    assert _first(inv1, inv2) is None
    assert _first(inv2, inv1) is None


@pytest.mark.parametrize("name,order", [
    ("k4", 24), ("k33", 72), ("cube", 48), ("prism3", 12),
    ("star_loops", 6), ("theta_loop", 2)])
def test_automorphism_group_orders(name, order):
    G = named_graph(name)
    auts = list(automorphisms(G))
    assert len(auts) == len(set(auts)) == order
    assert tuple(range(G.n)) in auts


@pytest.mark.parametrize("G", SMALL + HALF_LOOP_QUOTIENTS,
                         ids=lambda G: G.name or f"n{G.n}")
def test_automorphisms_agree_with_networkx(G):
    H = _to_nx(G)
    matcher = nx.algorithms.isomorphism.MultiGraphMatcher(
        H, H, node_match=lambda a, b: a["half"] == b["half"])
    want = {tuple(iso[v] for v in range(G.n))
            for iso in matcher.isomorphisms_iter()}
    got = list(automorphisms(G))
    assert len(got) == len(set(got))
    assert set(got) == want
