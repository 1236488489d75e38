"""`geodesic_bound` with its per-graph plan against the unmemoized
oracle in `geodesic_oracle`, and the contract of the plan memo."""

from __future__ import annotations

import gc
import math
import random
import weakref

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicgaps.certifier import (DecompositionFailure, bounds,
                                 decompose_geodesic, geodesic_bound)
from cubicgaps.errors import BadInput, NumericalFailure
from cubicgaps.graphcore import Multigraph, named_graph
from geodesic_oracle import geodesic_bound as oracle

WORKLOAD_LAMBDAS = (-1.4, -0.7, 0.0, 0.7, 1.4)


def _outcome(f, X, lam):
    try:
        return f(X, lam)
    except (BadInput, NumericalFailure) as exc:
        return (type(exc), str(exc))


def _rand_cubic(n, seed):
    G = nx.random_regular_graph(3, n, seed=seed)
    return Multigraph(n=n, edges=tuple(sorted(tuple(sorted(e))
                                              for e in G.edges())))


def _with_digons(X, k, rng):
    """X with k of its edges a-b each replaced by a path a-x=y-b whose
    middle edge is doubled, so x and y stay cubic and parallel edges
    meet the geodesic neighbourhood (a double edge from a satellite can
    reach only a geodesic end)."""
    edges = list(X.edges)
    n = X.n
    for _ in range(k):
        a, b = edges.pop(rng.randrange(len(edges)))
        edges += [(a, n), (n, n + 1), (n, n + 1), (n + 1, b)]
        n += 2
    return Multigraph(n, edges)


@st.composite
def cubic_graphs(draw):
    """A connected cubic graph with n = 20..150: a random simple one, a
    random pairing of half-edges (with loops and parallel edges), or a
    random simple one with doubled edges spliced in."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(("simple", "pairing", "digons")))
    if kind == "digons":
        n = 2 * draw(st.integers(10, 60))
        k = draw(st.integers(1, min(15, 75 - n // 2)))
        X = _with_digons(_rand_cubic(n, seed), k, random.Random(seed))
    elif kind == "pairing":
        n = 2 * draw(st.integers(10, 75))
        stubs = [v for v in range(n) for _ in range(3)]
        random.Random(seed).shuffle(stubs)
        X = Multigraph(n, list(zip(stubs[::2], stubs[1::2])))
    else:
        X = _rand_cubic(2 * draw(st.integers(10, 75)), seed)
    assume(X.is_connected())
    return X


LAMBDAS = st.one_of(st.sampled_from(WORKLOAD_LAMBDAS),
                    st.floats(-1.5, 1.5, allow_nan=False))


@pytest.fixture
def plans(monkeypatch):
    """An empty plan memo for one test."""
    memo = weakref.WeakKeyDictionary()
    monkeypatch.setattr(bounds, "_PLANS", memo)
    return memo


@settings(max_examples=60, deadline=None)
@given(cubic_graphs(), st.lists(LAMBDAS, min_size=1, max_size=6),
       st.booleans())
def test_matches_the_oracle_in_any_order_cold_or_warm(X, lams, warm):
    bounds._PLANS.pop(X, None)
    if warm:
        geodesic_bound(X, 0.3)
    for lam in lams:
        assert _outcome(geodesic_bound, X, lam) == _outcome(oracle, X, lam)
    in_range = any(abs(lam) <= math.sqrt(2.0) + 1e-12 for lam in lams)
    assert (X in bounds._PLANS) == (warm or in_range)


def test_matches_the_oracle_on_criterion_6_graphs():
    for trial in range(200):
        n = 20 + 2 * (trial % 51)
        X = _rand_cubic(n, 7000 + trial)
        for lam in WORKLOAD_LAMBDAS:
            assert geodesic_bound(X, lam) == oracle(X, lam)


def test_lambda_beyond_sqrt2_builds_no_plan(plans):
    X = _rand_cubic(30, 1)
    for _ in range(2):
        assert _outcome(geodesic_bound, X, 1.5) == _outcome(oracle, X, 1.5) \
            == (BadInput, "|lambda| must be at most sqrt(2)")
    assert len(plans) == 0


def test_plan_goes_with_its_graph(plans):
    X = _rand_cubic(40, 2)
    geodesic_bound(X, 0.0)
    assert len(plans) == 1
    alive = weakref.ref(X)
    del X
    gc.collect()
    assert alive() is None
    assert len(plans) == 0


def test_mutated_accounting_does_not_leak_into_the_next_call(plans):
    X = _rand_cubic(60, 3)
    out = geodesic_bound(X, 0.7)
    row = out["accounting"][0]
    row["sum"], row["cap"], row["within"] = 1e9, -1.0, False
    row["tag"] = "?"
    assert geodesic_bound(X, 0.7) == oracle(X, 0.7)


def test_decomposition_is_fresh_on_every_call(plans):
    X = _rand_cubic(60, 4)
    geodesic_bound(X, 0.0)
    dec = decompose_geodesic(X)
    assert dec is not decompose_geodesic(X)
    dec.attachment_types.clear()
    assert decompose_geodesic(X).attachment_types
    assert geodesic_bound(X, -0.7) == oracle(X, -0.7)


@pytest.mark.parametrize("X, message", [
    # two K4s: cubic, but disconnected
    (Multigraph(8, list(named_graph("k4").edges)
                + [(u + 4, v + 4) for u, v in named_graph("k4").edges]),
     "graph is disconnected"),
    (Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), "requires a cubic"),
])
def test_failing_plan_raises_every_time_and_leaves_no_entry(plans, X,
                                                            message):
    for lam in (0.0, 0.0, 0.7):
        with pytest.raises(BadInput, match=message):
            geodesic_bound(X, lam)
        assert _outcome(oracle, X, lam) == _outcome(geodesic_bound, X, lam)
    assert len(plans) == 0


def test_decomposition_failure_is_not_cached(plans, monkeypatch):
    X = _rand_cubic(40, 5)

    def refuse(g, adj):
        raise DecompositionFailure("forced refusal", report={"t": len(g)})

    with monkeypatch.context() as m:
        m.setattr(bounds, "_classify_attachments", refuse)
        for _ in range(2):
            with pytest.raises(DecompositionFailure, match="forced refusal"):
                geodesic_bound(X, 0.0)
        assert len(plans) == 0
    assert geodesic_bound(X, 0.0) == oracle(X, 0.0)
    assert len(plans) == 1


def test_equal_graphs_give_equal_results(plans):
    X = _rand_cubic(80, 6)
    twin = Multigraph(X.n, X.edges[::-1])
    renamed = Multigraph(X.n, X.edges, name="renamed")
    assert twin == X and twin is not X
    for lam in WORKLOAD_LAMBDAS:
        want = oracle(X, lam)
        assert geodesic_bound(X, lam) == geodesic_bound(twin, lam) == want
        assert geodesic_bound(renamed, lam) == want


def test_neighbour_lists_are_built_once_per_graph(plans, monkeypatch):
    calls = []
    neighbors = Multigraph.neighbors

    def counted(G):
        calls.append(G.n)
        return neighbors(G)

    monkeypatch.setattr(Multigraph, "neighbors", counted)
    X = _rand_cubic(50, 7)
    decompose_geodesic(X)
    assert calls == [50]
    calls.clear()
    for lam in WORKLOAD_LAMBDAS:
        geodesic_bound(X, lam)
    assert calls == [50]
