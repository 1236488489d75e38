"""JSON round trips: every graph, cover and interval set the library
writes is read back equal by its strict `from_json`, and a malformed
interval set is refused with BadInput naming its field."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicgaps.cli import default_catalog_path
from cubicgaps.covers import PeriodicGraph, load_catalog
from cubicgaps.dynamics.intervals import IntervalSet
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import Multigraph


def _through_json(x):
    return type(x).from_json(json.loads(json.dumps(x.to_json())))


@st.composite
def multigraphs(draw):
    """Any multigraph: loops, parallel edges, half-loops and a name."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    half_loops = draw(st.lists(vertex, max_size=4))
    return Multigraph(n, edges, half_loops, draw(st.text(max_size=8)))


@st.composite
def covers(draw):
    """A connected rank-1 or rank-2 cover of a random cubic pairing."""
    n = draw(st.integers(1, 4)) * 2
    halves = draw(st.permutations(range(3 * n)))
    base = Multigraph(n, [(halves[i] // 3, halves[i + 1] // 3)
                          for i in range(0, 3 * n, 2)])
    rank = draw(st.sampled_from((1, 2)))
    offsets = [tuple(draw(st.integers(-3, 3)) for _ in range(rank))
               for _ in base.edges]
    try:
        return PeriodicGraph(base, rank, offsets, draw(st.text(max_size=8)))
    except BadInput:  # a disconnected cover
        assume(False)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def interval_sets(draw):
    pairs = draw(st.lists(st.tuples(FINITE, FINITE), max_size=6))
    return IntervalSet(tuple((min(p), max(p)) for p in pairs),
                       tuple(draw(st.lists(FINITE, max_size=6))))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_multigraph(G):
    assert _through_json(G) == G


@settings(max_examples=150, deadline=None)
@given(covers())
def test_periodic_graph(P):
    assert _through_json(P) == P


@settings(max_examples=200, deadline=None)
@given(interval_sets())
def test_interval_set(S):
    assert _through_json(S) == S


@pytest.mark.parametrize("doc, field", [
    ({"intervals": [[True, 2]], "points": []}, "intervals"),
    ({"intervals": [[1, 2]], "points": [False]}, "points"),
    ({"intervals": [[0, 1, 2]], "points": []}, "intervals"),
    ({"intervals": [[0]], "points": []}, "intervals"),
    ({"intervals": [["0", 1]], "points": []}, "intervals"),
    ({"intervals": "01", "points": []}, "intervals"),
    ({"intervals": [], "points": 0.5}, "points"),
    ({"points": []}, "intervals"),
    ({"intervals": []}, "points"),
])
def test_interval_set_refuses_a_malformed_field(doc, field):
    with pytest.raises(BadInput, match=f"'{field}'"):
        IntervalSet.from_json(doc)


@pytest.mark.parametrize("doc", [[[0, 1]], "[]", None, 0.5])
def test_interval_set_refuses_a_non_object(doc):
    with pytest.raises(BadInput, match="not an object"):
        IntervalSet.from_json(doc)


def test_every_catalog_gap_set_reads_back_unchanged():
    rows = load_catalog(default_catalog_path())
    assert len(rows) == 89
    for row in rows:
        for name in ("gaps", "spectrum"):
            assert IntervalSet.from_json(row[name]).to_json() == row[name]
