"""Planar rotation systems of a cell and the derived embeddings of its
cyclic quotients.

`planar_rotations` is held to the left-right test on every enumerated
cell with at most 8 vertices (loops and parallel edges included).
`derived_embedding` is held to `is_planar` on the rings of random
connected covers; the byte-for-byte search comparisons in
`test_search_orbits.py` hold it to the C3..C8 test of the oracle.
"""

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cubicgaps.covers import (PeriodicGraph, derived_embedding,
                              doubled_cycle_cover, lift, prism_band_cover)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (Multigraph, enumerate_cubic_multigraphs,
                                 is_planar, named_graph, planar_rotations)

CELLS = {n: enumerate_cubic_multigraphs(n) for n in (2, 4, 6, 8)}


def _tail(G, d):
    return G.edges[d >> 1][d & 1]


@pytest.mark.parametrize("n", sorted(CELLS))
def test_planar_rotations_exist_exactly_for_planar_cells(n):
    for G in CELLS[n]:
        assert bool(planar_rotations(G)) == bool(is_planar(G)), G.edges


@pytest.mark.parametrize("n", sorted(CELLS))
def test_every_system_is_a_spherical_face_partition(n):
    for G in CELLS[n]:
        systems = planar_rotations(G)
        assert len({flips for flips, _ in systems}) == len(systems)
        for flips, faces in systems:
            assert len(flips) == G.n and flips[0] == 0
            assert len(faces) == 2 - G.n + len(G.edges)
            darts = sorted(d for face in faces for d in face)
            assert darts == list(range(2 * len(G.edges)))
            for face in faces:
                # each dart ends where the next one starts
                for d, e in zip(face, face[1:] + face[:1]):
                    assert _tail(G, d ^ 1) == _tail(G, e)


@pytest.mark.parametrize("name, count", [("k4", 1), ("prism3", 1),
                                         ("cube", 1), ("k33", 0)])
def test_three_connected_cells_embed_once(name, count):
    assert len(planar_rotations(named_graph(name))) == count


def test_planar_rotations_refuse_bad_input():
    with pytest.raises(BadInput):
        planar_rotations(Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    with pytest.raises(BadInput):
        planar_rotations(Multigraph(2, [(0, 1), (0, 1)], half_loops=(0, 1)))
    with pytest.raises(BadInput):
        planar_rotations(Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3))


def test_reference_rings_have_no_derived_embedding():
    # both rings are non-planar from three cells on
    for P in (prism_band_cover(), doubled_cycle_cover()):
        assert derived_embedding(P) is None
        assert not is_planar(lift(P, (3,)))


def test_rank_two_covers_have_no_derived_embedding():
    P = PeriodicGraph.from_links(2, [(0, 1, (0, 0)), (0, 1, (1, 0)),
                                     (0, 1, (0, 1))], rank=2)
    assert derived_embedding(P) is None


def test_rotations_passed_in_give_the_same_answer():
    for G in CELLS[4]:
        rotations = planar_rotations(G)
        for j in range(len(G.edges)):
            offsets = [(1,) if i == j else (0,) for i in range(len(G.edges))]
            try:
                P = PeriodicGraph(G, 1, offsets)
            except BadInput:
                continue
            assert derived_embedding(P, rotations) == derived_embedding(P)


SMALL_CELLS = [G for n in (2, 4, 6) for G in CELLS[n]]


@st.composite
def ring_covers(draw):
    """A connected rank-1 cover of a cubic cell on at most 6 vertices
    with offsets in -2..2."""
    base = draw(st.sampled_from(SMALL_CELLS))
    offsets = [(draw(st.integers(-2, 2)),) for _ in base.edges]
    try:
        return PeriodicGraph(base, 1, offsets)
    except BadInput:  # a disconnected cover
        reject()


@settings(max_examples=150, deadline=None)
@given(ring_covers())
def test_derived_embedding_makes_every_ring_planar(P):
    if derived_embedding(P) is not None:
        for k in range(1, 13):
            assert is_planar(lift(P, (k,))), (P.base.edges, P.offsets, k)
