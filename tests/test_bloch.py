"""The per-offset Bloch assembly and the deck-group lift.

The oracle tests hold `bands` to the per-edge loops of `bloch_oracle.py`
on the search candidates and the reference covers: byte for byte on the
grid points `bands` solves, one of each conjugate pair, and within
rounding on the mirror rows, which are byte copies.  The properties
draw random connected covers of the cubic cells with at most 6 vertices
(loops and multi-edges included, offsets in -3..3) and check the lift
against the twisted spectrum at roots of unity, the exact touch matrices
against the float assembly, the lift against the per-rank wraps of the
oracle, and the mirror identity A(-theta) = conj A(theta) = A(theta)^T.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bloch_oracle import (oracle_band_values, oracle_quotient,
                          oracle_twisted_adjacency)
from cubicgaps.certifier.touchpoint import _integer_touch_matrix
from cubicgaps.covers import (PeriodicGraph, bands, doubled_cycle_cover,
                              lift, offset_split, prism_band_cover,
                              twisted_adjacency)
from cubicgaps.covers.search import _candidates
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (Multigraph, enumerate_cubic_multigraphs,
                                 is_planar, spectrum)

CELLS = [G for n in (2, 4, 6) for G in enumerate_cubic_multigraphs(n)]


def _search_covers(n, rank):
    for seed in enumerate_cubic_multigraphs(n):
        for _, _, P, grid in _candidates(seed, rank, True, 32):
            yield P, grid


def _mirror_rows(rank, N):
    """The row of each grid point's mirror: angle -theta is grid index
    (N - k) mod N on each axis, and rank-2 rows run row-major."""
    points = list(itertools.product(range(N), repeat=rank))
    row = {k: i for i, k in enumerate(points)}
    return np.array([row[tuple((N - c) % N for c in k)] for k in points])


def _check_against_oracle(P, N):
    # bands solves the lower row of each conjugate pair and copies it
    # to the upper; the oracle solves every row at its own angle
    vals = bands(P, N).values
    oracle = oracle_band_values(P, N)
    rows = np.arange(len(vals))
    rep = np.minimum(rows, _mirror_rows(P.rank, N))
    solved = rep == rows
    assert vals[solved].tobytes() == oracle[solved].tobytes(), P.offsets
    assert vals.tobytes() == vals[rep].tobytes(), P.offsets
    assert np.abs(vals - oracle).max() < 1e-12, P.offsets


@pytest.mark.parametrize("n, rank", [(4, 1), (4, 2), (6, 2)])
def test_bands_bit_equal_on_search_candidates(n, rank):
    for P, grid in _search_covers(n, rank):
        _check_against_oracle(P, grid)


@pytest.mark.parametrize("P", [prism_band_cover(), doubled_cycle_cover()],
                         ids=lambda P: P.name)
def test_reference_covers_bit_equal(P):
    _check_against_oracle(P, 256)
    for th in (0.0, math.pi, 0.7, -2.1):
        z = [complex(math.cos(th), math.sin(th))]
        assert twisted_adjacency(P, z).tobytes() == \
            oracle_twisted_adjacency(P, z).tobytes()


RANK2 = PeriodicGraph.from_links(4, [(0, 1, (1, 1)), (0, 1, (0, 0)),
                                     (0, 2, (-1, 0)), (1, 3, (0, 0)),
                                     (2, 3, (2, 0)), (2, 3, (0, 1))], rank=2)


def test_large_offsets_agree_to_rounding():
    # z1^2 and z1^-1 are powers of exp(i theta1), where the per-edge
    # loop took exp(i (o1 theta1 + o2 theta2)); the two differ by ulps
    P = RANK2
    assert np.abs(bands(P, 32).values - oracle_band_values(P, 32)).max() < 1e-12
    for z in ([np.exp(0.3j), np.exp(-1.9j)], [-1.0, 1j]):
        assert np.abs(twisted_adjacency(P, z)
                      - oracle_twisted_adjacency(P, z)).max() < 1e-12


def _stack(rank, thetas):
    """Characters of shape (S, rank): axis k turns at (k + 1) * theta."""
    return np.array([[complex(math.cos(k * t), math.sin(k * t))
                      for k in range(1, rank + 1)] for t in thetas])


@pytest.mark.parametrize("P", [prism_band_cover(), doubled_cycle_cover(),
                               RANK2], ids=lambda P: P.name or "rank-2")
def test_stacked_twisted_adjacency_is_per_character_bytes(P):
    # verify_transpose_symmetry and verify_band_extremum evaluate their
    # angles in one stack and read the same bytes as one call per angle
    z = _stack(P.rank, (0.0, math.pi, 0.1, -0.1, 2.0, 1e-3, -5e-4))
    A = twisted_adjacency(P, z)
    assert A.shape == (len(z), P.base.n, P.base.n)
    for zi, Ai in zip(z, A):
        assert Ai.tobytes() == twisted_adjacency(P, zi).tobytes()
    assert np.linalg.eigvalsh(A).tobytes() == np.stack(
        [np.linalg.eigvalsh(twisted_adjacency(P, zi)) for zi in z]).tobytes()


@pytest.mark.parametrize("P, shape", [
    (prism_band_cover(), (3, 2)),
    (prism_band_cover(), (3,)),
    (prism_band_cover(), (2, 1, 1)),
    (RANK2, (3, 1)),
    (RANK2, (1, 3)),
])
def test_stack_with_wrong_shape_is_refused(P, shape):
    with pytest.raises(BadInput, match="character value"):
        twisted_adjacency(P, np.ones(shape, dtype=complex))


def test_parallel_edges_with_mixed_offsets_agree_to_rounding():
    # B_o gathers parallel edges per offset, so the three edges of the
    # 2-vertex theta cell are summed as 1 * z + 2 rather than z + 1 + 1
    for P, grid in _search_covers(2, 1):
        assert np.abs(bands(P, grid).values
                      - oracle_band_values(P, grid)).max() < 1e-12


def test_offset_split_counts_stored_edges():
    split = offset_split(doubled_cycle_cover())
    assert list(split) == [(0,), (1,)]
    assert split[(0,)].tolist() == [[0, 1, 0, 1], [0, 0, 1, 0],
                                    [0, 0, 0, 1], [0, 0, 0, 0]]
    assert split[(1,)].tolist() == [[0, 1, 0, 0], [0, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, 0, 0]]


EVEN_CELLS = ((0,), (2,), (0,), (0,), (0,), (2,))


def test_even_cell_offsets_connect_three_decks_but_not_four():
    # the doubled-cycle base with its wrapped edges at offset 2: the
    # offsets generate 2Z, not Z, so the infinite cover splits in two,
    # yet 2 generates Z/3
    wrap = SimpleNamespace(base=doubled_cycle_cover().base, rank=1,
                           offsets=EVEN_CELLS, name="")
    assert lift(wrap, (3,)).is_connected()
    assert not lift(wrap, (4,)).is_connected()


def test_cover_reaching_only_even_cells_is_refused():
    with pytest.raises(BadInput):
        PeriodicGraph(doubled_cycle_cover().base, 1, EVEN_CELLS)


# three parallel edges with offsets 1, -1, 1: the cycle offsets are 2 and
# 0, so every offset lies in {-1, 0, 1} and the cover still splits in two
THETA = Multigraph(2, [(0, 1)] * 3)
THETA_SPLIT = ((1,), (-1,), (1,))


def test_theta_cover_with_unit_offsets_is_refused():
    with pytest.raises(BadInput):
        PeriodicGraph(THETA, 1, THETA_SPLIT)


def test_theta_split_rings_are_planar_but_the_cover_is_refused():
    # each ring is two planar components, so a per-ring planarity test
    # passes; the cover is refused before any planarity question
    wrap = SimpleNamespace(base=THETA, rank=1, offsets=THETA_SPLIT, name="")
    assert not lift(wrap, (2,)).is_connected()
    for n in range(3, 9):
        assert is_planar(lift(wrap, (n,)))
    with pytest.raises(BadInput, match="disconnected"):
        PeriodicGraph.from_links(2, [(0, 1, 1), (0, 1, -1), (1, 0, -1)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CELLS).flatmap(lambda base: st.tuples(
    st.just(base), st.lists(st.integers(-3, 3), min_size=len(base.edges),
                            max_size=len(base.edges)))))
def test_connectivity_rule_matches_the_lifts(case):
    # a cycle voltage is a signed sum of distinct edge offsets, so K,
    # the sum of the offsets' sizes, bounds every one; a voltage gcd
    # g > 1 then splits lift(P, (g,)) with 2 <= g <= K, and all-zero
    # voltages split lift(P, (2,))
    base, raw = case
    offsets = tuple((o,) for o in raw)
    wrap = SimpleNamespace(base=base, rank=1, offsets=offsets, name="")
    K = sum(abs(o) for o in raw)
    connected = all(lift(wrap, (k,)).is_connected()
                    for k in range(2, max(2, K) + 1))
    try:
        PeriodicGraph(base, 1, offsets)
    except BadInput:
        assert not connected, (base.edges, offsets)
    else:
        assert connected, (base.edges, offsets)


@st.composite
def covers(draw, rank):
    """A connected cover of a cubic cell on at most 6 vertices with
    offsets in -3..3."""
    base = draw(st.sampled_from(CELLS))
    offsets = [tuple(draw(st.integers(-3, 3)) for _ in range(rank))
               for _ in base.edges]
    try:
        return PeriodicGraph(base, rank, offsets)
    except BadInput:  # a disconnected cover
        reject()


def _twisted_spectrum(P, decks):
    roots = [[np.exp(2j * np.pi * m / n) for m in range(n)] for n in decks]
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(twisted_adjacency(P, z))
        for z in itertools.product(*roots)]))


def _check_lift(P, decks):
    Q = lift(P, decks)
    assert Q == oracle_quotient(P, decks)
    assert np.abs(spectrum(Q) - _twisted_spectrum(P, decks)).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(covers(1), st.integers(1, 6))
def test_ring_lift_spectrum_is_twisted_spectrum_at_roots(P, n):
    _check_lift(P, (n,))


@settings(max_examples=40, deadline=None)
@given(covers(2), st.integers(1, 4), st.integers(1, 4))
def test_torus_lift_spectrum_is_twisted_spectrum_at_roots(P, n1, n2):
    _check_lift(P, (n1, n2))


@settings(max_examples=60, deadline=None)
@given(covers(1), st.sampled_from((1, -1)))
def test_touch_matrix_is_the_rounded_float_assembly(P, s):
    A = _integer_touch_matrix(P, 0.0 if s == 1 else math.pi)
    assert all(type(x) is int for row in A for x in row)
    assert A == np.rint(twisted_adjacency(P, [s]).real).astype(int).tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda r: st.tuples(covers(r), st.lists(st.floats(-4, 4), min_size=1,
                                            max_size=6))))
def test_stacked_twisted_adjacency_is_per_character_bytes_on_covers(case):
    P, thetas = case
    z = _stack(P.rank, thetas)
    A = twisted_adjacency(P, z)
    for zi, Ai in zip(z, A):
        assert Ai.tobytes() == twisted_adjacency(P, zi).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda r: st.tuples(covers(r), st.lists(st.floats(-4, 4), min_size=r,
                                            max_size=r))))
def test_mirrored_character_is_conjugate_and_transpose(case):
    # every B_o is real, so A(-theta) = conj A(theta) = A(theta)^T and
    # the pair shares its spectrum
    P, thetas = case
    th = np.array(thetas)
    A = twisted_adjacency(P, np.exp(1j * th))
    M = twisted_adjacency(P, np.exp(-1j * th))
    assert np.abs(M - A.conj()).max() < 1e-12
    assert np.abs(M - A.T).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(M)
                  - np.linalg.eigvalsh(A)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(covers),
       st.sampled_from((16, 18, 32)))
def test_bands_mirror_rows_copy_their_representatives(P, N):
    vals = bands(P, N).values
    assert vals.tobytes() == vals[_mirror_rows(P.rank, N)].tobytes()
