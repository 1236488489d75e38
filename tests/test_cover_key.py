"""The cover-identity key that the cover search skips repeats by.

Equal keys must mean isomorphic covers with equal band samples, and the
key must not change under the moves that give an isomorphic cover: a
seed automorphism, a coboundary, negation (for rank 2 every signed axis
move), permuting parallel edges and reversing a loop.  The moves here
are applied to the offsets directly, not through the key's own tables.
Rank 2 skips an edge pair with all its slices when its whole cover's
key repeats, which needs equal whole keys to give equal slice keys.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicgaps.covers import PeriodicGraph, bands, search, search_covers
from cubicgaps.covers.search import (SUBTORUS_DIRECTIONS, _CoverKeys,
                                     _offsets_for)
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import (Multigraph, automorphisms,
                                 enumerate_cubic_multigraphs)

CELLS = [G for n in (2, 4, 6, 8) for G in enumerate_cubic_multigraphs(n)]
AUTOMORPHISMS = {G: list(automorphisms(G)) for G in CELLS}
GRID = {1: 32, 2: 16}


def _key(seed, offsets, rank):
    return _CoverKeys(seed)([offsets], GRID[rank])[0]


def _samples(seed, offsets, rank):
    """Sorted band samples, or None for a disconnected cover."""
    try:
        P = PeriodicGraph(seed, rank, offsets)
    except BadInput:
        return None
    return np.sort(bands(P, GRID[rank]).values.ravel())


def _bundles(seed):
    return [list(g) for _, g in itertools.groupby(
        range(len(seed.edges)), key=lambda e: seed.edges[e])]


def _carry(seed, p, offs):
    """The cell relabelled by p, with the offsets carried along and
    aligned to its sorted edges."""
    moved = []
    for (u, v), o in zip(seed.edges, offs):
        a, b = p[u], p[v]
        moved.append(((a, b), o) if a <= b else ((b, a), -o))
    moved.sort(key=lambda item: item[0])
    return (Multigraph(seed.n, [e for e, _ in moved]),
            np.array([o for _, o in moved]))


def _relabel(seed, p, offs):
    """Offsets carried by the automorphism p."""
    base, moved = _carry(seed, p, offs)
    assert base.edges == seed.edges
    return moved


def _coboundary(seed, q, offs):
    return np.array([o + q[u] - q[v] for (u, v), o in zip(seed.edges, offs)])


def _shuffle_bundles(seed, order, offs):
    out = offs.copy()
    for bundle, perm in zip(_bundles(seed), order):
        out[bundle] = offs[[bundle[i] for i in perm]]
    return out


def _flip_loops(seed, signs, offs):
    out = offs.copy()
    for e, ((u, v), s) in enumerate(zip(seed.edges, signs)):
        if u == v:
            out[e] = s * offs[e]
    return out


def _signed_axis_moves(rank):
    moves = []
    for order in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            M = np.zeros((rank, rank), dtype=np.int64)
            for i, (j, s) in enumerate(zip(order, signs)):
                M[i, j] = s
            moves.append(M)
    return moves


@st.composite
def covers(draw):
    """(seed, rank, offsets) with offsets in -2..2."""
    seed = draw(st.sampled_from(CELLS))
    rank = draw(st.sampled_from((1, 2)))
    offs = np.array([[draw(st.integers(-2, 2)) for _ in range(rank)]
                     for _ in seed.edges], dtype=np.int64)
    return seed, rank, offs


@st.composite
def isomorphic_pair(draw):
    """A cover and its image under a random chain of the moves."""
    seed, rank, offs = draw(covers())
    n, m = seed.n, len(seed.edges)
    moved = _relabel(seed, draw(st.sampled_from(AUTOMORPHISMS[seed])), offs)
    q = np.array([[draw(st.integers(-2, 2)) for _ in range(rank)]
                  for _ in range(n)])
    moved = _coboundary(seed, q, moved)
    order = [draw(st.permutations(range(len(b)))) for b in _bundles(seed)]
    moved = _shuffle_bundles(seed, order, moved)
    signs = [draw(st.sampled_from((1, -1))) for _ in range(m)]
    moved = _flip_loops(seed, signs, moved)
    moved = moved @ draw(st.sampled_from(_signed_axis_moves(rank)))
    return seed, rank, offs, moved


@settings(max_examples=150, deadline=None)
@given(isomorphic_pair())
def test_key_is_constant_on_isomorphic_covers(pair):
    seed, rank, offs, moved = pair
    assert _key(seed, offs, rank) == _key(seed, moved, rank)
    before, after = _samples(seed, offs, rank), _samples(seed, moved, rank)
    assert (before is None) == (after is None)
    if before is not None:
        assert np.abs(before - after).max() < 1e-12


EXHAUSTIVE = [(G, 1) for G in CELLS if G.n <= 4] + \
    [(G, 2) for G in CELLS if G.n == 2]


@pytest.mark.parametrize("seed,rank", EXHAUSTIVE,
                         ids=lambda x: str(getattr(x, "edges", x)))
def test_equal_keys_give_equal_samples_exhaustively(seed, rank):
    # every offset vector in -1..1 on the smallest cells: independent
    # vectors with equal keys must sample the same bands
    groups = {}
    for flat in itertools.product((-1, 0, 1), repeat=rank * len(seed.edges)):
        offs = np.array(flat).reshape(-1, rank)
        groups.setdefault(_key(seed, offs, rank), []).append(offs)
    assert len(groups) < 3 ** (rank * len(seed.edges))
    for members in groups.values():
        first = _samples(seed, members[0], rank)
        for offs in members[1:]:
            other = _samples(seed, offs, rank)
            assert (first is None) == (other is None)
            if first is not None:
                assert np.abs(first - other).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(isomorphic_pair(), st.data())
def test_key_classes_survive_relabelling_the_seed(pair, data):
    # a relabelled cell has other keys, but the covers that share a key
    # on one labelling share one on the other
    seed, rank, offs, moved = pair
    p = data.draw(st.permutations(range(seed.n)))
    other = np.array([[data.draw(st.integers(-2, 2)) for _ in range(rank)]
                      for _ in seed.edges])
    carried = [_carry(seed, p, o) for o in (offs, moved, other)]
    base = carried[0][0]
    keys = _CoverKeys(base)
    new = [keys([o], GRID[rank])[0] for _, o in carried]
    assert new[0] == new[1]
    assert (new[0] == new[2]) == (_key(seed, offs, rank)
                                  == _key(seed, other, rank))


def test_key_does_not_depend_on_the_batch():
    # the packing radix follows the largest offset of the batch; the
    # key must not
    seed = enumerate_cubic_multigraphs(4)[3]
    keys = _CoverKeys(seed)
    offs = np.zeros((len(seed.edges), 2), dtype=np.int64)
    offs[0], offs[3] = (1, 0), (0, 1)
    big = np.full_like(offs, 40)
    assert keys([offs], 64) == keys([offs, big], 64)[:1]
    assert keys(offs[None, :, :1], 64) == keys([offs[:, :1], big[:, :1]],
                                                64)[:1]


def test_key_separates_grid_and_rank():
    seed = enumerate_cubic_multigraphs(4)[3]
    keys = _CoverKeys(seed)
    one = np.zeros((len(seed.edges), 1), dtype=np.int64)
    one[0] = 1
    two = np.concatenate([one, np.zeros_like(one)], axis=1)
    assert keys([one], 64) != keys([one], 128)
    assert keys([one], 64) != keys([two], 64)


def _workload_prefix():
    """The `search` benchmark workload's seeds: the first 6 of the 4-
    and 6-vertex cells."""
    return (enumerate_cubic_multigraphs(4)
            + enumerate_cubic_multigraphs(6))[:6]


def test_workload_prefix_takes_at_most_160_eigensolves(monkeypatch):
    # the `search` benchmark workload, rank 2, N=256; 323 solves
    # before the key
    solved = []

    def counted(P, N):
        solved.append(N)
        return bands(P, N)

    monkeypatch.setattr(search, "bands", counted)
    rows = search_covers(_workload_prefix(), rank=2, two_link=True, N=256)
    assert len(rows) == 134
    assert len(solved) <= 160


def test_equal_whole_keys_give_equal_slice_keys():
    # the rank-2 skip drops a pair's slices with its whole cover, so
    # every class of pairs with one whole key has one set of slice keys
    directions = np.array(SUBTORUS_DIRECTIONS)
    for seed in CELLS:
        m, keys = len(seed.edges), _CoverKeys(seed)
        pairs = np.array([_offsets_for(m, {j: (1, 0), k: (0, 1)}, 2)
                          for j in range(m) for k in range(j + 1, m)])
        slices = keys((pairs @ directions.T).transpose(0, 2, 1)
                      .reshape(-1, m, 1), 64)
        per_pair = [frozenset(slices[i:i + len(directions)])
                    for i in range(0, len(slices), len(directions))]
        classes = {}
        for whole, sliced in zip(keys(pairs, 16), per_pair):
            classes.setdefault(whole, set()).add(sliced)
        assert all(len(found) == 1 for found in classes.values()), seed


def test_workload_prefix_builds_at_most_31_rank2_covers(monkeypatch):
    # a pair whose whole key repeats is skipped before its cover is
    # built; 34 builds when an automorphism-orbit skip came first
    built = []

    def counted(base, rank, offsets, name=""):
        built.append(rank)
        return PeriodicGraph(base, rank, offsets, name=name)

    monkeypatch.setattr(search, "PeriodicGraph", counted)
    rows = search_covers(_workload_prefix(), rank=2, two_link=True, N=256)
    assert len(rows) == 134
    assert built.count(2) <= 31


@pytest.mark.parametrize("rank", (1, 2))
def test_automorphisms_run_once_per_seed(monkeypatch, rank):
    calls = []

    def counted(G):
        calls.append(G)
        return automorphisms(G)

    monkeypatch.setattr(search, "automorphisms", counted)
    seeds = _workload_prefix()
    search_covers(seeds, rank=rank, two_link=True, N=32)
    assert calls == seeds
