"""The cover search's symmetry skip and its band-picture dedup key.

The seed automorphisms feed the cover-identity key (`_CoverKeys`), and
skipping by that key must not change a single catalog byte: every row
of `iter_search_covers` matches the unskipped sweep in
`search_oracle.py`, whose C3..C8 planarity test also checks the
search's derived embeddings.
"""

import itertools
import json

import pytest
import search_oracle
from search_oracle import oracle_search_covers

from cubicgaps.covers import bands, gap_report, iter_search_covers, search
from cubicgaps.covers.periodic import GapReport
from cubicgaps.covers.quotients import is_automorphism
from cubicgaps.covers.search import _CoverKeys, _dedup_key, _offsets_for
from cubicgaps.dynamics.intervals import IntervalSet
from cubicgaps.graphcore import (Multigraph, automorphisms,
                                 enumerate_cubic_multigraphs)

SMALL_CELLS = [G for n in (2, 4, 6) for G in enumerate_cubic_multigraphs(n)]


def _rows(entries):
    return [json.dumps(e.to_json(), sort_keys=True, separators=(",", ":"))
            for e in entries]


class TestOrbitHelper:
    """The seed automorphisms that the cover key reads, and two hand
    cases of the key's relative-sign rule."""

    def test_cells_include_loops_and_multi_edges(self):
        assert any(G.has_loops for G in SMALL_CELLS)
        assert any(G.has_multi for G in SMALL_CELLS)

    @pytest.mark.parametrize("G", SMALL_CELLS, ids=lambda G: G.name or "cell")
    def test_automorphisms_match_all_permutations(self, G):
        brute = {p for p in itertools.permutations(range(G.n))
                 if is_automorphism(G, p)}
        got = list(automorphisms(G))
        assert len(got) == len(set(got))
        assert set(got) == brute

    def test_loop_reaches_both_signs(self):
        # reversing the loop and conjugating turns (loop +1, edge -1)
        # into (loop +1, edge +1), so both signs share one key
        G = Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
        loop, edge = G.edges.index((0, 0)), G.edges.index((0, 1))
        plus, minus = _sign_keys(G, loop, edge)
        assert plus == minus

    def test_orientation_flip_maps_sign(self):
        # 0 <-> 1, 2 <-> 3 reverses both (0, 1) and (2, 3), and every
        # other automorphism reverses both or neither, so the relative
        # sign is kept; no coboundary moves the net offset around the
        # cycle 0, 1, 3, 2 (0 for +1, 2 for -1), so the keys differ
        G = Multigraph(4, [(0, 1), (0, 2), (0, 2), (1, 3), (1, 3), (2, 3)])
        assert is_automorphism(G, (1, 0, 3, 2))
        a, b = G.edges.index((0, 1)), G.edges.index((2, 3))
        plus, minus = _sign_keys(G, a, b)
        assert plus != minus


def _sign_keys(G, a, b):
    """The rank-1 keys of edge a at +1 with edge b at +1 and at -1."""
    m = len(G.edges)
    return _CoverKeys(G)([_offsets_for(m, {a: (1,), b: (s,)}, 1)
                          for s in (1, -1)], 32)


@pytest.fixture
def shared_work(monkeypatch):
    """Both sweeps eigensolve each cover once.  `bands` and `gap_report`
    are deterministic on equal input, so the comparison still checks
    which candidates each side tries and keeps.  Planarity is not
    shared: the search decides it from derived embeddings and the oracle
    by the C3..C8 test, so the rows also hold one to the other."""
    structures, reports = {}, {}

    def cached_bands(P, N):
        key = (P.base.edges, P.offsets, N)
        if key not in structures:
            structures[key] = bands(P, N)
        return structures[key]

    def cached_report(B):
        # structures keeps every B alive, so its id is never reused
        if id(B) not in reports:
            reports[id(B)] = gap_report(B)
        return reports[id(B)]

    for module in (search, search_oracle):
        monkeypatch.setattr(module, "bands", cached_bands)
        monkeypatch.setattr(module, "gap_report", cached_report)


@pytest.mark.usefixtures("shared_work")
class TestSkipKeepsRows:
    def test_four_vertex_rank1_two_link(self):
        seeds = enumerate_cubic_multigraphs(4)
        assert _rows(iter_search_covers(seeds, rank=1, two_link=True,
                                        N=32)) == \
            _rows(oracle_search_covers(seeds, rank=1, two_link=True, N=32))

    def test_four_vertex_rank2(self):
        seeds = enumerate_cubic_multigraphs(4)
        assert _rows(iter_search_covers(seeds, rank=2, N=32)) == \
            _rows(oracle_search_covers(seeds, rank=2, N=32))

    def test_six_vertex_rank2(self):
        seeds = enumerate_cubic_multigraphs(6)
        assert _rows(iter_search_covers(seeds, rank=2, N=32)) == \
            _rows(oracle_search_covers(seeds, rank=2, N=32))

    def test_joint_search_splits_by_cell_size(self):
        # the shared `small_cell_search` fixture relies on this split
        four = enumerate_cubic_multigraphs(4)
        six = enumerate_cubic_multigraphs(6)
        joint = list(iter_search_covers(four + six, rank=2, N=64))
        for n, cells in ((4, four), (6, six)):
            assert _rows(e for e in joint if e.base.n == n) == \
                _rows(iter_search_covers(cells, rank=2, N=64))


def _report(intervals=(), points=()):
    est = IntervalSet(intervals, points)
    return GapReport(est, est.complement_in(-3.0, 3.0), (), 0.05)


class TestDedupKey:
    def test_noise_wide_interval_reads_as_point(self):
        x = 1.897983
        point = _report([(-3.0, -1.0)], [x])
        noisy = _report([(-3.0, -1.0), (x, x + 1e-15)])
        assert noisy.spectrum_estimate.intervals[-1] == (x, x + 1e-15)
        assert _dedup_key(4, point) == _dedup_key(4, noisy)

    def test_points_form_a_sorted_set(self):
        a = _report([(-3.0, -1.0), (0.5, 0.5 + 1e-12)], [0.2, 0.5])
        b = _report([(-3.0, -1.0)], [0.2, 0.5])
        assert _dedup_key(4, a) == _dedup_key(4, b)
        assert _dedup_key(4, a)[2] == (0.2, 0.5)

    def test_rounded_width_keeps_an_interval(self):
        x = 1.5
        point = _report([(-3.0, -1.0)], [x])
        narrow = _report([(-3.0, -1.0), (x, x + 1e-6)])
        assert _dedup_key(4, narrow)[1] == ((-3.0, -1.0), (1.5, 1.500001))
        assert _dedup_key(4, point) != _dedup_key(4, narrow)
