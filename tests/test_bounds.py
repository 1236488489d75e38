import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicgaps.certifier import (DecompositionFailure, audit_gap_interval,
                                 decompose_geodesic, fekete_finiteness,
                                 find_hamilton_path, geodesic_bound,
                                 hampath_bound)
from cubicgaps.certifier.bounds import _satellite_excess
from cubicgaps.covers.reference import doubled_cycle_ring
from cubicgaps.errors import BadInput, NumericalFailure
from cubicgaps.graphcore import Multigraph, named_graph, spectrum

LAMBDAS = (-1.4, -0.7, 0.0, 0.7, 1.4)


def _rand_cubic(n, seed):
    G = nx.random_regular_graph(3, n, seed=seed)
    return Multigraph(n=n, edges=tuple(sorted(tuple(sorted(e)) for e in G.edges())))


def _is_path(X, path):
    nbrs = [set(row) for row in X.neighbors()]
    if sorted(path) != list(range(X.n)):
        return False
    return all(path[k + 1] in nbrs[path[k]] for k in range(len(path) - 1))


class TestHamiltonPath:
    @pytest.mark.parametrize("name", ["k4", "cube", "prism3", "k33"])
    def test_finds_valid_path(self, name):
        X = named_graph(name)
        path = find_hamilton_path(X)
        assert path is not None
        assert _is_path(X, path)

    @pytest.mark.parametrize("X,want", [
        (named_graph("cube"), (0, 1, 2, 3, 7, 4, 5, 6)),
        (named_graph("k33"), (0, 3, 1, 4, 2, 5)),
        (named_graph("k4"), (0, 1, 2, 3)),
        (named_graph("prism3"), (0, 1, 2, 5, 3, 4)),
        (named_graph("star_loops"), None),
        (named_graph("theta_loop"), (0, 1, 2, 3)),
        (_rand_cubic(20, 7), (0, 9, 8, 2, 5, 1, 19, 11, 18, 6, 3, 4, 15, 17,
                              16, 10, 13, 12, 14, 7)),
        (_rand_cubic(40, 11), (0, 1, 7, 6, 19, 21, 14, 3, 4, 13, 37, 38, 15,
                               27, 5, 39, 25, 24, 17, 26, 18, 10, 32, 12, 36,
                               8, 29, 28, 22, 30, 16, 33, 23, 20, 11, 31, 34,
                               35, 2, 9)),
    ])
    def test_paths_are_pinned(self, X, want):
        # the search order (fewest unvisited neighbours first, then
        # index) decides which path is returned
        assert find_hamilton_path(X) == want

    def test_random_cubic_paths(self):
        for trial in range(20):
            X = _rand_cubic(10 + 2 * trial, 400 + trial)
            path = find_hamilton_path(X)
            if path is not None:
                assert _is_path(X, path)


class TestHampathBound:
    def test_cube_at_zero(self):
        X = named_graph("cube")
        path = find_hamilton_path(X)
        out = hampath_bound(X, 0.0, path)
        assert out["rayleigh"] == pytest.approx(1.0, abs=1e-12)
        assert out["bound"] == pytest.approx(1.0 + 16.0 / 8.0)
        assert out["distance_bound"] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v - 1.0) < 1e-12 for v in out["residual_profile"])
        dist = float(np.min(np.abs(spectrum(X) - 0.0)))
        assert dist <= out["distance_bound"] + 1e-12

    def test_interior_residuals_are_exactly_one(self):
        # Contributions of the two path neighbors cancel against
        # lambda*f, leaving only the third edge, a unit-modulus value.
        for trial in range(10):
            X = _rand_cubic(12 + 2 * trial, 90 + trial)
            path = find_hamilton_path(X)
            if path is None:
                continue
            for lam in LAMBDAS:
                out = hampath_bound(X, lam, path)
                interior = out["residual_profile"][1:-1]
                assert all(abs(v - 1.0) < 1e-12 for v in interior)

    def test_distance_within_bound(self):
        for trial in range(10):
            X = _rand_cubic(14 + 2 * trial, 50 + trial)
            path = find_hamilton_path(X)
            if path is None:
                continue
            ev = spectrum(X)
            for lam in (-1.9, -1.0, 0.0, 1.0, 1.9):
                out = hampath_bound(X, lam, path)
                dist = float(np.min(np.abs(ev - lam)))
                assert dist <= out["distance_bound"] + 1e-9
                assert out["rayleigh"] <= out["bound"] + 1e-9

    def test_rejects_large_lambda(self):
        X = named_graph("cube")
        path = find_hamilton_path(X)
        with pytest.raises(BadInput):
            hampath_bound(X, 2.5, path)

    def test_rejects_non_path(self):
        X = named_graph("cube")
        with pytest.raises(BadInput):
            hampath_bound(X, 0.0, (0, 1, 2, 3, 4, 5, 6, 7))


class TestDecomposeGeodesic:
    def test_cube_single_plain_run(self):
        dec = decompose_geodesic(named_graph("cube"))
        assert len(dec.geodesic) == 4
        assert len(dec.segments) == 1
        assert dec.segments[0].tag == "XII"
        assert dec.segments[0].order == dec.geodesic
        assert sorted(dec.attachment_types.values()) == ["a", "a", "b", "b"]

    def test_prism_triangle_capture(self):
        # The geodesic straddles a triangle; the third triangle vertex
        # must be swept into a capture segment, not left outside.
        dec = decompose_geodesic(named_graph("prism3"))
        assert len(dec.segments) == 1
        seg = dec.segments[0]
        assert seg.tag == "IV"
        assert seg.captures[0][0] == "c"
        assert set(seg.order) == set(range(6))

    def test_length_exceeds_log_size(self):
        for trial in range(20):
            X = _rand_cubic(10 + 2 * trial, 700 + trial)
            dec = decompose_geodesic(X)
            t = len(dec.geodesic) - 1
            assert t > math.log2(X.n / 3.0)

    def test_conditions_hold_independently(self):
        # (1) every vertex outside N_t attaches to plain-run vertices
        # only in the one-slot or distance-two patterns; (2) no outside
        # vertex touches two different segments.
        for trial in range(40):
            n = 10 + 2 * (trial % 26)
            X = _rand_cubic(n, 1000 + trial)
            dec = decompose_geodesic(X)
            nbrs = [set(row) for row in X.neighbors()]
            seg_of = {}
            for i, s in enumerate(dec.segments):
                for v in s.order:
                    seg_of[v] = i
            for x in range(n):
                if x in dec.neighborhood:
                    continue
                touched = {seg_of[u] for u in nbrs[x] if u in dec.neighborhood}
                assert len(touched) <= 1
            for v, kind in dec.attachment_types.items():
                assert kind in ("a", "b")

    def test_segments_partition_neighborhood(self):
        for trial in range(20):
            X = _rand_cubic(16 + 2 * trial, 310 + trial)
            dec = decompose_geodesic(X)
            seen = []
            for s in dec.segments:
                seen.extend(s.order)
            assert sorted(seen) == sorted(dec.neighborhood)
            assert len(seen) == len(set(seen))

    def test_no_failures_small_ensemble(self):
        failures = 0
        for trial in range(200):
            n = 10 + 2 * (trial % 26)
            X = _rand_cubic(n, 1000 + trial)
            try:
                decompose_geodesic(X)
            except DecompositionFailure:
                failures += 1
        assert failures == 0

    def test_rejects_disconnected(self):
        X = Multigraph(n=8, edges=((0, 1), (0, 1), (0, 1), (2, 3), (2, 3),
                                   (2, 3), (4, 5), (4, 5), (4, 5),
                                   (6, 7), (6, 7), (6, 7)))
        with pytest.raises(BadInput):
            decompose_geodesic(X)

    def test_merging_on_segments_pins_n22_seed1(self):
        # Vertex 21, of kind (b) at positions 0 and 2, touches the (c)
        # window over 0..1 and the plain run at 2.  It embeds into the
        # window's Hamilton path, so it is extra-captured there and the
        # segments need no merge.
        X = _rand_cubic(22, 1)
        dec = decompose_geodesic(X)
        got = [(s.tag, s.span, s.order, s.extra_captured)
               for s in dec.segments]
        assert got == [("IV", (0, 1), (0, 21, 15, 14), (21,)),
                       ("XII", (2, 7), (18, 19, 2, 3, 11, 1), ())]
        assert dec.segments[0].size == 4
        want = (1.31424, 1.12629, 1.2, 1.61769, 1.88544)
        for lam, rayleigh in zip(LAMBDAS, want):
            out = geodesic_bound(X, lam)
            assert out["rayleigh"] == pytest.approx(rayleigh, abs=1e-12)
            assert all(row["within"] for row in out["accounting"])


@st.composite
def connected_cubic(draw):
    X = _rand_cubic(2 * draw(st.integers(5, 30)),
                    draw(st.integers(0, 2 ** 32 - 1)))
    assume(X.is_connected())
    return X


@settings(max_examples=100, deadline=None)
@given(connected_cubic())
def test_decomposition_properties(X):
    dec = decompose_geodesic(X)
    g = dec.geodesic
    nbrs = [set(row) for row in X.neighbors()]
    # the segments partition N_t and chain along the geodesic
    order = dec.order
    assert len(order) == len(set(order))
    assert set(order) == dec.neighborhood >= set(g)
    assert [s.span[0] for s in dec.segments] == \
        [0] + [s.span[1] + 1 for s in dec.segments[:-1]]
    assert dec.segments[-1].span[1] == len(g) - 1
    # each order is a path in X from g[lo] to g[hi]
    for s in dec.segments:
        lo, hi = s.span
        assert (s.alpha, s.beta) == (g[lo], g[hi])
        assert all(b in nbrs[a] for a, b in zip(s.order, s.order[1:]))
    seg_of = {v: i for i, s in enumerate(dec.segments) for v in s.order}
    for x in range(X.n):
        if x not in seg_of:
            assert len({seg_of[u] for u in nbrs[x] if u in seg_of}) <= 1
    # plain runs see only kind-(a)/(b) outsiders
    for s in dec.segments:
        if s.tag == "XII":
            for v in s.order:
                for u in nbrs[v] - dec.neighborhood:
                    assert dec.attachment_types[u] in ("a", "b")


class TestSatelliteExcess:
    def test_standard_patterns_need_no_allowance(self):
        assert _satellite_excess([4]) == 0.0
        assert _satellite_excess([0, 2]) == pytest.approx(0.0, abs=1e-12)
        assert _satellite_excess([0, 2, 4]) == 0.0

    def test_forced_wide_gaps_get_worst_case(self):
        # Gap three reaches |1 + w^3|^2 = 4 at lambda = -1.
        assert _satellite_excess([0, 3]) == pytest.approx(2.0)
        assert _satellite_excess([0, 4]) == pytest.approx(2.0)
        # Adjacent attachments peak at 2 + sqrt(2).
        assert _satellite_excess([0, 1]) == pytest.approx(math.sqrt(2.0))
        # A doubled edge contributes |2 w^k|^2 = 4.
        assert _satellite_excess([0, 0]) == pytest.approx(2.0)


class TestGeodesicBound:
    def test_cube_reference_values(self):
        out = geodesic_bound(named_graph("cube"), 0.0)
        L = math.log2(8.0 / 3.0)
        assert out["rayleigh"] == pytest.approx(1.0, abs=1e-12)
        assert out["bound"] == pytest.approx(math.sqrt(1.0 + 18.0 / L))
        assert out["bound"] == pytest.approx(3.704120806211054)
        assert out["distance_bound"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_lambda_beyond_sqrt2(self):
        with pytest.raises(BadInput):
            geodesic_bound(named_graph("cube"), 1.5)

    def test_forced_merge_regression(self):
        # Seed 7106 at n=28 produces the one shape in the ensembles
        # where a condition-(2) merge pins a satellite at Hamilton gap
        # three; the segment cap must absorb its worst case.
        X = _rand_cubic(28, 7106)
        out = geodesic_bound(X, -0.7)
        rows = {e["span"]: e for e in out["accounting"]}
        wide = rows[(2, 5)]
        assert wide["tag"] == "II"
        assert wide["size"] == 5
        assert wide["cap"] == pytest.approx(7.0)
        assert wide["sum"] == pytest.approx(6.757, abs=1e-3)
        assert all(e["within"] for e in out["accounting"])

    def test_ensemble_smoke(self):
        # The full 200-graph run lives in the acceptance suite; this is
        # a fast slice over the same construction.
        for trial in range(40):
            n = 20 + 2 * (trial % 51)
            X = _rand_cubic(n, 7000 + trial)
            ev = spectrum(X)
            L = math.log2(n / 3.0)
            for lam in LAMBDAS:
                out = geodesic_bound(X, lam)
                dist = float(np.min(np.abs(ev - lam)))
                assert dist <= out["distance_bound"] + 1e-9
                assert out["distance_bound"] <= out["bound"] + 1e-9
                assert out["rayleigh"] <= 1.0 + 18.0 / L + 1e-9
                assert all(e["within"] for e in out["accounting"])

    def test_accounting_totals_are_consistent(self):
        X = _rand_cubic(40, 7010)
        out = geodesic_bound(X, 0.7)
        total = sum(e["sum"] for e in out["accounting"])
        # Segment sums plus the endpoint budget recover the full squared
        # residual, and the global form of the bound holds.
        assert total <= out["neighborhood_size"] + 18.0 + 1e-6
        assert out["rayleigh"] * out["neighborhood_size"] <= (
            out["neighborhood_size"] + 18.0 + 1e-6)


class TestFeketeFiniteness:
    def test_k4_contained(self):
        out = fekete_finiteness(named_graph("k4"), [-1, 3])
        assert out["verdict"] == "Contained"
        assert out["witness"] is None

    def test_prism_not_contained(self):
        out = fekete_finiteness(named_graph("prism3"), [-1, 3])
        assert out["verdict"] == "SpectrumNotContained"
        w = out["witness"]
        assert w["distance"] == 2
        assert w["path_count"] == 2

    def test_agrees_with_direct_containment(self):
        names = ["k4", "cube", "prism3", "k33"]
        for name in names:
            X = named_graph(name)
            ev = spectrum(X)
            distinct = sorted({int(round(v)) for v in ev
                               if abs(v - round(v)) < 1e-9})
            for a in distinct:
                for b in distinct:
                    if a >= b:
                        continue
                    out = fekete_finiteness(X, [a, b])
                    direct = all(min(abs(v - a), abs(v - b)) < 1e-9
                                 for v in ev)
                    assert (out["verdict"] == "Contained") == direct

    def test_full_integer_spectrum(self):
        # K_{3,3} has spectrum {3, 0, 0, 0, 0, -3}, exactly three values.
        out = fekete_finiteness(named_graph("k33"), [-3, 0, 3])
        assert out["verdict"] == "Contained"


class TestAuditGapInterval:
    def test_doubled_cycle_family_gap(self):
        rep = audit_gap_interval((-1.0, 1.0), doubled_cycle_ring, 10)
        assert rep["achieved"] is True
        assert rep["violations"] == []
        assert rep["members_checked"] == list(range(1, 11))
        for side in rep["widened"]:
            assert side["intersects_all_members"] is True
            assert side["mechanism"] == "geodesic"
            assert side["distance_bound"] < 1.2

    def test_stretch_interval_fails_for_this_family(self):
        rep = audit_gap_interval((2.0 * math.sqrt(2.0), 3.0),
                                 doubled_cycle_ring, 10)
        assert rep["achieved"] is False
        first = rep["violations"][0]
        assert first["n"] == 9
        assert first["eigenvalue"] == pytest.approx(
            math.sqrt(5.0 + 4.0 * math.cos(2.0 * math.pi / 9.0)), abs=1e-9)
        for side in rep["widened"]:
            assert side["mechanism"] == "inconclusive at edge"
