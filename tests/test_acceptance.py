"""Acceptance suite: one test per release criterion.

Each test prints a single summary line (visible with -s) and is named so
that ``pytest -v`` shows one pass/fail line per criterion.  Tolerances
are pinned here and must not be loosened to make a run pass.
"""

import itertools
import json
import math
import time

import networkx as nx
import numpy as np
import pytest

from cubicgaps.certifier import (certify_touchpoint, decompose_geodesic,
                                 exact_eigenpairs, fekete_finiteness,
                                 geodesic_bound, locate_touch_angle,
                                 verify_certificate)
from cubicgaps.certifier.bounds import DecompositionFailure
from cubicgaps.cli import default_catalog_path
from cubicgaps.covers import (cyclic_quotient, entry_cover, load_catalog,
                              planar_coverage)
from cubicgaps.covers.reference import (doubled_cycle_cover,
                                        doubled_cycle_ring,
                                        folded_doubled_cycle_ring,
                                        prism_band_cover, prism_ring)
from cubicgaps.dynamics import (IntervalSet, a_membership, capacity_estimate,
                                plan_gap_witness, preimage_intervals,
                                realize_plan, tmap, tmap_spectrum_predict)
from cubicgaps.graphcore import (Multigraph, are_isomorphic,
                                 enumerate_cubic_multigraphs, is_planar,
                                 named_graph, spectrum)

SQRT17 = math.sqrt(17.0)
WA_BANDS = ((-(1.0 + SQRT17) / 2.0, -2.0), (0.0, (SQRT17 - 1.0) / 2.0),
            (2.0, 3.0))


def _rand_cubic(n, seed):
    G = nx.random_regular_graph(3, n, seed=seed)
    return Multigraph(n=n, edges=tuple(sorted(tuple(sorted(e)) for e in G.edges())))


def test_criterion_01_spectral_law_full_enumeration():
    t0 = time.time()
    count = 0
    for n in (2, 4, 6, 8, 10):
        for G in enumerate_cubic_multigraphs(n):
            count += 1
            got = spectrum(tmap(G))
            want = tmap_spectrum_predict(spectrum(G))
            assert np.max(np.abs(got - want)) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"criterion 1: PASS spectral law on {count} multigraphs "
          f"(n <= 10) in {elapsed:.1f}s")


def test_criterion_02_iterated_k4_classification():
    X = named_graph("k4")
    for k in range(5):
        assert X.n == 4 * 3 ** k
        for v in spectrum(X):
            m = a_membership(float(v), k, tol=1e-6)
            assert m.in_a, f"eigenvalue {v} escapes at depth {k}"
        if k < 4:
            X = tmap(X)
    print("criterion 2: PASS T^k(K4) inside the attractor for k <= 4, "
          "sizes 4*3^k")


def _entry_matching(entries, targets, tol=1e-6):
    for e in entries:
        ivs = e.report.spectrum_estimate.intervals
        if len(ivs) != len(targets):
            continue
        if all(abs(g - w) <= tol for iv, tv in zip(ivs, targets)
               for g, w in zip(iv, tv)):
            return e
    return None


def test_criterion_03_extremal_cover_rediscovery(small_cell_search):
    t0 = time.time()
    four = [e for e in small_cell_search if e.base.n == 4]
    two_band = _entry_matching(four, ((-3.0, -1.0), (1.0, 3.0)))
    assert two_band is not None, "no 4-vertex cover matches [-3,-1] u [1,3]"
    six = [e for e in small_cell_search if e.base.n == 6]
    three_band = _entry_matching(six, WA_BANDS)
    assert three_band is not None, "no 6-vertex cover matches the " \
                                   "three-band target"
    lo = three_band.report.spectrum_estimate.intervals[0][0]
    hi = three_band.report.spectrum_estimate.intervals[1][1]
    assert lo == pytest.approx(-2.5615528128, abs=1e-6)
    assert hi == pytest.approx(1.5615528128, abs=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    print(f"criterion 3: PASS both extremal covers rediscovered "
          f"in {elapsed:.1f}s")


def test_criterion_04_exact_certification(tmp_path):
    for P, want_lams, want_angle in (
            (doubled_cycle_cover(), [1, 1, -1, -1], math.pi),
            (prism_band_cover(), [3, 1, 0, 0, -2, -2], 0.0)):
        theta = locate_touch_angle(P)
        assert theta == pytest.approx(want_angle)
        cert = certify_touchpoint(P, theta, exact_eigenpairs(P, theta))
        got = sorted(float(lam) for lam, _ in cert.eigenpairs)
        assert got == sorted(want_lams)
        for _, vec in cert.eigenpairs:
            assert all(isinstance(x, int) for x in vec)
        assert cert.symmetry["ok"] is True
        assert len(cert.symmetry["deltas"]) == 3
        path = tmp_path / f"{cert.cover_id}.json"
        path.write_text(json.dumps(cert.to_json()))
        back = verify_certificate(json.loads(path.read_text()))
        assert back.gap == cert.gap
    print("criterion 4: PASS exact certificates for both touch angles, "
          "re-verified from disk")


def test_criterion_05_quotient_family_audits():
    wb_bands = ((-3.0, -1.0), (1.0, 3.0))
    for n in range(2, 17):
        for v in spectrum(doubled_cycle_ring(n)):
            assert any(a - 1e-9 <= v <= b + 1e-9 for a, b in wb_bands)
        for v in spectrum(prism_ring(n)):
            assert any(a - 1e-9 <= v <= b + 1e-9 for a, b in WA_BANDS)
    assert are_isomorphic(doubled_cycle_ring(2), named_graph("cube"))
    for n in range(3, 9):
        rep = is_planar(doubled_cycle_ring(n))
        assert not rep.planar
        assert rep.witness_kind == "K33"
        assert rep.witness_edges
    for n in range(2, 9):
        Q = folded_doubled_cycle_ring(n)
        assert bool(is_planar(Q))
        assert all(not -1.0 + 1e-9 < v < 1.0 - 1e-9 for v in spectrum(Q))
    print("criterion 5: PASS ring families stay in their bands; "
          "folded quotients planar and (-1,1)-gapped")


def test_criterion_06_lower_bound_machinery():
    failures = 0
    for trial in range(200):
        n = 20 + 2 * (trial % 51)
        X = _rand_cubic(n, 7000 + trial)
        ev = spectrum(X)
        L = math.log2(n / 3.0)
        cap = math.sqrt(1.0 + 18.0 / L)
        for lam in (-1.4, -0.7, 0.0, 0.7, 1.4):
            try:
                out = geodesic_bound(X, lam)
            except DecompositionFailure:
                failures += 1
                continue
            dist = float(np.min(np.abs(ev - lam)))
            assert dist <= cap + 1e-9
            assert out["rayleigh"] <= 1.0 + 18.0 / L + 1e-9
            assert all(e["within"] for e in out["accounting"])
    assert failures == 0
    print("criterion 6: PASS 200 graphs x 5 spectral points, "
          "zero decomposition failures")


def _snap(v):
    r = round(v)
    return int(r) if abs(v - r) < 1e-9 else float(v)


def test_criterion_07_fekete_gate():
    out = fekete_finiteness(named_graph("prism3"), [-1, 3])
    assert out["verdict"] == "SpectrumNotContained"
    checked = 0
    for n in (4, 6, 8, 10):
        for G in enumerate_cubic_multigraphs(n):
            if G.has_loops or G.has_multi:
                continue
            ev = spectrum(G)
            distinct = sorted({_snap(v) for v in np.round(ev, 9)})
            for size in range(1, 5):
                for F in itertools.combinations(distinct, size):
                    verdict = fekete_finiteness(G, list(F))["verdict"]
                    direct = all(
                        min(abs(v - float(c)) for c in F) < 1e-9
                        for v in ev)
                    assert (verdict == "Contained") == direct, \
                        f"disagreement on n={G.n} F={F}"
                    checked += 1
    print(f"criterion 7: PASS fekete gate agrees with eigensolve on "
          f"{checked} (graph, subset) pairs")


def test_criterion_08_capacity_estimates():
    box = IntervalSet(((-3.0, 3.0),))
    assert capacity_estimate(box, 64) == pytest.approx(1.5, abs=0.02)
    ests = [capacity_estimate(box, 64)]
    for m in range(1, 7):
        S = preimage_intervals(m).intervals
        est = capacity_estimate(S, 64)
        ests.append(est)
        if m <= 4:
            assert est == pytest.approx(1.5 ** (1.0 / 2 ** m), abs=0.02)
    assert ests[1] == pytest.approx(math.sqrt(1.5), abs=0.02)
    for a, b in zip(ests, ests[1:]):
        assert b < a
    assert all(e > 1.0 for e in ests)
    print(f"criterion 8: PASS capacities within 0.02 of closed forms, "
          f"decreasing toward 1 through m=6 (last {ests[-1]:.4f})")


def test_criterion_09_planar_gap_union(small_cell_search):
    entries = [e for e in small_cell_search if e.planar_quotients]
    checks = planar_coverage(entries)
    assert len(entries) >= 4
    assert checks["required"]["covered"] is True
    reach = checks["stretch"]["reach_from_minus3"]
    print(f"criterion 9: PASS {len(entries)} planar covers, [-2,0] "
          f"covered; stretch reach {reach:.4f} "
          f"(target {2 * math.sqrt(2) - 0.01:.4f}, not required)")


def test_criterion_10_witness_planner_grid():
    catalog = load_catalog(default_catalog_path())
    for i in range(59):
        xi = round(-2.9 + 0.1 * i, 10)
        plan = plan_gap_witness(xi, 0.01, catalog)
        assert plan.k <= 20
        row = next(r for r in catalog if r["id"] == plan.family_id)
        P = entry_cover(row)
        decks = 8
        while P.base.n * decks * 3 ** plan.k > 10_000 and decks > 3:
            decks -= 1
        X = realize_plan(plan, cyclic_quotient(P, decks), size_cap=10_000)
        assert X.n <= 10_000
        dist = float(np.min(np.abs(spectrum(X) - xi)))
        assert dist >= 0.01 - 1e-12, f"xi={xi}: eigenvalue at {dist}"
    print("criterion 10: PASS witnesses realized for all 59 grid points")
