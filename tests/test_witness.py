import json

import numpy as np
import pytest

from cubicgaps.cli import default_catalog_path
from cubicgaps.covers import cyclic_quotient, entry_cover, load_catalog
from cubicgaps.dynamics import plan_gap_witness, realize_plan
from cubicgaps.errors import BadInput, MaxIterExceeded
from cubicgaps.graphcore import spectrum


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(default_catalog_path())


def _quotient_for(plan, catalog, decks=8):
    row = next(r for r in catalog if r["id"] == plan.family_id)
    return cyclic_quotient(entry_cover(row), decks)


class TestPlanner:
    def test_gap_point_needs_no_iteration(self, catalog):
        plan = plan_gap_witness(-1.5, 0.05, catalog)
        assert plan.k == 0
        assert plan.route == "gap"
        assert plan.delta_used == 0.05
        a, b = plan.gap
        assert a <= -1.55 and -1.45 <= b

    def test_deep_point_pulls_back(self, catalog):
        plan = plan_gap_witness(2.9, 0.01, catalog)
        assert plan.route in ("gap", "escape")
        assert 1 <= plan.k <= 64

    def test_delta_halving_is_recorded(self, catalog):
        for xi in (-2.9, -0.5, 0.7, 2.5):
            plan = plan_gap_witness(xi, 0.05, catalog)
            ratio = plan.delta / plan.delta_used
            assert ratio in (1.0, 2.0, 4.0, 8.0)

    def test_rejects_bad_inputs(self, catalog):
        with pytest.raises(BadInput):
            plan_gap_witness(0.0, -0.1, catalog)
        with pytest.raises(BadInput):
            plan_gap_witness(3.5, 0.05, catalog)
        with pytest.raises(BadInput):
            plan_gap_witness(0.0, 0.05, [])

    def test_junk_pinned_point_exhausts_iterations(self):
        # With no gaps available, xi = -2 can never advance: every
        # pull-back step injects -2, so the interval is stuck.
        gapless = [{"id": "x", "gaps": {"intervals": [], "points": []},
                    "planar_quotients": True}]
        with pytest.raises(MaxIterExceeded):
            plan_gap_witness(-2.0, 0.05, gapless)

    @pytest.mark.parametrize("gaps,match", [
        ({"intervals": [[True, 2]], "points": []}, "'intervals'"),
        ({"intervals": [[-1.0, 1.0]], "points": [False]}, "'points'"),
        ({}, "no 'intervals' field"),
        ([[-1.0, 1.0]], "not an object"),
    ])
    def test_malformed_gaps_are_refused(self, gaps, match):
        row = {"id": "x", "gaps": gaps, "planar_quotients": True}
        with pytest.raises(BadInput, match=match):
            plan_gap_witness(0.0, 0.05, [row])

    def test_json_round_trip(self, catalog):
        plan = plan_gap_witness(-1.5, 0.05, catalog)
        doc = json.loads(json.dumps(plan.to_json()))
        assert doc["k"] == plan.k
        assert doc["family_id"] == plan.family_id
        assert tuple(doc["gap"]) == plan.gap


class TestRealization:
    def test_realized_spectrum_avoids_xi(self, catalog):
        plan = plan_gap_witness(-1.5, 0.05, catalog)
        X = realize_plan(plan, _quotient_for(plan, catalog), size_cap=10_000)
        assert X.is_cubic
        dist = float(np.min(np.abs(spectrum(X) - plan.xi)))
        assert dist >= plan.delta_used - 1e-9

    def test_size_cap_enforced(self, catalog):
        plan = plan_gap_witness(-1.5, 0.05, catalog)
        big = _quotient_for(plan, catalog, decks=64)
        assert big.n * 3 ** plan.k > 100
        with pytest.raises(BadInput):
            realize_plan(plan, big, size_cap=100)

    def test_grid_slice(self, catalog):
        # Spot-check a slice of the acceptance grid: plans exist, stay
        # within the iteration budget, and realize under the vertex cap.
        for xi in (-2.9, -1.1, 0.3, 1.7, 2.7):
            plan = plan_gap_witness(xi, 0.01, catalog)
            assert plan.k <= 20
            X = realize_plan(plan, _quotient_for(plan, catalog),
                             size_cap=10_000)
            assert X.n <= 10_000
            dist = float(np.min(np.abs(spectrum(X) - xi)))
            assert dist >= plan.delta_used - 1e-9
