import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cubicgaps.certifier import (GapCertificate, certify_touchpoint,
                                 cover_id, exact_eigenpairs,
                                 locate_touch_angle, verify_band_extremum,
                                 verify_certificate,
                                 verify_transpose_symmetry)
from cubicgaps.certifier import touchpoint
from cubicgaps.certifier.exact import QuadExt
from cubicgaps.covers.periodic import PeriodicGraph, bands, flat_values
from cubicgaps.covers.reference import doubled_cycle_cover, prism_band_cover
from cubicgaps.errors import BadInput, RefusedCertificate
from cubicgaps.graphcore import enumerate_cubic_multigraphs

SQRT17 = math.sqrt(17.0)


@pytest.fixture(scope="module")
def wb_cert():
    P = doubled_cycle_cover()
    theta = locate_touch_angle(P)
    return P, theta, certify_touchpoint(P, theta, exact_eigenpairs(P, theta))


@pytest.fixture(scope="module")
def wa_cert():
    P = prism_band_cover()
    theta = locate_touch_angle(P)
    return P, theta, certify_touchpoint(P, theta, exact_eigenpairs(P, theta))


class TestTouchAngle:
    def test_doubled_cycle_touches_at_pi(self):
        assert locate_touch_angle(doubled_cycle_cover()) == pytest.approx(
            math.pi)

    def test_prism_cover_touches_at_zero(self):
        assert locate_touch_angle(prism_band_cover()) == pytest.approx(0.0)


class TestDoubledCycleCertificate:
    def test_eigenpairs(self, wb_cert):
        _, _, cert = wb_cert
        assert cert.touch_angle == "pi"
        assert cert.eigenpairs == (
            (Fraction(-1), (0, 1, -1, 0)),
            (Fraction(-1), (1, 0, 0, -1)),
            (Fraction(1), (0, 1, 1, 0)),
            (Fraction(1), (1, 0, 0, 1)),
        )

    def test_gap(self, wb_cert):
        _, _, cert = wb_cert
        assert cert.gap == (Fraction(-1), Fraction(1))
        assert cert.gaps == ((Fraction(-1), Fraction(1)),)

    def test_extremum_signs(self, wb_cert):
        # Two dispersive bands curve away from the touch values; the two
        # flat bands are exempt from the curvature requirement.
        _, _, cert = wb_cert
        assert cert.extremum == ((0, "dispersive", -1), (1, "flat", 0),
                                 (2, "flat", 0), (3, "dispersive", 1))

    def test_symmetry_block(self, wb_cert):
        _, _, cert = wb_cert
        assert cert.symmetry["ok"] is True
        assert cert.symmetry["deltas"] == [0.1, 0.7, 2.0]


class TestPrismCoverCertificate:
    def test_eigenpairs(self, wa_cert):
        _, _, cert = wa_cert
        assert cert.touch_angle == "0"
        lams = [lam for lam, _ in cert.eigenpairs]
        assert lams == [Fraction(-2), Fraction(-2), Fraction(0), Fraction(0),
                        Fraction(1), Fraction(3)]
        assert cert.eigenpairs[5] == (Fraction(3), (1, 1, 1, 1, 1, 1))
        for _, vec in cert.eigenpairs:
            assert all(isinstance(x, int) for x in vec)

    def test_three_gaps_with_quadratic_endpoints(self, wa_cert):
        _, _, cert = wa_cert
        assert cert.gap == (Fraction(-2), Fraction(0))
        assert len(cert.gaps) == 3
        lo0, hi0 = cert.gaps[0]
        assert lo0 == Fraction(-3)
        assert hi0 == QuadExt(-1, -1, 17)
        assert float(hi0) == pytest.approx(-(1.0 + SQRT17) / 2.0)
        lo2, hi2 = cert.gaps[2]
        assert lo2 == QuadExt(-1, 1, 17)
        assert hi2 == Fraction(2)

    def test_extremum_covers_six_bands(self, wa_cert):
        _, _, cert = wa_cert
        assert cert.extremum == ((0, "dispersive", -1), (1, "flat", 0),
                                 (2, "flat", 0), (3, "dispersive", 1),
                                 (4, "flat", 0), (5, "dispersive", -1))


class TestExtremumCheck:
    def test_rows_pass_at_touch_angle(self):
        P = doubled_cycle_cover()
        rows = verify_band_extremum(P, math.pi)
        assert [r["ok"] for r in rows] == [True] * 4
        for r in rows:
            if r["kind"] == "dispersive":
                assert abs(r["first"]) < 1e-6
                assert abs(r["second"]) > 1e-3

    def test_offset_angle_fails_dispersive_bands(self):
        # 0.3 away from the touch angle the dispersive branches have
        # nonzero slope, so only the flat bands still pass.
        P = doubled_cycle_cover()
        rows = verify_band_extremum(P, math.pi + 0.3)
        assert [r["ok"] for r in rows] == [False, True, True, False]


class TestTransposeSymmetry:
    def test_reference_covers(self):
        assert verify_transpose_symmetry(doubled_cycle_cover(), math.pi)
        assert verify_transpose_symmetry(prism_band_cover(), 0.0)


class TestSerialization:
    def test_round_trip_reverifies(self, wa_cert):
        P, _, cert = wa_cert
        doc = json.loads(json.dumps(cert.to_json()))
        back = verify_certificate(doc)
        assert isinstance(back, GapCertificate)
        assert back.cover_id == cert.cover_id == cover_id(P)
        assert back.gap == cert.gap
        assert back.gaps == cert.gaps
        assert back.eigenpairs == cert.eigenpairs

    def test_touch_polynomials_computed_once(self, wa_cert, monkeypatch):
        # six gap endpoints are tested against one characteristic
        # polynomial per touch angle
        _, _, cert = wa_cert
        calls = []
        real = touchpoint.char_poly
        monkeypatch.setattr(touchpoint, "char_poly",
                            lambda A: calls.append(A) or real(A))
        verify_certificate(json.loads(json.dumps(cert.to_json())))
        assert len(calls) == 2

    def test_rejects_non_certificate(self):
        with pytest.raises(BadInput):
            verify_certificate({"format": "something-else"})

    @pytest.mark.parametrize("field", ["cover", "cover_id", "touch_angle",
                                       "eigenpairs", "gaps", "gap",
                                       "symmetry", "extremum"])
    def test_missing_field_is_bad_input(self, wa_cert, field):
        doc = json.loads(json.dumps(wa_cert[2].to_json()))
        del doc[field]
        with pytest.raises(BadInput, match=f"no '{field}' field"):
            verify_certificate(doc)

    @pytest.mark.parametrize("field, value", [
        ("cover", "K4"),
        ("cover", {"base": {"n": 2}}),
        ("cover_id", 17),
        ("touch_angle", "pi/2"),
        ("eigenpairs", 3),
        ("eigenpairs", [["1"]]),
        ("eigenpairs", [["1", [0, "x", 1]]]),
        ("eigenpairs", [["1", [0, 0.5, 1]]]),
        ("gaps", [["-3"]]),
        ("gaps", [["-3", "1/0"]]),
        ("gaps", [["-3", [1, 2]]]),
        ("gap", "0"),
        ("gap", ["-3", None]),
        ("symmetry", 5),
        ("extremum", 5),
    ])
    def test_malformed_field_is_bad_input(self, wa_cert, field, value):
        doc = json.loads(json.dumps(wa_cert[2].to_json()))
        doc[field] = value
        with pytest.raises(BadInput, match=f"malformed certificate field "
                           f"'{field}'"):
            verify_certificate(doc)

    def test_tampered_gap_endpoint_refused(self, wa_cert):
        _, _, cert = wa_cert
        doc = json.loads(json.dumps(cert.to_json()))
        doc["gaps"][1][0] = "-21/10"
        with pytest.raises(RefusedCertificate,
                           match="not an exact touch-angle"):
            verify_certificate(doc)

    # gaps[0] is (-3, (-1 - sqrt(17))/2), stored as [-1, -1, 17]
    @pytest.mark.parametrize("edit", [
        (2, 13),   # d: (-1 - sqrt(13))/2
        (0, 1),    # a: (1 - sqrt(17))/2
        (1, 0),    # b = 0: the rational -1/2
    ], ids=["d", "a", "b=0"])
    def test_tampered_quadratic_endpoint_refused(self, wa_cert, edit):
        _, _, cert = wa_cert
        doc = json.loads(json.dumps(cert.to_json()))
        assert doc["gaps"][0][1] == [-1, -1, 17]
        field, value = edit
        doc["gaps"][0][1][field] = value
        with pytest.raises(RefusedCertificate,
                           match="not an exact touch-angle eigenvalue"):
            verify_certificate(doc)

    def test_gap_outside_gaps_refused(self, wb_cert):
        # -3 and 3 each pass the endpoint check on their own
        _, _, cert = wb_cert
        doc = json.loads(json.dumps(cert.to_json()))
        assert doc["gap"] == ["-1", "1"]
        doc["gap"] = ["-3", "3"]
        with pytest.raises(RefusedCertificate, match="not one of"):
            verify_certificate(doc)

    def test_tampered_cover_id_refused(self, wa_cert):
        _, _, cert = wa_cert
        doc = json.loads(json.dumps(cert.to_json()))
        doc["cover_id"] = "0" * 16
        with pytest.raises(RefusedCertificate, match="cover id"):
            verify_certificate(doc)

    def test_tampered_eigenvector_refused(self, wa_cert):
        _, _, cert = wa_cert
        doc = json.loads(json.dumps(cert.to_json()))
        doc["eigenpairs"][0][1][0] += 1
        with pytest.raises(RefusedCertificate):
            verify_certificate(doc)


class TestRefusals:
    def test_wrong_eigenvalue_refused_with_index(self, wa_cert):
        P, theta, _ = wa_cert
        claimed = exact_eigenpairs(P, theta)
        wrong = [(Fraction(2), claimed[0][1])] + list(claimed[1:])
        with pytest.raises(RefusedCertificate) as exc:
            certify_touchpoint(P, theta, wrong)
        assert exc.value.failing_index == 0

    def test_half_integer_eigenvalue_refused_at_its_index(self, wa_cert):
        # a rational eigenvalue of an integer matrix is an integer
        P, theta, cert = wa_cert
        claimed = list(exact_eigenpairs(P, theta))
        claimed[2] = (Fraction(1, 2), claimed[2][1])
        with pytest.raises(RefusedCertificate, match="not an integer") as exc:
            certify_touchpoint(P, theta, claimed)
        assert exc.value.failing_index == 2
        doc = json.loads(json.dumps(cert.to_json()))
        doc["eigenpairs"][2][0] = "1/2"
        with pytest.raises(RefusedCertificate, match="not an integer") as exc:
            verify_certificate(doc)
        assert exc.value.failing_index == 2

    def test_dependent_vectors_refused(self, wa_cert):
        P, theta, _ = wa_cert
        claimed = list(exact_eigenpairs(P, theta))
        claimed[1] = (claimed[0][0], claimed[0][1])
        with pytest.raises(RefusedCertificate, match="dependent"):
            certify_touchpoint(P, theta, claimed)

    def test_irrational_touch_spectrum_refused(self):
        # at pi the prism cover has the eigenvalues (-1 +- sqrt(17))/2
        with pytest.raises(BadInput, match="not integral"):
            exact_eigenpairs(prism_band_cover(), math.pi)

    def test_completeness_ranks_only_the_claimed_vectors(self, wa_cert,
                                                          monkeypatch):
        # n independent eigenvectors prove the claim complete, so no
        # n x n rank of lambda I - A is taken
        P, theta, _ = wa_cert
        claimed = exact_eigenpairs(P, theta)
        rows = []
        real = touchpoint.rank_over_field
        monkeypatch.setattr(touchpoint, "rank_over_field",
                            lambda M: rows.append(len(M)) or real(M))
        certify_touchpoint(P, theta, claimed)
        mults = sorted(Counter(lam for lam, _ in claimed).values())
        assert sorted(rows) == mults and max(mults) < P.base.n

    def test_incomplete_claim_refused(self, wa_cert):
        P, theta, _ = wa_cert
        claimed = exact_eigenpairs(P, theta)
        with pytest.raises(RefusedCertificate):
            certify_touchpoint(P, theta, claimed[:-1])


CELLS = [G for n in (2, 4, 6) for G in enumerate_cubic_multigraphs(n)]


@st.composite
def small_covers(draw):
    """A connected rank-1 cover of a cubic cell on at most 6 vertices
    with offsets in -1..1."""
    base = draw(st.sampled_from(CELLS))
    offsets = [(draw(st.integers(-1, 1)),) for _ in base.edges]
    try:
        return PeriodicGraph(base, 1, offsets)
    except BadInput:  # a disconnected cover
        reject()


@settings(max_examples=200, deadline=None)
@given(small_covers())
def test_complete_touch_spectrum_contains_every_flat_band(P):
    # certify_touchpoint runs no flat-band check of its own: the grid
    # holds both touch angles, so each flat value is an eigenvalue there
    flats = [fv for fv, _ in flat_values(bands(P, 128).values)]
    for theta in (0.0, math.pi):
        try:
            pairs = exact_eigenpairs(P, theta)
        except BadInput:  # not an integral spectrum at this angle
            continue
        lams = {float(lam) for lam, _ in pairs}
        for fv in flats:
            assert min(abs(fv - lam) for lam in lams) <= 1e-9
