import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_oracle import fekete_capacity
from cubicgaps.dynamics import IntervalSet, capacity_estimate, preimage_intervals
from cubicgaps.errors import BadInput

BOX = IntervalSet(((-3.0, 3.0),))


@st.composite
def gapped_sets(draw):
    """Up to four intervals, each gap at least 0.05 wide."""
    n = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    x = draw(st.floats(-4.0, 4.0))
    ivs = []
    for length, gap in zip(lengths, gaps):
        ivs.append((x, x + length))
        x += length + gap
    return IntervalSet(tuple(ivs))


def test_full_box():
    est = capacity_estimate(BOX, 64)
    assert abs(est - 1.5) < 0.01


def test_unit_interval():
    # an interval of length L has capacity L/4
    est = capacity_estimate(IntervalSet(((0.0, 1.0),)), 64)
    assert abs(est - 0.25) < 0.005


def test_translation_invariance():
    a = capacity_estimate(IntervalSet(((-1.0, 1.0),)), 32)
    b = capacity_estimate(IntervalSet(((4.0, 6.0),)), 32)
    assert abs(a - b) < 1e-9


def test_first_pullback():
    est = capacity_estimate(IntervalSet(((-2.0, 0.0), (1.0, 3.0))), 64)
    assert abs(est - math.sqrt(1.5)) < 0.01


@pytest.mark.parametrize("m", range(5))
def test_level_m_targets(m):
    est = capacity_estimate(preimage_intervals(m).intervals, 64)
    assert abs(est - 1.5 ** (1 / 2 ** m)) < 0.02


def test_monotone_decrease_through_m6():
    prev = None
    for m in range(7):
        est = capacity_estimate(preimage_intervals(m).intervals, 64)
        assert est > 1.0
        if prev is not None:
            assert est < prev
        prev = est


def test_closed_forms():
    # the solve has no bias direction, so the check is two-sided
    for ivs, exact in ((((-3.0, 3.0),), 1.5), (((0.0, 1.0),), 0.25),
                       (((-3.0, -1.0), (1.0, 3.0)), math.sqrt(2.0))):
        assert abs(capacity_estimate(IntervalSet(ivs), 64) - exact) < 1e-12


@pytest.mark.parametrize("a,b", [(0.5, 1.0), (1.0, 3.0), (2.0, 2.5),
                                 (0.1, 3.0)])
def test_symmetric_pair_closed_form(a, b):
    est = capacity_estimate(IntervalSet(((-b, -a), (a, b))), 64)
    assert abs(est - math.sqrt(b * b - a * a) / 2) < 1e-12


@pytest.mark.parametrize("m", range(9))
def test_preimage_levels_at_eight_terms_per_interval(m):
    # 2^m intervals; 8 terms each (16 on the single interval of m = 0)
    est = capacity_estimate(preimage_intervals(m).intervals, max(16, 8 * 2 ** m))
    assert abs(est - 1.5 ** (1 / 2 ** m)) < 1e-10


def test_converges_in_npoints_across_a_narrow_gap():
    # a gap of 0.033 slows the Chebyshev series; more terms never hurt
    a = 0.033 / 2
    S = IntervalSet(((-3.0, -a), (a, 3.0)))
    exact = math.sqrt(9.0 - a * a) / 2
    errs = [abs(capacity_estimate(S, k) - exact) for k in (32, 64, 128, 256)]
    for e, f in zip(errs, errs[1:]):
        assert f <= e + 1e-14
    assert errs[-1] < 1e-12


def test_no_floating_point_warnings():
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for m in range(7):
            capacity_estimate(preimage_intervals(m).intervals, 256)


@settings(max_examples=30, deadline=None)
@given(gapped_sets())
def test_below_the_fekete_oracle(S):
    # the oracle's sup-norm readout is biased upward
    assert capacity_estimate(S, 256) <= fekete_capacity(S, 64) + 1e-9


@settings(max_examples=100, deadline=None)
@given(gapped_sets(), st.floats(-10.0, 10.0))
def test_translation_invariant(S, t):
    moved = IntervalSet(tuple((a + t, b + t) for a, b in S.intervals))
    assert capacity_estimate(moved, 256) == pytest.approx(
        capacity_estimate(S, 256), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(gapped_sets(), st.floats(0.1, 10.0), st.booleans())
def test_scales_with_the_set(S, c, flip):
    c = -c if flip else c
    scaled = IntervalSet(tuple((c * a, c * b) if c > 0 else (c * b, c * a)
                               for a, b in S.intervals))
    assert capacity_estimate(scaled, 256) == pytest.approx(
        abs(c) * capacity_estimate(S, 256), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(gapped_sets(), st.data())
def test_monotone_under_inclusion(S, data):
    # shrink each interval from both ends and drop some of them
    parts = []
    for a, b in S.intervals:
        u = data.draw(st.floats(0.0, 0.45))
        v = data.draw(st.floats(0.0, 0.45))
        if data.draw(st.booleans()) or not parts:
            parts.append((a + u * (b - a), b - v * (b - a)))
    inner = IntervalSet(tuple(parts))
    assert capacity_estimate(inner, 256) <= capacity_estimate(S, 256) + 1e-9


def test_deterministic():
    S = preimage_intervals(2).intervals
    assert capacity_estimate(S, 48) == capacity_estimate(S, 48)


def test_degenerate_and_errors():
    assert capacity_estimate(IntervalSet((), (1.0, 2.0)), 16) == 0.0
    with pytest.raises(BadInput):
        capacity_estimate(BOX, 15)
