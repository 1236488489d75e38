import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicgaps.dynamics import IntervalSet
from cubicgaps.errors import BadInput


def test_normalization_merges_and_sorts():
    s = IntervalSet(((1.0, 2.0), (-1.0, 0.5), (0.4, 0.9)))
    assert s.intervals == ((-1.0, 0.9), (1.0, 2.0))


def test_touching_intervals_merge():
    s = IntervalSet(((0.0, 1.0), (1.0, 2.0)))
    assert s.intervals == ((0.0, 2.0),)


def test_degenerate_interval_becomes_point():
    s = IntervalSet(((0.5, 0.5), (1.0, 2.0)))
    assert s.intervals == ((1.0, 2.0),)
    assert s.points == (0.5,)


def test_points_absorbed_by_intervals():
    s = IntervalSet(((0.0, 1.0),), (0.5, 2.0, 0.0))
    assert s.points == (2.0,)


def test_reversed_interval_rejected():
    with pytest.raises(BadInput):
        IntervalSet(((2.0, 1.0),))


def test_contains():
    s = IntervalSet(((-2.0, 0.0), (1.0, 3.0)), (0.5,))
    assert s.contains(-1.0)
    assert s.contains(0.5)
    assert not s.contains(0.4)
    assert s.contains(0.4, tol=0.11)
    assert not s.contains(3.2)
    assert s.contains(3.05, tol=0.1)


def test_union_intersect():
    a = IntervalSet(((0.0, 2.0),))
    b = IntervalSet(((1.0, 3.0),), (5.0,))
    u = a.union(b)
    assert u.intervals == ((0.0, 3.0),) and u.points == (5.0,)
    i = a.intersect(b)
    assert i.intervals == ((1.0, 2.0),) and i.points == ()


def test_intersect_degenerate_overlap_is_point():
    a = IntervalSet(((0.0, 1.0),))
    b = IntervalSet(((1.0, 2.0),))
    i = a.intersect(b)
    assert i.intervals == () and i.points == (1.0,)


def test_complement_in_box():
    s = IntervalSet(((-2.0, 0.0), (1.0, 3.0)))
    c = s.complement_in(-3.0, 3.0)
    assert c.intervals == ((-3.0, -2.0), (0.0, 1.0))
    # complement ignores isolated points (closure semantics)
    s2 = IntervalSet(((-2.0, 0.0),), (1.5,))
    c2 = s2.complement_in(-3.0, 3.0)
    assert c2.intervals == ((-3.0, -2.0), (0.0, 3.0))


def test_complement_in_degenerate_box():
    s = IntervalSet(((0.0, 1.0),))
    assert s.complement_in(2.0, 2.0) == IntervalSet((), (2.0,))
    assert s.complement_in(0.5, 0.5).is_empty
    assert s.complement_in(1.0, 1.0).is_empty


def test_complement_roundtrip_partition():
    s = IntervalSet(((-1.0, 0.5), (2.0, 2.5)))
    c = s.complement_in(-3.0, 3.0)
    assert abs(s.total_length + c.total_length - 6.0) < 1e-12


def test_contains_set():
    big = IntervalSet(((-2.0, 0.0), (1.0, 3.0)))
    small = IntervalSet(((-1.9, -0.1), (1.5, 2.0)), (2.5,))
    assert big.contains_set(small)
    assert not small.contains_set(big)


def test_json_round_trip():
    s = IntervalSet(((-2.0, 0.0),), (2.5,))
    d = s.to_json()
    assert d == {"intervals": [[-2.0, 0.0]], "points": [2.5]}
    assert IntervalSet.from_json(d) == s


def test_bounds_and_empty():
    s = IntervalSet(((0.0, 1.0),), (-4.0,))
    assert s.bounds() == (-4.0, 1.0)
    e = IntervalSet()
    assert e.is_empty
    with pytest.raises(BadInput):
        e.bounds()


# endpoints on a coarse grid meet, touch and nest often; free floats
# catch the rest
coords = st.one_of(st.integers(-40, 40).map(lambda k: k / 8),
                   st.floats(-5.0, 5.0, allow_nan=False))


@st.composite
def interval_sets(draw):
    ivs = [tuple(sorted(draw(st.tuples(coords, coords))))
           for _ in range(draw(st.integers(0, 5)))]
    return IntervalSet(tuple(ivs), tuple(draw(st.lists(coords, max_size=4))))


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets(), interval_sets())
def test_union_is_commutative_associative_and_idempotent(a, b, c):
    assert a.union(b) == b.union(a)
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.union(a) == a


@settings(max_examples=200, deadline=None)
@given(interval_sets())
def test_self_intersection_is_the_identity(a):
    assert a.intersect(a) == a


@settings(max_examples=200, deadline=None)
@given(interval_sets(), coords, st.none() | coords)
def test_complement_in_partitions_the_box(s, x, y):
    # gap_report builds every stored gap from complement_in; y = None
    # draws the degenerate box [x, x]
    lo, hi = (x, x) if y is None else (min(x, y), max(x, y))
    gaps = s.complement_in(lo, hi)
    covered = any(a <= lo <= b for a, b in s.intervals)
    assert gaps.points == ((lo,) if lo == hi and not covered else ())
    for c, d in gaps.intervals:
        assert lo <= c < d <= hi
        assert all(max(a, c) >= min(b, d) for a, b in s.intervals)
    inside = [(max(a, lo), min(b, hi)) for a, b in s.intervals
              if a <= hi and b >= lo]
    reach = lo
    for c, d in sorted(gaps.intervals + tuple(inside)):
        assert c <= reach
        reach = max(reach, d)
    assert reach == hi
