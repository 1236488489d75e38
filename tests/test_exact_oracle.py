"""The integer exact layer against the Fraction oracle in fraction_oracle.py.

Each property draws random inputs and requires the library to return
exactly what the Fraction implementations return: the same values, the
same types and the same errors.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from cubicgaps.certifier import (char_poly, fekete_finiteness,
                                 rank_over_field, rational_kernel,
                                 split_spectrum)
from cubicgaps.certifier.exact import (QuadExt, _is_poly_root,
                                       quadratic_factors, rational_roots)
from cubicgaps.certifier.touchpoint import _integer_touch_matrix
from cubicgaps.covers import PeriodicGraph
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import Multigraph

RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


def _types(values):
    return [type(v) for v in values]


@st.composite
def int_symmetric(draw, max_n=12, bound=3):
    """An integer symmetric matrix of order up to max_n with entries of
    an adjacency-like size; the diagonal takes any value in
    [-bound - 1, bound + 1], so even values such as the 2 of a loop
    occur."""
    n = draw(st.integers(0, max_n))
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = draw(st.integers(-bound - 1, bound + 1))
        for j in range(i + 1, n):
            A[i][j] = A[j][i] = draw(st.integers(-bound, bound))
    return A


@st.composite
def rational_square(draw):
    n = draw(st.integers(0, 6))
    return [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]


@st.composite
def rank_deficient(draw):
    """An m x n rational matrix B @ C of rank at most r < min(m, n), with
    one row of B sometimes zero so that whole rows vanish."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    r = draw(st.integers(0, min(m, n) - 1))
    B = [[draw(RATIONALS) for _ in range(r)] for _ in range(m)]
    C = [[draw(RATIONALS) for _ in range(n)] for _ in range(r)]
    if r and draw(st.booleans()):
        B[draw(st.integers(0, m - 1))] = [Fraction(0)] * r
    return [[sum((B[i][t] * C[t][j] for t in range(r)), Fraction(0))
             for j in range(n)] for i in range(m)]


@st.composite
def random_cubic_multigraphs(draw, sizes=(1, 2, 3, 4)):
    """A random pairing of 3n half-edges; loops and multi-edges allowed."""
    n = draw(st.sampled_from(sizes)) * 2
    halves = draw(st.permutations(range(3 * n)))
    edges = [(halves[i] // 3, halves[i + 1] // 3) for i in range(0, 3 * n, 2)]
    return Multigraph(n, edges)


@st.composite
def touch_matrices(draw):
    """The integer matrix at angle 0 or pi of a random connected rank-1
    cover with offsets in [-2, 2]."""
    base = draw(random_cubic_multigraphs(sizes=(1, 2, 3, 4, 5, 6)))
    offsets = [(draw(st.integers(-2, 2)),) for _ in base.edges]
    try:
        P = PeriodicGraph(base, 1, offsets)
    except BadInput:  # a disconnected cover
        reject()
    return _integer_touch_matrix(P, draw(st.sampled_from((0.0, np.pi))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(int_symmetric(), rational_square()))
def test_char_poly_matches_fraction_recursion(A):
    got = char_poly(A)
    assert got == oracle.char_poly(A)
    assert _types(got) == [Fraction] * len(got)


# the oracle scans every integer up to the constant term for divisors,
# so the matrices here stay small
@settings(max_examples=80, deadline=None)
@given(int_symmetric(max_n=8, bound=1))
def test_roots_and_quadratic_factors_match(A):
    cp = char_poly(A)
    roots, rest = rational_roots(cp)
    assert (roots, rest) == oracle.rational_roots(cp)
    assert _types(roots + rest) == [Fraction] * len(roots + rest)
    factors, leftover = quadratic_factors(rest)
    assert (factors, leftover) == oracle.quadratic_factors(rest)
    assert _types(leftover) == [Fraction] * len(leftover)


@settings(max_examples=100, deadline=None)
@given(rank_deficient())
def test_rank_and_kernel_match_fraction_elimination(A):
    assert rank_over_field(A) == oracle.rank_over_field(A)
    basis = rational_kernel(A)
    assert basis == oracle.rational_kernel(A)
    assert all(type(x) is int for vec in basis for x in vec)


@settings(max_examples=100, deadline=None)
@given(touch_matrices())
def test_split_spectrum_matches_on_touch_matrices(A):
    try:
        want = oracle.split_spectrum(A)
    except BadInput as exc:
        with pytest.raises(BadInput, match=str(exc)):
            split_spectrum(A)
        return
    got = split_spectrum(A)
    assert got == want
    assert [type(v) for v, _ in got] == [type(v) for v, _ in want]


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# non-squares, squarefree or not: 8 = 4*2, 12 = 4*3, 18 = 9*2, 45 = 9*5
DISCRIMINANTS = st.sampled_from((2, 3, 5, 8, 12, 13, 17, 18, 45))
NUMBERS = st.one_of(st.integers(-6, 6), RATIONALS)


@st.composite
def quad_values(draw):
    """A QuadExt with b == 0 at times and with a and b of any parity, so
    its minimal polynomial need not be integral."""
    return QuadExt(draw(st.integers(-7, 7)),
                   draw(st.sampled_from((0, 1, -1, 2, -2, 3))),
                   draw(DISCRIMINANTS))


@st.composite
def poly_and_value(draw):
    """A product of integer and rational linear and quadratic factors,
    constant term first, and a value to test as its root.  The value's
    own minimal polynomial (or x - a/2 when b == 0), or that of its
    conjugate, is a factor at times, so both verdicts occur."""
    value = draw(st.one_of(quad_values(), NUMBERS))
    poly = [draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, 3))))]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            poly = _poly_mul(poly, [-Fraction(draw(NUMBERS)), Fraction(1)])
        else:
            s, p = draw(NUMBERS), draw(NUMBERS)
            poly = _poly_mul(poly, [Fraction(p), -Fraction(s), Fraction(1)])
    if draw(st.booleans()):
        root = value
        if isinstance(value, QuadExt) and draw(st.booleans()):
            root = value.conjugate()
        if isinstance(root, QuadExt) and root.b:
            # (a + b sqrt(d))/2 is a root of x^2 - a x + (a^2 - b^2 d)/4
            factor = [Fraction(root.a ** 2 - root.b ** 2 * root.d, 4),
                      Fraction(-root.a), Fraction(1)]
        else:
            r = Fraction(root.a, 2) if isinstance(root, QuadExt) else root
            factor = [-Fraction(r), Fraction(1)]
        poly = _poly_mul(poly, factor)
    return poly, value


@settings(max_examples=400, deadline=None)
@given(poly_and_value())
def test_root_test_matches_quadratic_field_evaluation(case):
    poly, value = case
    assert _is_poly_root(poly, value) is oracle.is_poly_root(poly, value)


TARGETS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3))),
    st.builds(lambda k: k / 4.0, st.integers(-12, 12)))


@settings(max_examples=150, deadline=None)
@given(random_cubic_multigraphs(), st.data())
def test_fekete_matches_fraction_product(G, data):
    # the graph's integer eigenvalues make Contained verdicts possible
    ev = np.linalg.eigvalsh(G.adjacency().astype(float))
    ints = sorted({int(round(v)) for v in ev if abs(v - round(v)) < 1e-9})
    F = data.draw(st.lists(st.sampled_from(ints), unique=True)) if ints else []
    F += data.draw(st.lists(TARGETS, min_size=0 if F else 1, max_size=5))
    assert fekete_finiteness(G, F) == oracle.fekete_finiteness(G, F)


def test_fekete_witness_scale_on_a_half_integer_target():
    # K4 has diameter 1, so two targets take the exact product:
    # (A + 3/2 I)(A - 1/2 I) = A^2 + A - 3/4 I has 3 - 3/4 at (0, 0)
    G = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    F = [Fraction(1, 2), Fraction(-3, 2)]
    out = fekete_finiteness(G, F)
    assert out == oracle.fekete_finiteness(G, F)
    assert out["witness"] == {"entry": (0, 0), "value": "9/4"}
