import math
from fractions import Fraction

import pytest

from cubicgaps.certifier.exact import (QuadExt, char_poly, eval_poly,
                                       is_char_root, quadratic_factors,
                                       rank_over_field, rational_kernel,
                                       rational_roots, split_spectrum)
from cubicgaps.certifier.touchpoint import _integer_touch_matrix
from cubicgaps.covers.reference import prism_band_cover
from cubicgaps.errors import BadInput
from cubicgaps.graphcore import named_graph


class TestQuadExt:
    def test_value_and_pair(self):
        x = QuadExt(-1, 1, 17)
        assert float(x) == pytest.approx((-1.0 + math.sqrt(17.0)) / 2.0)
        # x^2 + x - 4, the factor of the prism cover's polynomial at pi
        assert x.min_poly() == (-1, -4)
        assert x.min_poly() == x.conjugate().min_poly()
        # 1 + sqrt(2) written over the non-squarefree d = 8
        assert QuadExt(2, 1, 8).min_poly() == (2, -1)
        # (1 + sqrt(2))/2 is not an algebraic integer
        assert QuadExt(1, 1, 2).min_poly() == (1, Fraction(-1, 4))
        assert x.conjugate() == QuadExt(-1, -1, 17)
        assert x.to_json() == [-1, 1, 17]

    def test_rejects_bad_discriminant(self):
        with pytest.raises(BadInput):
            QuadExt(1, 1, 1)
        with pytest.raises(BadInput):
            QuadExt(1, 1, 9)


class TestCharPoly:
    def test_k4(self):
        A = named_graph("k4").adjacency().tolist()
        assert char_poly(A) == [Fraction(c) for c in (-3, -8, -6, 0, 1)]

    def test_eval_at_root(self):
        A = named_graph("k4").adjacency().tolist()
        cp = char_poly(A)
        assert eval_poly(cp, Fraction(3)) == 0
        assert eval_poly(cp, Fraction(-1)) == 0
        assert eval_poly(cp, Fraction(0)) == Fraction(-3)

    def test_is_char_root(self):
        A = named_graph("k4").adjacency().tolist()
        assert is_char_root(A, 3)
        assert is_char_root(A, -1)
        assert not is_char_root(A, 2)
        assert is_char_root(A, Fraction(-1))

    def test_is_char_root_on_quadratic_values(self):
        A = _integer_touch_matrix(prism_band_cover(), math.pi)
        assert is_char_root(A, QuadExt(-1, 1, 17))
        assert is_char_root(A, QuadExt(-1, -1, 17))
        assert not is_char_root(A, QuadExt(1, 1, 17))
        assert not is_char_root(A, QuadExt(-1, 1, 13))
        # b = 0 reads as the rational a/2
        assert is_char_root(A, QuadExt(-4, 0, 17))
        assert not is_char_root(A, QuadExt(-1, 0, 17))


class TestSplitSpectrum:
    def test_k4(self):
        A = named_graph("k4").adjacency().tolist()
        assert split_spectrum(A) == [(Fraction(-1), 3), (Fraction(3), 1)]

    def test_prism(self):
        A = named_graph("prism3").adjacency().tolist()
        assert split_spectrum(A) == [(Fraction(-2), 2), (Fraction(0), 2),
                                     (Fraction(1), 1), (Fraction(3), 1)]

    def test_k33(self):
        A = named_graph("k33").adjacency().tolist()
        assert split_spectrum(A) == [(Fraction(-3), 1), (Fraction(0), 4),
                                     (Fraction(3), 1)]


class TestRootExtraction:
    def test_prism_cover_at_pi(self):
        A = _integer_touch_matrix(prism_band_cover(), math.pi)
        cp = char_poly(A)
        roots, rest = rational_roots(cp)
        assert sorted(roots) == [Fraction(-2), Fraction(0), Fraction(1),
                                 Fraction(2)]
        # Remaining factor x^2 + x - 4 carries the (-1 +- sqrt(17))/2 pair.
        assert rest == [Fraction(-4), Fraction(1), Fraction(1)]

    def test_quadratic_factors_root_sum_product(self):
        A = _integer_touch_matrix(prism_band_cover(), math.pi)
        cp = char_poly(A)
        factors, lead = quadratic_factors(cp)
        assert lead == [Fraction(1)]
        assert (-1, -4) in factors
        for s, p in factors:
            # Each pair is (root sum, root product) of a monic quadratic
            # factor; both roots must satisfy the characteristic polynomial.
            disc = s * s - 4 * p
            for sign in (1, -1):
                r = (s + sign * math.sqrt(disc)) / 2.0
                assert abs(eval_poly([float(c) for c in cp], r)) < 1e-6


class TestKernels:
    def test_rational_kernel_is_primitive_integer(self):
        A = named_graph("k4").adjacency().tolist()
        shifted = [[(-1 if i == j else 0) - A[i][j] for j in range(4)]
                   for i in range(4)]
        basis = rational_kernel(shifted)
        assert len(basis) == 3
        for vec in basis:
            assert all(isinstance(x, int) for x in vec)
            assert math.gcd(*[abs(x) for x in vec if x]) == 1
            assert all(sum(shifted[i][j] * vec[j] for j in range(4)) == 0
                       for i in range(4))

    def test_rank_over_field(self):
        A = named_graph("k4").adjacency().tolist()
        shifted = [[(-1 if i == j else 0) - A[i][j] for j in range(4)]
                   for i in range(4)]
        assert rank_over_field(shifted) == 1
        assert rank_over_field(A) == 4
