"""Exact linear algebra over the rationals, with quadratic-integer roots.

Results are certificates rather than approximations, and all of them
come from Python integers: a rational matrix is first scaled by the
lcm of its denominators, characteristic polynomials come from the
Faddeev-LeVerrier recursion on integer rows, ranks and kernels from a
fraction-free Gauss-Jordan elimination that keeps every row primitive,
and spectra split into rational roots plus integer quadratic factors
x^2 - s*x + p.  A quadratic value (a + b*sqrt(d))/2 is a root of a
rational polynomial exactly when its minimal polynomial divides it, so
no arithmetic in Q(sqrt(d)) is needed.  Values cross the public
boundary as Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ..errors import BadInput

__all__ = [
    "QuadExt",
    "char_poly",
    "eval_poly",
    "is_char_root",
    "rational_roots",
    "quadratic_factors",
    "split_spectrum",
    "rational_kernel",
    "rank_over_field",
]


@dataclass(frozen=True)
class QuadExt:
    """The real quadratic number (a + b*sqrt(d)) / 2 with d > 1 not a
    square (split_spectrum emits integers with d square free);
    serializes as the triple (a, b, d)."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.d <= 1:
            raise BadInput("discriminant must exceed 1")
        r = math.isqrt(self.d)
        if r * r == self.d:
            raise BadInput("discriminant must not be a perfect square")

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def min_poly(self):
        """(s, p) with x^2 - s*x + p the monic polynomial whose roots are
        this value and its conjugate: the minimal polynomial over Q when
        b != 0.  p is a Fraction, an integer exactly when the value is an
        algebraic integer."""
        return self.a, Fraction(self.a * self.a - self.b * self.b * self.d, 4)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / 2.0

    def to_json(self):
        return [self.a, self.b, self.d]


def _scaled_int_rows(A):
    """(D, rows): the lcm D of the entries' denominators and the rows
    of D*A as Python ints."""
    M = [[x if isinstance(x, int) else Fraction(x) for x in row]
         for row in A]
    D = math.lcm(*(x.denominator for row in M for x in row))
    return D, [[x.numerator * (D // x.denominator) for x in row]
               for row in M]


def _int_matmul(X, cols) -> list:
    """X @ Y over Python ints, for X given by its rows and Y by its
    columns."""
    return [[sum(map(mul, row, col)) for col in cols] for row in X]


def char_poly(A) -> list:
    """Monic characteristic polynomial det(xI - A), coefficients (as
    Fractions) from the constant term up.

    The Faddeev-LeVerrier recursion runs on the integer matrix D*A, D
    the lcm of the entries' denominators; its coefficients are integers,
    so each step c_k = -tr(N_k)/k is an exact integer division, and the
    coefficient of x^(n-k) is c_k / D^k.
    """
    D, M = _scaled_int_rows(A)
    n = len(M)
    if any(len(row) != n for row in M):
        raise BadInput("matrix must be square")
    cols = [list(col) for col in zip(*M)]
    # N is a polynomial in M, so N @ M == M @ N
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    c = [1]
    for k in range(1, n + 1):
        N = _int_matmul(N, cols)
        ck = -sum(N[i][i] for i in range(n)) // k
        c.append(ck)
        for i in range(n):
            N[i][i] += ck
    # c[k] is the coefficient of x^{n-k}
    return [Fraction(c[k], D ** k) for k in range(n, -1, -1)]


def eval_poly(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _integral(coeffs) -> list:
    """The coefficients as ints when all are integers, else as
    Fractions."""
    work = [Fraction(c) for c in coeffs]
    if all(c.denominator == 1 for c in work):
        return [c.numerator for c in work]
    return work


def _deflate(coeffs, root) -> list:
    """Divide by (x - root) by synthetic division; root must be exact."""
    n = len(coeffs) - 1
    out = [0] * n
    out[n - 1] = coeffs[n]
    for k in range(n - 1, 0, -1):
        out[k - 1] = coeffs[k] + root * out[k]
    return out


def _divisors(m: int) -> list:
    """Positive divisors of m > 0 in ascending order."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def rational_roots(coeffs) -> list:
    """All rational roots with multiplicity, plus the deflated cofactor.
    Returns (roots, remainder_coeffs)."""
    work = _integral(coeffs)
    if work[-1] != 1:
        raise BadInput("polynomial must be monic")
    roots = []
    while len(work) > 1:
        const = work[0]
        if const == 0:
            roots.append(Fraction(0))
            work = work[1:]
            continue
        if const.denominator != 1:
            # monic with integer matrix input keeps integer coefficients
            break
        hit = next((cand for d in _divisors(abs(const.numerator))
                    for cand in (d, -d) if eval_poly(work, cand) == 0), None)
        if hit is None:
            break
        roots.append(Fraction(hit))
        work = _deflate(work, hit)
    return roots, [Fraction(c) for c in work]


def quadratic_factors(coeffs) -> list:
    """Factor a monic integer polynomial with all roots in [-3, 3] into
    x^2 - s*x + p pieces.  Returns (factors, leftover) where each factor
    is the integer pair (s, p); leftover is what resisted (degree 0 when
    fully factored).  On an integer polynomial with a nonzero constant
    term only the p dividing that term are tried, since an exact
    division by a monic integer quadratic leaves an integer quotient."""
    work = _integral(coeffs)
    factors = []
    progressed = True
    while len(work) > 3 and progressed:
        progressed = False
        ps = range(-9, 10)
        if isinstance(work[0], int) and work[0]:
            ps = [p for p in ps if p and work[0] % p == 0]
        for s in range(-6, 7):
            for p in ps:
                # synthetic division by x^2 - s x + p
                q, r1, r0 = _divide_quadratic(work, s, p)
                if r1 == 0 and r0 == 0:
                    factors.append((s, p))
                    work = q
                    progressed = True
                    break
            if progressed:
                break
    if len(work) == 3:
        s = -work[1]
        p = work[0]
        if s.denominator == 1 and p.denominator == 1:
            factors.append((int(s), int(p)))
            work = [1]
    return factors, [Fraction(c) for c in work]


def _divide_quadratic(coeffs, s: int, p: int):
    """coeffs = q * (x^2 - s x + p) + r1 x + r0 (exact)."""
    n = len(coeffs) - 1
    if n < 2:
        return [], coeffs[1] if n >= 1 else 0, coeffs[0]
    q = [0] * (n - 1)
    rem = list(coeffs)
    for k in range(n - 2, -1, -1):
        q[k] = rem[k + 2]
        rem[k + 1] += s * q[k]
        rem[k] -= p * q[k]
    return q, rem[1], rem[0]


def split_spectrum(A):
    """Exact spectrum of an integer symmetric matrix as rational values
    and QuadExt values with multiplicities.  Returns a list of
    (value, multiplicity) with value a Fraction or QuadExt, sorted by
    float value; raises BadInput if any factor needs degree > 2."""
    coeffs = char_poly(A)
    roots, rest = rational_roots(coeffs)
    factors, leftover = quadratic_factors(rest)
    if len(leftover) > 1:
        raise BadInput("spectrum needs algebraic numbers of degree > 2")
    values = []
    for r in roots:
        values.append(r)
    for s, p in factors:
        disc = s * s - 4 * p
        if disc <= 0:
            raise BadInput("non-real quadratic factor; matrix not symmetric?")
        r = math.isqrt(disc)
        if r * r == disc:
            values.append(Fraction(s + r, 2))
            values.append(Fraction(s - r, 2))
        else:
            d = _squarefree(disc)
            scale = math.isqrt(disc // d)
            values.append(QuadExt(s, scale, d))
            values.append(QuadExt(s, -scale, d))
    counted = {}
    for v in values:
        counted[v] = counted.get(v, 0) + 1
    return sorted(counted.items(), key=lambda kv: float(kv[0]))


def _is_poly_root(coeffs, value) -> bool:
    """Whether value (Fraction-like or QuadExt) is a root of the rational
    polynomial with the given coefficients (constant term first).

    A QuadExt with b != 0 is irrational, since d is not a square, so it
    is a root exactly when its minimal polynomial divides the
    polynomial, which one exact division decides.  A QuadExt with b == 0
    is the rational a/2."""
    if isinstance(value, QuadExt):
        if value.b:
            _, r1, r0 = _divide_quadratic(coeffs, *value.min_poly())
            return r1 == 0 and r0 == 0
        value = Fraction(value.a, 2)
    return eval_poly(coeffs, Fraction(value)) == 0


def is_char_root(A, value) -> bool:
    """Whether value (Fraction-like or QuadExt) is an exact eigenvalue
    of the integer matrix A, by evaluating det(xI - A) at it."""
    return _is_poly_root(char_poly(A), value)


def _squarefree(m: int) -> int:
    out = 1
    k = 2
    while k * k <= m:
        e = 0
        while m % k == 0:
            m //= k
            e += 1
        if e % 2:
            out *= k
        k += 1
    return out * m


def _int_echelon(rows):
    """Fraction-free Gauss-Jordan elimination, in place, on integer rows.

    Each pivot row is divided by its content and made positive at its
    pivot, and every other row is cleared in that column by a
    cross-multiplication and then divided by its content, so the
    entries stay small.  The first `rank` rows end up as the reduced
    echelon form with each row scaled to a primitive integer row.
    Returns (rank, pivot_columns).
    """
    if not rows:
        return 0, []
    m, n = len(rows), len(rows[0])
    rank = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        g = math.gcd(*prow)
        if prow[col] < 0:
            g = -g
        prow = rows[rank] = [x // g for x in prow]
        pv = prow[col]
        for r in range(m):
            f = rows[r][col]
            if r != rank and f:
                row = [pv * x - f * y for x, y in zip(rows[r], prow)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return rank, pivots


def rank_over_field(A) -> int:
    """Rank of a rational matrix, by fraction-free elimination on the
    integer rows of D*A."""
    _, rows = _scaled_int_rows(A)
    return _int_echelon(rows)[0]


def _primitive(ints) -> tuple:
    """Divide an integer vector by its content and make its lead
    positive."""
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def rational_kernel(A) -> list:
    """Kernel basis of a rational matrix as primitive integer vectors."""
    _, rows = _scaled_int_rows(A)
    if not rows:
        return []
    n = len(rows[0])
    rank, pivots = _int_echelon(rows)
    # row r reads pv_r * x[pivots[r]] + sum over free columns = 0, so
    # scaling the free unit vector by the lcm L of the pivots keeps the
    # pivot entries integral
    L = math.lcm(*(rows[r][pc] for r, pc in enumerate(pivots)))
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = L
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] * (L // rows[r][pc])
        basis.append(_primitive(v))
    return basis
