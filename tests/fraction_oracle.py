"""Independent exact-arithmetic oracle for the tests.

The Fraction implementations that `cubicgaps.certifier.exact` and
`fekete_finiteness` replaced with integer arithmetic, kept as they were:
the Faddeev-LeVerrier recursion over Fractions, the root and quadratic
factor extraction on Fraction coefficients that `split_spectrum` runs on
its output, Gauss-Jordan elimination over Fractions for rank and kernel,
the Fekete product prod(A - c*I) expanded as a full Fraction matrix, and
the evaluation of a polynomial at a QuadExt in Q(sqrt(d)) arithmetic on
Fraction pairs p + q*sqrt(d) that the exact root test replaced with a
division by the minimal polynomial.  The tests require the library to
give equal outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from cubicgaps.certifier.exact import QuadExt, _squarefree
from cubicgaps.errors import BadInput, NumericalFailure
from cubicgaps.graphcore.multigraph import _bfs as _graph_bfs


def _as_fraction_rows(A):
    return [[Fraction(x) for x in row] for row in A]


def char_poly(A) -> list:
    """Monic characteristic polynomial det(xI - A), coefficients from
    the constant term up, computed by the Faddeev-LeVerrier recursion in
    exact arithmetic."""
    M = _as_fraction_rows(A)
    n = len(M)
    if any(len(row) != n for row in M):
        raise BadInput("matrix must be square")
    B = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        B[i][i] = Fraction(1)
    c = [Fraction(1)]
    N = B
    for k in range(1, n + 1):
        # N <- A @ N
        N = [[sum(M[i][l] * N[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
        tr = sum(N[i][i] for i in range(n))
        ck = -tr / k
        c.append(ck)
        for i in range(n):
            N[i][i] += ck
    # c[k] is the coefficient of x^{n-k}
    coeffs = list(reversed(c))
    return coeffs


def eval_poly(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


class _QF:
    """Arithmetic in Q(sqrt(d)) on (p, q) Fraction pairs."""

    def __init__(self, d: int):
        self.d = d

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1],
                x[0] * y[1] + x[1] * y[0])

    @staticmethod
    def is_zero(x):
        return x[0] == 0 and x[1] == 0


def is_poly_root(coeffs, value) -> bool:
    """Whether value (Fraction-like or QuadExt) is a root of the
    polynomial with the given coefficients (constant term first), by
    Horner evaluation in Q(sqrt(d))."""
    if isinstance(value, QuadExt):
        F = _QF(value.d)
        x = (Fraction(value.a, 2), Fraction(value.b, 2))
        acc = (Fraction(coeffs[-1]), Fraction(0))
        for c in reversed(coeffs[:-1]):
            acc = F.add(F.mul(acc, x), (Fraction(c), Fraction(0)))
        return F.is_zero(acc)
    return eval_poly(coeffs, Fraction(value)) == 0


def _deflate(coeffs, root: Fraction) -> list:
    """Divide by (x - root) by synthetic division; root must be exact."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    out[n - 1] = coeffs[n]
    for k in range(n - 1, 0, -1):
        out[k - 1] = coeffs[k] + root * out[k]
    return out


def rational_roots(coeffs) -> list:
    """All rational roots with multiplicity, plus the deflated cofactor.
    Returns (roots, remainder_coeffs)."""
    work = [Fraction(c) for c in coeffs]
    if work[-1] != 1:
        raise BadInput("polynomial must be monic")
    roots = []
    while len(work) > 1:
        const = work[0]
        if const == 0:
            roots.append(Fraction(0))
            work = work[1:]
            continue
        num = abs(const.numerator)
        den = const.denominator
        if den != 1:
            # monic with integer matrix input keeps integer coefficients
            candidates = []
        else:
            divisors = [d for d in range(1, num + 1) if num % d == 0]
            candidates = []
            for d in divisors:
                candidates.extend([Fraction(d), Fraction(-d)])
        hit = None
        for cand in candidates:
            if eval_poly(work, cand) == 0:
                hit = cand
                break
        if hit is None:
            break
        roots.append(hit)
        work = _deflate(work, hit)
    return roots, work


def quadratic_factors(coeffs) -> list:
    """Factor a monic integer polynomial with all roots in [-3, 3] into
    x^2 - s*x + p pieces.  Returns (factors, leftover) where each factor
    is the integer pair (s, p); leftover is what resisted (degree 0 when
    fully factored)."""
    work = [Fraction(c) for c in coeffs]
    factors = []
    progressed = True
    while len(work) > 3 and progressed:
        progressed = False
        for s in range(-6, 7):
            for p in range(-9, 10):
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
            work = [Fraction(1)]
    return factors, work


def _divide_quadratic(coeffs, s: int, p: int):
    """coeffs = q * (x^2 - s x + p) + r1 x + r0 (exact)."""
    n = len(coeffs) - 1
    if n < 2:
        return [], coeffs[1] if n >= 1 else Fraction(0), coeffs[0]
    q = [Fraction(0)] * (n - 1)
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


def _echelon(rows):
    """Row echelon in place over Fractions.  Returns (rank,
    pivot_columns)."""
    if not rows:
        return 0, []
    m, n = len(rows), len(rows[0])
    rank = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(rank, m)
                      if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return rank, pivots


def rank_over_field(A) -> int:
    rows = _as_fraction_rows(A)
    rank, _ = _echelon(rows)
    return rank


def _primitive(vec) -> tuple:
    """Scale a rational vector to coprime integers with positive lead."""
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def rational_kernel(A) -> list:
    """Kernel basis of a rational matrix as primitive integer vectors."""
    rows = _as_fraction_rows(A)
    if not rows:
        return []
    n = len(rows[0])
    rank, pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(_primitive(v))
    return basis


def fekete_finiteness(X, F) -> dict:
    """Whether sigma(X) can be contained in the finite set F, with the
    exact product prod(A - c*I) expanded as a full Fraction matrix."""
    values = sorted({Fraction(c) for c in F})
    if not values:
        raise BadInput("F must be nonempty")
    k = len(values)
    ecc_pair = None
    for s in range(X.n):
        dist, _ = _graph_bfs(X, s)
        if max(dist) >= k:
            y = min(v for v, d in enumerate(dist) if d == k)
            ecc_pair = (s, y)
            break
    if ecc_pair is not None:
        x0, y0 = ecc_pair
        A = X.adjacency()
        power = np.eye(X.n, dtype=np.int64)
        for m in range(k):
            if power[x0, y0] != 0:
                raise NumericalFailure(
                    "path count nonzero below the claimed distance")
            power = power @ A
        count = int(power[x0, y0])
        if count <= 0:
            raise NumericalFailure("no path at the claimed distance")
        return {"verdict": "SpectrumNotContained",
                "witness": {"x0": x0, "y0": y0, "distance": k,
                            "path_count": count}}
    Aq = [[Fraction(x) for x in row] for row in X.adjacency().tolist()]
    n = X.n
    prod = [[Fraction(1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    for c in values:
        shifted = [[Aq[i][j] - (c if i == j else 0) for j in range(n)]
                   for i in range(n)]
        prod = [[sum(prod[i][l] * shifted[l][j] for l in range(n))
                 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if prod[i][j] != 0:
                return {"verdict": "SpectrumNotContained",
                        "witness": {"entry": (i, j),
                                    "value": str(prod[i][j])}}
    return {"verdict": "Contained", "witness": None}
