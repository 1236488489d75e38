"""Exact certification of band-structure touch points.

A rank-1 periodic cover whose spectrum owns a gap shows the gap edges at
one of the two real angles 0 or pi, where the twisted adjacency matrix
has integer entries.  At that angle the full spectrum can be certified
in integer arithmetic: claimed eigenpairs are multiplied out exactly,
completeness follows from n eigenvectors independent within each
eigenvalue, and gap endpoints are pinned to exact algebraic numbers
(rationals or quadratic integers (a + b*sqrt(d))/2).

The numerical side checks (transpose symmetry around the touch angle,
vanishing first derivative and nonzero second derivative of each
dispersive band) are recorded inside the certificate but never replace
the exact checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import BadInput, NumericalFailure, RefusedCertificate, _field
from ..covers.periodic import (
    _FLAT_TOL,
    PeriodicGraph,
    bands,
    gap_report,
    offset_split,
    twisted_adjacency,
)
from .exact import (
    QuadExt,
    _is_poly_root,
    char_poly,
    rank_over_field,
    rational_kernel,
    rational_roots,
    split_spectrum,
)

__all__ = [
    "GapCertificate",
    "certify_touchpoint",
    "exact_eigenpairs",
    "locate_touch_angle",
    "verify_band_extremum",
    "verify_transpose_symmetry",
    "encode_exact",
    "decode_exact",
    "verify_certificate",
]

_ANGLE_TOL = 1e-9
_ENDPOINT_MATCH = 1e-6
_TOUCH_GRID = 512               # band grid that locates the touch angle
_GAP_GRID = 256                 # band grid that finds the gap intervals
_EXTREMUM_STEP = 1e-3           # finite-difference step of the extremum check
_SYMMETRY_DELTAS = (0.1, 0.7, 2.0)
CERT_FORMAT = "gap-certificate/1"


def encode_exact(value):
    """Serialize a Fraction (string "p" or "p/q") or QuadExt ([a,b,d])."""
    if isinstance(value, QuadExt):
        return value.to_json()
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

def decode_exact(blob):
    if isinstance(blob, str):
        return Fraction(blob)
    if isinstance(blob, (list, tuple)) and len(blob) == 3:
        return QuadExt(int(blob[0]), int(blob[1]), int(blob[2]))
    if isinstance(blob, int):
        return Fraction(blob)
    raise BadInput(f"unrecognized exact value encoding: {blob!r}")


def _integer_touch_matrix(P: PeriodicGraph, theta_t: float):
    """Integer adjacency matrix at a touch angle (0 or pi): the offset
    split summed exactly at z = s = +-1, as lists of Python ints.
    s ** abs(o) stays an int, where (-1) ** -1 is the float -1.0."""
    if abs(theta_t) <= _ANGLE_TOL:
        s = 1
    elif abs(theta_t - math.pi) <= _ANGLE_TOL:
        s = -1
    else:
        raise BadInput("touch angle must be 0 or pi")
    if P.rank != 1:
        raise BadInput("touch-point certification needs a rank-1 cover")
    M = sum(s ** abs(o) * B for (o,), B in offset_split(P).items())
    return (M + M.T).tolist()


def cover_id(P: PeriodicGraph) -> str:
    payload = json.dumps(P.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class GapCertificate:
    """Exact record of a certified touch point and gap interval."""

    cover_id: str
    cover: dict
    touch_angle: str            # "0" or "pi"
    eigenpairs: tuple           # ((lam_exact, int vector), ...)
    symmetry: dict              # {"ok", "max_err", "deltas"}
    extremum: tuple             # ((band, kind, second_derivative_sign), ...)
    gap: tuple                  # (lo_exact, hi_exact), one of gaps; the widest
                                # interior one unless the caller picks another
    gaps: tuple                 # all gap intervals with exact endpoints

    def to_json(self) -> dict:
        return {
            "format": CERT_FORMAT,
            "cover_id": self.cover_id,
            "cover": self.cover,
            "touch_angle": self.touch_angle,
            "eigenpairs": [[encode_exact(lam), list(vec)]
                           for lam, vec in self.eigenpairs],
            "symmetry": self.symmetry,
            "extremum": [list(row) for row in self.extremum],
            "gap": [encode_exact(self.gap[0]), encode_exact(self.gap[1])],
            "gaps": [[encode_exact(a), encode_exact(b)] for a, b in self.gaps],
        }


def _theta_value(tag: str) -> float:
    if tag == "0":
        return 0.0
    if tag == "pi":
        return math.pi
    raise BadInput("touch angle tag must be '0' or 'pi'")


def locate_touch_angle(P: PeriodicGraph) -> float:
    """Angle where a dispersive band comes closest to a gap-bounding
    flat band (or to a neighboring band when no such flat exists),
    snapped to {0, pi}.

    Only flats sitting at a gap endpoint participate: a flat band buried
    inside a spectral interval is crossed by dispersive bands at angles
    unrelated to the gap edges.
    """
    if P.rank != 1:
        raise BadInput("touch angles are defined for rank-1 covers")
    bs = bands(P, N=_TOUCH_GRID)
    vals = bs.values
    angles = bs.thetas[0]
    report = gap_report(bs)
    endpoints = {e for iv in report.gaps.intervals for e in iv}
    bounding = [(fv, mult) for fv, mult in report.flat_bands
                if any(abs(fv - e) <= _ENDPOINT_MATCH for e in endpoints)]
    best = (math.inf, 0.0)
    if bounding:
        for fv, mult in bounding:
            dists = np.sort(np.abs(vals - fv), axis=1)
            # drop the flat band's own copies, look at the next value
            if dists.shape[1] <= mult:
                continue
            rest = dists[:, mult]
            i = int(np.argmin(rest))
            if rest[i] < best[0]:
                best = (float(rest[i]), float(angles[i]))
    else:
        for k in range(vals.shape[1] - 1):
            dist = vals[:, k + 1] - vals[:, k]
            i = int(np.argmin(dist))
            if dist[i] < best[0]:
                best = (float(dist[i]), float(angles[i]))
    theta = best[1]
    # distance to 0 and to pi on the circle
    d0 = abs(math.remainder(theta, 2 * math.pi))
    dpi = abs(abs(math.remainder(theta, 2 * math.pi)) - math.pi)
    snapped = 0.0 if d0 <= dpi else math.pi
    step = 2 * math.pi / _TOUCH_GRID
    if min(d0, dpi) > 2 * step:
        raise NumericalFailure(
            f"closest approach at theta={theta:.6f}, not near 0 or pi")
    return snapped


def _characters(thetas) -> np.ndarray:
    """Rank-1 character stack of shape (S, 1), one e^(i theta) per
    angle."""
    return np.array([[complex(math.cos(t), math.sin(t))] for t in thetas])


def verify_transpose_symmetry(P: PeriodicGraph, theta_t: float) -> bool:
    """A(theta_t + d) must equal A(theta_t - d) transposed, entrywise to
    1e-12, for every offset d in _SYMMETRY_DELTAS; all the matrices
    come from one stacked evaluation."""
    if P.rank != 1:
        raise BadInput("transpose symmetry check needs a rank-1 cover")
    k = len(_SYMMETRY_DELTAS)
    A = twisted_adjacency(P, _characters(
        [theta_t + d for d in _SYMMETRY_DELTAS]
        + [theta_t - d for d in _SYMMETRY_DELTAS]))
    return bool(np.all(np.abs(A[:k] - A[k:].transpose(0, 2, 1)) <= 1e-12))


def verify_band_extremum(P: PeriodicGraph, theta_t: float) -> list:
    """Central-difference check that every dispersive band has a flat
    tangent and curvature at theta_t.

    Each band gets a dict {band, kind, first, second, ok}.  The first
    and second derivatives are Richardson-extrapolated from steps
    h = _EXTREMUM_STEP and h/2; if the two raw estimates disagree beyond
    discretization error the touch angle is not a smooth extremum and
    NumericalFailure is raised rather than reporting a sign.

    A band whose five stencil values agree to 1e-9 is locally constant,
    hence an exactly flat branch (sorted tracks hand the flat value to
    whichever position it occupies near theta_t, even when a dispersive
    band crosses it elsewhere); such bands are exempt.
    """
    if P.rank != 1:
        raise BadInput("band extremum check needs a rank-1 cover")
    h = _EXTREMUM_STEP
    steps = (0.0, h, -h, h / 2, -h / 2)
    stencil = np.linalg.eigvalsh(twisted_adjacency(
        P, _characters([theta_t + s for s in steps])))
    at = dict(zip(steps, stencil))
    locally_flat = (stencil.max(axis=0) - stencil.min(axis=0)) < _FLAT_TOL
    report = []
    for j in range(stencil.shape[1]):
        if locally_flat[j]:
            report.append({"band": j, "kind": "flat", "first": 0.0,
                           "second": 0.0, "ok": True})
            continue
        d1_h = (at[h][j] - at[-h][j]) / (2 * h)
        d1_h2 = (at[h / 2][j] - at[-h / 2][j]) / h
        first = (4 * d1_h2 - d1_h) / 3
        if abs(d1_h - d1_h2) > 1e-3 * max(1.0, abs(first)):
            raise NumericalFailure(
                f"first-derivative Richardson pair inconsistent on band {j}")
        d2_h = (at[h][j] - 2 * at[0.0][j] + at[-h][j]) / (h * h)
        d2_h2 = (at[h / 2][j] - 2 * at[0.0][j] + at[-h / 2][j]) / (h * h / 4)
        second = (4 * d2_h2 - d2_h) / 3
        if abs(d2_h - d2_h2) > 1e-2 * max(1.0, abs(second)):
            raise NumericalFailure(
                f"second-derivative Richardson pair inconsistent on band {j}")
        ok = abs(first) < 1e-6 and abs(second) > 1e-3
        report.append({"band": j, "kind": "dispersive",
                       "first": float(first), "second": float(second),
                       "ok": bool(ok)})
    return report


def exact_eigenpairs(P: PeriodicGraph, theta_t: float) -> list:
    """Full list of (lambda, integer vector) at the touch angle, one
    vector per spectral multiplicity, produced by exact kernel
    elimination of lambda*I - A over the rationals.  The eigenvalues are
    the rational roots of det(xI - A), which are integers; a cofactor of
    positive degree leaves an irrational eigenvalue, which no integer
    eigenvector has, so it is refused."""
    A = _integer_touch_matrix(P, theta_t)
    n = len(A)
    roots, rest = rational_roots(char_poly(A))
    if len(rest) > 1:
        raise BadInput(
            "touch-angle spectrum is not integral; integer eigenpairs "
            "do not exist")
    pairs = []
    for lam, mult in Counter(roots).items():
        lam_i = int(lam)
        shifted = [[A[i][j] - (lam_i if i == j else 0) for j in range(n)]
                   for i in range(n)]
        basis = rational_kernel(shifted)
        if len(basis) != mult:
            raise NumericalFailure(
                f"kernel dimension {len(basis)} != multiplicity {mult} "
                f"at lambda={lam_i}")
        for vec in basis:
            pairs.append((Fraction(lam_i), vec))
    pairs.sort(key=lambda p: float(p[0]))
    return pairs


def _check_claimed(A, claimed):
    """Exact eigen-equation, independence and completeness checks, all
    on Python ints.

    A rational eigenvalue of an integer matrix is an integer, so a
    claimed lambda with a denominator is refused at its own index before
    the eigen-equation is multiplied out.  Completeness needs no rank of
    lambda*I - A: n pairs are claimed, each vector satisfies
    A v = lambda v, and the vectors are independent within each lambda;
    eigenvectors of distinct eigenvalues are independent, so the n
    vectors form a basis of eigenvectors, the claimed multiset is
    exactly the spectrum and rank(lambda*I - A) = n - mult follows.
    Raises RefusedCertificate with the index of the first claimed pair
    involved in a failure.
    """
    n = len(A)
    if len(claimed) != n:
        raise RefusedCertificate(
            f"claimed {len(claimed)} pairs for an order-{n} matrix",
            failing_index=min(len(claimed), n) - 1 if claimed else 0)
    by_lambda = {}
    for idx, (lam, vec) in enumerate(claimed):
        lam = Fraction(lam)
        if len(vec) != n:
            raise RefusedCertificate(f"vector {idx} has wrong length",
                                     failing_index=idx)
        ivec = []
        for x in vec:
            if int(x) != x:
                raise RefusedCertificate(
                    f"vector {idx} has non-integer entries",
                    failing_index=idx)
            ivec.append(int(x))
        if all(x == 0 for x in ivec):
            raise RefusedCertificate(f"vector {idx} is zero",
                                     failing_index=idx)
        if lam.denominator != 1:
            raise RefusedCertificate(
                f"lambda={lam} of pair {idx} is not an integer, so it is "
                "no eigenvalue of an integer matrix", failing_index=idx)
        lam = lam.numerator
        for i in range(n):
            lhs = sum(A[i][j] * ivec[j] for j in range(n))
            if lhs != lam * ivec[i]:
                raise RefusedCertificate(
                    f"A v != lambda v at row {i} for pair {idx} "
                    f"(lambda={lam})", failing_index=idx)
        by_lambda.setdefault(lam, []).append((idx, ivec))
    for lam, group in sorted(by_lambda.items()):
        mult = len(group)
        vec_rank = rank_over_field([list(v) for _, v in group])
        if vec_rank != mult:
            raise RefusedCertificate(
                f"claimed vectors for lambda={lam} are dependent "
                f"(rank {vec_rank} < {mult})", failing_index=group[0][0])


def _exact_gap_endpoints(P: PeriodicGraph):
    """Gap intervals from the sampled band structure with every interior
    endpoint replaced by its exact value at a touch angle."""
    exact_values = []
    for theta in (0.0, math.pi):
        A = _integer_touch_matrix(P, theta)
        exact_values.extend(v for v, _ in split_spectrum(A))
    report = gap_report(bands(P, N=_GAP_GRID))
    out = []
    for lo, hi in report.gaps.intervals:
        ends = []
        for x in (lo, hi):
            if abs(x - (-3.0)) <= _ENDPOINT_MATCH:
                ends.append(Fraction(-3))
                continue
            if abs(x - 3.0) <= _ENDPOINT_MATCH:
                ends.append(Fraction(3))
                continue
            match = next((v for v in exact_values
                          if abs(float(v) - x) <= _ENDPOINT_MATCH), None)
            if match is None:
                raise NumericalFailure(
                    f"gap endpoint {x:.9f} matches no touch-angle eigenvalue")
            ends.append(match)
        out.append((ends[0], ends[1]))
    return tuple(out)


def certify_touchpoint(P: PeriodicGraph, theta_t: float,
                       claimed: list) -> GapCertificate:
    """Certify the full spectrum of A(theta_t) from claimed eigenpairs.

    Exact checks (refusal on failure), all in integer arithmetic: every
    claimed lambda is an integer, every A v = lambda v, and the n claimed
    vectors are independent per eigenvalue, so they form an eigenbasis
    and the multiset is the complete spectrum.  That also places every
    flat band among the claimed values, so no flat-band check follows:
    the band grid contains theta_t, a sampled flat value lies within
    1e-9 of an eigenvalue of A(theta_t), and completeness proves that
    eigenvalue claimed.  Numerical side-checks (transpose symmetry, band
    extrema) are recorded in the certificate; gap endpoints are matched
    to exact touch-angle eigenvalues.
    """
    A = _integer_touch_matrix(P, theta_t)
    _check_claimed(A, claimed)
    symmetry_ok = verify_transpose_symmetry(P, theta_t)
    extremum_report = verify_band_extremum(P, theta_t)
    if not all(row["ok"] for row in extremum_report):
        bad = next(r["band"] for r in extremum_report if not r["ok"])
        raise RefusedCertificate(
            f"band {bad} fails the extremum check at the touch angle",
            failing_index=None)
    gaps = _exact_gap_endpoints(P)
    interior = [g for g in gaps
                if float(g[0]) > -3.0 + 1e-9 and float(g[1]) < 3.0 - 1e-9]
    pool = interior if interior else list(gaps)
    if not pool:
        raise RefusedCertificate("cover has no spectral gap to certify",
                                 failing_index=None)
    primary = max(pool, key=lambda g: float(g[1]) - float(g[0]))
    pairs = tuple((Fraction(lam), tuple(int(x) for x in vec))
                  for lam, vec in claimed)
    return GapCertificate(
        cover_id=cover_id(P),
        cover=P.to_json(),
        touch_angle="0" if abs(theta_t) <= _ANGLE_TOL else "pi",
        eigenpairs=pairs,
        symmetry={"ok": bool(symmetry_ok), "deltas": list(_SYMMETRY_DELTAS)},
        extremum=tuple((r["band"], r["kind"],
                        int(math.copysign(1, r["second"]))
                        if r["kind"] == "dispersive" else 0)
                       for r in extremum_report),
        gap=primary,
        gaps=gaps,
    )


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _integer(value) -> int:
    # int() would truncate a stored 0.5 to a vector entry 0
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _eigenpairs(pairs) -> list:
    return [(decode_exact(lam), tuple(_integer(x) for x in vec))
            for lam, vec in pairs]


def _exact_interval(blob) -> tuple:
    lo, hi = blob
    return decode_exact(lo), decode_exact(hi)


def verify_certificate(doc: dict) -> GapCertificate:
    """Re-verify a serialized certificate in exact arithmetic.

    Rebuilds the cover, re-runs every exact check on the stored
    eigenpairs, which proves them the complete spectrum at the touch
    angle, and confirms each stored gap endpoint is +-3 or an exact
    eigenvalue at one of the touch angles: a rational endpoint by
    evaluating the touch-angle characteristic polynomial, a quadratic
    one by dividing that polynomial by the endpoint's minimal
    polynomial.  The certified gap must be one of the stored gaps.
    Floating-point state never enters the decision.  A missing or
    malformed field raises BadInput before any check runs.
    """
    if not isinstance(doc, dict) or doc.get("format") != CERT_FORMAT:
        raise BadInput("not a gap certificate document")
    P = _field(doc, "certificate", "cover", PeriodicGraph.from_json)
    doc_id = _field(doc, "certificate", "cover_id", _text)
    theta_t = _field(doc, "certificate", "touch_angle", _theta_value)
    claimed = _field(doc, "certificate", "eigenpairs", _eigenpairs)
    stored_gaps = _field(doc, "certificate", "gaps",
                         lambda blobs: [_exact_interval(b) for b in blobs])
    lo, hi = _field(doc, "certificate", "gap", _exact_interval)
    symmetry = _field(doc, "certificate", "symmetry", dict)
    extremum = _field(doc, "certificate", "extremum",
                      lambda rows: tuple(tuple(row) for row in rows))
    if cover_id(P) != doc_id:
        raise RefusedCertificate("cover id does not match cover data",
                                 failing_index=None)
    A = _integer_touch_matrix(P, theta_t)
    for lam, _ in claimed:
        if isinstance(lam, QuadExt):
            raise RefusedCertificate("eigenpair with irrational lambda",
                                     failing_index=None)
    _check_claimed(A, claimed)
    touch_polys = [char_poly(_integer_touch_matrix(P, t))
                   for t in (0.0, math.pi)]
    for a, b in stored_gaps:
        if float(a) >= float(b):
            raise RefusedCertificate("empty gap interval in certificate",
                                     failing_index=None)
        for v in (a, b):
            fv = float(v)
            if abs(fv) == 3.0 and not isinstance(v, QuadExt):
                continue
            if not any(_is_poly_root(cp, v) for cp in touch_polys):
                raise RefusedCertificate(
                    f"gap endpoint {fv:.9f} is not an exact touch-angle "
                    "eigenvalue", failing_index=None)
    if (lo, hi) not in stored_gaps:
        raise RefusedCertificate("the certified gap is not one of the "
                                 "certificate's gaps", failing_index=None)
    return GapCertificate(
        cover_id=doc_id,
        cover=doc["cover"],
        touch_angle=doc["touch_angle"],
        eigenpairs=tuple(claimed),
        symmetry=symmetry,
        extremum=extremum,
        gap=(lo, hi),
        gaps=tuple(stored_gaps),
    )
