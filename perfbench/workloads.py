"""The four benchmark workloads: inputs from a seed, a timed body, checks.

Each workload has a ``setup(seed, size)`` that builds its inputs and a
summary of them, and a ``run(inputs, tally)`` body that calls the
library's public functions and checks every output into the tally.  The
body reaches the library through module attributes (``covers.bands``,
not a name imported here), so the tracer's wrappers see the calls.

An operation fails when its output is wrong or when it raises outside
the documented contract.  A documented refusal of a certification
attempt (BadInput, NumericalFailure, RefusedCertificate) is an outcome,
counted by class, not a failure.  MaxIterExceeded and
DecompositionFailure are failures wherever they occur.

``search`` and ``enumerate`` are exhaustive: they record the seed and do
not use it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import networkx as nx
import numpy as np

import cubicgaps.cli
from cubicgaps import certifier, covers, dynamics, errors, graphcore
from cubicgaps.certifier.bounds import DecompositionFailure

# Sizes.  "full" is what the benchmark times; "smoke" is a tiny run of
# the same code for the self-tests.
SIZES = {
    "search": {"full": {"prefix": 6}, "smoke": {"prefix": 1}},
    "enumerate": {"full": {"n_max": 10, "k_max": 5, "levels": 6},
                  "smoke": {"n_max": 6, "k_max": 2, "levels": 2}},
    "certify": {"full": {"random_covers": 5, "xi_points": 50},
                "smoke": {"random_covers": 3, "xi_points": 5,
                          "catalog_rows": 6}},
    "bounds": {"full": {"geodesic_stride": 5},
               "smoke": {"geodesic_stride": 25}},
}

CLASS_COUNTS = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388}
SEARCH_GRID = 256
WITNESS_DELTA = 0.01
WITNESS_SIZE_CAP = 3000
GEODESIC_LAMBDAS = (0.0, 0.7, -0.7, 1.4, -1.4)
REFUSALS = (errors.RefusedCertificate, errors.BadInput, errors.NumericalFailure)
FAILURES = (errors.MaxIterExceeded, DecompositionFailure)


class Tally:
    """Operations attempted and failed, outcome counts, and a digest of the
    outputs so that two runs of one body can be compared."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.counts = Counter()
        self._hash = hashlib.sha256()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def record(self, *parts) -> None:
        self._hash.update(repr(parts).encode())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _catalog_lines() -> list:
    with open(cubicgaps.cli.default_catalog_path()) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _simple(G: nx.Graph) -> graphcore.Multigraph:
    return graphcore.Multigraph(
        n=G.number_of_nodes(),
        edges=tuple(sorted(tuple(sorted(e)) for e in G.edges())))


def _random_cubic(rng: random.Random, n: int) -> graphcore.Multigraph:
    while True:
        G = nx.random_regular_graph(3, n, seed=rng.randrange(2 ** 31))
        if nx.is_connected(G):
            return _simple(G)


def _n_distribution(graphs) -> dict:
    return dict(sorted(Counter(g.n for g in graphs).items()))


# -- search: the catalog write side -----------------------------------------


def setup_search(seed: int, size: dict):
    cells = (graphcore.enumerate_cubic_multigraphs(4)
             + graphcore.enumerate_cubic_multigraphs(6))
    prefix = cells[:size["prefix"]]
    lines = _catalog_lines()
    bases = [cell.to_json() for cell in prefix]
    # the search keeps the first of each duplicate band picture, so the
    # planar rows of a seed prefix are the same-length prefix of the
    # shipped catalog
    k = sum(1 for line in lines if json.loads(line)["base"] in bases)
    inputs = {"seeds": prefix, "expected": lines[:k]}
    summary = {"seed_used": False, "search_seeds": len(prefix),
               "n_distribution": _n_distribution(prefix),
               "grid": SEARCH_GRID, "expected_planar_rows": k}
    return inputs, summary


def run_search(inputs, tally: Tally) -> None:
    try:
        entries = covers.search_covers(inputs["seeds"], rank=2, two_link=True,
                                       N=SEARCH_GRID)
    except Exception as exc:  # every error here is a failure
        tally.check(False, f"search: {type(exc).__name__}: {exc}")
        return
    planar = [e for e in entries if e.planar_quotients]
    rows = [json.dumps(e.to_json(), sort_keys=True, separators=(",", ":"))
            for e in planar]
    for i, (got, want) in enumerate(itertools.zip_longest(
            rows, inputs["expected"])):
        tally.check(got == want, f"planar row {i} differs from the catalog")
    report = covers.coverage_report(planar, -2.0, 0.0, 0.01)
    tally.check(report["covered"] == (not report["missing_points"])
                and -3.0 <= report["reach_from_minus3"] <= 3.0,
                "inconsistent coverage report")
    tally.record(len(entries), rows, report["covered"],
                 report["reach_from_minus3"])


# -- enumerate: graphcore dedup, the spectral law, dynamics -------------------


def setup_enumerate(seed: int, size: dict):
    ns = tuple(range(2, size["n_max"] + 1, 2))
    inputs = {"ns": ns, "k_max": size["k_max"], "levels": size["levels"],
              "expected": {n: CLASS_COUNTS[n] for n in ns}}
    summary = {"seed_used": False, "n": list(ns),
               "expected_classes": sum(inputs["expected"].values()),
               "tmap_max_vertices": 4 * 3 ** size["k_max"],
               "capacity_levels": size["levels"], "capacity_points": 64}
    return inputs, summary


def run_enumerate(inputs, tally: Tally) -> None:
    spectrum = graphcore.spectrum
    for n in inputs["ns"]:
        try:
            classes = graphcore.enumerate_cubic_multigraphs(n)
        except Exception as exc:  # every error here is a failure
            tally.check(False, f"n={n}: {type(exc).__name__}: {exc}")
            continue
        tally.check(len(classes) == inputs["expected"][n],
                    f"n={n}: {len(classes)} classes, "
                    f"want {inputs['expected'][n]}")
        tally.record(n, [G.edges for G in classes])
        for G in classes:
            got = spectrum(dynamics.tmap(G))
            want = dynamics.tmap_spectrum_predict(spectrum(G))
            err = float(np.max(np.abs(got - want)))
            tally.check(err < 1e-9, f"spectral law off by {err:.3g} on {G.edges}")
    X = graphcore.named_graph("k4")
    for k in range(inputs["k_max"] + 1):
        ev = spectrum(X)
        inside = all(dynamics.a_membership(float(v), k, tol=1e-6).in_a
                     for v in ev)
        tally.check(X.n == 4 * 3 ** k and inside,
                    f"T^{k}(K4): {X.n} vertices, attractor {inside}")
        tally.record(k, np.round(ev, 9).tolist())
        if k < inputs["k_max"]:
            X = dynamics.tmap(X)
    box = dynamics.IntervalSet(((-3.0, 3.0),))
    prev = dynamics.capacity_estimate(box, 64)
    tally.check(abs(prev - 1.5) <= 0.02, f"capacity level 0 = {prev}")
    for m in range(1, inputs["levels"] + 1):
        est = dynamics.capacity_estimate(
            dynamics.preimage_intervals(m).intervals, 64)
        if m <= 4:
            ok = abs(est - 1.5 ** (1.0 / 2 ** m)) <= 0.02
        else:
            ok = 1.0 < est < prev
        tally.check(ok, f"capacity level {m} = {est}")
        tally.record(m, round(est, 12))
        prev = est


# -- certify: the catalog read side ------------------------------------------


def _random_cover(rng: random.Random, n: int, cells: dict):
    """A connected rank-1 cover of a random n-vertex cubic cell with
    offsets in {-1, 0, 1}."""
    base = rng.choice(cells[n]) if n in cells else _random_cubic(rng, n)
    while True:
        offsets = tuple((rng.choice((-1, 0, 1)),) for _ in base.edges)
        try:
            return covers.PeriodicGraph(base, 1, offsets)
        except errors.BadInput:
            continue


def setup_certify(seed: int, size: dict):
    rows = [json.loads(line) for line in _catalog_lines()]
    rows = [r for r in rows if r.get("planar_quotients")]
    rows = rows[:size.get("catalog_rows", len(rows))]
    cases = [(f"catalog:{r['id']}", covers.entry_cover(r)) for r in rows]
    cases += [("reference:doubled_cycle", covers.doubled_cycle_cover()),
              ("reference:prism", covers.prism_band_cover())]
    rng = _rng(seed, "certify")
    cells = {n: graphcore.enumerate_cubic_multigraphs(n) for n in (4, 6)}
    # cell sizes cycle through 4..12 so that every seed does the same
    # amount of work per size; the seed picks the cells and offsets
    sizes = (4, 6, 8, 10, 12)
    cases += [(f"random:{i}", _random_cover(rng, sizes[i % 5], cells))
              for i in range(size["random_covers"])]
    xis = [round(rng.uniform(-2.95, 2.9), 6) for _ in range(size["xi_points"])]
    inputs = {"cases": cases, "catalog": rows, "xis": xis,
              # both reference covers certify, at the angles the
              # acceptance suite pins
              "expected": {"reference:doubled_cycle": "pi",
                           "reference:prism": "0"}}
    summary = {"seed_used": True, "covers": len(cases),
               "catalog_rows": len(rows), "reference_covers": 2,
               "random_covers": size["random_covers"],
               "n_distribution": _n_distribution(P.base for _, P in cases),
               "xi_points": len(xis), "xi_range": [min(xis), max(xis)],
               "witness_delta": WITNESS_DELTA}
    return inputs, summary


def _certify_once(P):
    """One certification attempt: ("certified", certificate), ("refused",
    error class name) or ("failed", reason)."""
    try:
        theta = certifier.locate_touch_angle(P)
        pairs = certifier.exact_eigenpairs(P, theta)
        cert = certifier.certify_touchpoint(P, theta, pairs)
        back = certifier.verify_certificate(json.loads(json.dumps(cert.to_json())))
    except FAILURES as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    except REFUSALS as exc:
        return "refused", next(c.__name__ for c in REFUSALS
                               if isinstance(exc, c))
    except Exception as exc:  # outside the contract: a failure, not a crash
        return "failed", f"{type(exc).__name__}: {exc}"
    lo, hi = cert.gap
    if (back.gap != cert.gap or back.gaps != cert.gaps
            or back.eigenpairs != cert.eigenpairs
            or not -3 <= float(lo) < float(hi) <= 3):
        return "failed", "certificate changed in the JSON round trip"
    return "certified", cert


def run_certify(inputs, tally: Tally) -> None:
    for label, P in inputs["cases"]:
        tally.counts["certify.attempts"] += 1
        kind, detail = _certify_once(P)
        want = inputs["expected"].get(label)
        if kind == "certified":
            tally.counts["certify.certified"] += 1
            ok = want is None or detail.touch_angle == want
            tally.record(label, detail.touch_angle, str(detail.gap))
        elif kind == "refused":
            tally.counts[f"certify.refused.{detail}"] += 1
            ok = want is None
            tally.record(label, detail)
        else:
            ok = False
        tally.check(ok, f"{label}: {kind} {detail}")
    by_id = {r["id"]: r for r in inputs["catalog"]}
    for xi in inputs["xis"]:
        try:
            plan = dynamics.plan_gap_witness(xi, WITNESS_DELTA, inputs["catalog"])
            P = covers.entry_cover(by_id[plan.family_id])
            decks = 8
            while P.base.n * decks * 3 ** plan.k > WITNESS_SIZE_CAP and decks > 3:
                decks -= 1
            X = dynamics.realize_plan(plan, covers.cyclic_quotient(P, decks),
                                      size_cap=WITNESS_SIZE_CAP)
            dist = float(np.min(np.abs(graphcore.spectrum(X) - xi)))
        except Exception as exc:  # every error here is a failure
            tally.check(False, f"witness xi={xi}: {type(exc).__name__}: {exc}")
        else:
            tally.check(dist >= plan.delta_used - 1e-12,
                        f"witness xi={xi}: eigenvalue at distance {dist}")
            tally.record(xi, plan.k, plan.family_id, X.n)


# -- bounds: the Fekete gate and the geodesic bound ----------------------------


def _snap(v: float):
    r = round(v)
    return int(r) if abs(v - r) < 1e-9 else float(v)


def setup_bounds(seed: int, size: dict):
    rng = _rng(seed, "bounds")
    simple = [G for n in (4, 6, 8, 10)
              for G in graphcore.enumerate_cubic_multigraphs(
                  n, allow_loops=False, allow_multi=False)]
    # every simple cubic graph with n <= 10 gets one subset of each size,
    # so the exact-product share (diameter < |F|) is the same for every
    # seed; the seed picks the subsets.  Spectra and diameters here come
    # from numpy and networkx, not from the functions the body times.
    pairs = []
    for G in simple:
        ev = np.linalg.eigvalsh(G.adjacency().astype(np.float64))
        distinct = sorted({_snap(v) for v in np.round(ev, 9)})
        for k in range(1, min(4, len(distinct)) + 1):
            pairs.append((G, sorted(rng.sample(distinct, k))))
    diameters = {G.edges: nx.diameter(nx.Graph(G.edges)) for G in simple}
    exact = sum(1 for G, F in pairs if diameters[G.edges] < len(F))
    # one graph per even n, like acceptance criterion 6
    ns = range(20, 121, 2)[::size["geodesic_stride"]]
    graphs = [_random_cubic(rng, n) for n in ns]
    inputs = {"pairs": pairs, "graphs": graphs}
    summary = {"seed_used": True, "fekete_pairs": len(pairs),
               "fekete_exact_path_pairs": exact,
               "fekete_graphs": len(simple),
               "fekete_n_distribution": _n_distribution(G for G, _ in pairs),
               "fekete_F_sizes": dict(sorted(Counter(len(F) for _, F in pairs)
                                             .items())),
               "geodesic_graphs": len(graphs),
               "geodesic_n_range": [graphs[0].n, graphs[-1].n],
               "geodesic_lambdas": list(GEODESIC_LAMBDAS)}
    return inputs, summary


def run_bounds(inputs, tally: Tally) -> None:
    for G, F in inputs["pairs"]:
        try:
            out = certifier.fekete_finiteness(G, F)
        except Exception as exc:  # every error here is a failure
            tally.check(False, f"fekete n={G.n} F={F}: "
                               f"{type(exc).__name__}: {exc}")
            continue
        ev = graphcore.spectrum(G)
        direct = all(min(abs(v - float(c)) for c in F) < 1e-9 for v in ev)
        tally.check((out["verdict"] == "Contained") == direct,
                    f"fekete verdict {out['verdict']} on n={G.n} F={F}")
        witness = out["witness"]
        if witness is None or "entry" in witness:
            tally.counts["fekete.exact_path"] += 1
        tally.counts["fekete.calls"] += 1
        tally.record(G.edges, F, out["verdict"])
    for X in inputs["graphs"]:
        ev = graphcore.spectrum(X)
        L = math.log2(X.n / 3.0)
        cap = math.sqrt(1.0 + 18.0 / L)
        for lam in GEODESIC_LAMBDAS:
            try:
                out = certifier.geodesic_bound(X, lam)
            except Exception as exc:  # every error here is a failure
                tally.check(False, f"geodesic n={X.n} lambda={lam}: "
                                   f"{type(exc).__name__}: {exc}")
                continue
            dist = float(np.min(np.abs(ev - lam)))
            ok = (dist <= out["distance_bound"] + 1e-9
                  and dist <= cap + 1e-9
                  and out["rayleigh"] <= 1.0 + 18.0 / L + 1e-9
                  and all(e["within"] for e in out["accounting"]))
            tally.check(ok, f"geodesic n={X.n} lambda={lam}: distance {dist}")
            tally.record(X.n, lam, round(out["rayleigh"], 9))


WORKLOADS = {
    "search": (setup_search, run_search),
    "enumerate": (setup_enumerate, run_enumerate),
    "certify": (setup_certify, run_certify),
    "bounds": (setup_bounds, run_bounds),
}
