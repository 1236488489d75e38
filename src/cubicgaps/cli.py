"""Command-line front end for reproducible runs of the library.

Each subcommand loads JSON fixtures, runs one operation, and writes
artifacts (CSV tables plus JSON reports) into the output directory.
Every artifact carries the tool version and, when a cover catalog is
involved, the catalog content hash, so results stay traceable to the
exact inputs that produced them.  Artifacts never embed timestamps or
absolute paths: a fixed RunConfig reproduces them byte for byte.

Exit codes: 0 success, 2 refused certificate, 3 numerical failure,
4 bad input.  An interrupt flushes whatever catalog rows exist and
returns 130.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .certifier import (certify_touchpoint, cover_id, exact_eigenpairs,
                        locate_touch_angle, verify_certificate)
from .covers import (PeriodicGraph, bands, catalog_hash, cyclic_quotient,
                     entry_cover, gap_report, iter_search_covers, lift,
                     load_catalog, planar_coverage)
from .dynamics import (IntervalSet, a_membership, capacity_estimate,
                       plan_gap_witness, preimage_intervals, realize_plan,
                       tmap)
from .errors import BadInput, NumericalFailure, RefusedCertificate, _field
from .graphcore import (Multigraph, enumerate_cubic_multigraphs, is_planar,
                        spectrum)

_EIG_FMT = "%.12g"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's outputs."""

    command: str
    inputs: tuple = ()
    grid: int = 256
    threshold: float = 0.05
    tolerance: float = 1e-6
    out: str = "out"
    exact: bool = False

    def __post_init__(self):
        if self.threshold <= 0 or self.tolerance <= 0:
            raise BadInput("tolerances must be positive")

    def to_json(self) -> dict:
        d = asdict(self)
        # Artifacts must not depend on where they land or on absolute
        # input locations, only on what was computed.
        d.pop("out")
        d["inputs"] = [Path(p).name for p in self.inputs]
        return d


def _config(args, inputs=()) -> RunConfig:
    return RunConfig(
        command=args.command,
        inputs=tuple(str(p) for p in inputs),
        grid=getattr(args, "grid", 256),
        threshold=getattr(args, "threshold", 0.05),
        tolerance=getattr(args, "tolerance", 1e-6),
        out=args.out,
        exact=getattr(args, "exact", False),
    )


def _meta(cfg: RunConfig, catalog_sha=None) -> dict:
    return {"tool": "cubicgaps", "version": __version__,
            "catalog_sha256": catalog_sha, "config": cfg.to_json()}


def _outdir(cfg: RunConfig) -> Path:
    p = Path(cfg.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header_lines, columns, rows) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(x: float) -> str:
    return _EIG_FMT % float(x)


def _load_graph(path) -> Multigraph:
    try:
        g = Multigraph.load(path)
    except OSError as exc:
        raise BadInput(f"cannot read graph fixture: {exc}") from exc
    if not g.edges and not g.half_loops:
        raise BadInput(f"graph fixture has an empty edge list: {path}")
    return g


def _load_cover(path) -> PeriodicGraph:
    try:
        fh = open(path)
    except OSError as exc:
        raise BadInput(f"cannot read cover fixture: {exc}") from exc
    with fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadInput(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(d, dict) or "base" not in d:
        raise BadInput(f"not a periodic cover fixture: {path}")
    return PeriodicGraph.from_json(d)


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package."""
    return Path(importlib.resources.files("cubicgaps") / "fixtures" / name)


def default_catalog_path() -> Path:
    return fixture_path("planar_catalog.jsonl")


# -- subcommands ----------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, args) -> int:
    g = _load_graph(args.graph)
    if not g.is_cubic:
        print("warning: graph is not cubic; computing the spectrum anyway",
              file=sys.stderr)
    ev = spectrum(g)
    out = _outdir(cfg)
    _write_csv(out / "spectrum.csv",
               [f"cubicgaps {__version__}", f"graph: {Path(args.graph).name}"],
               ["index", "eigenvalue"],
               ([str(i), _fmt(v)] for i, v in enumerate(ev)))
    print(",".join(_fmt(v) for v in ev))
    return 0


def cmd_tmap(cfg: RunConfig, args) -> int:
    g = _load_graph(args.graph)
    g.require_cubic("triangle map input")
    final_n = g.n * 3 ** args.k
    if final_n > args.cap:
        raise BadInput(
            f"T^{args.k} would have {final_n} vertices (cap {args.cap})")
    X = g
    for _ in range(args.k):
        X = tmap(X)
    ev = spectrum(X)
    rows = []
    for v in ev:
        m = a_membership(float(v), args.k, tol=cfg.tolerance)
        rows.append({"eigenvalue": float(v), "kind": m.kind,
                     "step": m.step, "in_a": m.in_a})
    out = _outdir(cfg)
    doc = X.to_json()
    doc["meta"] = _meta(cfg)
    _write_json(out / "tmap_graph.json", doc)
    _write_csv(out / "tmap_spectrum.csv",
               [f"cubicgaps {__version__}",
                f"graph: {Path(args.graph).name} iterations: {args.k}"],
               ["index", "eigenvalue", "kind", "step"],
               ([str(i), _fmt(r["eigenvalue"]), r["kind"], str(r["step"])]
                for i, r in enumerate(rows)))
    _write_json(out / "tmap_membership.json",
                {"meta": _meta(cfg), "k": args.k, "n": X.n, "rows": rows,
                 "all_in_a": all(r["in_a"] for r in rows)})
    print(f"T^{args.k}: {X.n} vertices, "
          f"all eigenvalues in the attractor at depth {args.k}: "
          f"{all(r['in_a'] for r in rows)}")
    return 0


def cmd_bands(cfg: RunConfig, args) -> int:
    P = _load_cover(args.cover)
    B = bands(P, N=cfg.grid)
    rep = gap_report(B, threshold=cfg.threshold)
    out = _outdir(cfg)
    nb = B.nbands
    band_cols = [f"band_{j}" for j in range(nb)]
    head = [f"cubicgaps {__version__}",
            f"cover: {Path(args.cover).name} grid: {cfg.grid} rank: {B.rank}"]
    if B.rank == 1:
        th = B.thetas[0]
        _write_csv(out / "bands.csv", head, ["theta"] + band_cols,
                   ([_fmt(th[i])] + [_fmt(v) for v in B.values[i]]
                    for i in range(len(th))))
    else:
        t1, t2 = B.thetas
        n2 = len(t2)
        _write_csv(out / "bands.csv", head,
                   ["theta_1", "theta_2"] + band_cols,
                   ([_fmt(t1[i // n2]), _fmt(t2[i % n2])]
                    + [_fmt(v) for v in B.values[i]]
                    for i in range(B.values.shape[0])))
    _write_json(out / "gaps.json", {"meta": _meta(cfg), **rep.to_json()})
    ivs = rep.spectrum_estimate.intervals
    print(f"{nb} bands over {B.values.shape[0]} samples; spectrum "
          + " u ".join(f"[{_fmt(a)}, {_fmt(b)}]" for a, b in ivs))
    for a, b in rep.gaps.intervals:
        print(f"gap ({_fmt(a)}, {_fmt(b)})")
    return 0


def _default_seeds():
    return list(enumerate_cubic_multigraphs(4))


def _load_seeds(path) -> list:
    try:
        fh = open(path)
    except OSError as exc:
        raise BadInput(f"cannot read seeds file: {exc}") from exc
    with fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadInput(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise BadInput("seeds file must be a non-empty JSON list of graphs")
    return [Multigraph.from_json(d) for d in data]


def cmd_search(cfg: RunConfig, args) -> int:
    seeds = _load_seeds(args.seeds) if args.seeds else _default_seeds()
    out = _outdir(cfg)
    catalog_path = out / "catalog.jsonl"
    entries = []
    interrupted = False
    with open(catalog_path, "w") as fh:
        try:
            for e in iter_search_covers(seeds, rank=args.rank,
                                        two_link=True, N=cfg.grid):
                entries.append(e)
                fh.write(json.dumps(e.to_json(), sort_keys=True,
                                    separators=(",", ":")))
                fh.write("\n")
                fh.flush()
        except KeyboardInterrupt:
            interrupted = True
    sha = catalog_hash(catalog_path)
    planar = [e for e in entries if e.planar_quotients]
    report = {
        "meta": _meta(cfg, catalog_sha=sha),
        "partial": interrupted,
        "entries": len(entries),
        "planar_entries": len(planar),
        **planar_coverage(planar),
    }
    _write_json(out / "search_report.json", report)
    print(f"{len(entries)} catalog entries ({len(planar)} planar), "
          f"sha256 {sha[:16]}")
    print(f"[-2, 0] covered by planar gap sets: "
          f"{report['required']['covered']}")
    print(f"reach from -3: {_fmt(report['stretch']['reach_from_minus3'])}")
    if interrupted:
        print("interrupted: partial catalog flushed", file=sys.stderr)
        return 130
    return 0


def cmd_quotient(cfg: RunConfig, args) -> int:
    P = _load_cover(args.cover)
    if args.decks2 and P.rank == 1:
        raise BadInput("--n2 applies to rank-2 covers only")
    Q = lift(P, (args.decks, args.decks2 or args.decks)[:P.rank])
    ev = spectrum(Q)
    planar = bool(is_planar(Q))
    out = _outdir(cfg)
    doc = Q.to_json()
    doc["meta"] = _meta(cfg)
    _write_json(out / "quotient.json", doc)
    _write_csv(out / "quotient_spectrum.csv",
               [f"cubicgaps {__version__}",
                f"cover: {Path(args.cover).name} decks: {args.decks}"],
               ["index", "eigenvalue"],
               ([str(i), _fmt(v)] for i, v in enumerate(ev)))
    _write_json(out / "quotient_report.json",
                {"meta": _meta(cfg), "n": Q.n, "planar": planar,
                 "spectrum": [float(v) for v in ev]})
    print(f"quotient on {Q.n} vertices, planar: {planar}")
    return 0


def _parse_interval(text: str):
    try:
        parts = text.strip().lstrip("([").rstrip(")]").split(",")
        a, b = (float(p) for p in parts)
    except ValueError as exc:
        raise BadInput(f"cannot parse interval {text!r}") from exc
    if not a < b:
        raise BadInput("interval endpoints must be increasing")
    return a, b


def _certify_candidates(args):
    """Yield (cover, catalog sha) pairs in the order they are tried.

    The catalog is read, and each planar row checked for the fields a
    cover is built from, before the first candidate; a row's cover is
    built only when the loop reaches it."""
    if args.cover:
        yield _load_cover(args.cover), None
        return
    from .covers.reference import doubled_cycle_cover, prism_band_cover
    rows = sha = None
    if args.catalog:
        rows = [row for row in load_catalog(args.catalog)
                if row.get("planar_quotients")]
        sha = catalog_hash(args.catalog)
        for row in rows:
            for name in ("base", "offsets"):
                _field(row, "catalog row", name, lambda value: value)
    yield doubled_cycle_cover(), None
    yield prism_band_cover(), None
    for row in rows or ():
        yield entry_cover(row), sha


def _matches_target(gap, target) -> bool:
    return all(abs(float(x) - t) <= 1e-3 for x, t in zip(gap, target))


def cmd_certify(cfg: RunConfig, args) -> int:
    target = _parse_interval(args.target)
    chosen = sha = None
    for P, cat_sha in _certify_candidates(args):
        rep = gap_report(bands(P, N=cfg.grid), threshold=cfg.threshold)
        if any(_matches_target(g, target) for g in rep.gaps.intervals):
            chosen, sha = P, cat_sha
            break
    if chosen is None:
        raise RefusedCertificate(
            f"no available cover achieves the gap {args.target}",
            failing_index=None)
    theta = locate_touch_angle(chosen)
    claimed = exact_eigenpairs(chosen, theta)
    cert = certify_touchpoint(chosen, theta, claimed)
    gap = next((g for g in cert.gaps if _matches_target(g, target)), None)
    if gap is None:
        raise RefusedCertificate(
            f"no certified gap of cover {cert.cover_id} matches the "
            f"requested {args.target}", failing_index=None)
    cert = replace(cert, gap=gap)
    doc = cert.to_json()
    verify_certificate(json.loads(json.dumps(doc)))
    if cfg.exact:
        lo, hi = (float(x) for x in cert.gap)
        if abs(lo - target[0]) > 1e-9 or abs(hi - target[1]) > 1e-9:
            raise RefusedCertificate(
                f"certified gap ({_fmt(lo)}, {_fmt(hi)}) does not match "
                f"the requested {args.target} exactly", failing_index=None)
    out = _outdir(cfg)
    doc["meta"] = _meta(cfg, catalog_sha=sha)
    _write_json(out / "certificate.json", doc)
    lo, hi = (float(x) for x in cert.gap)
    print(f"cover {cert.cover_id} touch angle {cert.touch_angle}: "
          f"gap ({_fmt(lo)}, {_fmt(hi)}) certified, "
          f"{len(cert.eigenpairs)} exact eigenpairs")
    return 0


def _capacity_set(spec: str) -> IntervalSet:
    spec = spec.strip().lower()
    if spec == "full":
        return IntervalSet(((-3.0, 3.0),))
    if spec == "preimage":
        return preimage_intervals(1).intervals
    if spec.startswith("level:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise BadInput(f"bad level in {spec!r}") from exc
        return preimage_intervals(m).intervals
    raise BadInput(
        f"unknown capacity set {spec!r}; use full, preimage, or level:m")


def _capacity_reference(spec: str):
    spec = spec.strip().lower()
    if spec == "full":
        return 1.5
    if spec == "preimage":
        return math.sqrt(1.5)
    m = int(spec.split(":", 1)[1])
    return 1.5 ** (1.0 / 2 ** m)


def cmd_capacity(cfg: RunConfig, args) -> int:
    S = _capacity_set(args.set)
    est = capacity_estimate(S, args.points)
    ref = _capacity_reference(args.set)
    out = _outdir(cfg)
    _write_json(out / "capacity.json",
                {"meta": _meta(cfg), "set": args.set, "points": args.points,
                 "estimate": est, "reference": ref,
                 "abs_error": abs(est - ref)})
    print(f"capacity({args.set}) ~ {_fmt(est)} "
          f"(closed form {_fmt(ref)}, error {_fmt(abs(est - ref))})")
    return 0


def cmd_witness(cfg: RunConfig, args) -> int:
    catalog_file = Path(args.catalog) if args.catalog else default_catalog_path()
    rows = load_catalog(catalog_file)
    sha = catalog_hash(catalog_file)
    plan = plan_gap_witness(args.xi, args.delta, rows)
    out = _outdir(cfg)
    doc = {"meta": _meta(cfg, catalog_sha=sha), **plan.to_json()}
    _write_json(out / "witness_plan.json", doc)
    print(f"xi={_fmt(plan.xi)}: k={plan.k} via {plan.route} "
          f"(family {plan.family_id}, half-width {_fmt(plan.delta_used)})")
    if not args.realize:
        return 0
    row = next((r for r in rows if r.get("id") == plan.family_id), None)
    if row is None:
        raise BadInput(f"plan family {plan.family_id} missing from catalog")
    Q = cyclic_quotient(entry_cover(row), args.decks)
    X = realize_plan(plan, Q, size_cap=args.size_cap)
    ev = spectrum(X)
    dist = float(np.min(np.abs(ev - plan.xi)))
    if dist < plan.delta_used - 1e-9:
        raise NumericalFailure(
            f"realized witness has an eigenvalue {_fmt(dist)} from xi, "
            f"inside the certified half-width {_fmt(plan.delta_used)}")
    gdoc = X.to_json()
    gdoc["meta"] = _meta(cfg, catalog_sha=sha)
    _write_json(out / "witness_graph.json", gdoc)
    _write_json(out / "witness_check.json",
                {"meta": _meta(cfg, catalog_sha=sha), "n": X.n,
                 "min_distance_to_xi": dist,
                 "half_width": plan.delta_used})
    print(f"realized on {X.n} vertices; nearest eigenvalue at "
          f"distance {_fmt(dist)}")
    return 0


# -- argument parsing ------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicgaps",
        description="Spectra, gap certificates and witnesses "
                    "for cubic multigraphs")
    ap.add_argument("--version", action="version",
                    version=f"cubicgaps {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sorted adjacency spectrum of a "
                                        "graph fixture")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tmap", help="iterate the triangle map and classify "
                                    "the spectrum")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=1, help="iterations")
    p.add_argument("--cap", type=int, default=972,
                   help="vertex cap for the final graph")
    p.add_argument("--tolerance", type=float, default=1e-6,
                   help="classification tolerance override")
    _add_common(p)
    p.set_defaults(func=cmd_tmap)

    p = sub.add_parser("bands", help="band structure and gap report of a "
                                     "periodic cover")
    p.add_argument("cover")
    p.add_argument("--grid", type=int, default=256, help="angle grid size")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="gap detection threshold")
    _add_common(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("search", help="sweep covers of seed cells and "
                                      "catalog their gap sets")
    p.add_argument("--seeds", help="JSON list of seed graphs "
                                   "(default: all cubic cells on 4 vertices)")
    p.add_argument("--rank", type=int, default=2, choices=(1, 2))
    p.add_argument("--grid", type=int, default=256)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("quotient", help="finite cyclic or torus quotient "
                                        "of a cover")
    p.add_argument("cover")
    p.add_argument("-n", dest="decks", type=int, required=True,
                   help="decks along the first axis")
    p.add_argument("--n2", dest="decks2", type=int, default=0,
                   help="decks along the second axis (rank 2)")
    _add_common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("certify", help="exact gap certificate for a cover "
                                       "achieving a target gap")
    p.add_argument("--target", required=True,
                   help='gap interval, e.g. "(-1,1)"')
    p.add_argument("--cover", help="cover fixture (default: search the "
                                   "reference covers and --catalog)")
    p.add_argument("--catalog", help="catalog of additional candidates")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--exact", action="store_true",
                   help="refuse unless the exact certified endpoints "
                        "match the target")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("capacity", help="logarithmic capacity of a spectral "
                                        "interval system")
    p.add_argument("--set", required=True,
                   help="full, preimage, or level:m")
    p.add_argument("--points", type=int, default=64,
                   help="Chebyshev terms, split over the intervals")
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("witness", help="plan (and realize) a finite graph "
                                       "with no spectrum near xi")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--catalog", help="catalog path (default: shipped)")
    p.add_argument("--realize", action="store_true")
    p.add_argument("--decks", type=int, default=8,
                   help="quotient decks for realization")
    p.add_argument("--size-cap", type=int, default=10_000)
    _add_common(p)
    p.set_defaults(func=cmd_witness)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args, inputs=[
            v for v in (getattr(args, "graph", None),
                        getattr(args, "cover", None),
                        getattr(args, "seeds", None),
                        getattr(args, "catalog", None)) if v])
        return args.func(cfg, args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RefusedCertificate as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
