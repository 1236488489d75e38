"""One benchmark process: set up one workload, run its body once, report.

Started by run.py, never by hand.  ``--t-spawn`` is the CLOCK_MONOTONIC
reading (system-wide on Linux) taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start, the
library import and input generation, up to the first timed call.

The body runs once, in this fresh process, so its time is that of a
cold run: nothing a library cache kept from an earlier repetition can
make it faster.  An untraced body runs under the host-speed sampler
(probe.py): ``wall_s`` is the body's own time, without the samples, and
``probe_s`` the probe's time over the same span.  With ``--trace 1`` the
body runs under the tracer (see tracing.py) instead, and the process
also reports the per-layer summary and writes its spans.  With ``--setup-only`` the process stops after set-up.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    src = ROOT / "src"
    if not (src / "cubicgaps" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src / 'cubicgaps'}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (imports cubicgaps and cubicgaps.cli)
    return workloads


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(summary: dict, tally) -> dict:
    counts = tally.counts
    out = dict(summary)
    out["graphcore.is_planar.planar_ratio"] = _ratio(
        out.pop("graphcore.is_planar.planar", 0),
        out["graphcore.is_planar.calls"])
    out["covers.search.keep_ratio"] = _ratio(
        out.get("covers.search.entries", 0), out["covers.gap_report.calls"])
    attempts = counts["certify.attempts"]
    out["certifier.certified_ratio"] = _ratio(counts["certify.certified"],
                                              attempts)
    for name in ("BadInput", "NumericalFailure", "RefusedCertificate"):
        out[f"certifier.refused.{name}"] = counts[f"certify.refused.{name}"]
    out["certifier.fekete.exact_path_ratio"] = _ratio(
        counts["fekete.exact_path"], counts["fekete.calls"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    workloads = _import_library()
    setup, run = workloads.WORKLOADS[args.workload]
    inputs, inputs_summary = setup(args.seed,
                                   workloads.SIZES[args.workload][args.size])
    setup_s = time.monotonic() - args.t_spawn
    doc = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    if args.trace:
        import tracing
        watcher = tracing.Tracer()
    else:
        import probe
        watcher = probe.Sampler()
    tally = workloads.Tally()
    with watcher:
        start = time.perf_counter()
        run(inputs, tally)
        wall = time.perf_counter() - start
    if args.trace:
        doc["per_layer"] = _per_layer(watcher.summary(wall), tally)
        if args.spans:
            watcher.write(args.spans)
    else:
        wall -= watcher.spent_s
        doc["probe_s"] = watcher.probe_s()
    doc.update({
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "counts": dict(tally.counts),
        "digest": tally.digest,
        "inputs": inputs_summary,
        "versions": _versions(),
    })
    print(json.dumps(doc))
    return 0


def _versions() -> dict:
    import networkx
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "networkx": networkx.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


if __name__ == "__main__":
    sys.exit(main())
