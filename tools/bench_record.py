"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_<n>.json
    python3 tools/bench_record.py --out smoke.json --size smoke --runs 1 \\
        --seconds 0 --no-tier1

Run from anywhere; every step runs in the checkout that holds this file.
The script drives the benchmark harness without changing it:

* ``--runs`` untraced runs of ``perfbench/run.py --workload all --seed 1``
  give, per workload, the median and the quartiles of ``wall_norm``,
  ``setup_s`` and ``peak_rss_mb`` over the runs, with each run's output
  digest and fail ratio (read from the harness's per-workload records in
  perfbench/out/);
* one ``--trace 1`` run gives the per-layer ``busy_s`` values and the
  traced body's wall time;
* each ``cubicgaps`` command of the README's shell blocks is timed
  once, with ``--out`` sent to a scratch directory;
* the Tier-1 suite (``python -m pytest -q``) is timed once, unless
  ``--no-tier1``.

A harness run that exits non-zero is recorded under ``failures`` with
its stderr, and the medians use the runs that succeeded.  The file also
names the checked-out commit (and whether the tree had uncommitted
changes), the package versions and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "out"
WORKLOADS = ("search", "enumerate", "certify", "bounds")
END_TO_END = ("wall_norm", "setup_s", "peak_rss_mb")
SCHEMA = "cubicgaps-bench/1"
SEED = 1
CLI_TIMEOUT_S = 300


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)


def _run(cmd, timeout) -> tuple:
    """(exit code, seconds, stdout, stderr) of one command in ROOT."""
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, time.monotonic() - t, proc.stdout, proc.stderr


def _harness(args, trace: int) -> dict:
    """One run of perfbench/run.py over every workload: its metrics, or
    its exit code and stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(SEED), "--seconds", str(args.seconds),
           "--size", args.size, "--trace", str(trace)]
    code, _, out, err = _run(cmd, timeout=None)
    if code != 0:
        return {"exit": code, "stderr": err.strip()[-4000:]}
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    records = {}
    for name in WORKLOADS:
        path = RESULTS / f"{name}-seed{SEED}-trace{trace}.json"
        rec = json.loads(path.read_text())
        records[name] = {"output_digest": rec["output_digest"],
                         "fail_ratio": rec["fail_ratio"]}
    return {"exit": 0, "metrics": metrics, "records": records}


def _summary(samples) -> dict:
    """Median and quartiles of a list of samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "samples": samples}


def _workloads(runs) -> dict:
    out = {}
    for name in WORKLOADS:
        out[name] = {m: _summary([r["metrics"][f"{name}.{m}"]["value"]
                                  for r in runs]) for m in END_TO_END}
        out[name]["output_digests"] = sorted(
            {r["records"][name]["output_digest"] for r in runs})
        out[name]["fail_ratios"] = [r["records"][name]["fail_ratio"]
                                    for r in runs]
    return out


def _per_layer(traced) -> dict:
    """busy_s of every traced function, and the traced body's wall time
    (``trace.wall_s``), per workload."""
    out = {name: {} for name in WORKLOADS}
    for key, metric in traced["metrics"].items():
        name, _, layer = key.partition(".")
        if layer.endswith(".busy_s"):
            out[name][layer[:-len(".busy_s")]] = metric["value"]
        elif layer == "trace.wall_s":
            out[name][layer] = metric["value"]
    return out


def _readme_commands() -> list:
    """The argument lists of the `cubicgaps` lines in the README's shell
    blocks."""
    text = (ROOT / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("cubicgaps ")]


def _cli() -> list:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(_readme_commands()):
            cmd = [sys.executable, "-m", "cubicgaps.cli", *argv,
                   "--out", str(Path(tmp) / str(i))]
            code, wall, _, err = _run(cmd, CLI_TIMEOUT_S)
            rows.append({"command": shlex.join(["cubicgaps", *argv]),
                         "exit": code, "wall_s": wall,
                         **({"stderr": err.strip()[-2000:]} if code else {})})
    return rows


def _tier1() -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    code, wall, out, _ = _run(cmd, timeout=None)
    lines = out.strip().splitlines()
    return {"exit": code, "wall_s": wall, "summary": lines[-1] if lines else ""}


def _git(*argv) -> str:
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(args) -> dict:
    attempts = [_harness(args, trace=0) for _ in range(args.runs)]
    traced = _harness(args, trace=1)
    runs = [a for a in attempts if a["exit"] == 0]
    failures = [dict(a, trace=0) for a in attempts if a["exit"] != 0]
    if traced["exit"] != 0:
        failures.append(dict(traced, trace=1))
    return {
        "schema": SCHEMA,
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": _git("status", "--porcelain") != "",
        "versions": {"python": platform.python_version(),
                     **{p: metadata.version(p) for p in ("numpy", "networkx")}},
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "platform": platform.platform()},
        "config": {"runs": args.runs, "seconds": args.seconds,
                   "seed": SEED, "size": args.size},
        "workloads": _workloads(runs) if runs else {},
        "per_layer": _per_layer(traced) if traced["exit"] == 0 else {},
        "cli": _cli(),
        "tier1": None if args.no_tier1 else _tier1(),
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--runs", type=int, default=3,
                    help="untraced harness runs (default 3)")
    ap.add_argument("--seconds", type=float, default=25,
                    help="harness --seconds per workload (default 25)")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--no-tier1", action="store_true",
                    help="do not time the Tier-1 suite")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    doc = record(args)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if doc["failures"] or not doc["workloads"] else 0


if __name__ == "__main__":
    sys.exit(main())
