"""Benchmark of the cubicgaps batch pipeline.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see BENCHMARK.json and perfbench/BASELINE.md for why each):
search, enumerate, certify and bounds.  Run from the root of a checkout;
the library is imported from ``src/`` there, not from any installed copy.

A run starts fresh worker processes (worker.py), with BLAS and OpenMP
pinned to one thread, for ``--seconds``: each sets up the workload and
runs its body once, cold.  With ``--trace 0`` it reports the end-to-end
metrics:

* ``setup_s``: process start through ``import cubicgaps``,
  ``cubicgaps.cli`` and input generation, the median over every worker
  of the run (at least MIN_SETUP_SAMPLES; set-up-only workers make up
  the difference);
* ``wall_norm``: wall time of one checked run of the body divided by
  the time of the host-speed probe (probe.py) that the same worker
  sampled on the same CPU while the body ran, the median over the run's
  workers.  A shared host's speed drifts by a third or more over seconds
  and minutes as other tenants come and go; the probe slows with it, so
  the ratio does not.  Every worker is a fresh process, so no body can
  be timed with a cache warmed by an earlier run;
* ``peak_rss_mb``: peak resident memory of a worker, median over the
  workers, in MiB.

All workers of a run must give the same output digest.  With
``--trace 1`` untraced and traced workers alternate; the per-layer
metrics come from the fastest traced worker (see tracing.py), whose
spans go to perfbench/out/; traced bodies run without the probe sampler.
``trace.wall_s`` is the median wall time of the traced bodies and
``trace.overhead_s`` that minus the median of the untraced ones.

Failed operations are reported as ``failed`` out of ``attempted`` (their
ratio is the fail ratio); the human-readable lines before the final JSON
line print it per workload, with the median raw wall time of the body
(``wall_s``).  A full record of each run, including the input summary
and the run environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search", "enumerate", "certify", "bounds")
MIN_BODIES = 2
MIN_SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 60
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "wall_norm": "probe", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def _worker(args, extra, timeout):
    """Run one worker process and return its final JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    env = dict(os.environ, **PINNED)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout that is not a repository has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, versions) -> dict:
    return {**versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "blas_threads_pinned": PINNED, "seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "git_commit": _git_commit()}


def _repeat(step, seconds: float, minimum: int) -> list:
    """Call step(i) for i = 0, 1, ... at least minimum times, then while
    another call still fits in the given seconds; return the results."""
    results, times = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(step(len(results)))
        times.append(time.monotonic() - t)
        if (len(results) >= minimum and time.monotonic() - start
                + statistics.mean(times) > seconds):
            return results


def _wall_norm(docs) -> float:
    """Median over the workers of body wall time over probe time."""
    return statistics.median(d["wall_s"] / d["probe_s"] for d in docs)


def _spans_path(args, i=None) -> Path:
    part = "" if i is None else f"-{i}"
    return OUT / f"spans-{args.workload}-{args.seed}{part}.json.gz"


def _traced_metrics(args, docs) -> dict:
    """Per-layer metrics of the fastest traced worker, each declared
    metric present (a function no workload reaches reads 0)."""
    plain = [d for i, d in enumerate(docs) if i % 2 == 0]
    traced = [(i, d) for i, d in enumerate(docs) if i % 2 == 1]
    best, doc = min(traced, key=lambda t: t[1]["wall_s"])
    for i, _ in traced:
        if i != best:
            _spans_path(args, i).unlink(missing_ok=True)
    _spans_path(args, best).replace(_spans_path(args))
    traced_s = statistics.median(d["wall_s"] for _, d in traced)
    values = dict(doc["per_layer"], **{
        "trace.overhead_s": traced_s - statistics.median(d["wall_s"]
                                                         for d in plain),
        "trace.wall_s": traced_s})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_one(args) -> dict:
    """Run one workload; return the result record."""
    OUT.mkdir(exist_ok=True)
    if args.trace:
        # untraced and traced workers alternate, untraced first
        def step(i):
            extra = ["--trace", "1", "--spans", str(_spans_path(args, i))]
            return _worker(args, extra if i % 2 else [], WORKER_TIMEOUT_S)

        docs = _repeat(step, args.seconds, 2)
    else:
        docs = _repeat(lambda i: _worker(args, [], WORKER_TIMEOUT_S),
                       args.seconds, MIN_BODIES)
    setup_samples = [d["setup_s"] for d in docs]
    while not args.trace and len(setup_samples) < MIN_SETUP_SAMPLES:
        probe = _worker(args, ["--setup-only"], PROBE_TIMEOUT_S)
        setup_samples.append(probe["setup_s"])

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    notes = [n for d in docs for n in d["notes"]][:20]
    mismatched = sum(1 for d in docs[1:] if d["digest"] != docs[0]["digest"])
    if mismatched:
        attempted += mismatched
        failed += mismatched
        notes.append(f"{mismatched} worker(s) gave different outputs")
    if args.trace:
        metrics = _traced_metrics(args, docs)
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "wall_norm": _wall_norm(docs),
                  "peak_rss_mb": statistics.median(d["peak_rss_mb"]
                                                   for d in docs)}
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
    record = {
        "workload": args.workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fail_ratio": failed / attempted,
        "setup_samples": setup_samples,
        "wall_samples": [d["wall_s"] for d in docs],
        "probe_samples": [d.get("probe_s") for d in docs],
        "notes": notes,
        "counts": docs[-1]["counts"],
        "output_digest": docs[0]["digest"],
        "inputs": docs[0]["inputs"],
        "environment": _environment(args, docs[0]["versions"]),
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def _line(record) -> str:
    parts = [f"{record['workload']:<9}"]
    for name, m in record["metrics"].items():
        if name in UNITS:
            parts.append(f"{name}={m['value']:.4f} {m['unit']}")
    parts.append(f"wall_s={statistics.median(record['wall_samples']):.4f} s")
    parts.append(f"fail_ratio={record['fail_ratio']:.4g} "
                 f"({record['failed']}/{record['attempted']})")
    return "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a tiny input of the same code, for self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cubicgaps" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_one(argparse.Namespace(**{**vars(args),
                                                         "workload": name})))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(_line(record))
        for note in record["notes"]:
            print(f"  failed: {note}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
