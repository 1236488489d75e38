"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks that every workload passes at smoke size, that the tracer's
wrappers hand results back unchanged and restore the originals, that a
corrupted output raises the fail count, that the search check holds for
seed prefixes of 5 and 8 cells, that the host-speed probe samples every
part and puts the SIGALRM timer back, that the command prints the
metrics BENCHMARK.json declares, and that it refuses to run without the library
source.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cubicgaps import covers, graphcore  # noqa: E402


def _expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _run(name, size="smoke", inputs=None, tracer=None):
    setup, run = workloads.WORKLOADS[name]
    if inputs is None:
        sz = size if isinstance(size, dict) else workloads.SIZES[name][size]
        inputs, _ = setup(7, sz)
    tally = workloads.Tally()
    with tracer or contextlib.nullcontext():
        run(inputs, tally)
    return tally


@contextlib.contextmanager
def _replaced(module, name, make):
    """Replace a library function everywhere it is bound, like the tracer."""
    original = getattr(module, name)
    fake = make(original)
    hits = tracing.bindings(original)
    for m, a in hits:
        setattr(m, a, fake)
    try:
        yield
    finally:
        for m, a in hits:
            setattr(m, a, original)


def test_smoke_all_workloads():
    for name in workloads.WORKLOADS:
        tally = _run(name)
        _expect(tally.attempted > 0 and tally.failed == 0,
                f"{name}: {tally.failed}/{tally.attempted} failed {tally.notes}")


def test_wrappers_pass_results_through():
    k4 = graphcore.named_graph("k4")
    P = covers.prism_band_cover()
    calls = (lambda: graphcore.spectrum(k4),
             lambda: bool(graphcore.is_planar(k4)),
             lambda: covers.bands(P, 64).values,
             lambda: covers.gap_report(covers.bands(P, 64)).to_json(),
             lambda: len(graphcore.enumerate_cubic_multigraphs(6)))
    plain = [f() for f in calls]
    originals = {(m, a): v for m, a, v in _bound_functions()}
    tracer = tracing.Tracer()
    with tracer:
        traced = [f() for f in calls]
        from cubicgaps.covers import search
        _expect(hasattr(search.is_planar, "__wrapped__"),
                "search.is_planar is not wrapped")
    for a, b in zip(plain, traced):
        same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        _expect(same, f"wrapper changed a result: {a!r} vs {b!r}")
    _expect({(m, a): v for m, a, v in _bound_functions()} == originals,
            "uninstall did not restore every original")
    _expect(len(tracer.spans) >= len(calls), "no spans recorded")
    summary = tracer.summary(1.0)
    _expect(summary["graphcore.spectrum.calls"] >= 1
            and summary["covers.bands.calls"] == 2
            and summary["graphcore.is_planar.calls"] == 1,
            f"unexpected call counts {summary}")
    for name in workloads.WORKLOADS:
        plain = _run(name)
        traced = _run(name, tracer=tracing.Tracer())
        _expect(plain.digest == traced.digest,
                f"{name}: traced outputs differ from untraced")


def _bound_functions():
    names = {fn for _, _, fn, _ in tracing.TRACED}
    return [(m, a, v) for n, m in list(sys.modules.items())
            if n.startswith("cubicgaps") for a, v in list(vars(m).items())
            if a in names]


def test_corrupted_output_is_counted():
    setup, _ = workloads.WORKLOADS["search"]
    inputs, _ = setup(7, workloads.SIZES["search"]["smoke"])
    row = inputs["expected"][0]
    flipped = row[:10] + chr(ord(row[10]) ^ 1) + row[11:]
    inputs["expected"] = [flipped] + inputs["expected"][1:]
    tally = _run("search", inputs=inputs)
    _expect(tally.failed == 1, f"flipped catalog byte: {tally.failed} failures")

    def drop_one(original):
        return lambda n, *a, **k: original(n, *a, **k)[:-1]

    with _replaced(graphcore.enumeration, "enumerate_cubic_multigraphs",
                   drop_one):
        tally = _run("enumerate")
    _expect(tally.failed >= 1, "a missing class was not counted")


def test_search_prefixes_match_catalog():
    for prefix in (5, 8):
        tally = _run("search", size={"prefix": prefix})
        _expect(tally.failed == 0 and tally.attempted > 1,
                f"prefix {prefix}: {tally.failed}/{tally.attempted} {tally.notes}")


def _command(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def test_probe_samples_and_restores_the_timer():
    sampler = probe.Sampler()
    start = time.perf_counter()
    with sampler:
        while time.perf_counter() - start < 0.5:
            pass
    block = time.perf_counter() - start
    _expect(all(len(s) >= 2 for s in sampler.samples),
            f"samples per part {[len(s) for s in sampler.samples]}")
    _expect(0 < sampler.spent_s < block / 4,
            f"samples took {sampler.spent_s:.3f} s of {block:.3f} s")
    _expect(sampler.probe_s() > 0, "probe time not positive")
    _expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL,
            "SIGALRM timer or handler left in place")


def test_command_prints_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out = _command(["--workload", "certify", "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "smoke"], ROOT)
        _expect(code == 0, f"trace {trace}: exit code {code}")
        doc = json.loads(out.strip().splitlines()[-1])
        _expect(set(doc) == {"correct", "attempted", "failed", "metrics"},
                f"result keys {sorted(doc)}")
        _expect(doc["correct"] and doc["failed"] == 0, "smoke run failed")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        _expect(got == want, f"trace {trace}: metrics differ: "
                f"{sorted(set(got) ^ set(want))}")


def test_refuses_without_library_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        code, out = _command(["--workload", "search", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], bare)
        _expect(code != 0 and not out.strip(),
                f"bare directory: exit {code}, stdout {out!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        start = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name} ({time.perf_counter() - start:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
