"""Schema of the trajectory file written by tools/bench_record.py, on a
smoke-size run with the Tier-1 timing turned off."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"search", "enumerate", "certify", "bounds"}
SUBCOMMANDS = {"spectrum", "tmap", "bands", "search", "quotient", "certify",
               "capacity", "witness"}


def test_smoke_record_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--out", str(out),
         "--size", "smoke", "--runs", "1", "--seconds", "0", "--no-tier1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())

    assert doc["schema"] == "cubicgaps-bench/1"
    assert len(doc["commit"]) == 40 or doc["commit"] == "unknown"
    assert set(doc["versions"]) == {"python", "numpy", "networkx"}
    assert doc["config"] == {"runs": 1, "seconds": 0.0, "seed": 1,
                             "size": "smoke"}
    assert isinstance(doc["uncommitted_changes"], bool)
    assert doc["failures"] == [] and doc["tier1"] is None

    assert set(doc["workloads"]) == WORKLOADS
    for rec in doc["workloads"].values():
        for metric in ("wall_norm", "setup_s", "peak_rss_mb"):
            s = rec[metric]
            assert s["q1"] <= s["median"] <= s["q3"]
            assert s["iqr"] == s["q3"] - s["q1"] and len(s["samples"]) == 1
            assert s["median"] > 0
        assert len(rec["output_digests"]) == 1
        assert rec["fail_ratios"] == [0.0]

    assert set(doc["per_layer"]) == WORKLOADS
    layers = doc["per_layer"]["enumerate"]
    assert 0 < layers["dynamics.capacity_estimate"] < layers["trace.wall_s"]
    assert all(v >= 0 for w in doc["per_layer"].values() for v in w.values())

    assert {row["command"].split()[1] for row in doc["cli"]} == SUBCOMMANDS
    for row in doc["cli"]:
        assert row["exit"] == 0 and row["wall_s"] > 0
