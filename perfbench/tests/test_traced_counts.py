"""Exact counts of the traced run repeat for the same seed (slow: ~1 min)."""

import json
import subprocess
import sys

from conftest import ROOT

EXACT = (
    "import.scipy_modules",
    "engine.runs",
    "engine.pmu_samples",
    "fleet.cache_scans",
    "fleet.cache_puts",
    "fleet.cache_gets",
    "fleet.chunks",
    "storage.atomic_writes",
)


def traced(seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_cold", "--seed",
         str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"]
    return report["metrics"]


def test_exact_counts_repeat_and_the_scan_grows():
    first, second = traced(4), traced(4)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert first["fleet.cache_scans"]["value"] > 0
    assert first["engine.pmu_samples"]["value"] > 0
    assert (
        first["fleet.cache_scan_last_ms"]["value"]
        > first["fleet.cache_scan_first_ms"]["value"]
    )
