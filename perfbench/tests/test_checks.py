"""Output checks, failure accounting and the benchmark's own contract."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    from repro import io as repro_io
    from repro.core.evaluation import evaluate_server
    from repro.engine.simulator import Simulator
    from repro.hardware.zoo import resolve_server

    server = resolve_server("Atom-C2750")
    document = repro_io.evaluation_to_dict(
        evaluate_server(server, Simulator(server, seed=11))
    )
    return repro_io.save_json(document, tmp_path_factory.mktemp("ref") / "ref.json")


def test_identical_evaluate_json_passes(reference, tmp_path):
    out = tmp_path / "out.json"
    shutil.copyfile(reference, out)
    assert run.check_evaluate_output(0, out, reference) is None


@pytest.mark.parametrize("where", [0, 0.5, -2])
def test_one_changed_byte_fails(reference, tmp_path, where):
    data = bytearray(reference.read_bytes())
    index = int(where * len(data)) if isinstance(where, float) else where
    data[index] = ord("7") if data[index] != ord("7") else ord("8")
    out = tmp_path / "out.json"
    out.write_bytes(bytes(data))
    assert run.check_evaluate_output(0, out, reference)


def test_nonzero_exit_or_missing_file_fails(reference, tmp_path):
    assert run.check_evaluate_output(1, reference, reference)
    assert run.check_evaluate_output(0, tmp_path / "missing.json", reference)


def test_failed_share_counts_failures_against_attempts():
    result = run.new_result()
    result.update(attempted=8, failed=2, latencies=[1.0, 2.0], jobs=20, window_s=4.0,
                  setup=[1.0, 3.0, 2.0])
    metrics = run.end_to_end(result)
    assert metrics["ok_share"] == (0.75, 8)
    assert metrics["setup_s"] == (2.0, 3)
    assert metrics["jobs_per_s"] == (5.0, 20)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.inputs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
