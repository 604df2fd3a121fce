"""Smoke test of the benchmark itself, at the smallest size it runs.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one cycle; the test checks that every declared metric is
printed by name with its unit, that per-layer counts repeat exactly for a
fixed seed, that a reference perturbed by 1e-6 is counted as a failed op,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("analyze-density", "construct-atomic", "lp-check")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args):
    proc = subprocess.run([sys.executable, RUN, "--seconds", "0.1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def result(proc) -> dict:
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_contract_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", "7", "--trace", "0")
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    lines = proc.stdout.splitlines()
    for name, unit in list(declared.items()) + [("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), f"{name} not printed with {unit}"
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(workload):
    runs = [result(bench("--workload", workload, "--seed", "5", "--trace", "1"))
            for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    with open(os.path.join(ROOT, ".bench_out", f"result-{workload}-seed5-trace1.json")) as fh:
        assert json.load(fh)["meta"]["unmatched_metrics"] == []
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    # reports carry their own wall time, so their length varies by a few bytes
    written = [res["metrics"]["reporting.bytes_written"]["value"] for res in runs]
    assert written[0] == pytest.approx(written[1], rel=1e-3)


def _perturbed(value, factor):
    if isinstance(value, float):
        return value * factor
    if isinstance(value, list):
        return [_perturbed(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _perturbed(v, factor) for k, v in value.items()}
    return value


def test_perturbed_reference_counts_as_failed(tmp_path):
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    # construct1 is not the warm-up stratum, so the run still starts
    refs = {k: _perturbed(v, 1.0 + 1e-6) if k.startswith("construct1/") else v
            for k, v in refs.items()}
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    proc = bench("--workload", "construct-atomic", "--seed", "7", "--trace", "0",
                 "--references", str(path))
    res = result(proc)
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    frac = [line.split() for line in proc.stdout.splitlines()
            if line.split()[:1] == ["failed_frac"]][0]
    assert float(frac[1]) == pytest.approx(res["failed"] / res["attempted"])


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
