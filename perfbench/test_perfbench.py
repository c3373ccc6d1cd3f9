"""The benchmark's own tests.

From the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gateway import GatewayWorkload  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    PROTOCOL_LAYERS,
    TAIL_SAMPLES,
    WORKLOADS,
    Run,
    measure,
    run_workload,
    tail_percentile,
    verifier_seed,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reports():
    """One short untraced and one short traced run of every workload."""
    return {
        (name, trace): run_workload(name, seed=7, seconds=0.3, trace=trace)
        for name in WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct(reports, name, trace):
    result = reports[name, trace].result
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert reports[name, trace].summary["error_rate"] == 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_present_with_its_unit(reports, name, trace):
    metrics = reports[name, trace].result["metrics"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(metrics) == {entry["name"] for entry in spec}
    for entry in spec:
        value = metrics[entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layers_that_run_report_a_value(reports, name):
    metrics = reports[name, True].result["metrics"]
    timed = [n for n in PROTOCOL_LAYERS if PER_LAYER_UNITS[n] == "s"]
    assert all(metrics[n]["value"] > 0 for n in timed)
    assert 0.0 <= metrics["poly.plan_hit_ratio"]["value"] <= 1.0
    assert metrics["crypto.encryptions_per_batch"]["value"] > 0


def test_gateway_reports_its_own_layers(reports):
    metrics = reports["gateway", True].result["metrics"]
    assert metrics["net.bytes_per_session"]["value"] > 0
    assert metrics["net.attempts_per_session"]["value"] == 1
    assert metrics["serve.session_s_p50"]["value"] > 0
    assert metrics["serve.shed_ratio"]["value"] == 0
    # a fresh verifier seed every session: the schedule cache never hits
    assert metrics["serve.schedule_cache_hit_ratio"]["value"] == 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(10 * TAIL_SAMPLES - 1), 0.9) is None
    assert tail_percentile(range(10 * TAIL_SAMPLES), 0.9) == 90
    run = Run(batch_size=1, setup_s=[1.0], slices=[(1, 1.0)], verifier_cpu=[1.0])
    run.prover_cpu = [1.0]
    run.attempted = 1
    run.batch_s = [1.0] * 99
    assert "batch_s_p90" not in run.summary()
    run.batch_s.append(2.0)
    assert run.summary()["batch_s_p90"] == 1.0


def test_p90_only_where_the_run_supports_it(reports):
    for (name, trace), report in reports.items():
        batches = report.summary["samples"]["batches"]
        assert ("batch_s_p90" in report.summary) == (batches >= 10 * TAIL_SAMPLES)


def test_load_generator_stays_within_nproc():
    workload = GatewayWorkload(seed=11)
    assert workload.connections <= (os.cpu_count() or 1)
    run = measure(workload, 0.5, trace=False)
    assert run.attempted > 0
    assert 1 <= workload.in_flight.peak <= workload.connections
    # the forked server was stopped and reaped
    assert multiprocessing.active_children() == []


def test_every_batch_gets_a_fresh_verifier_seed():
    seeds = {verifier_seed(3, "p128-b8", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert verifier_seed(3, "gateway", 0, 5) == verifier_seed(3, "gateway", 0, 5)


def test_cli_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goldilocks-b1",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateway",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
