"""The passes on a few small cells in-process, and the benchmark as a
subprocess where a separate process matters."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH, ROOT

RUN = BENCH / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def digest_of(completed):
    (line,) = [l for l in completed.stdout.splitlines() if l.startswith("# work-counts digest")]
    return line


def timed_cells(name, seed, count):
    workload = workloads.WORKLOADS[name]
    return workload, run.TimingPass(workload, workload.cells(seed, count), keep_fingerprints=True)


@pytest.mark.parametrize("name", ["static-paper", "dynamic-outage", "observed-sweep"])
def test_the_timing_pass_reports_every_end_to_end_metric(name):
    _, timing = timed_cells(name, 3, 2)
    assert timing.failures == []
    metrics = timing.metrics(setup_s=0.5)
    result = json.loads(run.result_line(True, 2, 0, metrics, run.END_TO_END))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: body["unit"] for name, body in result["metrics"].items()} == declared
    assert all(body["value"] > 0 for body in result["metrics"].values())
    # The metrics use the speed-scaled times, one per op.
    assert len(timing.scaled) == len(timing.walls) == 2
    assert metrics["run_s_p50"] == run.quantile(timing.scaled, 0.5)


def test_speed_scaling_is_one_at_the_nominal_speed_and_follows_the_reference():
    nominal = run.NOMINAL_REFERENCE_S
    assert run.speed_scale(nominal, nominal) == pytest.approx(1.0)
    # A box twice as slow during the step shrinks its time by 2 ** -exponent.
    assert run.speed_scale(nominal, 3 * nominal) == pytest.approx(0.5 ** run.SPEED_EXPONENT)
    assert 0 < run.reference_s() < 1


def test_the_layers_behave_as_the_workloads_were_designed():
    values = {}
    for name in ("static-paper", "dynamic-outage", "observed-sweep"):
        workload, timing = timed_cells(name, 3, 3)
        layer, units, attempted, failed = run.trace_layers(workload, 3, 3, timing, {})
        assert failed == 0 and attempted == 3 + run.REPEAT_CELLS
        assert units == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        values[name] = layer
    static, dynamic, sweep = values["static-paper"], values["dynamic-outage"], values["observed-sweep"]
    assert static["tree_cache.hit_rate"] > dynamic["tree_cache.hit_rate"]
    # Per op, paper-scale static runs build more trees than reduced-scale
    # dynamic ones; per scheduled request the dynamic driver builds more.
    assert dynamic["routing.trees_per_request"] > static["routing.trees_per_request"]
    assert dynamic["dynamic.passes"] > 0 and static["dynamic.passes"] == 0
    for name in ("observability.metrics.self_s", "observability.timeline.self_s", "observability.tee.self_s"):
        assert sweep[name] > 0 and static[name] == 0 and dynamic[name] == 0


def baseline_report(**changes):
    report = {
        "env": {"seed": 1, "commit": "abc", "python": "3"},
        "workload": "static-paper", "cells": 11,
        "metrics": {"probe.calls": 10.0},
        "work_counts": {"probe.calls": 10, "routing.trees": 2},
    }
    report.update(changes)
    return report


def test_the_baseline_flags_other_counts_only_for_the_same_commit_and_inputs():
    same = baseline_report()
    other = baseline_report(work_counts={"probe.calls": 11, "routing.trees": 2})
    assert run.compare_baseline(same, baseline_report()) == []
    assert run.compare_baseline(other, baseline_report()) == ["probe.calls"]
    moved = baseline_report(env={"seed": 1, "commit": "def", "python": "3"})
    assert run.compare_baseline(other, moved) == []
    assert run.compare_baseline(other, baseline_report(cells=12)) == []


def test_two_traced_processes_agree_on_every_work_count(tmp_path):
    args = ("--workload", "dynamic-outage", "--seed", "5", "--seconds", "1", "--trace", "1")
    report = tmp_path / "first.json"
    first = bench(*args, "--report", str(report))
    assert first.returncode == 0, first.stderr
    second = bench(*args, "--baseline", str(report))
    assert second.returncode == 0, second.stderr
    assert digest_of(first) == digest_of(second)
    assert "work counts differ" not in second.stdout
    saved = json.loads(report.read_text())
    assert saved["work_counts"]["probe.calls"] == result_of(first)["metrics"]["probe.calls"]["value"]


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-paper", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
