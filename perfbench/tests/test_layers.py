"""The wrap list against the real library, and the metric tables."""

import pytest
import inspect
import json

import layers
import run
import workloads
from conftest import ROOT
from spans import Patches, Recorder, resolve


def owners_of(wrap):
    found = [resolve(target.path) for target in wrap]
    return {id(owner): owner for owner, _ in found if owner is not None}


def test_every_target_exists_at_this_commit():
    wrap, absent = layers.targets(Recorder(), [])
    assert absent == []
    assert [target.path for target in wrap if resolve(target.path) is None] == []


def test_every_wrapped_attribute_is_restored():
    recorder = Recorder()
    wrap, _ = layers.targets(recorder, [])
    owners = owners_of(wrap)
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    with Patches(recorder, wrap) as patches:
        changed = sum(
            vars(owner).get(attr) is not before[id(owner)].get(attr)
            for owner, attr in (resolve(target.path) for target in wrap)
        )
        assert changed == len(wrap)
        assert patches.absent == []
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        assert all(after[attr] is value for attr, value in before[key].items())


def test_the_generator_wrapper_is_used_for_enumerate_groups():
    wrap, _ = layers.targets(Recorder(), [])
    (scoring,) = [t for t in wrap if t.span == "scoring"]
    assert scoring.yield_counter == "scoring.groups"


def test_missing_collectors_are_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "COLLECTORS", (("repro.observability.gone:Collector", "obs.gone"),))
    _, absent = layers.targets(Recorder(), [])
    assert absent == ["repro.observability.gone:Collector"]
    gone = layers.absent_metrics(absent)
    assert "observability.events" in gone and "probe.calls" not in gone


def test_layer_values_cover_every_declared_metric():
    engine = {name: 0 for name in ("iterations", "hops_booked", "revalidations")}
    values = layers.layer_values(Recorder(), engine, 1, 1.0, 1.0)
    assert values.keys() == layers.METRICS.keys()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    # On ranks 0..n-1 the Harrell-Davis estimate of quantile p is about n p - 1/2.
    value, percentile, samples = run.tail([float(i) for i in range(100)])
    assert (value, percentile, samples) == (pytest.approx(89.5, abs=0.05), 90.0, 100)
    value, percentile, samples = run.tail([float(i) for i in range(11)][::-1])
    assert (value, percentile, samples) == (pytest.approx(0.5, abs=0.1), 100.0 / 11, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_quantile_weights_every_sample_and_keeps_constants():
    assert run.quantile([2.5] * 30, 0.5) == pytest.approx(2.5)
    assert run.quantile([float(i) for i in range(51)], 0.5) == pytest.approx(25.0)
    # Moving one sample far from the median moves the estimate a little.
    values = [float(i) for i in range(51)]
    assert run.quantile(values[:-1] + [1000.0], 0.5) > 25.0


def test_the_benchmark_wraps_only_callables():
    wrap, _ = layers.targets(Recorder(), [])
    for target in wrap:
        owner, attr = resolve(target.path)
        assert callable(getattr(owner, attr)) or inspect.isdatadescriptor(getattr(owner, attr))


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in layers.METRICS.items()
    ]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {w["name"]: w["why"] for w in declared["workloads"]} == workloads.WHY
