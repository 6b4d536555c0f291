"""Differential property: the incremental tree cache never alters results.

The revalidation layer (journal replay, see
:class:`~repro.heuristics.base.TreeCache`) is a pure optimization: for any
scenario, heuristic, fault intensity, and worker count, the produced
schedule — and therefore the :class:`~repro.experiments.runner.RunRecord`
— must be byte-identical to the paper's recompute-every-iteration
algorithm (``use_tree_cache=False``).  Only ``dijkstra_runs`` and wall
timing may differ: fewer searches is the whole point.

The parallel worker count honours ``REPRO_WORKERS`` (default 4) so CI
can run a cheap ``workers=2`` smoke pass of this module.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cost.weights import as_weights
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.runner import record_result
from repro.faults.context import use_faults
from repro.faults.plan import FaultPlan
from repro.heuristics.registry import make_heuristic
from repro.serialization import run_record_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

PARALLEL_WORKERS = int(os.environ.get("REPRO_WORKERS", "4"))

PAIRS = (
    ("partial", "C4"),
    ("full_one", "C4"),
    ("full_all", "C4"),
    ("partial", "C2"),
)

#: Healthy and heavily faulted, per the revalidation acceptance bar.
FAULT_INTENSITIES = (0.0, 0.5)

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())


def _neutralized(record):
    """The record's identity dict, optimization-sensitive fields dropped.

    ``dijkstra_runs`` legitimately shrinks under the cache (that is the
    optimization) and timing/observability fields vary run to run;
    everything else — the schedule's effect — must match byte for byte.
    """
    document = run_record_to_dict(record.without_timing())
    del document["dijkstra_runs"]
    return document


def _fault_plan(scenario, intensity, seed):
    if intensity <= 0.0:
        return None
    return FaultPlan.generate(scenario, intensity, seed=seed, churn=False)


def _oracle_record(scenario, heuristic, criterion, plan):
    """One run of the paper's algorithm: no cache, fresh trees throughout."""
    eu = as_weights(0.0)
    scheduler = make_heuristic(
        heuristic, criterion=criterion, weights=eu, use_tree_cache=False
    )
    with use_faults(plan):
        result = scheduler.run(scenario)
    label = "-" if scheduler.criterion.eu_independent else eu.label()
    return record_result(
        scenario, result, scheduler=scheduler.label(), eu_label=label
    )


@pytest.fixture(scope="module")
def parallel_executor():
    """One pooled executor shared by every example (pool spin-up is paid
    once, not per Hypothesis example)."""
    with SweepExecutor(workers=PARALLEL_WORKERS) as executor:
        yield executor


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pair=st.sampled_from(PAIRS),
    intensity=st.sampled_from(FAULT_INTENSITIES),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_incremental_equals_recompute_at_any_parallelism(
    parallel_executor, seed, pair, intensity
):
    heuristic, criterion = pair
    scenarios = _GENERATOR.generate_suite(2, base_seed=seed)
    plans = [
        _fault_plan(scenario, intensity, seed=seed + case)
        for case, scenario in enumerate(scenarios)
    ]
    oracle = [
        _neutralized(
            _oracle_record(scenario, heuristic, criterion, plan)
        )
        for scenario, plan in zip(scenarios, plans)
    ]
    cells = [
        SweepCell(
            scenario=scenario,
            heuristic=heuristic,
            criterion=criterion,
            weights=as_weights(0.0),
            faults=plan,
        )
        for scenario, plan in zip(scenarios, plans)
    ]
    with SweepExecutor(workers=1) as serial_executor:
        serial = serial_executor.run_cells(cells)
    parallel = parallel_executor.run_cells(cells)
    assert [_neutralized(r) for r in serial] == oracle
    assert [_neutralized(r) for r in parallel] == oracle


def test_cached_run_does_fewer_dijkstra_searches():
    """The cache must actually cut work, not merely tie the oracle."""
    scenario = _GENERATOR.generate_suite(1, base_seed=7)[0]
    oracle = _oracle_record(scenario, "partial", "C4", None)
    with SweepExecutor(workers=1) as executor:
        (cached,) = executor.run_cells(
            [
                SweepCell(
                    scenario=scenario,
                    heuristic="partial",
                    criterion="C4",
                    weights=as_weights(0.0),
                )
            ]
        )
    assert cached.dijkstra_runs < oracle.dijkstra_runs
    assert _neutralized(cached) == _neutralized(oracle)
