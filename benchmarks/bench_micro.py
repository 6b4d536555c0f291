"""MICRO — engineering micro-benchmarks of the hot code paths.

These are conventional pytest-benchmark timings (many rounds) of the three
operations that dominate scheduling cost: the time-dependent Dijkstra
query, capacity-timeline reservations, and scenario generation.  They
track performance regressions rather than paper results.
"""

import pytest

from repro.core.intervals import Interval, IntervalSet
from repro.core.state import NetworkState
from repro.core.timeline import CapacityTimeline
from repro.heuristics.registry import make_heuristic
from repro.routing.dijkstra import compute_shortest_path_tree
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator


@pytest.fixture(scope="module")
def reduced_scenario():
    return ScenarioGenerator(GeneratorConfig.reduced()).generate(0)


def test_dijkstra_single_item(benchmark, reduced_scenario):
    """One untargeted search of the §4.2 loop over a fresh state."""
    state = NetworkState(reduced_scenario)
    item_id = reduced_scenario.requested_item_ids()[0]
    tree = benchmark(compute_shortest_path_tree, state, item_id)
    assert tree.seed_machines()


def test_dijkstra_all_items(benchmark, reduced_scenario):
    state = NetworkState(reduced_scenario)
    items = reduced_scenario.requested_item_ids()

    def plan_all():
        return [
            compute_shortest_path_tree(state, item_id) for item_id in items
        ]

    trees = benchmark(plan_all)
    assert len(trees) == len(items)


def _reserved_timeline():
    timeline = CapacityTimeline(1_000_000.0)
    for k in range(200):
        start = float((k * 37) % 1000)
        timeline.reserve(100.0, Interval(start, start + 50.0))
    return timeline


def test_timeline_reserve(benchmark):
    """200 overlapping reservations into a fresh timeline."""
    timeline = benchmark(_reserved_timeline)
    assert timeline.min_free_span(0.0, 1000.0) >= 0.0


def _first_fit_probe(busy, window, count):
    total = 0.0
    for k in range(count):
        start = busy.first_fit(7.0, window.start, window.end, float(k * 3))
        if start is not None:
            total += start
    return total


def test_first_fit_dense(benchmark):
    """Rejection-heavy probing of a set with many short busy intervals."""
    busy = IntervalSet(
        Interval(float(k * 10), float(k * 10 + 8)) for k in range(100)
    )
    window = Interval(0.0, 1000.0)
    assert benchmark(_first_fit_probe, busy, window, 200) >= 0.0


def test_first_fit_sparse(benchmark):
    """Mostly-free link: probes should return at the first gap."""
    busy = IntervalSet(
        Interval(float(k * 200), float(k * 200 + 5)) for k in range(5)
    )
    window = Interval(0.0, 1000.0)
    assert benchmark(_first_fit_probe, busy, window, 200) >= 0.0


def test_min_free_span_probe(benchmark):
    """The storage feasibility probe of ``earliest_transfer``."""
    timeline = _reserved_timeline()

    def probe():
        total = 0.0
        for k in range(400):
            total += timeline.min_free_span(float(k), float(k + 60))
        return total

    assert benchmark(probe) >= 0.0


def test_scenario_generation(benchmark):
    generator = ScenarioGenerator(GeneratorConfig.reduced())
    scenario = benchmark(generator.generate, 42)
    assert scenario.network.is_strongly_connected()


def test_full_one_c4_single_case(benchmark, reduced_scenario):
    def run():
        return make_heuristic("full_one", "C4", 0.0).run(reduced_scenario)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.schedule.step_count > 0
