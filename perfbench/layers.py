"""Which library callables the traced pass wraps, and the per-layer table.

Only public names are wrapped, each where the engine looks it up: a class
attribute on its class, a module-level function in the module that calls
it (``repro.heuristics.base`` binds ``compute_shortest_path_tree`` and
``enumerate_groups`` at import).  A name that no longer exists makes its
layer *absent*: its metrics read 0 and the run lists it, so a change that
deletes a layer can still be measured.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from spans import Recorder, Target, resolve

#: Tracer classes whose every ``on_*`` hook and ``finalize`` is wrapped,
#: with the span name their calls are recorded under.
COLLECTORS = (
    ("repro.observability.metrics:MetricsCollector", "obs.metrics"),
    ("repro.observability.profiling:ProfileCollector", "obs.profile"),
    ("repro.observability.timeline:TimelineCollector", "obs.timeline"),
    ("repro.observability.tracer:TeeTracer", "obs.tee"),
)

#: Cost criteria whose ``evaluate`` is wrapped.
CRITERIA = ("Cost1", "Cost2", "Cost3", "Cost4")

#: Span names whose individual spans are kept (for distributions).
KEPT = frozenset({"op", "engine.drain", "dynamic.run", "executor"})


def targets(recorder: Recorder, captured: List[Any]) -> Tuple[List[Target], List[str]]:
    """The wrap list, plus collector classes that are already gone.

    ``captured`` receives every ``HeuristicResult`` returned by
    ``StagingHeuristic.run`` while the wrappers are installed.
    """

    def probe_outcome(plan: Any) -> None:
        if plan is not None:
            recorder.add("probe.accepted")

    def executor_outcome(records: Any) -> None:
        recorder.add("executor.cells", len(records))

    wrap = [
        Target("repro.heuristics.base:StagingHeuristic.run", "engine.run", captured.append),
        Target("repro.heuristics.base:StagingHeuristic.drain", "engine.drain"),
        Target("repro.heuristics.base:TreeCache.entry_for", "tree_cache"),
        Target("repro.heuristics.base:compute_shortest_path_tree", "routing"),
        Target("repro.core.state:NetworkState.earliest_transfer", "probe", probe_outcome),
        Target("repro.core.intervals:IntervalSet.first_fit", "intervals.first_fit"),
        Target("repro.core.timeline:CapacityTimeline.can_reserve_span", "timeline.can_reserve"),
        Target("repro.core.timeline:CapacityTimeline.next_sufficient_start", "timeline.next_start"),
        Target("repro.heuristics.base:enumerate_groups", "scoring", yield_counter="scoring.groups"),
        Target("repro.core.state:NetworkState.book_transfer", "booking"),
        Target("repro.dynamic.driver:DynamicDriver.run", "dynamic.run"),
        Target("repro.experiments.executor:SweepExecutor.run_cells", "executor", executor_outcome),
        Target("repro.experiments.runner:evaluate_schedule", "evaluation"),
        Target("repro.workload.generator:ScenarioGenerator.generate", "workload.generate"),
        Target("repro.faults.plan:FaultPlan.generate", "faults.generate"),
    ]
    wrap += [Target(f"repro.cost.criteria:{name}.evaluate", "cost") for name in CRITERIA]
    absent = []
    for path, span in COLLECTORS:
        found = resolve(path)
        if found is None:
            absent.append(path)
            continue
        owner, attr = found
        cls = getattr(owner, attr)
        hooks = sorted(name for name in dir(cls) if name.startswith("on_"))
        wrap += [Target(f"{path}.{hook}", span) for hook in hooks]
        if hasattr(cls, "finalize"):
            wrap.append(Target(f"{path}.finalize", f"{span}.finalize"))
    return wrap, absent


#: Per-layer metric name -> (unit, which direction is better, the targets
#: it depends on).  A metric whose target is absent reads 0 and is listed.
METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "tree_cache.lookups": ("count", "lower", ("TreeCache.entry_for",)),
    "tree_cache.hits": ("count", "higher", ("TreeCache.entry_for", "base:compute_shortest_path_tree")),
    "tree_cache.revalidations": ("count", "higher", ()),
    "tree_cache.hit_rate": ("ratio", "higher", ("TreeCache.entry_for", "base:compute_shortest_path_tree")),
    "tree_cache.self_s": ("s", "lower", ("TreeCache.entry_for",)),
    "routing.trees": ("count", "lower", ("base:compute_shortest_path_tree",)),
    "routing.self_s": ("s", "lower", ("base:compute_shortest_path_tree",)),
    "routing.us_per_tree": ("us", "lower", ("base:compute_shortest_path_tree",)),
    "routing.trees_per_request": ("ratio", "lower", ("base:compute_shortest_path_tree",)),
    "probe.calls": ("count", "lower", ("earliest_transfer",)),
    "probe.accepted": ("count", "lower", ("earliest_transfer",)),
    "probe.accept_rate": ("ratio", "higher", ("earliest_transfer",)),
    "probe.calls_per_tree": ("ratio", "lower", ("earliest_transfer", "base:compute_shortest_path_tree")),
    "probe.self_s": ("s", "lower", ("earliest_transfer",)),
    "intervals.first_fit.calls": ("count", "lower", ("first_fit",)),
    "intervals.first_fit.self_s": ("s", "lower", ("first_fit",)),
    "timeline.can_reserve.calls": ("count", "lower", ("can_reserve_span",)),
    "timeline.can_reserve.self_s": ("s", "lower", ("can_reserve_span",)),
    "timeline.next_start.calls": ("count", "lower", ("next_sufficient_start",)),
    "scoring.groups": ("count", "lower", ("enumerate_groups",)),
    "scoring.self_s": ("s", "lower", ("enumerate_groups",)),
    "cost.evaluations": ("count", "lower", ("Cost",)),
    "cost.self_s": ("s", "lower", ("Cost",)),
    "booking.calls": ("count", "lower", ("book_transfer",)),
    "booking.self_s": ("s", "lower", ("book_transfer",)),
    "dynamic.passes": ("count", "lower", ("DynamicDriver.run", "drain")),
    "dynamic.pass_s_p50": ("s", "lower", ("DynamicDriver.run", "drain")),
    "dynamic.trees_per_pass": ("ratio", "lower", ("DynamicDriver.run", "drain")),
    "observability.events": ("count", "lower", ("Collector",)),
    "observability.metrics.self_s": ("s", "lower", ("MetricsCollector",)),
    "observability.profile.self_s": ("s", "lower", ("ProfileCollector",)),
    "observability.timeline.self_s": ("s", "lower", ("TimelineCollector",)),
    "observability.tee.self_s": ("s", "lower", ("TeeTracer",)),
    "observability.finalize_s": ("s", "lower", ("Collector",)),
    "executor.cells": ("count", "higher", ("run_cells",)),
    "executor.self_s": ("s", "lower", ("run_cells",)),
    "evaluation.self_s": ("s", "lower", ("runner:evaluate_schedule",)),
    "engine.iterations": ("count", "lower", ()),
    "engine.hops_booked": ("count", "lower", ()),
    "engine.loop_self_s": ("s", "lower", ("drain",)),
    "workload.generate_s": ("s", "lower", ("ScenarioGenerator.generate",)),
    "faults.generate_s": ("s", "lower", ("FaultPlan.generate",)),
    "trace.overhead_ratio": ("ratio", "lower", ()),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(
    recorder: Recorder,
    engine: Dict[str, int],
    requests: int,
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced pass.

    Args:
        recorder: the traced pass's spans and counters.
        engine: summed ``EngineStats`` counters of the pass's ops.
        requests: summed request count of the pass's scenarios.
        traced_wall, untraced_wall: summed op wall time of the traced and
            the timing pass over the same cells.
    """
    stats = recorder.stats

    def calls(name: str) -> int:
        stat = stats.get(name)
        return stat.calls if stat is not None else 0

    def self_s(*names: str) -> float:
        return sum(stats[name].self_time for name in names if name in stats)

    def total_s(*names: str) -> float:
        return sum(stats[name].total for name in names if name in stats)

    lookups = calls("tree_cache")
    trees = calls("routing")
    probes = calls("probe")
    accepted = recorder.counters.get("probe.accepted", 0)
    passes = [span for span in recorder.spans if span[0] == "engine.drain" and span[3] == "dynamic.run"]
    hooks = ("obs.metrics", "obs.profile", "obs.timeline")
    finals = tuple(f"{name}.finalize" for name in hooks)
    return {
        "tree_cache.lookups": lookups,
        "tree_cache.hits": lookups - trees,
        "tree_cache.revalidations": engine["revalidations"],
        "tree_cache.hit_rate": _ratio(lookups - trees, lookups),
        "tree_cache.self_s": self_s("tree_cache"),
        "routing.trees": trees,
        "routing.self_s": self_s("routing"),
        "routing.us_per_tree": _ratio(self_s("routing"), trees) * 1e6,
        "routing.trees_per_request": _ratio(trees, requests),
        "probe.calls": probes,
        "probe.accepted": accepted,
        "probe.accept_rate": _ratio(accepted, probes),
        "probe.calls_per_tree": _ratio(probes, trees),
        "probe.self_s": self_s("probe"),
        "intervals.first_fit.calls": calls("intervals.first_fit"),
        "intervals.first_fit.self_s": self_s("intervals.first_fit"),
        "timeline.can_reserve.calls": calls("timeline.can_reserve"),
        "timeline.can_reserve.self_s": self_s("timeline.can_reserve"),
        "timeline.next_start.calls": calls("timeline.next_start"),
        "scoring.groups": recorder.counters.get("scoring.groups", 0),
        "scoring.self_s": self_s("scoring"),
        "cost.evaluations": calls("cost"),
        "cost.self_s": self_s("cost"),
        "booking.calls": calls("booking"),
        "booking.self_s": self_s("booking"),
        "dynamic.passes": len(passes),
        "dynamic.pass_s_p50": statistics.median(end - start for _, start, end, _ in passes) if passes else 0.0,
        "dynamic.trees_per_pass": _ratio(trees, len(passes)),
        "observability.events": sum(calls(name) for name in hooks),
        "observability.metrics.self_s": self_s("obs.metrics", "obs.metrics.finalize"),
        "observability.profile.self_s": self_s("obs.profile", "obs.profile.finalize"),
        "observability.timeline.self_s": self_s("obs.timeline", "obs.timeline.finalize"),
        "observability.tee.self_s": self_s("obs.tee", "obs.tee.finalize"),
        "observability.finalize_s": total_s(*finals),
        "executor.cells": recorder.counters.get("executor.cells", 0),
        "executor.self_s": self_s("executor"),
        "evaluation.self_s": self_s("evaluation"),
        "engine.iterations": engine["iterations"],
        "engine.hops_booked": engine["hops_booked"],
        "engine.loop_self_s": self_s("engine.drain"),
        "workload.generate_s": total_s("workload.generate"),
        "faults.generate_s": total_s("faults.generate"),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }


def absent_metrics(absent: List[str]) -> List[str]:
    """Per-layer metrics that depend on a target that is gone."""
    return sorted(
        name
        for name, (_, _, needs) in METRICS.items()
        if any(need in path for need in needs for path in absent)
    )
