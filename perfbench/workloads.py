"""The benchmark's three workloads: inputs from a seed, the op, its check.

A workload draws a fixed list of *cells* from the seed: one cell is the
input of one *op*, the call that hands a user a schedule.  Generating the
cells (scenarios, fault plans, arrival events) is set-up and is never
timed as an op.  Every workload uses each scenario in exactly one cell,
so per-network memo tables inside the library are paid by every op, as a
user scheduling a new scenario pays them.

Checks run after the op, outside its timing.  An op fails when it raises,
when :class:`~repro.ScheduleValidator` rejects its schedule, or when
:func:`~repro.evaluate_schedule` disagrees with the effect the op reported.
A check also returns a *fingerprint* of the op's decisions (schedule and
engine counters, never times), which the traced pass must reproduce.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    DynamicDriver,
    EUWeights,
    GeneratorConfig,
    ScenarioGenerator,
    ScheduleValidator,
    evaluate_schedule,
    make_heuristic,
    paper_pairings,
    reveal_at_item_start,
    upper_bound,
)
from repro.errors import ValidationError
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.faults import FaultPlan, use_faults


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Cell:
    """The input of one op.

    Attributes:
        index: position in the workload's cell list.
        label: what the op runs, e.g. ``"partial/C4"``.
        scenario: the generated scenario.
        requests: the scenario's request count.
        bound: :func:`~repro.upper_bound` of the scenario.
        heuristic, criterion, log_ratio: the scheduler coordinates.
        plan: the static fault plan the op runs under (or ``None``).
        events: the dynamic arrival events (dynamic workload only).
    """

    index: int
    label: str
    scenario: Any
    requests: int
    bound: float
    heuristic: str
    criterion: str
    log_ratio: float
    plan: Optional[Any] = None
    events: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class Checked:
    """A checked op: achieved weighted sum plus its decision fingerprint."""

    weighted_sum: float
    fingerprint: Any
    engine: Any


def schedule_fingerprint(schedule: Any) -> Tuple[Any, ...]:
    """The schedule's steps and deliveries, comparable with ``==``."""
    return (schedule.steps, tuple(sorted(schedule.deliveries.items())))


def untimed_stats(stats: Any) -> Any:
    """``EngineStats`` without its wall-clock field."""
    return dataclasses.replace(stats, elapsed_seconds=0.0)


def _validate(cell: Cell, schedule: Any) -> float:
    """Validate a static-model schedule; returns its weighted sum."""
    try:
        ScheduleValidator(cell.scenario, cell.plan).validate(schedule)
    except ValidationError as exc:
        raise CheckFailed(f"cell {cell.index} ({cell.label}): {exc}") from exc
    return evaluate_schedule(cell.scenario, schedule).weighted_sum


def radical_inverse(index: int, base: int) -> float:
    """The van der Corput sequence: evenly spread points in ``[0, 1)``."""
    result, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        result += digit * scale
        scale /= base
    return result


def stratified(config: Any, index: int) -> Any:
    """``config`` with cell ``index``'s machine count and requests per
    machine pinned.

    The two are the main drivers of an op's cost (request count explains
    about 80% of the log-variance of paper-scale run time), so drawing
    them from a low-discrepancy sequence over the configured ranges gives
    every run the same size mix and keeps the medians steady across seeds.
    Everything else is drawn from ``config`` as usual.
    """
    low, high = config.requests_per_machine
    requests = low + int(radical_inverse(index + 1, 2) * (high - low + 1))
    low, high = config.machines
    machines = low + int(radical_inverse(index + 1, 5) * (high - low + 1))
    return config.replace(
        machines=(machines, machines), requests_per_machine=(requests, requests)
    )


class Workload:
    """Base class: a named cell list, the op, and its check."""

    name = ""
    #: Cells per second of ``--seconds``: the nominal op rate on a
    #: 2-CPU x86-64 box, so a run measures about ``--seconds`` there.
    cells_per_second = 1.0
    #: Seed offset, so workloads sharing a generator config still draw
    #: different scenarios from one ``--seed``.
    offset = 0

    def scenario_seed(self, seed: int, index: int) -> int:
        return seed * 1_000_003 + self.offset * 100_003 + index

    def cells(self, seed: int, count: int) -> List[Cell]:
        raise NotImplementedError

    def op(self, cell: Cell) -> Any:
        raise NotImplementedError

    def check(self, cell: Cell, out: Any) -> Checked:
        raise NotImplementedError

    def traced_fingerprint(self, cell: Cell, out: Any, captured: List[Any]) -> Any:
        """The fingerprint of a traced op (checks are not rerun traced)."""
        return self.check_fingerprint(cell, out)

    def check_fingerprint(self, cell: Cell, out: Any) -> Any:
        raise NotImplementedError


class StaticPaper(Workload):
    """§5.3 paper-scale scenarios, healthy network, the three heuristics
    with C4 at log10(E/U) = 0; cell ``i`` runs heuristic ``i mod 3``."""

    name = "static-paper"
    cells_per_second = 1.3
    offset = 1
    heuristics = ("partial", "full_one", "full_all")

    def cells(self, seed: int, count: int) -> List[Cell]:
        cells = []
        for index in range(count):
            generator = ScenarioGenerator(stratified(GeneratorConfig.paper(), index))
            scenario = generator.generate(self.scenario_seed(seed, index))
            heuristic = self.heuristics[index % len(self.heuristics)]
            cells.append(
                Cell(
                    index=index,
                    label=f"{heuristic}/C4",
                    scenario=scenario,
                    requests=len(scenario.requests),
                    bound=upper_bound(scenario),
                    heuristic=heuristic,
                    criterion="C4",
                    log_ratio=0.0,
                )
            )
        return cells

    def op(self, cell: Cell) -> Any:
        scheduler = make_heuristic(
            cell.heuristic, criterion=cell.criterion, weights=cell.log_ratio
        )
        return scheduler.run(cell.scenario)

    def check(self, cell: Cell, out: Any) -> Checked:
        weighted = _validate(cell, out.schedule)
        return Checked(weighted, self.check_fingerprint(cell, out), out.stats)

    def check_fingerprint(self, cell: Cell, out: Any) -> Any:
        return (schedule_fingerprint(out.schedule), untimed_stats(out.stats))


class DynamicOutage(Workload):
    """Reduced-scale scenarios re-scheduled by ``DynamicDriver("partial",
    "C4", 2.0)`` as requests are revealed at their item's start, inside a
    static fault plan of intensity 0.5 (outages and degradation)."""

    name = "dynamic-outage"
    cells_per_second = 2.0
    offset = 2
    intensity = 0.5

    def cells(self, seed: int, count: int) -> List[Cell]:
        cells = []
        for index in range(count):
            scenario_seed = self.scenario_seed(seed, index)
            generator = ScenarioGenerator(stratified(GeneratorConfig.reduced(), index))
            scenario = generator.generate(scenario_seed)
            plan = FaultPlan.generate(
                scenario, self.intensity, seed=scenario_seed, churn=False
            )
            cells.append(
                Cell(
                    index=index,
                    label="dynamic(partial/C4)",
                    scenario=scenario,
                    requests=len(scenario.requests),
                    bound=upper_bound(scenario),
                    heuristic="partial",
                    criterion="C4",
                    log_ratio=2.0,
                    plan=plan,
                    events=tuple(reveal_at_item_start(scenario)),
                )
            )
        return cells

    def op(self, cell: Cell) -> Any:
        driver = DynamicDriver(cell.heuristic, cell.criterion, cell.log_ratio)
        with use_faults(cell.plan):
            return driver.run(cell.scenario, cell.events)

    def check(self, cell: Cell, out: Any) -> Checked:
        weighted = _validate(cell, out.schedule)
        effect = evaluate_schedule(cell.scenario, out.schedule)
        if effect != out.effect:
            raise CheckFailed(
                f"cell {cell.index}: driver reported {out.effect}, the "
                f"schedule evaluates to {effect}"
            )
        return Checked(weighted, self.check_fingerprint(cell, out), out.stats)

    def check_fingerprint(self, cell: Cell, out: Any) -> Any:
        return (
            schedule_fingerprint(out.schedule),
            out.effect,
            out.outcomes,
            untimed_stats(out.stats),
        )


class ObservedSweep(Workload):
    """Reduced-scale scenarios through ``SweepExecutor(workers=1,
    metrics=True, profile=True, timeline=True)``; cell ``i`` runs
    combination ``i mod 33`` of the 11 paper pairings x log10(E/U) in
    {-1, 0, 1}.  One op is one ``run_cells([cell])`` on a fresh executor."""

    name = "observed-sweep"
    cells_per_second = 2.4
    offset = 3
    log_ratios = (-1.0, 0.0, 1.0)

    def combos(self) -> List[Tuple[str, str, float]]:
        return [
            (heuristic, criterion, ratio)
            for ratio in self.log_ratios
            for heuristic, criterion in paper_pairings()
        ]

    def cells(self, seed: int, count: int) -> List[Cell]:
        combos = self.combos()
        cells = []
        for index in range(count):
            generator = ScenarioGenerator(stratified(GeneratorConfig.reduced(), index))
            scenario = generator.generate(self.scenario_seed(seed, index))
            heuristic, criterion, ratio = combos[index % len(combos)]
            cells.append(
                Cell(
                    index=index,
                    label=f"{heuristic}/{criterion}@{ratio:g}",
                    scenario=scenario,
                    requests=len(scenario.requests),
                    bound=upper_bound(scenario),
                    heuristic=heuristic,
                    criterion=criterion,
                    log_ratio=ratio,
                )
            )
        return cells

    def op(self, cell: Cell) -> Any:
        executor = SweepExecutor(
            workers=1, metrics=True, profile=True, timeline=True
        )
        sweep_cell = SweepCell(
            scenario=cell.scenario,
            heuristic=cell.heuristic,
            criterion=cell.criterion,
            weights=EUWeights.from_log_ratio(cell.log_ratio),
        )
        with executor:
            (record,) = executor.run_cells([sweep_cell])
        return record

    def _reference(self, cell: Cell) -> Any:
        """The same scheduler run plainly: the schedule behind the record."""
        scheduler = make_heuristic(
            cell.heuristic,
            criterion=cell.criterion,
            weights=EUWeights.from_log_ratio(cell.log_ratio),
        )
        return scheduler.run(cell.scenario)

    def check(self, cell: Cell, out: Any) -> Checked:
        if out.metrics is None or out.profile is None or out.timeline is None:
            raise CheckFailed(f"cell {cell.index}: a collector output is missing")
        reference = self._reference(cell)
        weighted = _validate(cell, reference.schedule)
        effect = evaluate_schedule(cell.scenario, reference.schedule)
        reported = (
            out.weighted_sum,
            out.satisfied_by_priority,
            out.steps,
            out.dijkstra_runs,
        )
        expected = (
            effect.weighted_sum,
            effect.satisfied_by_priority,
            reference.schedule.step_count,
            reference.stats.dijkstra_runs,
        )
        if reported != expected:
            raise CheckFailed(
                f"cell {cell.index} ({cell.label}): the sweep record reports "
                f"{reported}, the plain run gives {expected}"
            )
        fingerprint = (
            out.without_timing(),
            schedule_fingerprint(reference.schedule),
            untimed_stats(reference.stats),
        )
        return Checked(weighted, fingerprint, reference.stats)

    def traced_fingerprint(self, cell: Cell, out: Any, captured: List[Any]) -> Any:
        if len(captured) != 1:
            return ("engine runs captured", len(captured))
        (result,) = captured
        return (
            out.without_timing(),
            schedule_fingerprint(result.schedule),
            untimed_stats(result.stats),
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (StaticPaper(), DynamicOutage(), ObservedSweep())
}

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY: Dict[str, str] = {
    "static-paper": "paper-scale static runs: TreeCache revalidation, routing "
    "and probes dominate; dynamic surgery and observers idle",
    "dynamic-outage": "dynamic re-scheduling under outages: a fresh TreeCache "
    "per pass, so cold tree builds, probes and first_fit dominate",
    "observed-sweep": "sweep cells under metrics+profile+timeline collectors: "
    "observer overhead, C1-C4 scoring and the executor",
}


def engine_totals(engines: List[Any]) -> Dict[str, int]:
    """Summed engine counters over a pass's ops."""
    fields = ("iterations", "hops_booked", "revalidations")
    return {name: sum(getattr(stats, name) for stats in engines) for name in fields}

