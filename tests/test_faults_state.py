"""Fault application in NetworkState: capacity masking, degradation,
ambient capture, and composition with the schedulers and validator.

The scenarios use the 1000 B/s line network from ``tests.helpers`` so
every expected time is hand-computable: one hop moves the 1000 B item in
exactly 1 s on a healthy link and 2 s at factor 0.5.
"""

import pytest

from repro.core.state import NetworkState
from repro.core.validation import ScheduleValidator
from repro.errors import ModelError
from repro.faults import (
    BandwidthDegradation,
    FaultPlan,
    OutageWindow,
    use_faults,
)
from repro.heuristics.registry import heuristic_names, make_heuristic
from repro.observability import RecordingTracer, use_tracer
from tests.helpers import single_item_line_scenario


def _outage_plan(physical_id=0, start=0.0, end=5.0):
    return FaultPlan(outages=(OutageWindow(physical_id, start, end),))


class TestCapacityMasking:
    def test_outage_delays_earliest_transfer(self):
        scenario = single_item_line_scenario(deadline=100.0)
        state = NetworkState(scenario, faults=_outage_plan(0, 0.0, 5.0))
        transfer = state.earliest_transfer(
            0, scenario.network.link(0), sender_ready=0.0
        )
        assert transfer is not None
        assert transfer.start == 5.0

    def test_healthy_state_is_unchanged(self):
        scenario = single_item_line_scenario(deadline=100.0)
        state = NetworkState(scenario)
        transfer = state.earliest_transfer(
            0, scenario.network.link(0), sender_ready=0.0
        )
        assert transfer is not None
        assert transfer.start == 0.0

    def test_degradation_lengthens_transfers(self):
        scenario = single_item_line_scenario(deadline=100.0)
        plan = FaultPlan(degradations=(BandwidthDegradation(0, 0.5),))
        state = NetworkState(scenario, faults=plan)
        transfer = state.earliest_transfer(
            0, scenario.network.link(0), sender_ready=0.0
        )
        assert transfer is not None
        assert transfer.end - transfer.start == pytest.approx(2.0)

    def test_effective_bandwidth_accessor(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(degradations=(BandwidthDegradation(0, 0.25),))
        state = NetworkState(scenario, faults=plan)
        degraded = {
            link.link_id
            for link in scenario.network.virtual_links
            if link.physical_id == 0
        }
        for link in scenario.network.virtual_links:
            expected = (
                link.bandwidth * 0.25
                if link.link_id in degraded
                else link.bandwidth
            )
            assert state.effective_bandwidths()[link.link_id] == expected


class TestEffectiveBandwidths:
    def test_repeated_reads_return_the_same_list(self):
        state = NetworkState(single_item_line_scenario())
        assert state.effective_bandwidths() is state.effective_bandwidths()

    def test_construction_faults_are_visible_without_degrading(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(degradations=(BandwidthDegradation(0, 0.25),))
        state = NetworkState(scenario, faults=plan)
        values = state.effective_bandwidths()
        for link in scenario.network.virtual_links:
            expected = link.bandwidth * (
                0.25 if link.physical_id == 0 else 1.0
            )
            assert values[link.link_id] == expected

    def test_clone_shares_the_degraded_list(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(degradations=(BandwidthDegradation(0, 0.25),))
        state = NetworkState(scenario, faults=plan)
        clone = state.clone()
        assert clone.effective_bandwidths() is state.effective_bandwidths()
        assert clone.effective_bandwidths()[0] == (
            scenario.network.link(0).bandwidth * 0.25
        )

    def test_construction_degradation_doubles_planned_duration(self):
        scenario = single_item_line_scenario()
        link = scenario.network.link(0)
        healthy = NetworkState(scenario).earliest_transfer(
            0, link, sender_ready=0.0
        )
        plan = FaultPlan(degradations=(BandwidthDegradation(0, 0.5),))
        degraded = NetworkState(scenario, faults=plan).earliest_transfer(
            0, link, sender_ready=0.0
        )
        assert healthy is not None and degraded is not None
        assert (degraded.end - degraded.start) == 2 * (
            healthy.end - healthy.start
        )


class TestAmbientCapture:
    def test_use_faults_is_picked_up_by_new_states(self):
        scenario = single_item_line_scenario()
        plan = _outage_plan()
        with use_faults(plan):
            state = NetworkState(scenario)
        assert state.faults == plan

    def test_explicit_plan_wins_over_ambient(self):
        scenario = single_item_line_scenario()
        ambient = _outage_plan(0, 0.0, 5.0)
        explicit = _outage_plan(0, 0.0, 9.0)
        with use_faults(ambient):
            state = NetworkState(scenario, faults=explicit)
        assert state.faults == explicit

    def test_no_plan_outside_the_context(self):
        scenario = single_item_line_scenario()
        with use_faults(_outage_plan()):
            pass
        assert NetworkState(scenario).faults is None

    def test_empty_plan_normalizes_to_none(self):
        scenario = single_item_line_scenario()
        state = NetworkState(scenario, faults=FaultPlan())
        assert state.faults is None

    def test_clone_shares_the_plan(self):
        scenario = single_item_line_scenario()
        state = NetworkState(scenario, faults=_outage_plan())
        clone = state.clone()
        assert clone.faults == state.faults
        assert clone.effective_bandwidths() == state.effective_bandwidths()

    def test_unknown_link_rejected_at_construction(self):
        scenario = single_item_line_scenario()
        with pytest.raises(ModelError):
            NetworkState(scenario, faults=_outage_plan(physical_id=99))


class TestTracing:
    def test_faults_applied_event(self):
        scenario = single_item_line_scenario()
        plan = FaultPlan(
            outages=(OutageWindow(0, 0.0, 5.0),),
            degradations=(BandwidthDegradation(1, 0.5),),
        )
        tracer = RecordingTracer()
        with use_tracer(tracer):
            NetworkState(scenario, faults=plan)
        events = tracer.named("faults_applied")
        assert len(events) == 1
        fields = dict(events[0].fields)
        assert fields["masked_windows"] == 1
        assert fields["degraded_links"] == 1

    def test_no_event_without_a_plan(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            NetworkState(scenario)
        assert tracer.named("faults_applied") == []


class TestSchedulerComposition:
    @pytest.mark.parametrize("heuristic", heuristic_names())
    def test_faulted_schedules_pass_the_faulted_validator(self, heuristic):
        scenario = single_item_line_scenario(deadline=100.0)
        plan = FaultPlan(
            outages=(OutageWindow(0, 0.0, 5.0),),
            degradations=(BandwidthDegradation(1, 0.5),),
        )
        with use_faults(plan):
            result = make_heuristic(heuristic, "C4", 2.0).run(scenario)
        assert result.schedule.step_count > 0
        ScheduleValidator(scenario, faults=plan).validate(result.schedule)

    def test_outage_shifts_the_booked_schedule(self):
        scenario = single_item_line_scenario(deadline=100.0)
        heuristic = make_heuristic("partial", "C4", 2.0)
        healthy = heuristic.run(scenario)
        with use_faults(_outage_plan(0, 0.0, 5.0)):
            faulted = make_heuristic("partial", "C4", 2.0).run(scenario)
        healthy_starts = [step.start for step in healthy.schedule.steps]
        faulted_starts = [step.start for step in faulted.schedule.steps]
        assert min(healthy_starts) == 0.0
        assert min(faulted_starts) == 5.0

    def test_tight_deadline_under_faults_misses(self):
        # Healthy arrival is t=2.0; the outage pushes it past t=5 which
        # blows a deadline of 4 — the scheduler must give up, not book an
        # infeasible transfer.
        scenario = single_item_line_scenario(deadline=4.0)
        healthy = make_heuristic("partial", "C4", 2.0).run(scenario)
        assert healthy.schedule.deliveries
        with use_faults(_outage_plan(0, 0.0, 5.0)):
            faulted = make_heuristic("partial", "C4", 2.0).run(scenario)
        assert not faulted.schedule.deliveries
