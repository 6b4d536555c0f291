"""Edge-case coverage across the public API surface."""

import pytest

from repro.core.evaluation import evaluate_schedule
from repro.core.schedule import Schedule
from repro.core.state import NetworkState, TransferPlan
from repro.core.validation import ScheduleValidator
from repro.errors import (
    InfeasibleTransferError,
    SchedulingError,
    ValidationError,
)
from repro.exhaustive.search import ExhaustiveSearch
from repro.heuristics.base import EngineStats, TreeCache
from repro.heuristics.registry import make_heuristic
from repro.analysis.gantt import render_gantt
from repro.analysis.stats import schedule_stats

from tests.helpers import line_network, make_item, make_scenario


@pytest.fixture
def requestless_scenario():
    """A scenario whose items nobody requests."""
    return make_scenario(
        line_network(3),
        [make_item(0, 1000.0, [(0, 0.0)])],
        [],
    )


class TestNoRequests:
    def test_heuristics_return_empty_schedules(self, requestless_scenario):
        for heuristic in ("partial", "full_one", "full_all"):
            result = make_heuristic(heuristic, "C4", 0.0).run(
                requestless_scenario
            )
            assert result.schedule.step_count == 0
            assert result.stats.iterations == 0
            ScheduleValidator(requestless_scenario).validate(result.schedule)

    def test_exhaustive_handles_no_requests(self, requestless_scenario):
        result = ExhaustiveSearch().solve(requestless_scenario)
        assert result.complete
        assert result.weighted_sum == 0.0

    def test_evaluation_reports_zero_everything(self, requestless_scenario):
        result = make_heuristic("partial", "C4", 0.0).run(
            requestless_scenario
        )
        effect = evaluate_schedule(requestless_scenario, result.schedule)
        assert effect.weighted_sum == 0.0
        assert effect.total_count == 0
        assert effect.satisfaction_rate() == 0.0

    def test_analysis_handles_empty_schedule(self, requestless_scenario):
        result = make_heuristic("partial", "C4", 0.0).run(
            requestless_scenario
        )
        stats = schedule_stats(requestless_scenario, result.schedule)
        assert stats.steps == 0
        assert stats.peak_storage_fraction == 0.0
        text = render_gantt(requestless_scenario, result.schedule)
        assert "|" in text


class TestZeroCapacityMachines:
    def test_zero_capacity_intermediate_blocks_staging(self):
        scenario = make_scenario(
            line_network(3, capacity=0.0),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        result = make_heuristic("partial", "C4", 0.0).run(scenario)
        assert result.schedule.step_count == 0
        assert evaluate_schedule(
            scenario, result.schedule
        ).satisfied_count == 0


class TestAdjacentDestination:
    def test_single_hop_delivery(self):
        scenario = make_scenario(
            line_network(2),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        result = make_heuristic("full_all", "C4", 0.0).run(scenario)
        assert result.schedule.step_count == 1
        delivery = result.schedule.delivery(0)
        assert delivery.hops == 1
        assert delivery.arrival == 1.0


@pytest.fixture
def staged_state():
    """A 3-machine line with item 0 staged from M0 to M1 at [0, 1]."""
    scenario = make_scenario(
        line_network(3),
        [make_item(0, 1000.0, [(0, 0.0)])],
        [(0, 2, 2, 100.0)],
    )
    state = NetworkState(scenario)
    plan = state.earliest_transfer(0, scenario.network.link(0), 0.0)
    state.book_transfer(plan)
    return state


class TestCopyLossBoundaries:
    """Residency is ``[available_from, release)`` — closed/open exactly."""

    def test_removal_at_exact_availability_instant_succeeds(
        self, staged_state
    ):
        state = staged_state
        copy = state.copy_at(0, 1)
        capacity_epoch = state.capacity_epoch
        item_rev = state.item_revision(0)
        state.remove_copy(0, 1, copy.available_from)
        assert not state.holds(0, 1)
        assert state.capacity_epoch == capacity_epoch + 1
        assert state.item_revision(0) == item_rev + 1

    def test_removal_at_exact_release_instant_is_rejected(self, staged_state):
        state = staged_state
        copy = state.copy_at(0, 1)
        # The copy's release is the item's γ instant: latest deadline + γ.
        assert copy.release == state.scenario.gc_release_time(0)
        with pytest.raises(InfeasibleTransferError):
            state.remove_copy(0, 1, copy.release)
        # Just inside the residency the loss is accepted.
        state.remove_copy(0, 1, copy.release - 1e-6)
        assert not state.holds(0, 1)

    def test_boundary_removal_invalidates_cached_trees(self, staged_state):
        state = staged_state
        stats = EngineStats()
        cache = TreeCache(state, stats)
        first = cache.tree_for(0)
        assert 1 in first.seed_machines()
        assert stats.dijkstra_runs == 1
        cache.tree_for(0)
        assert stats.cache_hits == 1

        copy = state.copy_at(0, 1)
        state.remove_copy(0, 1, copy.available_from)
        recomputed = cache.tree_for(0)
        assert stats.dijkstra_runs == 2  # revision bump forced a recompute
        assert 1 not in recomputed.seed_machines()

    def test_reopen_request_invalidates_cached_trees(self, staged_state):
        state = staged_state
        network = state.scenario.network
        plan = state.earliest_transfer(0, network.link(1), 1.0)
        state.book_transfer(plan)
        assert state.is_satisfied(0)

        stats = EngineStats()
        cache = TreeCache(state, stats)
        cache.tree_for(0)
        item_rev = state.item_revision(0)
        state.reopen_request(0)
        assert not state.is_satisfied(0)
        assert state.schedule.delivery(0) is None
        assert state.item_revision(0) == item_rev + 1
        cache.tree_for(0)
        assert stats.dijkstra_runs == 2  # cached tree no longer trusted

    def test_reopen_of_unsatisfied_request_raises(self, staged_state):
        with pytest.raises(SchedulingError):
            staged_state.reopen_request(0)


class TestDeadlineAndReleaseConventions:
    """Scheduler and validator agree on the closed boundaries.

    A delivery arriving exactly at the deadline counts (``arrival <=
    Rft``), and a transfer ending exactly at the sender's γ release
    instant is legal.  Both conventions are closed on the boundary and
    must match between ``NetworkState`` and ``ScheduleValidator``.
    """

    def test_arrival_exactly_at_deadline_is_a_delivery(self):
        scenario = make_scenario(
            line_network(2),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 1.0)],  # deadline equals the one-hop arrival
        )
        state = NetworkState(scenario)
        result = state.book_transfer(
            state.earliest_transfer(0, scenario.network.link(0), 0.0)
        )
        assert result.satisfied_request_ids == (0,)
        delivery = state.schedule.delivery(0)
        assert delivery.arrival == 1.0
        ScheduleValidator(scenario).validate(state.schedule)
        # The validator also *requires* the record: dropping the
        # boundary delivery makes the same schedule invalid.
        state.schedule.remove_delivery(0)
        with pytest.raises(ValidationError):
            ScheduleValidator(scenario).validate(state.schedule)

    def test_arrival_just_past_deadline_is_not_a_delivery(self):
        scenario = make_scenario(
            line_network(2),
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 1.0 - 1e-3)],
        )
        state = NetworkState(scenario)
        result = state.book_transfer(
            state.earliest_transfer(0, scenario.network.link(0), 0.0)
        )
        assert result.satisfied_request_ids == ()
        assert state.schedule.delivery(0) is None
        ScheduleValidator(scenario).validate(state.schedule)
        # Claiming the late arrival as a delivery must fail validation.
        state.schedule.add_delivery(0, arrival=1.0, hops=1)
        with pytest.raises(ValidationError):
            ScheduleValidator(scenario).validate(state.schedule)

    def test_transfer_ending_exactly_at_gamma_release_is_legal(
        self, staged_state
    ):
        state = staged_state
        scenario = state.scenario
        release = scenario.gc_release_time(0)
        plan = TransferPlan(
            item_id=0,
            link=scenario.network.link(1),
            start=release - 1.0,
            end=release,  # finishes at the γ instant exactly
            release=state.release_time_at(0, 2),
        )
        state.book_transfer(plan)
        assert state.holds(0, 2)
        ScheduleValidator(scenario).validate(state.schedule)

    def test_transfer_ending_past_gamma_release_rejected_by_both(
        self, staged_state
    ):
        state = staged_state
        scenario = state.scenario
        release = scenario.gc_release_time(0)
        late = TransferPlan(
            item_id=0,
            link=scenario.network.link(1),
            start=release - 0.9,
            end=release + 0.1,
            release=state.release_time_at(0, 2),
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(late)

        # A hand-written schedule with the same overrun fails validation
        # too — both layers close the interval at the release instant.
        schedule = Schedule()
        schedule.add_step(0, 0, 1, 0, 0.0, 1.0)
        schedule.add_step(0, 1, 2, 1, release - 0.9, release + 0.1)
        with pytest.raises(ValidationError):
            ScheduleValidator(scenario).validate(schedule)


class TestStateQueriesOnFreshScenario:
    def test_unsatisfied_listing_matches_requests(self, tiny_scenarios):
        scenario = tiny_scenarios[0]
        state = NetworkState(scenario)
        for item_id in scenario.requested_item_ids():
            unsatisfied = state.unsatisfied_requests_for_item(item_id)
            assert {r.request_id for r in unsatisfied} == {
                r.request_id
                for r in scenario.requests_for_item(item_id)
            }
