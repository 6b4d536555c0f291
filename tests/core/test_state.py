"""Unit tests for the mutable scheduling state (reservations, copies, GC)."""

import pytest

from repro.core.intervals import Interval
from repro.core.state import MUTATION_BOOKING, NetworkState, TransferPlan
from repro.errors import InfeasibleTransferError

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)


def _two_hop_scenario(**overrides):
    """0 -> 1 -> 2 ring; item of 1000 bytes at machine 0; request at 2."""
    defaults = dict(
        network=line_network(3),
        items=[make_item(0, 1000.0, [(0, 0.0)])],
        request_specs=[(0, 2, 2, 100.0)],
        gc_delay=50.0,
        horizon=1000.0,
    )
    defaults.update(overrides)
    return make_scenario(**defaults)


class TestInitialState:
    def test_sources_are_seed_copies(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        copy = state.copy_at(0, 0)
        assert copy is not None
        assert copy.available_from == 0.0
        assert copy.hops == 0
        assert copy.release == scenario.horizon
        assert state.holds(0, 0)
        assert not state.holds(0, 1)

    def test_no_requests_satisfied_initially(self):
        state = NetworkState(_two_hop_scenario())
        assert state.satisfied_request_ids() == ()
        assert not state.is_satisfied(0)
        assert len(state.unsatisfied_requests_for_item(0)) == 1


class TestReleaseTimes:
    def test_intermediate_machine_release_is_gc(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        # Machine 1 is neither source nor destination of item 0.
        assert state.release_time_at(0, 1) == 150.0  # deadline 100 + gc 50

    def test_destination_release_is_horizon(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        assert state.release_time_at(0, 2) == scenario.horizon

    def test_source_release_is_horizon(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        assert state.release_time_at(0, 0) == scenario.horizon


class TestEarliestTransfer:
    def test_uncontended_transfer_starts_immediately(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        plan = state.earliest_transfer(0, scenario.network.link(0), 0.0)
        assert plan.start == 0.0
        assert plan.end == 1.0  # 1000 bytes at 1000 B/s

    def test_transfer_waits_for_sender_ready(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        plan = state.earliest_transfer(0, scenario.network.link(0), 7.5)
        assert plan.start == 7.5

    def test_transfer_waits_for_window_start(self):
        network = make_network(
            2,
            [make_link(0, 0, 1, windows=[Interval(40, 100)])],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 0, 90.0)],
        )
        state = NetworkState(scenario)
        plan = state.earliest_transfer(0, network.link(0), 0.0)
        assert plan.start == 40.0

    def test_transfer_must_fit_window(self):
        network = make_network(
            2, [make_link(0, 0, 1, windows=[Interval(0, 0.5)])]
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],  # needs 1 s
            [(0, 1, 0, 90.0)],
        )
        state = NetworkState(scenario)
        assert state.earliest_transfer(0, network.link(0), 0.0) is None

    def test_transfer_skips_busy_interval(self):
        scenario = _two_hop_scenario(
            items=[
                make_item(0, 1000.0, [(0, 0.0)]),
                make_item(1, 1000.0, [(0, 0.0)]),
            ],
            request_specs=[(0, 2, 2, 100.0), (1, 2, 1, 100.0)],
        )
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        plan = state.earliest_transfer(1, link, 0.0)
        assert plan.start == 1.0  # serialized behind item 0

    def test_transfer_blocked_by_receiver_capacity(self):
        network = line_network(3, capacity=1500.0)
        scenario = make_scenario(
            network,
            [
                make_item(0, 1000.0, [(0, 0.0)]),
                make_item(1, 1000.0, [(0, 0.0)]),
            ],
            [(0, 2, 2, 100.0), (1, 2, 1, 400.0)],
            gc_delay=50.0,
            horizon=1000.0,
        )
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        # Machine 1 holds item 0 until its gc release (deadline 100 + gc 50
        # = t=150); item 1 (1000 bytes) does not fit beside it (capacity
        # 1500), so its residency must start at that release.
        plan = state.earliest_transfer(1, link, 0.0)
        assert plan.start == 150.0
        assert plan.end == 151.0

    def test_transfer_useless_after_own_gc_is_infeasible(self):
        # Capacity at the intermediate frees only at t=150, which is exactly
        # item 1's own gc release — a copy arriving then would live for zero
        # seconds, so no feasible transfer exists.
        network = line_network(3, capacity=1500.0)
        scenario = make_scenario(
            network,
            [
                make_item(0, 1000.0, [(0, 0.0)]),
                make_item(1, 1000.0, [(0, 0.0)]),
            ],
            [(0, 2, 2, 100.0), (1, 2, 1, 100.0)],
            gc_delay=50.0,
            horizon=1000.0,
        )
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        assert state.earliest_transfer(1, link, 0.0) is None

    def test_transfer_infeasible_when_capacity_never_frees(self):
        network = line_network(3, capacity=500.0)
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        state = NetworkState(scenario)
        assert state.earliest_transfer(0, network.link(0), 0.0) is None

    def test_transfer_to_holder_returns_none(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        assert state.earliest_transfer(0, link, 0.0) is None

    def test_forward_must_complete_before_sender_gc(self):
        # Item staged on machine 1 (intermediate) is GC'd at deadline+gc;
        # a forward from 1 must complete before that.
        scenario = _two_hop_scenario(gc_delay=0.5)
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(
            state.earliest_transfer(0, network.link(0), 0.0)
        )
        plan = state.earliest_transfer(0, network.link(1), 1.0)
        # Sender copy at machine 1 is released at 100.5; transfer takes 1 s,
        # so it must start by 99.5 — starting at 1.0 is fine.
        assert plan is not None
        assert plan.end <= 100.5


class TestBookTransfer:
    def test_booking_creates_copy_and_step(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        result = state.book_transfer(state.earliest_transfer(0, link, 0.0))
        assert state.holds(0, 1)
        assert result.copy.hops == 1
        assert result.copy.available_from == 1.0
        assert state.schedule.step_count == 1
        assert result.satisfied_request_ids == ()

    def test_arrival_at_destination_records_delivery(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        result = state.book_transfer(
            state.earliest_transfer(0, network.link(1), 1.0)
        )
        assert result.satisfied_request_ids == (0,)
        assert state.is_satisfied(0)
        delivery = state.schedule.delivery(0)
        assert delivery.arrival == 2.0
        assert delivery.hops == 2

    def test_late_arrival_records_no_delivery(self):
        scenario = _two_hop_scenario(request_specs=[(0, 2, 2, 1.5)])
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        result = state.book_transfer(
            state.earliest_transfer(0, network.link(1), 1.0)
        )
        assert result.satisfied_request_ids == ()
        assert not state.is_satisfied(0)

    def test_booking_without_sender_copy_rejected(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(1)  # 1 -> 2, but 1 holds nothing
        plan = TransferPlan(
            item_id=0, link=link, start=0.0, end=1.0, release=1000.0
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)

    def test_booking_to_holder_rejected(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        stale = TransferPlan(
            item_id=0, link=link, start=5.0, end=6.0, release=plan.release
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(stale)

    def test_booking_on_busy_link_rejected(self):
        scenario = _two_hop_scenario(
            items=[
                make_item(0, 1000.0, [(0, 0.0)]),
                make_item(1, 1000.0, [(0, 0.0)]),
            ],
            request_specs=[(0, 2, 2, 100.0), (1, 2, 1, 100.0)],
        )
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        plan0 = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan0)
        conflicting = TransferPlan(
            item_id=1, link=link, start=0.5, end=1.5, release=150.0
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(conflicting)

    def test_booking_outside_window_rejected(self):
        network = make_network(
            2, [make_link(0, 0, 1, windows=[Interval(0, 10)])]
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 0, 90.0)],
        )
        state = NetworkState(scenario)
        plan = TransferPlan(
            item_id=0,
            link=network.link(0),
            start=9.5,
            end=10.5,
            release=scenario.horizon,
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)

    def test_revisions_bump_on_booking(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        assert state.item_revision(0) == 0
        assert state.journal_length() == 0
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        assert state.item_revision(0) == 1
        # The booking is journalled with its busy and residency intervals,
        # which is what cached trees are revalidated against.
        (record,) = state.journal_since(0)
        assert record.kind == MUTATION_BOOKING
        assert record.link_id == 0
        assert record.machine == 1
        assert record.busy == Interval(plan.start, plan.end)
        assert record.residency == Interval(plan.start, plan.release)
        # A booking removes availability only; it never moves the
        # capacity epoch.
        assert state.capacity_epoch == 0

    def test_capacity_reserved_until_release(self):
        scenario = _two_hop_scenario(gc_delay=50.0)
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.book_transfer(state.earliest_transfer(0, link, 0.0))
        timeline = state.machine_timeline(1)
        assert timeline.free_at(50.0) == 1_000_000.0 - 1000.0
        # Released at gc time (deadline 100 + gc 50 = 150).
        assert timeline.free_at(150.0) == 1_000_000.0

    def test_destination_copy_held_to_horizon(self):
        scenario = _two_hop_scenario()
        state = NetworkState(scenario)
        network = scenario.network
        state.book_transfer(state.earliest_transfer(0, network.link(0), 0.0))
        state.book_transfer(state.earliest_transfer(0, network.link(1), 1.0))
        timeline = state.machine_timeline(2)
        assert timeline.free_at(scenario.horizon - 1.0) == 1_000_000.0 - 1000.0
