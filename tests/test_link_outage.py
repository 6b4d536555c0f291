"""Tests for dynamic link outages (changing link availability, paper §1)."""

import pytest

from repro.core.state import MUTATION_CUTOFF, NetworkState, TransferPlan
from repro.dynamic.driver import DynamicDriver
from repro.dynamic.events import LinkOutage, RequestArrival
from repro.errors import (
    InfeasibleTransferError,
    ModelError,
    SchedulingError,
)

from tests.helpers import (
    line_network,
    make_item,
    make_link,
    make_network,
    make_scenario,
)


def _two_route_scenario():
    """Two disjoint routes 0 -> 1 (fast) and 0 -> 2 -> 1 (slow)."""
    network = make_network(
        3,
        [
            make_link(0, 0, 1, bandwidth=1000.0),
            make_link(1, 0, 2, bandwidth=500.0),
            make_link(2, 2, 1, bandwidth=500.0),
        ],
    )
    return make_scenario(
        network,
        [make_item(0, 1000.0, [(0, 0.0)])],
        [(0, 1, 2, 100.0)],
    )


class TestStateCutoffs:
    def test_cutoff_blocks_late_transfers(self):
        scenario = _two_route_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        state.disable_link_from(0, at_time=5.0)
        plan = state.earliest_transfer(0, link, 0.0)
        assert plan is not None and plan.end <= 5.0
        late = state.earliest_transfer(0, link, 4.5)
        assert late is None  # cannot complete by the cutoff

    def test_cutoff_rejects_booking_past_it(self):
        scenario = _two_route_scenario()
        state = NetworkState(scenario)
        state.disable_link_from(0, at_time=0.5)
        plan = TransferPlan(
            item_id=0,
            link=scenario.network.link(0),
            start=0.0,
            end=1.0,
            release=scenario.horizon,
        )
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)

    def test_cutoff_bumps_revision(self):
        state = NetworkState(_two_route_scenario())
        position = state.journal_length()
        state.disable_link_from(0, at_time=5.0)
        (record,) = state.journal_since(position)
        assert record.kind == MUTATION_CUTOFF
        assert record.link_id == 0
        assert record.cutoff == 5.0

    def test_cutoff_cannot_loosen(self):
        state = NetworkState(_two_route_scenario())
        state.disable_link_from(0, at_time=5.0)
        state.disable_link_from(0, at_time=3.0)  # tightening is fine
        with pytest.raises(SchedulingError):
            state.disable_link_from(0, at_time=9.0)

    def test_clone_preserves_cutoffs(self):
        state = NetworkState(_two_route_scenario())
        state.disable_link_from(0, at_time=5.0)
        clone = state.clone()
        assert clone.link_cutoff(0) == 5.0


class TestOutageEvents:
    def test_outage_forces_detour(self):
        # Reveal the request only after the direct link has failed: the
        # schedule must route 0 -> 2 -> 1.
        scenario = _two_route_scenario()
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario,
            [
                LinkOutage(time=1.0, physical_id=0),
                RequestArrival(time=2.0, request_id=0),
            ],
        )
        assert result.effect.satisfied_count == 1
        assert [step.link_id for step in result.schedule.steps] == [1, 2]
        outage_pass = next(
            outcome for outcome in result.outcomes if outcome.outages
        )
        assert outage_pass.outages == (0,)

    def test_outage_of_only_route_starves_request(self):
        network = line_network(3)
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 2, 2, 100.0)],
        )
        driver = DynamicDriver("partial", "C4", 2.0)
        result = driver.run(
            scenario,
            [
                LinkOutage(time=0.5, physical_id=0),
                RequestArrival(time=1.0, request_id=0),
            ],
        )
        assert result.effect.satisfied_count == 0

    def test_outage_cuts_every_window_of_the_facility(self):
        from repro.core.intervals import Interval

        network = make_network(
            2,
            [
                make_link(
                    0, 0, 1, windows=[Interval(0, 10), Interval(50, 60)]
                ),
                make_link(1, 1, 0),
            ],
        )
        scenario = make_scenario(
            network,
            [make_item(0, 1000.0, [(0, 0.0)])],
            [(0, 1, 2, 100.0)],
        )
        state = NetworkState(scenario)
        DynamicDriver._apply_outage(
            state, LinkOutage(time=20.0, physical_id=0)
        )
        # The second window (link id 1 of the facility) is unusable.
        assert state.link_cutoff(0) == 20.0
        assert state.link_cutoff(1) == 20.0
        assert state.earliest_transfer(
            0, scenario.network.link(1), 0.0
        ) is None

    def test_unknown_physical_link_rejected(self):
        scenario = _two_route_scenario()
        with pytest.raises(ModelError):
            DynamicDriver().run(
                scenario, [LinkOutage(time=1.0, physical_id=99)]
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ModelError):
            LinkOutage(time=-1.0, physical_id=0)
