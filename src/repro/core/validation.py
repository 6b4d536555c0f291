"""Independent feasibility checking of schedules.

:class:`ScheduleValidator` replays a schedule from scratch against a fresh
view of the scenario and verifies every model constraint.  It shares no
mutable state with the schedulers (it rebuilds its own timelines and busy
sets), so a validator pass is genuine evidence that an emitted schedule is
feasible — the test suite runs it over the output of every heuristic and
baseline.

Checks performed:

1. every step references an existing virtual link and matches its endpoints;
2. the transfer duration equals the link's communication time for the item;
3. the transfer lies inside the link's availability window;
4. no two transfers on the same virtual link overlap (link exclusivity);
5. the sender holds a copy of the item for the whole transfer (causality:
   initial source availability or an earlier completed inbound transfer, and
   the sender's copy is not garbage-collected before completion);
6. the receiver does not already hold the item;
7. storage: summing all copy residencies never exceeds any machine's
   capacity at any instant;
8. every recorded delivery corresponds to an on-time arrival at the correct
   destination with a consistent hop count;
9. every on-time arrival at a requesting destination *is* recorded as a
   delivery (no under-reporting).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.intervals import Interval, IntervalSet
from repro.core.schedule import Schedule
from repro.core.scenario import Scenario
from repro.core.timeline import CapacityTimeline
from repro.errors import CapacityError, ValidationError
from repro.faults.plan import FaultPlan

#: Absolute slack for floating-point time comparisons.  The schedulers and
#: the validator compute durations through the same arithmetic, so any real
#: violation is far larger than this.
TIME_EPSILON = 1e-6


class ScheduleValidator:
    """Replays and checks one schedule against one scenario.

    Args:
        scenario: the scenario the schedule claims to serve.
        faults: optional static fault plan the schedule was produced
            under.  When given, two extra constraints apply: transfers
            must not overlap an outage window of their link's physical
            facility, and durations on degraded links must match the
            *degraded* communication time (check 2 uses the reduced
            bandwidth).  Churn events are a dynamic-driver concern and
            are ignored here.
    """

    def __init__(
        self,
        scenario: Scenario,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._scenario = scenario
        if faults is not None:
            faults.check_against(scenario)
            if faults.is_empty():
                faults = None
        self._faults = faults

    def validate(self, schedule: Schedule) -> None:
        """Raise :class:`ValidationError` on the first violated constraint.

        Returns silently for a feasible schedule.
        """
        scenario = self._scenario
        network = scenario.network
        busy: Dict[int, IntervalSet] = {}
        timelines: List[CapacityTimeline] = [
            CapacityTimeline(machine.capacity) for machine in network.machines
        ]
        # copies[item_id][machine] = (available_from, release, hops)
        copies: List[Dict[int, Tuple[float, float, int]]] = [
            {} for _ in scenario.items
        ]
        for item in scenario.items:
            for src in item.sources:
                copies[item.item_id][src.machine] = (
                    src.available_from,
                    scenario.horizon,
                    0,
                )
        destination_requests = {
            (request.item_id, request.destination): request
            for request in scenario.requests
        }
        expected_deliveries: Dict[int, Tuple[float, int]] = {}

        for step in schedule.steps:
            link = self._check_link(step)
            item = scenario.item(step.item_id)
            duration = self._expected_duration(link, item)
            if abs(step.duration - duration) > TIME_EPSILON:
                raise ValidationError(
                    f"{step}: duration {step.duration} does not match the "
                    f"link communication time {duration}"
                )
            transfer = Interval(step.start, step.end)
            if not link.window.contains_interval(transfer):
                raise ValidationError(
                    f"{step}: transfer escapes link window {link.window!r}"
                )
            self._check_outages(step, link, transfer)
            link_busy = busy.setdefault(link.link_id, IntervalSet())
            if not link_busy.span_is_free(transfer.start, transfer.end):
                raise ValidationError(
                    f"{step}: virtual link {link.link_id} already carries a "
                    f"transfer during {transfer!r}"
                )
            link_busy.add(transfer)

            sender = copies[step.item_id].get(step.source)
            if sender is None:
                raise ValidationError(
                    f"{step}: machine M[{step.source}] holds no copy of item "
                    f"{step.item_id}"
                )
            available_from, sender_release, sender_hops = sender
            if step.start + TIME_EPSILON < available_from:
                raise ValidationError(
                    f"{step}: transfer starts before the sender's copy is "
                    f"available at {available_from}"
                )
            if step.end > sender_release + TIME_EPSILON:
                raise ValidationError(
                    f"{step}: transfer completes after the sender's copy is "
                    f"garbage-collected at {sender_release}"
                )
            if step.destination in copies[step.item_id]:
                raise ValidationError(
                    f"{step}: machine M[{step.destination}] already holds "
                    f"item {step.item_id}"
                )
            release = self._release_time(step.item_id, step.destination)
            if step.end > release + TIME_EPSILON:
                raise ValidationError(
                    f"{step}: arrival at {step.end} is after the copy's own "
                    f"release time {release}"
                )
            try:
                timelines[step.destination].reserve(
                    item.size, Interval(step.start, release)
                )
            except CapacityError as exc:
                raise ValidationError(
                    f"{step}: receiver M[{step.destination}] storage "
                    f"violation: {exc}"
                ) from exc
            copies[step.item_id][step.destination] = (
                step.end,
                release,
                sender_hops + 1,
            )
            request = destination_requests.get(
                (step.item_id, step.destination)
            )
            if (
                request is not None
                and request.request_id not in expected_deliveries
                and request.is_satisfied_by_arrival(step.end)
            ):
                expected_deliveries[request.request_id] = (
                    step.end,
                    sender_hops + 1,
                )

        self._check_deliveries(schedule, expected_deliveries)

    def _expected_duration(self, link, item) -> float:
        """The link's communication time, honoring degraded bandwidth."""
        if self._faults is not None:
            factor = self._faults.bandwidth_factor(link.physical_id)
            if factor < 1.0:
                return link.transfer_seconds(
                    item.size, link.bandwidth * factor
                )
        return link.transfer_seconds(item.size)

    def _check_outages(self, step, link, transfer: Interval) -> None:
        """Reject transfers overlapping an outage of the link's facility."""
        if self._faults is None:
            return
        for outage in self._faults.outage_intervals(link.physical_id):
            if transfer.start < outage.end and outage.start < transfer.end:
                raise ValidationError(
                    f"{step}: transfer overlaps outage window {outage!r} "
                    f"of physical link {link.physical_id}"
                )

    def _check_link(self, step):
        network = self._scenario.network
        if not 0 <= step.link_id < len(network.virtual_links):
            raise ValidationError(f"{step}: unknown virtual link")
        link = network.link(step.link_id)
        if link.source != step.source or link.destination != step.destination:
            raise ValidationError(
                f"{step}: link {step.link_id} connects M[{link.source}]->"
                f"M[{link.destination}], not the step's endpoints"
            )
        return link

    def _release_time(self, item_id: int, machine: int) -> float:
        scenario = self._scenario
        for request in scenario.requests_for_item(item_id):
            if request.destination == machine:
                return scenario.horizon
        if machine in scenario.item(item_id).source_machines:
            return scenario.horizon
        return scenario.gc_release_time(item_id)

    def _check_deliveries(
        self,
        schedule: Schedule,
        expected: Dict[int, Tuple[float, int]],
    ) -> None:
        recorded = schedule.deliveries
        for request_id, delivery in recorded.items():
            if request_id not in expected:
                raise ValidationError(
                    f"delivery for request {request_id} has no matching "
                    f"on-time arrival in the schedule"
                )
            arrival, hops = expected[request_id]
            if abs(delivery.arrival - arrival) > TIME_EPSILON:
                raise ValidationError(
                    f"delivery for request {request_id} records arrival "
                    f"{delivery.arrival}, replay found {arrival}"
                )
            if delivery.hops != hops:
                raise ValidationError(
                    f"delivery for request {request_id} records {delivery.hops} "
                    f"hops, replay found {hops}"
                )
        for request_id in expected:
            if request_id not in recorded:
                raise ValidationError(
                    f"request {request_id} arrived on time but the schedule "
                    f"records no delivery for it"
                )

    def is_valid(self, schedule: Schedule) -> bool:
        """Boolean convenience wrapper around :meth:`validate`."""
        try:
            self.validate(schedule)
        except ValidationError:
            return False
        return True
