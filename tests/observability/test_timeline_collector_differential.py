"""Deferred forensics attribution vs the eager fan-out oracle.

:class:`~repro.observability.timeline.TimelineCollector` charges a
request for its item's probes lazily: per-item cumulative tallies plus a
snapshot per pending request, flushed by the lifecycle hooks and by
``finalize()``.  The oracle below is the eager collector it replaced,
which copied every item event into every pending ledger as it fired.
Both must produce byte-identical canonical ``Timeline`` JSON and equal
``explain()`` text for every request:

* on generated hook streams over a small scenario (reopen while pending,
  satisfy twice, cancel after satisfaction, reopen after a full chain,
  bursts past ``MAX_CHAIN_EVENTS``, unknown request ids, events for
  items nobody requested, ``finalize()`` mid-stream);
* on real :class:`~repro.dynamic.driver.DynamicDriver` runs with
  ``CopyLoss`` and ``RequestCancellation`` events, the only engine paths
  that emit reopens and cancellations.

A golden digest recorded with the eager collector
(``golden/timeline_parent.json``) pins one executor run independently
of this module's copy of the oracle.
"""

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenario import Scenario
from repro.dynamic.driver import DynamicDriver, reveal_at_item_start
from repro.dynamic.events import CopyLoss, RequestCancellation
from repro.experiments.executor import SweepExecutor
from repro.observability import TeeTracer, use_tracer
from repro.observability.timeline import (
    MAX_CHAIN_EVENTS,
    ClassSeries,
    LinkSeries,
    RequestForensics,
    StorageSeries,
    Timeline,
    TimelineCollector,
    _forensics_key,
)
from repro.observability.tracer import REASON_CODES, Tracer
from repro.serialization import timeline_to_dict
from repro.workload.config import GeneratorConfig
from repro.workload.generator import ScenarioGenerator

GOLDEN = Path(__file__).parent / "golden" / "timeline_parent.json"


# -- the oracle --------------------------------------------------------------

class EagerTimelineCollector(Tracer):
    """The naive oracle: every item event is copied, as it fires, into
    the ledger of every pending request of the item (O(pending) work per
    probe).  This is the eager fan-out collector the deferred one
    replaced, kept verbatim apart from this docstring.
    """

    def __init__(self, scenario: Scenario) -> None:
        timeline = Timeline(horizon=scenario.horizon, runs=1)
        for link in scenario.network.virtual_links:
            timeline.links[link.link_id] = LinkSeries(
                window_start=link.start, window_end=link.end
            )
        for machine in scenario.network.machines:
            timeline.storage[machine.index] = StorageSeries(
                capacity=machine.capacity
            )
        pending: Dict[int, List[int]] = {}
        keys: Dict[int, str] = {}
        for request in scenario.requests:
            series = timeline.classes.get(request.priority)
            if series is None:
                series = ClassSeries()
                timeline.classes[request.priority] = series
            series.requests += 1
            key = _forensics_key(scenario.name, request.request_id)
            timeline.forensics[key] = RequestForensics(
                scenario=scenario.name,
                request_id=request.request_id,
                item_id=request.item_id,
                destination=request.destination,
                priority=request.priority,
                deadline=request.deadline,
            )
            pending.setdefault(request.item_id, []).append(
                request.request_id
            )
            keys[request.request_id] = key
        for request_ids in pending.values():
            request_ids.sort()
        self._timeline = timeline
        self._scenario = scenario
        self._pending = pending
        self._keys = keys

    def _pending_ledgers(self, item_id: int) -> List[RequestForensics]:
        return [
            self._timeline.forensics[self._keys[request_id]]
            for request_id in self._pending.get(item_id, [])
        ]

    def _ledger(self, request_id: int) -> Optional[RequestForensics]:
        key = self._keys.get(request_id)
        if key is None:
            return None
        return self._timeline.forensics[key]

    # -- booking ----------------------------------------------------------

    def on_transfer_attempt(self, item_id: int, link_id: int) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.attempts += 1
        for ledger in self._pending_ledgers(item_id):
            ledger.attempts += 1
            ledger.note_chain(("attempt", link_id))

    def on_transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        for ledger in self._pending_ledgers(item_id):
            ledger.rejections[reason] = (
                ledger.rejections.get(reason, 0) + 1
            )
            ledger.note_chain(("rejected", link_id, reason))

    def on_transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.bookings.append((start, end, item_id))
        for ledger in self._pending_ledgers(item_id):
            ledger.bookings += 1
            ledger.note_chain(("booked", link_id, start, end))

    def on_booking_failed(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._timeline.links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        for ledger in self._pending_ledgers(item_id):
            ledger.rejections[reason] = (
                ledger.rejections.get(reason, 0) + 1
            )
            ledger.note_chain(("booking_failed", link_id, reason))

    # -- storage -----------------------------------------------------------

    def on_storage_reserved(
        self, item_id: int, machine: int, amount: float, start: float, release: float
    ) -> None:
        series = self._timeline.storage.get(machine)
        if series is not None:
            series.reservations.append((start, release, amount, item_id))

    # -- request lifecycle -------------------------------------------------

    def on_request_satisfied(
        self, request_id: int, at_time: float, hops: int
    ) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.satisfied += 1
        slack = ledger.deadline - at_time
        ledger.arrivals.append((at_time, slack))
        ledger.note_chain(("satisfied", at_time, hops))
        series = self._timeline.classes[ledger.priority]
        series.satisfied += 1
        series.slack.append((at_time, slack))
        series.drains.append(at_time)
        self._drop_pending(ledger.item_id, request_id)

    def on_request_cancelled(self, request_id: int, at_time: float) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.cancelled += 1
        ledger.note_chain(("cancelled", at_time))
        series = self._timeline.classes[ledger.priority]
        series.cancelled += 1
        series.drains.append(at_time)
        self._drop_pending(ledger.item_id, request_id)

    def on_request_reopened(self, request_id: int) -> None:
        ledger = self._ledger(request_id)
        if ledger is None:
            return
        ledger.reopened += 1
        ledger.note_chain(("reopened",))
        self._timeline.classes[ledger.priority].reopened += 1
        waiting = self._pending.setdefault(ledger.item_id, [])
        if request_id not in waiting:
            waiting.append(request_id)
            waiting.sort()

    def _drop_pending(self, item_id: int, request_id: int) -> None:
        waiting = self._pending.get(item_id)
        if waiting is not None and request_id in waiting:
            waiting.remove(request_id)

    def finalize(self) -> Timeline:
        """The collected timeline document."""
        return self._timeline


# -- helpers -----------------------------------------------------------------

_GENERATOR = ScenarioGenerator(GeneratorConfig.tiny())
#: 4 items, 10 requests, three items requested by 3 machines each.
_SCENARIO = _GENERATOR.generate(102)
_LINKS = [link.link_id for link in _SCENARIO.network.virtual_links]


def canonical(timeline: Timeline) -> str:
    return json.dumps(timeline_to_dict(timeline), sort_keys=True)


def assert_identical(eager: Timeline, deferred: Timeline) -> None:
    """Byte-identical documents and explain text.  Failures name the
    first differing section instead of diffing the whole document (a
    pytest diff of two long JSON strings takes minutes)."""
    want, got = timeline_to_dict(eager), timeline_to_dict(deferred)
    for section in sorted(want):
        if json.dumps(got[section], sort_keys=True) == json.dumps(
            want[section], sort_keys=True
        ):
            continue
        keys = sorted(want[section]) if isinstance(want[section], dict) else []
        differing = [key for key in keys if got[section].get(key) != want[section][key]]
        pytest.fail(f"timeline section {section!r} differs at {differing[:3]}")
    same = canonical(deferred) == canonical(eager)
    assert same, "canonical JSON differs"
    for request in _SCENARIO.requests:
        same = deferred.explain(request.request_id) == eager.explain(
            request.request_id
        )
        assert same, f"explain({request.request_id}) differs"


def replay(stream) -> Timeline:
    """Feed one hook stream to both collectors, comparing at every
    ``finalize`` and at the end; returns the deferred timeline."""
    eager = EagerTimelineCollector(_SCENARIO)
    deferred = TimelineCollector(_SCENARIO)
    for op in stream:
        name, args = op[0], op[1:]
        if name == "finalize":
            assert_identical(eager.finalize(), deferred.finalize())
            continue
        for collector in (eager, deferred):
            if name == "burst":
                item_id, link_id, count = args
                for index in range(count):
                    collector.on_transfer_attempt(item_id, link_id)
                    if index % 3:
                        collector.on_transfer_rejected(
                            item_id, link_id, REASON_CODES[index % 4]
                        )
            else:
                getattr(collector, name)(*args)
    timeline = deferred.finalize()
    assert_identical(eager.finalize(), timeline)
    return timeline


def _item_of(request_id: int) -> int:
    return _SCENARIO.request(request_id).item_id


# -- named streams -----------------------------------------------------------

class TestNamedStreams:
    def test_reopen_while_still_pending(self):
        item = _item_of(1)
        timeline = replay([
            ("on_transfer_attempt", item, _LINKS[0]),
            ("on_request_reopened", 1),
            ("on_transfer_rejected", item, _LINKS[1], "link_busy"),
            ("on_request_satisfied", 1, 5.0, 2),
        ])
        ledger = timeline.forensics_for(1)
        assert ledger.reopened == 1 and ledger.attempts == 1
        assert [event[0] for event in ledger.chain] == [
            "attempt", "reopened", "rejected", "satisfied",
        ]

    def test_satisfy_twice_without_a_reopen(self):
        item = _item_of(2)
        timeline = replay([
            ("on_transfer_booked", item, _LINKS[0], 1.0, 2.0, 1.0),
            ("on_request_satisfied", 2, 2.0, 1),
            ("on_transfer_attempt", item, _LINKS[0]),
            ("on_request_satisfied", 2, 3.0, 1),
        ])
        ledger = timeline.forensics_for(2)
        assert ledger.satisfied == 2 and ledger.attempts == 0

    def test_reasons_tallied_while_satisfied_are_not_charged(self):
        # The item's rejection tally is nonzero when the span reopens;
        # a zero delta must not add the reason to the ledger.
        item = _item_of(5)
        timeline = replay([
            ("on_request_satisfied", 5, 1.0, 1),
            ("on_transfer_rejected", item, _LINKS[0], "no_link_slot"),
            ("on_request_reopened", 5),
            ("on_transfer_attempt", item, _LINKS[0]),
            ("on_request_satisfied", 5, 2.0, 1),
        ])
        ledger = timeline.forensics_for(5)
        assert ledger.rejections == {} and ledger.attempts == 1

    def test_cancel_after_satisfaction(self):
        item = _item_of(4)
        timeline = replay([
            ("on_transfer_attempt", item, _LINKS[2]),
            ("on_request_satisfied", 4, 2.0, 1),
            ("on_booking_failed", item, _LINKS[2], "link_busy"),
            ("on_request_cancelled", 4, 9.0),
            ("on_transfer_attempt", item, _LINKS[2]),
        ])
        ledger = timeline.forensics_for(4)
        assert ledger.cancelled == 1 and ledger.rejections == {}

    def test_reopen_after_the_chain_is_full(self):
        # Request 7 fills its chain, leaves, and is reopened far later:
        # the log must hold two disjoint position ranges (the gap) while
        # the item's other pending requests still need the first one.
        item = _item_of(7)
        timeline = replay([
            ("burst", item, _LINKS[0], MAX_CHAIN_EVENTS + 40),
            ("on_request_satisfied", 7, 4.0, 2),
            ("burst", item, _LINKS[1], 900),
            ("on_request_reopened", 7),
            ("burst", item, _LINKS[2], 30),
            ("on_request_satisfied", 7, 6.0, 2),
        ])
        ledger = timeline.forensics_for(7)
        assert len(ledger.chain) == MAX_CHAIN_EVENTS
        assert ledger.chain_dropped > 0 and ledger.reopened == 1
        others = [
            timeline.forensics_for(request.request_id)
            for request in _SCENARIO.requests_for_item(item)
            if request.request_id != 7
        ]
        assert others and all(
            len(other.chain) == MAX_CHAIN_EVENTS for other in others
        )

    def test_reopen_with_room_left_after_a_gap(self):
        item = _item_of(8)
        replay([
            ("burst", item, _LINKS[0], 20),
            ("on_request_cancelled", 8, 1.0),
            ("burst", item, _LINKS[1], MAX_CHAIN_EVENTS * 2),
            ("on_request_reopened", 8),
            ("burst", item, _LINKS[2], 25),
            ("finalize",),
        ])

    def test_more_item_events_than_the_cap(self):
        item = _item_of(0)
        timeline = replay([("burst", item, _LINKS[0], 3 * MAX_CHAIN_EVENTS)])
        assert timeline.forensics_for(0).chain_dropped > 0

    def test_unknown_ids_and_unrequested_items(self):
        replay([
            ("on_request_satisfied", -1, 1.0, 1),
            ("on_request_cancelled", len(_SCENARIO.requests), 1.0),
            ("on_request_reopened", 999),
            ("on_transfer_attempt", _SCENARIO.item_count, _LINKS[0]),
            ("on_transfer_rejected", _SCENARIO.item_count, -5, "no_storage"),
            ("on_transfer_booked", 77, 12345, 0.0, 1.0, 1.0),
        ])

    def test_finalize_mid_stream_then_more_events(self):
        item = _item_of(3)
        replay([
            ("burst", item, _LINKS[0], 10),
            ("finalize",),
            ("finalize",),
            ("burst", item, _LINKS[1], MAX_CHAIN_EVENTS),
            ("on_request_reopened", 3),
            ("finalize",),
            ("on_request_satisfied", 3, 7.0, 1),
            ("burst", item, _LINKS[2], 5),
        ])


# -- generated streams -------------------------------------------------------

_items = st.integers(min_value=0, max_value=_SCENARIO.item_count)
_requests = st.integers(min_value=-1, max_value=len(_SCENARIO.requests))
_links = st.sampled_from(_LINKS[:4] + [len(_LINKS) + 3])
_times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_reasons = st.sampled_from(REASON_CODES)

_OPS = st.one_of(
    st.tuples(st.just("on_transfer_attempt"), _items, _links),
    st.tuples(st.just("on_transfer_rejected"), _items, _links, _reasons),
    st.tuples(
        st.just("on_transfer_booked"), _items, _links, _times, _times, _times
    ),
    st.tuples(st.just("on_booking_failed"), _items, _links, _reasons),
    st.tuples(
        st.just("on_storage_reserved"),
        _items,
        st.integers(min_value=0, max_value=6),
        _times,
        _times,
        _times,
    ),
    st.tuples(
        st.just("on_request_satisfied"),
        _requests,
        _times,
        st.integers(min_value=0, max_value=4),
    ),
    st.tuples(st.just("on_request_cancelled"), _requests, _times),
    st.tuples(st.just("on_request_reopened"), _requests),
    st.tuples(
        st.just("burst"),
        _items,
        _links,
        st.sampled_from([1, 7, MAX_CHAIN_EVENTS - 3, MAX_CHAIN_EVENTS + 5]),
    ),
    st.just(("finalize",)),
)


@settings(deadline=None, max_examples=60)
@given(st.lists(_OPS, max_size=40))
def test_generated_streams_match_the_eager_oracle(stream):
    replay(stream)


# -- real dynamic runs -------------------------------------------------------

def _churn_events(scenario: Scenario) -> List:
    """Arrivals plus, for the deliveries of an undisturbed run, a copy
    loss at the destination (reopens) or a cancellation before or after
    the arrival, and a cancellation for some never-satisfied requests."""
    driver = DynamicDriver("partial", "C4", 2.0)
    arrivals = list(reveal_at_item_start(scenario))
    baseline = driver.run(scenario, arrivals)
    events: List = list(arrivals)
    deliveries: Dict[int, float] = {
        request_id: delivery.arrival
        for request_id, delivery in baseline.schedule.deliveries.items()
    }
    for request in scenario.requests:
        arrival: Optional[float] = deliveries.get(request.request_id)
        choice = request.request_id % 4
        if arrival is None:
            if choice == 0:
                events.append(RequestCancellation(
                    time=scenario.horizon / 3, request_id=request.request_id
                ))
        elif choice in (0, 1):
            events.append(CopyLoss(
                time=arrival,
                item_id=request.item_id,
                machine=request.destination,
            ))
        else:
            at = arrival / 2 if choice == 2 else arrival + 1.0
            events.append(RequestCancellation(
                time=at, request_id=request.request_id
            ))
    return events


@pytest.fixture(scope="module")
def dynamic_runs():
    runs = []
    for seed in range(100, 108):
        scenario = _GENERATOR.generate(seed)
        eager = EagerTimelineCollector(scenario)
        deferred = TimelineCollector(scenario)
        with use_tracer(TeeTracer((eager, deferred))):
            DynamicDriver("partial", "C4", 2.0).run(
                scenario, _churn_events(scenario)
            )
        runs.append((scenario, eager.finalize(), deferred.finalize()))
    return runs


class TestDynamicRuns:
    def test_canonical_json_is_byte_identical(self, dynamic_runs):
        for scenario, eager, deferred in dynamic_runs:
            same = canonical(deferred) == canonical(eager)
            assert same, f"timeline of {scenario.name} differs"

    def test_explain_is_identical_for_every_request(self, dynamic_runs):
        for scenario, eager, deferred in dynamic_runs:
            for request in scenario.requests:
                same = deferred.explain(request.request_id) == eager.explain(
                    request.request_id
                )
                assert same, f"{scenario.name} request {request.request_id}"

    def test_runs_reach_reopens_and_cancellations(self, dynamic_runs):
        reopened = sum(
            series.reopened
            for _, _, deferred in dynamic_runs
            for series in deferred.classes.values()
        )
        cancelled = sum(
            series.cancelled
            for _, _, deferred in dynamic_runs
            for series in deferred.classes.values()
        )
        assert reopened > 0 and cancelled > 0


# -- parent golden -----------------------------------------------------------

class TestParentGolden:
    """``golden/timeline_parent.json`` was recorded once with the eager
    collector (the code :class:`EagerTimelineCollector` copies): the
    SHA-256 of the canonical timeline JSON of one executor run, and the
    ``explain()`` text of three of its requests.  Never regenerate it
    from the current collector."""

    def test_executor_timeline_matches_the_recorded_digest(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        config = getattr(GeneratorConfig, golden["config"])()
        scenario = ScenarioGenerator(config).generate(golden["seed"])
        with SweepExecutor(workers=1, timeline=True) as executor:
            (record,) = executor.run_pairs(
                [scenario],
                golden["heuristic"],
                golden["criterion"],
                golden["ratio"],
            )
        digest = hashlib.sha256(
            canonical(record.timeline).encode("utf-8")
        ).hexdigest()
        assert digest == golden["timeline_sha256"]
        for request_id, text in golden["explain"].items():
            same = record.timeline.explain(int(request_id)) == text
            assert same, f"explain({request_id}) differs from the golden"
