"""Simulated-time telemetry: the mergeable :class:`Timeline` document.

The tracer/metrics/profiler stack measures the *solver* — which phase
burned CPU, how many searches ran.  This module measures the *simulated
network*: how saturated each virtual link was at simulated time ``t``,
how receiver storage filled up, how deadline slack eroded per priority
class, and — request by request — *why* a data request ended up
satisfied, cancelled, or unscheduled.

:class:`TimelineCollector` is a
:class:`~repro.observability.tracer.Tracer` observing one scheduler run
on one scenario.  :meth:`TimelineCollector.finalize` snapshots a
:class:`Timeline`, which merges associatively (like
:class:`~repro.observability.metrics.RunMetrics` and
:class:`~repro.observability.profiling.Profile`) so per-cell timelines
from parallel workers combine into sweep totals, and round-trips through
:mod:`repro.serialization` (``timeline_to_dict`` / ``timeline_from_dict``,
schema-versioned by :data:`TIMELINE_SCHEMA_VERSION`).

Three layers of telemetry ride in one document:

* **links/storage** — per-virtual-link booked intervals, attempt and
  rejection tallies, and per-machine storage reservations, from which
  the report derives utilization, oversubscription-ratio, and occupancy
  series over simulated time;
* **classes** — per-priority-class request totals, satisfaction times
  with deadline slack, and pending-queue drain times;
* **forensics** — a per-request lifecycle ledger whose
  :meth:`Timeline.explain` query reconstructs the causal chain (attempts,
  rejection reason codes from
  :data:`~repro.observability.tracer.REASON_CODES`, bookings, fault
  cancellations, reopens) for any request id.

All times in this module are *simulated* seconds — no wall clock is ever
read, so timelines are deterministic and byte-identical across worker
counts and cache replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.scenario import Scenario
from repro.errors import ConfigurationError, ModelError
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_LINK_BUSY,
    REASON_LINK_CUTOFF,
    REASON_NEVER_ATTEMPTED,
    REASON_NO_LINK_SLOT,
    REASON_NO_SENDER_COPY,
    REASON_NO_STORAGE,
    REASON_SENDER_NOT_AVAILABLE,
    REASON_SENDER_RELEASED,
    REASON_STORAGE_CONFLICT,
    REASON_WINDOW_CLOSED,
    REASON_WINDOW_ESCAPE,
    Tracer,
    _inherit_hook_docs,
)

#: Version stamp written into every serialized timeline document.
TIMELINE_SCHEMA_VERSION = 1

#: Per-request causal chains keep at most this many events; overflow is
#: *explicitly* counted in ``chain_dropped`` (never silently discarded),
#: and the rejection-reason tallies remain exact regardless.
MAX_CHAIN_EVENTS = 512

#: Human-readable one-liners for every rejection reason code, used by
#: :meth:`Timeline.explain` to annotate the causal chain.
REASON_DESCRIPTIONS: Dict[str, str] = {
    REASON_ALREADY_AT_DESTINATION: (
        "the receiver already held a copy of the item"
    ),
    REASON_WINDOW_CLOSED: (
        "window, residency, or outage cutoff left no room at all"
    ),
    REASON_NO_LINK_SLOT: "the link had no idle slot long enough",
    REASON_NO_STORAGE: (
        "receiver storage could never cover the copy's residency"
    ),
    REASON_NO_SENDER_COPY: "the sender held no copy of the item",
    REASON_SENDER_NOT_AVAILABLE: (
        "the transfer would start before the sender copy exists"
    ),
    REASON_SENDER_RELEASED: (
        "the transfer would outlive the sender copy's residency"
    ),
    REASON_LINK_BUSY: "the link already carried a transfer in the interval",
    REASON_WINDOW_ESCAPE: (
        "the transfer would escape the link's availability window"
    ),
    REASON_LINK_CUTOFF: (
        "the transfer would complete after a dynamic outage cutoff"
    ),
    REASON_STORAGE_CONFLICT: (
        "receiver storage could not cover the copy's residency"
    ),
    REASON_NEVER_ATTEMPTED: (
        "no transfer toward the item was ever attempted while the "
        "request was pending"
    ),
}

#: One causal-chain entry: ``(kind, *fields)`` of JSON scalars.  Kinds:
#: ``attempt(link)``, ``rejected(link, reason)``,
#: ``booked(link, start, end)``, ``booking_failed(link, reason)``,
#: ``satisfied(at_time, hops)``, ``cancelled(at_time)``, ``reopened()``.
ChainEvent = Tuple[Any, ...]


def _merge_tallies(a: Mapping[str, int], b: Mapping[str, int]) -> Dict[str, int]:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return merged


def _merge_keyed(mine: Mapping[Any, Any], theirs: Mapping[Any, Any]) -> Dict[Any, Any]:
    """Key-wise ``merged`` of two series maps (a key on one side is kept)."""
    merged = dict(mine)
    for key, series in theirs.items():
        held = merged.get(key)
        merged[key] = series if held is None else held.merged(series)
    return merged


@dataclass
class LinkSeries:
    """One virtual link's simulated-time activity.

    Attributes:
        window_start: the link window's opening instant ``Lst``.
        window_end: the link window's closing instant ``Let``.
        attempts: feasibility searches that touched this link.
        rejections: rejection tallies keyed by reason code.
        bookings: booked busy intervals as ``(start, end, item_id)``, in
            emission order (concatenated, never re-sorted, on merge so
            merging stays associative and worker-count independent).
    """

    window_start: float = 0.0
    window_end: float = 0.0
    attempts: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    bookings: List[Tuple[float, float, int]] = field(default_factory=list)

    def merged(self, other: "LinkSeries") -> "LinkSeries":
        """The combined activity of two series (associative)."""
        return LinkSeries(
            window_start=min(self.window_start, other.window_start),
            window_end=max(self.window_end, other.window_end),
            attempts=self.attempts + other.attempts,
            rejections=_merge_tallies(self.rejections, other.rejections),
            bookings=self.bookings + other.bookings,
        )

    @property
    def window_seconds(self) -> float:
        """The window length in simulated seconds."""
        return self.window_end - self.window_start

    @property
    def busy_seconds(self) -> float:
        """Total booked transfer seconds (across all merged runs)."""
        return sum(end - start for start, end, _ in self.bookings)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "attempts": self.attempts,
            "rejections": {
                reason: self.rejections[reason]
                for reason in sorted(self.rejections)
            },
            "bookings": [list(entry) for entry in self.bookings],
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "LinkSeries":
        """Rebuild from :meth:`to_dict` output."""
        return LinkSeries(
            window_start=float(document["window_start"]),
            window_end=float(document["window_end"]),
            attempts=int(document["attempts"]),
            rejections={
                str(reason): int(count)
                for reason, count in document["rejections"].items()
            },
            bookings=[
                (float(entry[0]), float(entry[1]), int(entry[2]))
                for entry in document["bookings"]
            ],
        )


@dataclass
class StorageSeries:
    """One machine's receiver-storage reservations over simulated time.

    Attributes:
        capacity: the machine's storage ceiling in bytes.
        reservations: held residencies as
            ``(start, release, amount, item_id)`` in emission order.
    """

    capacity: float = 0.0
    reservations: List[Tuple[float, float, float, int]] = field(
        default_factory=list
    )

    def merged(self, other: "StorageSeries") -> "StorageSeries":
        """The combined reservations of two series (associative)."""
        return StorageSeries(
            capacity=max(self.capacity, other.capacity),
            reservations=self.reservations + other.reservations,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "capacity": self.capacity,
            "reservations": [list(entry) for entry in self.reservations],
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "StorageSeries":
        """Rebuild from :meth:`to_dict` output."""
        return StorageSeries(
            capacity=float(document["capacity"]),
            reservations=[
                (
                    float(entry[0]),
                    float(entry[1]),
                    float(entry[2]),
                    int(entry[3]),
                )
                for entry in document["reservations"]
            ],
        )


@dataclass
class ClassSeries:
    """One priority class's request population over simulated time.

    Attributes:
        requests: requests in this class, summed across merged runs.
        satisfied: satisfaction events observed.
        cancelled: fault-churn cancellations observed.
        reopened: reopen events observed (reopens carry no simulated
            time, so they adjust the counters but not the drain series).
        slack: per-satisfaction ``(arrival, deadline - arrival)`` points
            — the deadline-slack trajectory of the class.
        drains: simulated times at which one request left the pending
            queue (a satisfaction arrival or a cancellation), in
            emission order.
    """

    requests: int = 0
    satisfied: int = 0
    cancelled: int = 0
    reopened: int = 0
    slack: List[Tuple[float, float]] = field(default_factory=list)
    drains: List[float] = field(default_factory=list)

    def merged(self, other: "ClassSeries") -> "ClassSeries":
        """The element-wise combination of two series (associative)."""
        return ClassSeries(
            requests=self.requests + other.requests,
            satisfied=self.satisfied + other.satisfied,
            cancelled=self.cancelled + other.cancelled,
            reopened=self.reopened + other.reopened,
            slack=self.slack + other.slack,
            drains=self.drains + other.drains,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "requests": self.requests,
            "satisfied": self.satisfied,
            "cancelled": self.cancelled,
            "reopened": self.reopened,
            "slack": [list(point) for point in self.slack],
            "drains": list(self.drains),
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "ClassSeries":
        """Rebuild from :meth:`to_dict` output."""
        return ClassSeries(
            requests=int(document["requests"]),
            satisfied=int(document["satisfied"]),
            cancelled=int(document["cancelled"]),
            reopened=int(document["reopened"]),
            slack=[
                (float(point[0]), float(point[1]))
                for point in document["slack"]
            ],
            drains=[float(value) for value in document["drains"]],
        )


@dataclass
class RequestForensics:
    """The full observed lifecycle of one request.

    Item-level events (attempts, rejections, bookings) have no request
    id on the wire; the collector attributes them to every request of
    the item that is still pending at that point in the run, so a
    request's ledger answers "what did the scheduler try *for me*, and
    why did each try fail?".

    Attributes:
        scenario: owning scenario's name.
        request_id: the request's scenario-wide id.
        item_id: the requested data item.
        destination: the requesting machine's index.
        priority: the request's priority class.
        deadline: the request's delivery deadline ``Rft``.
        observed: runs that observed this request (merge counter).
        satisfied: satisfaction events across observed runs.
        cancelled: fault-churn cancellations across observed runs.
        reopened: reopen events across observed runs.
        attempts: feasibility searches for the item while pending.
        bookings: transfers booked for the item while pending.
        rejections: rejection-reason tallies while pending (exact even
            when the chain below is truncated).
        arrivals: ``(arrival, deadline - arrival)`` per satisfaction.
        chain: the causal chain, at most :data:`MAX_CHAIN_EVENTS`
            entries (see :data:`ChainEvent` for the entry forms).
        chain_dropped: chain events dropped past the cap — explicit
            truncation, surfaced by :meth:`Timeline.explain`.
    """

    scenario: str = "scenario"
    request_id: int = 0
    item_id: int = 0
    destination: int = 0
    priority: int = 0
    deadline: float = 0.0
    observed: int = 1
    satisfied: int = 0
    cancelled: int = 0
    reopened: int = 0
    attempts: int = 0
    bookings: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    arrivals: List[Tuple[float, float]] = field(default_factory=list)
    chain: List[ChainEvent] = field(default_factory=list)
    chain_dropped: int = 0

    def note_chain(self, event: ChainEvent) -> None:
        """Append one causal-chain entry, honoring the explicit cap."""
        if len(self.chain) < MAX_CHAIN_EVENTS:
            self.chain.append(event)
        else:
            self.chain_dropped += 1

    def merged(self, other: "RequestForensics") -> "RequestForensics":
        """The combined ledger of two observations (associative).

        Chains concatenate keeping the first :data:`MAX_CHAIN_EVENTS`
        entries; the overflow moves into ``chain_dropped`` so the cap
        stays associative (the kept prefix and the dropped count of
        ``(a+b)+c`` and ``a+(b+c)`` coincide).
        """
        chain = self.chain + other.chain
        dropped = self.chain_dropped + other.chain_dropped
        if len(chain) > MAX_CHAIN_EVENTS:
            dropped += len(chain) - MAX_CHAIN_EVENTS
            chain = chain[:MAX_CHAIN_EVENTS]
        return RequestForensics(
            scenario=self.scenario,
            request_id=self.request_id,
            item_id=self.item_id,
            destination=self.destination,
            priority=self.priority,
            deadline=self.deadline,
            observed=self.observed + other.observed,
            satisfied=self.satisfied + other.satisfied,
            cancelled=self.cancelled + other.cancelled,
            reopened=self.reopened + other.reopened,
            attempts=self.attempts + other.attempts,
            bookings=self.bookings + other.bookings,
            rejections=_merge_tallies(self.rejections, other.rejections),
            arrivals=self.arrivals + other.arrivals,
            chain=chain,
            chain_dropped=dropped,
        )

    def dominant_reason(self) -> Optional[str]:
        """The most frequent rejection reason, or
        :data:`~repro.observability.tracer.REASON_NEVER_ATTEMPTED` when
        the request went unsatisfied without a single attempt; ``None``
        for a request satisfied in every observed run."""
        if self.satisfied >= self.observed:
            return None
        if not self.rejections:
            if self.attempts == 0:
                return REASON_NEVER_ATTEMPTED
            return None
        # Highest count wins; ties break lexicographically so the answer
        # is deterministic.
        return min(
            sorted(self.rejections),
            key=lambda reason: (-self.rejections[reason], reason),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "scenario": self.scenario,
            "request_id": self.request_id,
            "item_id": self.item_id,
            "destination": self.destination,
            "priority": self.priority,
            "deadline": self.deadline,
            "observed": self.observed,
            "satisfied": self.satisfied,
            "cancelled": self.cancelled,
            "reopened": self.reopened,
            "attempts": self.attempts,
            "bookings": self.bookings,
            "rejections": {
                reason: self.rejections[reason]
                for reason in sorted(self.rejections)
            },
            "arrivals": [list(point) for point in self.arrivals],
            "chain": [list(event) for event in self.chain],
            "chain_dropped": self.chain_dropped,
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "RequestForensics":
        """Rebuild from :meth:`to_dict` output."""
        return RequestForensics(
            scenario=str(document["scenario"]),
            request_id=int(document["request_id"]),
            item_id=int(document["item_id"]),
            destination=int(document["destination"]),
            priority=int(document["priority"]),
            deadline=float(document["deadline"]),
            observed=int(document["observed"]),
            satisfied=int(document["satisfied"]),
            cancelled=int(document["cancelled"]),
            reopened=int(document["reopened"]),
            attempts=int(document["attempts"]),
            bookings=int(document["bookings"]),
            rejections={
                str(reason): int(count)
                for reason, count in document["rejections"].items()
            },
            arrivals=[
                (float(point[0]), float(point[1]))
                for point in document["arrivals"]
            ],
            chain=[tuple(event) for event in document["chain"]],
            chain_dropped=int(document["chain_dropped"]),
        )


def _forensics_key(scenario: str, request_id: int) -> str:
    """The forensics-ledger key: scenario-qualified so request ids from
    different scenarios in one merged sweep never collide."""
    return f"{scenario}#{request_id}"


@dataclass
class Timeline:
    """The serializable simulated-time telemetry of one (or many merged)
    observed runs.

    Attributes:
        horizon: the scheduling horizon (max across merged scenarios).
        runs: observed runs folded into this document.
        links: per-virtual-link activity keyed by link id.
        storage: per-machine reservation series keyed by machine index.
        classes: per-priority-class series keyed by priority.
        forensics: per-request ledgers keyed ``"<scenario>#<request_id>"``.
    """

    horizon: float = 0.0
    runs: int = 0
    links: Dict[int, LinkSeries] = field(default_factory=dict)
    storage: Dict[int, StorageSeries] = field(default_factory=dict)
    classes: Dict[int, ClassSeries] = field(default_factory=dict)
    forensics: Dict[str, RequestForensics] = field(default_factory=dict)

    # -- merging -----------------------------------------------------------

    def merged(self, other: "Timeline") -> "Timeline":
        """The element-wise combination of two timelines (associative)."""
        return Timeline(
            horizon=max(self.horizon, other.horizon),
            runs=self.runs + other.runs,
            links=_merge_keyed(self.links, other.links),
            storage=_merge_keyed(self.storage, other.storage),
            classes=_merge_keyed(self.classes, other.classes),
            forensics=_merge_keyed(self.forensics, other.forensics),
        )

    # -- derived series ----------------------------------------------------

    def _bucket_edges(self, points: int) -> List[float]:
        if points < 1:
            raise ConfigurationError(
                f"timeline series need at least 1 bucket, got {points}"
            )
        horizon = self.horizon if self.horizon > 0 else 1.0
        width = horizon / points
        return [index * width for index in range(points + 1)]

    @staticmethod
    def _overlap(start: float, end: float, lo: float, hi: float) -> float:
        return max(0.0, min(end, hi) - max(start, lo))

    def link_utilization_series(
        self, link_id: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run link utilization over simulated time.

        Returns ``points`` pairs ``(bucket_start, fraction)`` where the
        fraction is booked seconds inside the bucket divided by the
        bucket seconds the link's window keeps open, averaged over the
        merged runs (0.0 where the window is closed).
        """
        series = self.links.get(link_id)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no virtual link {link_id}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            open_seconds = self._overlap(
                series.window_start, series.window_end, lo, hi
            )
            if open_seconds <= 0.0:
                output.append((lo, 0.0))
                continue
            busy = sum(
                self._overlap(start, end, lo, hi)
                for start, end, _ in series.bookings
            )
            output.append((lo, busy / (open_seconds * runs)))
        return output

    def oversubscription_series(
        self, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Network-wide subscription ratio over simulated time.

        For each bucket: summed booked link-seconds across every virtual
        link, divided by the summed open-window link-seconds.  A
        sustained ratio near 1.0 means the open windows are fully
        booked — the oversubscribed regime the paper studies, where
        demand shows up as the rejection tallies rather than more
        bookings.  Buckets where no window is open report 0.0.
        """
        edges = self._bucket_edges(points)
        output: List[Tuple[float, float]] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            open_seconds = 0.0
            busy = 0.0
            for link_id in sorted(self.links):
                series = self.links[link_id]
                open_seconds += self._overlap(
                    series.window_start, series.window_end, lo, hi
                )
                busy += sum(
                    self._overlap(start, end, lo, hi)
                    for start, end, _ in series.bookings
                )
            runs = max(self.runs, 1)
            ratio = busy / (open_seconds * runs) if open_seconds > 0 else 0.0
            output.append((lo, ratio))
        return output

    def storage_occupancy_series(
        self, machine: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run reserved bytes on one machine over simulated time.

        Returns ``points`` pairs ``(bucket_start, bytes)`` sampling the
        summed reserved residencies at each bucket's start, averaged
        over the merged runs.
        """
        series = self.storage.get(machine)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no machine {machine}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo in edges[:-1]:
            held = sum(
                amount
                for start, release, amount, _ in series.reservations
                if start <= lo < release
            )
            output.append((lo, held / runs))
        return output

    def pending_depth_series(
        self, priority: int, points: int = 48
    ) -> List[Tuple[float, float]]:
        """Per-run pending-queue depth of one priority class over time.

        Depth at ``t`` is the class's request count minus the drains
        (satisfactions and cancellations) at or before ``t``, averaged
        over the merged runs.  Reopens carry no simulated time on the
        wire, so a reopened request is *not* re-added to the depth (the
        ``reopened`` counter records the undercount).
        """
        series = self.classes.get(priority)
        if series is None:
            raise ConfigurationError(
                f"timeline observed no priority class {priority}"
            )
        edges = self._bucket_edges(points)
        runs = max(self.runs, 1)
        output: List[Tuple[float, float]] = []
        for lo in edges[:-1]:
            drained = sum(1 for when in series.drains if when <= lo)
            output.append((lo, (series.requests - drained) / runs))
        return output

    # -- summaries ---------------------------------------------------------

    def peak_link_utilization(self) -> Tuple[int, float]:
        """``(link_id, fraction)`` of the busiest link overall.

        The fraction is per-run booked seconds over the link's window
        length; ``(-1, 0.0)`` when no link was observed.
        """
        peak_link = -1
        peak = 0.0
        runs = max(self.runs, 1)
        for link_id in sorted(self.links):
            series = self.links[link_id]
            window = series.window_seconds
            if window <= 0.0:
                continue
            fraction = series.busy_seconds / (window * runs)
            if fraction > peak:
                peak = fraction
                peak_link = link_id
        return peak_link, peak

    def total_requests(self) -> int:
        """Requests observed, summed across merged runs."""
        return sum(
            self.classes[priority].requests
            for priority in sorted(self.classes)
        )

    def total_satisfied(self) -> int:
        """Satisfaction events observed, summed across merged runs."""
        return sum(
            self.classes[priority].satisfied
            for priority in sorted(self.classes)
        )

    def top_rejection(self) -> Optional[str]:
        """The most tallied rejection reason across all links."""
        totals: Dict[str, int] = {}
        for link_id in sorted(self.links):
            totals = _merge_tallies(totals, self.links[link_id].rejections)
        if not totals:
            return None
        return min(
            sorted(totals), key=lambda reason: (-totals[reason], reason)
        )

    def summary(self) -> Dict[str, Any]:
        """The compact digest the text and HTML reports lead with."""
        peak_link, peak = self.peak_link_utilization()
        requests = self.total_requests()
        satisfied = self.total_satisfied()
        return {
            "runs": self.runs,
            "requests": requests,
            "satisfied": satisfied,
            "unsatisfied": requests - satisfied,
            "peak_link": peak_link,
            "peak_utilization": peak,
            "top_rejection": self.top_rejection(),
        }

    # -- forensics ---------------------------------------------------------

    def forensics_for(
        self, request_id: int, scenario: Optional[str] = None
    ) -> RequestForensics:
        """The single ledger for ``request_id``.

        Raises:
            ConfigurationError: when the request was never observed, or
                when the id exists in several merged scenarios and
                ``scenario`` does not disambiguate.
        """
        matches = [
            self.forensics[key]
            for key in sorted(self.forensics)
            if self.forensics[key].request_id == request_id
            and (scenario is None or self.forensics[key].scenario == scenario)
        ]
        if not matches:
            raise ConfigurationError(
                f"timeline holds no forensics for request {request_id}"
                + (f" in scenario {scenario!r}" if scenario else "")
            )
        scenarios = sorted({ledger.scenario for ledger in matches})
        if len(scenarios) > 1:
            raise ConfigurationError(
                f"request {request_id} appears in {len(scenarios)} merged "
                f"scenarios ({', '.join(scenarios)}); pass scenario= to "
                f"disambiguate"
            )
        ledger = matches[0]
        for extra in matches[1:]:
            ledger = ledger.merged(extra)
        return ledger

    def explain(
        self, request_id: int, scenario: Optional[str] = None
    ) -> str:
        """A plain-text reconstruction of one request's causal chain.

        Walks the forensics ledger: identity, final outcome across the
        observed runs, the exact rejection-reason tallies (annotated
        from :data:`REASON_DESCRIPTIONS`), and the event-by-event chain
        (with explicit truncation when the chain overflowed
        :data:`MAX_CHAIN_EVENTS`).
        """
        ledger = self.forensics_for(request_id, scenario)
        lines: List[str] = [
            f"request {ledger.request_id} "
            f"(scenario {ledger.scenario!r}): "
            f"item {ledger.item_id} -> machine {ledger.destination}, "
            f"priority {ledger.priority}, deadline {ledger.deadline:g}",
        ]
        outcome = (
            f"  outcome: satisfied in {ledger.satisfied} of "
            f"{ledger.observed} observed run(s)"
        )
        if ledger.arrivals:
            first = ledger.arrivals[0]
            outcome += f"; first arrival t={first[0]:g} (slack {first[1]:g})"
        if ledger.cancelled:
            outcome += f"; cancelled {ledger.cancelled}x"
        if ledger.reopened:
            outcome += f"; reopened {ledger.reopened}x"
        lines.append(outcome)
        lines.append(
            f"  activity while pending: {ledger.attempts} attempt(s), "
            f"{ledger.bookings} booking(s) toward item {ledger.item_id}"
        )
        dominant = ledger.dominant_reason()
        if ledger.rejections:
            lines.append("  rejection reasons:")
            for reason in sorted(
                ledger.rejections,
                key=lambda name: (-ledger.rejections[name], name),
            ):
                description = REASON_DESCRIPTIONS.get(reason, "")
                lines.append(
                    f"    {reason} x{ledger.rejections[reason]}"
                    + (f" — {description}" if description else "")
                )
        if dominant is not None:
            description = REASON_DESCRIPTIONS.get(dominant, "")
            lines.append(
                f"  dominant cause: {dominant}"
                + (f" — {description}" if description else "")
            )
        if ledger.chain:
            lines.append(
                f"  causal chain ({len(ledger.chain)} event(s)"
                + (
                    f", {ledger.chain_dropped} dropped past the "
                    f"{MAX_CHAIN_EVENTS}-event cap"
                    if ledger.chain_dropped
                    else ""
                )
                + "):"
            )
            for event in ledger.chain:
                lines.append(f"    {_render_chain_event(event)}")
        return "\n".join(lines)

    # -- serialization helpers ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready body (the ``kind``/version stamps are added by
        :func:`repro.serialization.timeline_to_dict`).  All mappings are
        key-sorted so equal timelines serialize byte-identically."""
        return {
            "horizon": self.horizon,
            "runs": self.runs,
            "links": {
                str(link_id): self.links[link_id].to_dict()
                for link_id in sorted(self.links)
            },
            "storage": {
                str(machine): self.storage[machine].to_dict()
                for machine in sorted(self.storage)
            },
            "classes": {
                str(priority): self.classes[priority].to_dict()
                for priority in sorted(self.classes)
            },
            "forensics": {
                key: self.forensics[key].to_dict()
                for key in sorted(self.forensics)
            },
        }

    @staticmethod
    def from_dict(document: Mapping[str, Any]) -> "Timeline":
        """Rebuild from :meth:`to_dict` output."""
        return Timeline(
            horizon=float(document["horizon"]),
            runs=int(document["runs"]),
            links={
                int(link_id): LinkSeries.from_dict(series)
                for link_id, series in document["links"].items()
            },
            storage={
                int(machine): StorageSeries.from_dict(series)
                for machine, series in document["storage"].items()
            },
            classes={
                int(priority): ClassSeries.from_dict(series)
                for priority, series in document["classes"].items()
            },
            forensics={
                str(key): RequestForensics.from_dict(ledger)
                for key, ledger in document["forensics"].items()
            },
        )


def _render_chain_event(event: ChainEvent) -> str:
    """One causal-chain entry as a human-readable line."""
    kind = event[0]
    if kind == "attempt":
        return f"attempt link={event[1]}"
    if kind == "rejected":
        return f"rejected link={event[1]} reason={event[2]}"
    if kind == "booked":
        return f"booked link={event[1]} [{event[2]:g}, {event[3]:g})"
    if kind == "booking_failed":
        return f"booking failed link={event[1]} reason={event[2]}"
    if kind == "satisfied":
        return f"satisfied at t={event[1]:g} (hops={event[2]})"
    if kind == "cancelled":
        return f"cancelled at t={event[1]:g}"
    if kind == "reopened":
        return "reopened (satisfaction undone)"
    return " ".join(str(part) for part in event)


def merge_timelines(parts: Iterable[Optional[Timeline]]) -> Timeline:
    """Fold many (possibly ``None``) timelines into one."""
    total = Timeline()
    for part in parts:
        if part is not None:
            total = total.merged(part)
    return total


class _ItemTally:
    """One requested item's cumulative tallies and event count.

    The item-event hooks count every event in ``events`` and build and
    log its chain entry (keyed by position) only below ``log_limit``, the
    largest ``start + room`` of an open span.  ``spans`` maps each pending
    request to the snapshot its span opened with:
    ``(ledger, start, limit, attempts, bookings, rejections)``.
    """

    __slots__ = ("events", "attempts", "bookings", "rejections", "log",
                 "log_limit", "spans")

    def __init__(self) -> None:
        self.events = self.attempts = self.bookings = self.log_limit = 0
        self.rejections: Dict[str, int] = {}
        self.log: Dict[int, ChainEvent] = {}
        self.spans: Dict[int, Tuple[Any, ...]] = {}

    def open(self, request_id: int, ledger: RequestForensics) -> None:
        """Start attributing the item's events to a pending request."""
        limit = self.events + MAX_CHAIN_EVENTS - len(ledger.chain)
        self.spans[request_id] = (ledger, self.events, limit, self.attempts,
                                  self.bookings, dict(self.rejections))
        if limit > self.log_limit:
            self.log_limit = limit

    def flush(self, request_id: int) -> None:
        """Close a request's open span, charging its ledger the item's
        events since the span opened (exactly what the eager fan-out
        would have noted one by one)."""
        (ledger, start, limit, attempts, bookings,
         rejections) = self.spans.pop(request_id)
        ledger.attempts += self.attempts - attempts
        ledger.bookings += self.bookings - bookings
        for reason, count in self.rejections.items():
            delta = count - rejections.get(reason, 0)
            if delta > 0:
                ledger.rejections[reason] = ledger.rejections.get(reason, 0) + delta
        end = min(self.events, limit)
        ledger.chain.extend(self.log[position] for position in range(start, end))
        ledger.chain_dropped += self.events - end
        self.log_limit = max((span[2] for span in self.spans.values()), default=0)
        if not self.spans:
            self.log.clear()


@_inherit_hook_docs
class TimelineCollector(Tracer):
    """A tracer folding one run's trace stream into a :class:`Timeline`.

    The collector needs the scenario up front: the static structure
    (link windows, storage capacities, the request table) seeds the
    document, and the request table drives the forensics attribution —
    item-level events are credited to every request of that item still
    pending when the event fires.

    The credit is deferred, so a probe costs O(1) however many requests
    wait for its item: each item keeps cumulative tallies, each pending
    request the snapshot taken when its span opened, and a lifecycle
    hook (or :meth:`finalize`) flushes the difference into the ledger.

    One collector observes one scheduler run on one scenario (the
    executor builds one per sweep cell); reuse across runs would
    double-seed the static structure.
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
        items: Dict[int, _ItemTally] = {}
        ledgers: Dict[int, RequestForensics] = {}
        for request in scenario.requests:
            series = timeline.classes.get(request.priority)
            if series is None:
                series = ClassSeries()
                timeline.classes[request.priority] = series
            series.requests += 1
            ledger = RequestForensics(
                scenario=scenario.name,
                request_id=request.request_id,
                item_id=request.item_id,
                destination=request.destination,
                priority=request.priority,
                deadline=request.deadline,
            )
            key = _forensics_key(scenario.name, request.request_id)
            timeline.forensics[key] = ledger
            ledgers[request.request_id] = ledger
            items.setdefault(request.item_id, _ItemTally()).open(
                request.request_id, ledger
            )
        self._timeline = timeline
        self._links = timeline.links
        self._items = items
        self._ledgers = ledgers

    def _settle(self, request_id: int) -> Optional[RequestForensics]:
        """Flush the request's open span, if any; ``None`` for an id
        outside the scenario."""
        ledger = self._ledgers.get(request_id)
        if ledger is not None:
            item = self._items[ledger.item_id]
            if request_id in item.spans:
                item.flush(request_id)
        return ledger

    # -- booking ----------------------------------------------------------

    def on_transfer_attempt(self, item_id: int, link_id: int) -> None:
        series = self._links.get(link_id)
        if series is not None:
            series.attempts += 1
        item = self._items.get(item_id)
        if item is not None:
            item.attempts += 1
            if item.events < item.log_limit:
                item.log[item.events] = ("attempt", link_id)
            item.events += 1

    def on_transfer_rejected(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        item = self._items.get(item_id)
        if item is not None:
            item.rejections[reason] = item.rejections.get(reason, 0) + 1
            if item.events < item.log_limit:
                item.log[item.events] = ("rejected", link_id, reason)
            item.events += 1

    def on_transfer_booked(
        self,
        item_id: int,
        link_id: int,
        start: float,
        end: float,
        window_seconds: float,
    ) -> None:
        series = self._links.get(link_id)
        if series is not None:
            series.bookings.append((start, end, item_id))
        item = self._items.get(item_id)
        if item is not None:
            item.bookings += 1
            if item.events < item.log_limit:
                item.log[item.events] = ("booked", link_id, start, end)
            item.events += 1

    def on_booking_failed(
        self, item_id: int, link_id: int, reason: str
    ) -> None:
        series = self._links.get(link_id)
        if series is not None:
            series.rejections[reason] = (
                series.rejections.get(reason, 0) + 1
            )
        item = self._items.get(item_id)
        if item is not None:
            item.rejections[reason] = item.rejections.get(reason, 0) + 1
            if item.events < item.log_limit:
                item.log[item.events] = ("booking_failed", link_id, reason)
            item.events += 1

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
        ledger = self._settle(request_id)
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

    def on_request_cancelled(self, request_id: int, at_time: float) -> None:
        ledger = self._settle(request_id)
        if ledger is None:
            return
        ledger.cancelled += 1
        ledger.note_chain(("cancelled", at_time))
        series = self._timeline.classes[ledger.priority]
        series.cancelled += 1
        series.drains.append(at_time)

    def on_request_reopened(self, request_id: int) -> None:
        ledger = self._settle(request_id)
        if ledger is None:
            return
        ledger.reopened += 1
        ledger.note_chain(("reopened",))
        self._timeline.classes[ledger.priority].reopened += 1
        self._items[ledger.item_id].open(request_id, ledger)

    def finalize(self) -> Timeline:
        """The collected timeline document.  Flushes every open span and
        re-opens it here, so later events and calls extend the ledgers."""
        for item in self._items.values():
            pending = list(item.spans.items())
            for request_id, _ in pending:
                item.flush(request_id)
            for request_id, span in pending:
                item.open(request_id, span[0])
        return self._timeline


# -- document validation -----------------------------------------------------

def _check_scalar(
    document: Mapping[str, Any], key: str, context: str, kinds: Any = int
) -> None:
    value = document.get(key)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ModelError(
            f"timeline document {context}.{key} has invalid value {value!r}"
        )


def _check_rows(
    document: Mapping[str, Any],
    key: str,
    context: str,
    width: int,
) -> None:
    rows = document.get(key)
    if not isinstance(rows, list):
        raise ModelError(
            f"timeline document {context}.{key} must be a list"
        )
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ModelError(
                f"timeline document {context}.{key} has a malformed row "
                f"{row!r} (expected {width} columns)"
            )


def validate_timeline_document(document: Mapping[str, Any]) -> None:
    """Structurally validate a parsed timeline JSON document.

    Raises:
        ModelError: on a wrong kind, unsupported schema version, or any
            structurally invalid field.  Returns silently when the
            document conforms to the :data:`TIMELINE_SCHEMA_VERSION`
            layout produced by
            :func:`repro.serialization.timeline_to_dict`.
    """
    if document.get("kind") != "timeline":
        raise ModelError(
            f"expected a timeline document, got "
            f"kind={document.get('kind')!r}"
        )
    if document.get("schema_version") != TIMELINE_SCHEMA_VERSION:
        raise ModelError(
            f"unsupported timeline schema version "
            f"{document.get('schema_version')!r} "
            f"(expected {TIMELINE_SCHEMA_VERSION})"
        )
    _check_scalar(document, "horizon", "timeline", (int, float))
    _check_scalar(document, "runs", "timeline")
    for key in ("links", "storage", "classes", "forensics"):
        mapping = document.get(key)
        if not isinstance(mapping, Mapping):
            raise ModelError(
                f"timeline document key {key!r} must be a mapping"
            )
    for link_id, series in document["links"].items():
        context = f"links[{link_id}]"
        _check_scalar(series, "window_start", context, (int, float))
        _check_scalar(series, "window_end", context, (int, float))
        _check_scalar(series, "attempts", context)
        if not isinstance(series.get("rejections"), Mapping):
            raise ModelError(
                f"timeline document {context}.rejections must be a mapping"
            )
        _check_rows(series, "bookings", context, 3)
    for machine, series in document["storage"].items():
        context = f"storage[{machine}]"
        _check_scalar(series, "capacity", context, (int, float))
        _check_rows(series, "reservations", context, 4)
    for priority, series in document["classes"].items():
        context = f"classes[{priority}]"
        for key in ("requests", "satisfied", "cancelled", "reopened"):
            _check_scalar(series, key, context)
        _check_rows(series, "slack", context, 2)
        if not isinstance(series.get("drains"), list):
            raise ModelError(
                f"timeline document {context}.drains must be a list"
            )
    for key, ledger in document["forensics"].items():
        context = f"forensics[{key}]"
        if not isinstance(ledger.get("scenario"), str):
            raise ModelError(
                f"timeline document {context}.scenario must be a string"
            )
        for int_key in (
            "request_id",
            "item_id",
            "destination",
            "priority",
            "observed",
            "satisfied",
            "cancelled",
            "reopened",
            "attempts",
            "bookings",
            "chain_dropped",
        ):
            _check_scalar(ledger, int_key, context)
        _check_scalar(ledger, "deadline", context, (int, float))
        if not isinstance(ledger.get("rejections"), Mapping):
            raise ModelError(
                f"timeline document {context}.rejections must be a mapping"
            )
        _check_rows(ledger, "arrivals", context, 2)
        if not isinstance(ledger.get("chain"), list):
            raise ModelError(
                f"timeline document {context}.chain must be a list"
            )
