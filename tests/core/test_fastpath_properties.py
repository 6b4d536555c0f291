"""Property tests pinning the core fast paths to naive references.

The flattened inner loops (``IntervalSet.first_fit``/``span_is_free``,
``CapacityTimeline.min_free_span``/``next_sufficient_start``), the
list-only ``IntervalSet`` representation and the ``__new__``-based
``copy()`` constructors trade clarity for speed; these properties pin
each of them to a brute-force reference implementation (or to the
validating slow path they replaced) over randomized inputs, so the fast
paths cannot silently drift.

All generated times sit on a half-integer grid: the arithmetic stays
exact, so strict float comparisons in the references mean what they say.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalSet
from repro.core.timeline import CapacityTimeline

#: Half-integer grid points in [0, 100].
_grid = st.integers(min_value=0, max_value=200).map(lambda i: i / 2.0)

#: Durations: zero or at least half a second (clear of the zero-duration
#: tolerance band).
_duration = st.one_of(
    st.just(0.0), st.integers(min_value=1, max_value=40).map(lambda i: i / 2.0)
)


@st.composite
def interval_sets(draw):
    """A valid IntervalSet: disjoint members from sorted grid points."""
    points = sorted(
        draw(st.sets(_grid, min_size=0, max_size=12)),
    )
    members = []
    for left, right in zip(points[::2], points[1::2]):
        if right > left:
            members.append(Interval(left, right))
    return IntervalSet(members)


def _naive_span_is_free(members, start, end):
    if end <= start:
        return True  # an empty span overlaps nothing
    return all(
        not (member.start < end and start < member.end)
        for member in members
    )


def _naive_first_fit(members, duration, window_start, window_end, earliest):
    cursor = max(window_start, earliest)
    if cursor + duration > window_end:
        return None
    if duration == 0.0:
        return cursor if cursor < window_end else None
    candidates = sorted(
        {cursor}
        | {member.end for member in members if member.end > cursor}
    )
    for start in candidates:
        if start + duration > window_end:
            return None
        if _naive_span_is_free(members, start, start + duration):
            return start
    return None


class TestIntervalSetFastPaths:
    @given(busy=interval_sets(), start=_grid, duration=_duration)
    def test_span_is_free_matches_naive_overlap_scan(
        self, busy, start, duration
    ):
        end = start + duration
        assert busy.span_is_free(start, end) == _naive_span_is_free(
            busy.intervals(), start, end
        )

    @given(
        busy=interval_sets(), offset=st.sampled_from([0.0, 0.25, 0.5, 0.75])
    )
    def test_empty_span_inside_a_member_is_free(self, busy, offset):
        for member in busy.intervals():
            instant = member.start + offset * member.duration
            assert not busy.span_is_free(instant, member.end)
            assert busy.span_is_free(instant, instant)

    @given(
        busy=interval_sets(),
        duration=_duration,
        window_start=_grid,
        window_length=_duration,
        earliest=_grid,
    )
    def test_first_fit_matches_naive_candidate_scan(
        self, busy, duration, window_start, window_length, earliest
    ):
        window_end = window_start + window_length
        expected = _naive_first_fit(
            busy.intervals(), duration, window_start, window_end, earliest
        )
        assert (
            busy.first_fit(duration, window_start, window_end, earliest)
            == expected
        )

    @given(busy=interval_sets())
    def test_copy_equals_revalidating_rebuild(self, busy):
        fast = busy.copy()
        slow = IntervalSet(busy.intervals())  # re-adds through add()
        assert fast.intervals() == slow.intervals()
        assert fast._starts == slow._starts
        assert fast._ends == slow._ends

    @given(busy=interval_sets())
    def test_copy_is_independent(self, busy):
        clone = busy.copy()
        before = busy.intervals()
        clone.add(Interval(1000.0, 1001.0))
        assert busy.intervals() == before
        assert Interval(1000.0, 1001.0) in clone

    @given(busy=interval_sets(), start=_grid, duration=_duration)
    def test_add_remove_contains_round_trip(self, busy, start, duration):
        members = busy.intervals()
        assert list(busy) == list(members)
        assert len(busy) == len(members)
        for member in members:
            assert member in busy
            # Same start, different end: not a member.
            assert Interval(member.start, member.end + 0.5) not in busy
        candidate = Interval(start, start + duration)
        if duration == 0.0 or not busy.span_is_free(start, start + duration):
            return
        assert candidate not in busy
        busy.add(candidate)
        assert candidate in busy
        assert busy.intervals() == tuple(sorted(members + (candidate,)))
        busy.remove(candidate)
        assert candidate not in busy
        assert busy.intervals() == members
        with pytest.raises(KeyError):
            busy.remove(candidate)


@st.composite
def reserved_timelines(draw):
    """A timeline plus the reservation log that produced it."""
    capacity = draw(st.integers(min_value=1, max_value=10)) * 100.0
    timeline = CapacityTimeline(capacity)
    log = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        amount = draw(st.integers(min_value=1, max_value=10)) * 10.0
        start = draw(_grid)
        length = draw(st.integers(min_value=1, max_value=40)) / 2.0
        interval = Interval(start, start + length)
        if timeline.can_reserve_span(amount, interval.start, interval.end):
            timeline.reserve(amount, interval)
            log.append((amount, interval))
    return timeline, log


def _naive_min_free(timeline, start, end):
    if end <= start:
        return timeline.capacity
    points = timeline.breakpoints()
    minimum = None
    for idx, (time, value) in enumerate(points):
        nxt = points[idx + 1][0] if idx + 1 < len(points) else float("inf")
        if time < end and nxt > start:
            if minimum is None or value < minimum:
                minimum = value
    return minimum


class TestTimelineFastPaths:
    @given(built=reserved_timelines(), start=_grid, length=_duration)
    def test_min_free_span_matches_naive_segment_scan(
        self, built, start, length
    ):
        timeline, _ = built
        end = start + length
        assert timeline.min_free_span(start, end) == _naive_min_free(
            timeline, start, end
        )

    @given(
        built=reserved_timelines(),
        amount=st.integers(min_value=1, max_value=12).map(lambda i: i * 10.0),
        start=_grid,
        length=st.integers(min_value=1, max_value=40).map(lambda i: i / 2.0),
    )
    def test_next_sufficient_start_matches_naive_scan(
        self, built, amount, start, length
    ):
        timeline, _ = built
        release = start + length
        result = timeline.next_sufficient_start(amount, start, release)
        if timeline.can_reserve_span(amount, start, release):
            # Every segment suffices; there is nothing to wait for.
            assert result is None
            return
        feasible = [
            time
            for time, _ in timeline.breakpoints()
            if start < time < release
            and timeline.min_free_span(time, release) >= amount
        ]
        assert result == (min(feasible) if feasible else None)
        if result is not None:
            assert start < result < release
            assert timeline.can_reserve_span(amount, result, release)

    @given(built=reserved_timelines())
    def test_copy_equals_replaying_the_reservation_log(self, built):
        timeline, log = built
        fast = timeline.copy()
        slow = CapacityTimeline(timeline.capacity)
        for amount, interval in log:
            slow.reserve(amount, interval)
        assert fast.breakpoints() == slow.breakpoints()
        assert fast.capacity == slow.capacity

    @given(built=reserved_timelines())
    def test_copy_is_independent(self, built):
        timeline, _ = built
        clone = timeline.copy()
        before = timeline.breakpoints()
        clone.reserve(timeline.capacity, Interval(2000.0, 2001.0))
        assert timeline.breakpoints() == before
        assert clone.free_at(2000.5) == 0.0
