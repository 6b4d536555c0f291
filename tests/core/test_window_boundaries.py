"""Boundary behavior at virtual-link window edges ``[Lst, Let)``.

Satellite of the R2 comparator work: all assertions on computed times go
through the :mod:`repro.core.units` comparators (``time_eq`` /
``times_close``) instead of raw float ``==``, and the cases sit exactly
on the window edges where an off-by-epsilon comparison would flip the
outcome.
"""

from __future__ import annotations

import pytest

from repro.core.intervals import Interval, IntervalSet
from repro.core.timeline import CapacityTimeline
from repro.core.units import time_eq, times_close
from repro.errors import CapacityError

LST = 10.0
LET = 20.0
WINDOW = Interval(LST, LET)


class TestEarliestFitAtWindowEdges:
    def test_fit_filling_the_whole_window_starts_at_lst(self):
        free = IntervalSet()
        start = free.first_fit(LET - LST, LST, LET)
        assert start is not None and time_eq(start, LST)

    def test_fit_ending_exactly_at_let_is_allowed(self):
        free = IntervalSet()
        start = free.first_fit(4.0, LST, LET, earliest=LET - 4.0)
        assert start is not None and time_eq(start, LET - 4.0)

    def test_fit_overrunning_let_by_epsilon_is_rejected(self):
        free = IntervalSet()
        assert free.first_fit((LET - LST) + 1e-6, LST, LET) is None

    def test_zero_duration_booking_at_let_is_rejected(self):
        # A zero-length transfer occupies no bandwidth-time, but its
        # start must still be a member of the half-open window: Let
        # itself lies outside [Lst, Let), exactly like Interval.contains.
        free = IntervalSet()
        assert free.first_fit(0.0, LST, LET, earliest=LET) is None

    def test_zero_duration_booking_just_inside_let_is_allowed(self):
        free = IntervalSet()
        start = free.first_fit(0.0, LST, LET, earliest=LET - 1e-6)
        assert start is not None and time_eq(start, LET - 1e-6)

    def test_zero_duration_booking_at_lst_is_allowed(self):
        free = IntervalSet()
        start = free.first_fit(0.0, LST, LET)
        assert start is not None and time_eq(start, LST)

    def test_zero_duration_booking_in_empty_window_is_rejected(self):
        # An empty window [t, t) contains no instants at all.
        free = IntervalSet()
        assert free.first_fit(0.0, LST, LST) is None

    def test_zero_duration_booking_past_let_is_rejected(self):
        free = IntervalSet()
        assert free.first_fit(0.0, LST, LET, earliest=LET + 1.0) is None

    def test_member_ending_at_lst_does_not_block_the_window(self):
        # A booking in an *earlier* window that touches Lst exactly:
        # half-open intervals mean [0, Lst) and [Lst, ...) are disjoint.
        free = IntervalSet()
        free.add(Interval(0.0, LST))
        start = free.first_fit(5.0, LST, LET)
        assert start is not None and time_eq(start, LST)

    def test_member_starting_at_let_does_not_shrink_the_window(self):
        free = IntervalSet()
        free.add(Interval(LET, LET + 5.0))
        start = free.first_fit(LET - LST, LST, LET)
        assert start is not None and time_eq(start, LST)

    def test_cursor_inside_member_slides_to_member_end(self):
        free = IntervalSet()
        free.add(Interval(LST, LST + 2.0))
        start = free.first_fit(3.0, LST, LET)
        assert start is not None and times_close(start, LST + 2.0)


class TestWindowIntervalSemantics:
    def test_window_contains_lst_but_not_let(self):
        assert WINDOW.contains(LST)
        assert not WINDOW.contains(LET)

    def test_adjacent_windows_do_not_overlap(self):
        earlier = Interval(0.0, LST)
        assert not earlier.overlaps(WINDOW)
        assert earlier.intersection(WINDOW) is None

    def test_transfer_exactly_filling_the_window_is_contained(self):
        assert WINDOW.contains_interval(Interval(LST, LET))

    def test_zero_length_interval_at_let_is_contained(self):
        assert WINDOW.contains_interval(Interval(LET, LET))


class TestCapacityAtWindowEdges:
    def test_reservation_is_half_open_at_its_end(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(60.0, Interval(LST, LET))
        assert times_close(timeline.free_at(LST), 40.0)
        # The closing instant is outside the half-open interval.
        assert times_close(timeline.free_at(LET), 100.0)

    def test_back_to_back_full_reservations_share_a_breakpoint(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(100.0, Interval(0.0, LST))
        # [Lst, Let) starts exactly where the previous residency ends;
        # a full-capacity reservation must still fit.
        timeline.reserve(100.0, Interval(LST, LET))
        assert times_close(timeline.free_at(LST), 0.0)

    def test_overlapping_full_reservations_raise(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(100.0, Interval(0.0, LST + 1e-9))
        with pytest.raises(CapacityError):
            timeline.reserve(100.0, Interval(LST, LET))

    def test_release_restores_the_edge_exactly(self):
        timeline = CapacityTimeline(100.0)
        timeline.reserve(70.0, Interval(LST, LET))
        timeline.release(70.0, Interval(LST, LET))
        for t in (LST, (LST + LET) / 2.0, LET):
            assert times_close(timeline.free_at(t), 100.0)
