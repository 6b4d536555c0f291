"""Unit tests for half-open intervals and disjoint interval sets."""

import pytest

from repro.core.intervals import Interval, IntervalSet


class TestInterval:
    def test_duration(self):
        assert Interval(2.0, 5.0).duration == 3.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_zero_length_is_empty(self):
        assert Interval(3.0, 3.0).is_empty()
        assert not Interval(3.0, 3.1).is_empty()

    def test_contains_is_half_open(self):
        interval = Interval(1.0, 2.0)
        assert interval.contains(1.0)
        assert interval.contains(1.999)
        assert not interval.contains(2.0)
        assert not interval.contains(0.999)

    def test_contains_interval(self):
        outer = Interval(0.0, 10.0)
        assert outer.contains_interval(Interval(0.0, 10.0))
        assert outer.contains_interval(Interval(3.0, 7.0))
        assert not outer.contains_interval(Interval(3.0, 10.5))
        assert not outer.contains_interval(Interval(-1.0, 5.0))

    def test_contains_empty_interval_at_boundary(self):
        outer = Interval(0.0, 10.0)
        assert outer.contains_interval(Interval(10.0, 10.0))
        assert not outer.contains_interval(Interval(11.0, 11.0))

    def test_overlap_half_open_adjacency(self):
        # [0,5) and [5,9) share no instant.
        assert not Interval(0, 5).overlaps(Interval(5, 9))
        assert Interval(0, 5).overlaps(Interval(4.999, 9))

    def test_empty_interval_overlaps_nothing(self):
        assert not Interval(3, 3).overlaps(Interval(0, 10))
        assert not Interval(0, 10).overlaps(Interval(3, 3))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 5).intersection(Interval(5, 9)) is None
        assert Interval(0, 5).intersection(Interval(7, 9)) is None

    def test_shifted(self):
        assert Interval(1, 2).shifted(3.5) == Interval(4.5, 5.5)

    def test_ordering_by_start_then_end(self):
        assert Interval(0, 5) < Interval(1, 2)
        assert Interval(0, 2) < Interval(0, 5)


class TestIntervalSet:
    def test_empty_set_is_free_everywhere(self):
        assert IntervalSet().span_is_free(0, 1e9)

    def test_add_and_membership(self):
        busy = IntervalSet()
        busy.add(Interval(5, 10))
        assert Interval(5, 10) in busy
        assert Interval(5, 9) not in busy
        assert len(busy) == 1

    def test_add_overlapping_raises(self):
        busy = IntervalSet([Interval(5, 10)])
        with pytest.raises(ValueError):
            busy.add(Interval(9, 12))
        with pytest.raises(ValueError):
            busy.add(Interval(0, 6))
        with pytest.raises(ValueError):
            busy.add(Interval(6, 7))

    def test_add_adjacent_is_allowed(self):
        busy = IntervalSet([Interval(5, 10)])
        busy.add(Interval(10, 12))
        busy.add(Interval(0, 5))
        assert len(busy) == 3

    def test_add_empty_interval_is_noop(self):
        busy = IntervalSet()
        busy.add(Interval(5, 5))
        assert len(busy) == 0

    def test_is_free_checks_all_overlaps(self):
        busy = IntervalSet([Interval(0, 2), Interval(4, 6), Interval(8, 10)])
        assert busy.span_is_free(2, 4)
        assert busy.span_is_free(6, 8)
        assert not busy.span_is_free(3, 5)
        assert not busy.span_is_free(1, 9)

    def test_remove(self):
        busy = IntervalSet([Interval(0, 2), Interval(4, 6)])
        busy.remove(Interval(0, 2))
        assert busy.span_is_free(0, 2)
        with pytest.raises(KeyError):
            busy.remove(Interval(0, 2))

    def test_remove_requires_exact_match(self):
        busy = IntervalSet([Interval(0, 2)])
        with pytest.raises(KeyError):
            busy.remove(Interval(0, 1.5))

    def test_total_duration(self):
        busy = IntervalSet([Interval(0, 2), Interval(4, 7)])
        assert busy.total_duration() == 5.0

    def test_copy_is_independent(self):
        busy = IntervalSet([Interval(0, 2)])
        clone = busy.copy()
        clone.add(Interval(5, 6))
        assert len(busy) == 1
        assert len(clone) == 2


class TestEarliestFit:
    def test_fit_in_empty_set(self):
        busy = IntervalSet()
        assert busy.first_fit(3.0, 0, 10) == 0.0

    def test_fit_respects_earliest(self):
        busy = IntervalSet()
        assert busy.first_fit(3.0, 0, 10, earliest=4.0) == 4.0

    def test_fit_after_busy_prefix(self):
        busy = IntervalSet([Interval(0, 4)])
        assert busy.first_fit(3.0, 0, 10) == 4.0

    def test_fit_in_gap_between_members(self):
        busy = IntervalSet([Interval(0, 2), Interval(5, 9)])
        assert busy.first_fit(3.0, 0, 20) == 2.0
        assert busy.first_fit(4.0, 0, 20) == 9.0

    def test_fit_too_long_for_window(self):
        busy = IntervalSet()
        assert busy.first_fit(11.0, 0, 10) is None

    def test_fit_window_fully_busy(self):
        busy = IntervalSet([Interval(0, 10)])
        assert busy.first_fit(1.0, 0, 10) is None

    def test_fit_exactly_fills_tail(self):
        busy = IntervalSet([Interval(0, 7)])
        assert busy.first_fit(3.0, 0, 10) == 7.0

    def test_fit_starting_inside_member_moves_to_member_end(self):
        busy = IntervalSet([Interval(2, 6)])
        assert busy.first_fit(1.0, 0, 10, earliest=3.0) == 6.0

    def test_fit_zero_duration(self):
        busy = IntervalSet([Interval(0, 10)])
        # Zero-length transfers overlap nothing.
        assert busy.first_fit(0.0, 0, 10) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().first_fit(-1.0, 0, 10)

    def test_fit_skips_multiple_members(self):
        busy = IntervalSet(
            [Interval(0, 2), Interval(2.5, 5), Interval(5.5, 8)]
        )
        assert busy.first_fit(1.0, 0, 10) == 8.0
        assert busy.first_fit(0.5, 0, 10) == 2.0
