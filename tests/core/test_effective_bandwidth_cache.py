"""The effective-bandwidth list is cached on the degradation epoch.

``NetworkState.effective_bandwidths()`` used to rebuild its list eagerly
at construction and on every fault application; it is now rebuilt lazily
and cached until :attr:`NetworkState.degradation_epoch` moves.  These
tests pin the cache contract: identical object while the epoch stands, a
fresh (and correct) list after any degradation, no leakage between a
state and its clone, and tree-cache invalidation keyed on the epoch.
They also pin :meth:`NetworkState.degrade_physical_link`'s argument
checks, since only a valid tightening may move the epoch.
"""

import pytest

from repro.core.state import NetworkState
from repro.errors import SchedulingError
from repro.faults import BandwidthDegradation, FaultPlan
from repro.heuristics.base import EngineStats, TreeCache
from repro.observability import RecordingTracer, use_tracer
from repro.observability.tracer import (
    TREE_CACHE_BANDWIDTH_DEGRADED,
    TREE_CACHE_CLEAN,
    TREE_CACHE_COLD,
)
from tests.helpers import single_item_line_scenario


class TestEffectiveBandwidthCache:
    def test_repeated_reads_return_the_cached_list(self):
        state = NetworkState(single_item_line_scenario())
        assert state.effective_bandwidths() is state.effective_bandwidths()

    def test_degradation_mutation_refreshes_the_cache(self):
        scenario = single_item_line_scenario()
        state = NetworkState(scenario)
        healthy = state.effective_bandwidths()
        epoch = state.degradation_epoch

        state.degrade_physical_link(0, 0.5)
        assert state.degradation_epoch == epoch + 1
        degraded = state.effective_bandwidths()
        assert degraded is not healthy
        assert degraded is state.effective_bandwidths()
        for link in scenario.network.virtual_links:
            expected = link.bandwidth * (
                0.5 if link.physical_id == 0 else 1.0
            )
            assert degraded[link.link_id] == expected
        # The healthy snapshot the caller already held is untouched.
        assert all(
            healthy[link.link_id] == link.bandwidth
            for link in scenario.network.virtual_links
        )

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

    def test_clone_degradation_does_not_leak_back(self):
        state = NetworkState(single_item_line_scenario())
        original = state.effective_bandwidths()
        clone = state.clone()
        clone.degrade_physical_link(0, 0.5)
        assert clone.effective_bandwidths() is not original
        assert state.effective_bandwidths() is original

    def test_degradation_lengthens_planned_transfers(self):
        scenario = single_item_line_scenario()
        state = NetworkState(scenario)
        link = scenario.network.link(0)
        before = state.earliest_transfer(0, link, sender_ready=0.0)
        state.degrade_physical_link(0, 0.5)
        after = state.earliest_transfer(0, link, sender_ready=0.0)
        assert before is not None and after is not None
        assert (after.end - after.start) == 2 * (before.end - before.start)


class TestTreeCacheInvalidation:
    def test_degradation_epoch_invalidates_cached_trees(self):
        state = NetworkState(single_item_line_scenario())
        cache = TreeCache(state, EngineStats())
        tracer = RecordingTracer()
        with use_tracer(tracer):
            traced = NetworkState(single_item_line_scenario())
            traced_cache = TreeCache(traced, EngineStats())
            traced_cache.entry_for(0)
            traced_cache.entry_for(0)
            traced.degrade_physical_link(0, 0.5)
            traced_cache.entry_for(0)
        reasons = [
            dict(event.fields)["reason"]
            for event in tracer.named("tree_cache")
        ]
        assert reasons == [
            TREE_CACHE_COLD,
            TREE_CACHE_CLEAN,
            TREE_CACHE_BANDWIDTH_DEGRADED,
        ]
        # And the recomputed tree reflects the slower link.
        first = cache.entry_for(0).tree
        state.degrade_physical_link(0, 0.5)
        second = cache.entry_for(0).tree
        assert second.arrival(1) > first.arrival(1)


class TestDegradeValidation:
    def test_rejects_out_of_range_factor(self):
        state = NetworkState(single_item_line_scenario())
        with pytest.raises(ValueError):
            state.degrade_physical_link(0, 0.0)
        with pytest.raises(ValueError):
            state.degrade_physical_link(0, 1.5)

    def test_rejects_unknown_link(self):
        state = NetworkState(single_item_line_scenario())
        with pytest.raises(SchedulingError):
            state.degrade_physical_link(99, 0.5)

    def test_rejects_loosening(self):
        state = NetworkState(single_item_line_scenario())
        state.degrade_physical_link(0, 0.5)
        with pytest.raises(SchedulingError):
            state.degrade_physical_link(0, 0.75)
        # Tightening further is allowed and bumps the epoch again.
        before = state.degradation_epoch
        state.degrade_physical_link(0, 0.25)
        assert state.degradation_epoch == before + 1
