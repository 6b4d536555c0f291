"""Tracer protocol mechanics: ambient installation, recording, sinks."""

import json

import pytest

from repro.core.state import NetworkState, TransferPlan
from repro.errors import ConfigurationError, InfeasibleTransferError
from repro.observability import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
    current_tracer,
    use_tracer,
)
from repro.observability.tracer import (
    REASON_ALREADY_AT_DESTINATION,
    REASON_CODES,
    REASON_LINK_BUSY,
    REASON_NO_SENDER_COPY,
    REASON_WINDOW_CLOSED,
)
from repro.routing.dijkstra import compute_shortest_path_tree

from tests.helpers import (
    line_network,
    make_item,
    make_scenario,
    single_item_line_scenario,
)


class TestAmbientTracer:
    def test_default_is_the_disabled_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert isinstance(NULL_TRACER, NullTracer)

    def test_use_tracer_installs_and_restores(self):
        tracer = RecordingTracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
            inner = RecordingTracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(RecordingTracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_state_captures_ambient_tracer_at_construction(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            state = NetworkState(scenario)
        # Captured at construction: observed even outside the block.
        assert state.tracer is tracer
        assert NetworkState(scenario).tracer is NULL_TRACER

    def test_explicit_tracer_wins_and_clone_propagates(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        with use_tracer(RecordingTracer()):
            state = NetworkState(scenario, tracer=tracer)
        assert state.tracer is tracer
        assert state.clone().tracer is tracer


class TestTraceEvent:
    def test_as_dict_and_getitem(self):
        event = TraceEvent(name="x", fields=(("a", 1), ("b", "two")))
        assert event.as_dict() == {"event": "x", "a": 1, "b": "two"}
        assert event["a"] == 1
        with pytest.raises(KeyError):
            event["missing"]


def _booked_state(scenario):
    """A state with one transfer booked on the first hop of the line."""
    state = NetworkState(scenario)
    link = scenario.network.link(0)
    plan = state.earliest_transfer(0, link, 0.0)
    assert plan is not None
    state.book_transfer(plan)
    return state, link, plan


class TestRecordedEvents:
    def test_booking_lifecycle_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)

        attempts = tracer.named("transfer_attempt")
        assert attempts and attempts[0]["item_id"] == 0
        booked = tracer.named("transfer_booked")
        assert len(booked) == 1
        assert booked[0]["start"] == plan.start
        assert booked[0]["end"] == plan.end
        assert booked[0]["window_seconds"] > 0.0

        # A second search toward the now-holding receiver is rejected.
        rejection = state.earliest_transfer(0, link, 0.0)
        assert rejection is None
        rejected = tracer.named("transfer_rejected")
        assert rejected[-1]["reason"] == REASON_ALREADY_AT_DESTINATION
        assert all(e["reason"] in REASON_CODES for e in rejected)

    def test_booking_failed_event_carries_reason(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        # Replaying the identical plan: the receiver already holds a copy.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)
        failures = tracer.named("booking_failed")
        assert failures[-1]["reason"] == REASON_ALREADY_AT_DESTINATION
        assert failures[-1]["item_id"] == 0
        assert failures[-1]["link_id"] == link.link_id

    def test_no_sender_copy_failure(self):
        network = line_network(3)
        item = make_item(0, 1000.0, [(0, 0.0)])
        scenario = make_scenario(network, [item], [(0, 2, 2, 100.0)])
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        # Machine 1 holds nothing yet; booking its outbound link fails.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(
                TransferPlan(
                    item_id=0,
                    link=scenario.network.link(1),
                    start=0.0,
                    end=1.0,
                    release=scenario.horizon,
                )
            )
        assert tracer.named("booking_failed")[-1]["reason"] == (
            REASON_NO_SENDER_COPY
        )

    def test_link_busy_failure(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        state.remove_copy(0, link.destination, plan.end)
        # The receiver no longer holds the item, but the link interval is
        # still booked: replaying the plan now reports the busy link.
        with pytest.raises(InfeasibleTransferError):
            state.book_transfer(plan)
        assert tracer.named("booking_failed")[-1]["reason"] == (
            REASON_LINK_BUSY
        )

    def test_state_surgery_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        plan = state.earliest_transfer(0, link, 0.0)
        state.book_transfer(plan)
        state.disable_link_from(2, 50.0)
        state.remove_copy(0, link.destination, plan.end)
        events = {event.name for event in tracer.events}
        assert "link_disabled" in events
        assert "copy_removed" in events
        removed = tracer.named("copy_removed")[0]
        assert removed["machine"] == link.destination
        assert removed["at_time"] == plan.end

    def test_window_closed_rejection(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        link = scenario.network.link(0)
        state.disable_link_from(link.link_id, 0.0)
        assert state.earliest_transfer(0, link, 0.0) is None
        assert tracer.named("transfer_rejected")[-1]["reason"] == (
            REASON_WINDOW_CLOSED
        )

    def test_dijkstra_events(self):
        scenario = single_item_line_scenario()
        tracer = RecordingTracer()
        state = NetworkState(scenario, tracer=tracer)
        compute_shortest_path_tree(state, 0)
        events = tracer.named("dijkstra")
        assert len(events) == 1
        assert events[0]["item_id"] == 0
        assert events[0]["seeds"] == 1
        assert events[0]["relaxations"] >= 2  # two hops reachable
        assert events[0]["finalized"] >= 3


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        scenario = single_item_line_scenario()
        with JsonlTracer(path) as tracer:
            state = NetworkState(scenario, tracer=tracer)
            plan = state.earliest_transfer(0, scenario.network.link(0), 0.0)
            state.book_transfer(plan)
        lines = path.read_text(encoding="utf-8").splitlines()
        documents = [json.loads(line) for line in lines]
        assert documents
        assert all("event" in doc for doc in documents)
        assert any(doc["event"] == "transfer_booked" for doc in documents)

    def test_events_raises_instead_of_silently_answering_empty(self, tmp_path):
        # Regression: JsonlTracer used to subclass RecordingTracer and
        # override _event without recording, so .events/.named() quietly
        # returned [] — hiding every streamed event from inspection code.
        with JsonlTracer(tmp_path / "trace.jsonl") as tracer:
            tracer.on_run_end("label", 1.0)
            with pytest.raises(ConfigurationError):
                tracer.events
            with pytest.raises(ConfigurationError):
                tracer.named("run_end")

    def test_tee_with_recording_tracer_is_the_supported_inspection_path(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        recorder = RecordingTracer()
        with JsonlTracer(path) as stream:
            tee = TeeTracer((stream, recorder))
            tee.on_run_end("label", 1.0)
        assert len(recorder.named("run_end")) == 1
        assert json.loads(path.read_text(encoding="utf-8"))["event"] == (
            "run_end"
        )

    def test_span_events_stream_as_json_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.on_span_start("tree")
            tracer.on_span_end("tree", 0.25, 0.125)
        documents = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert documents[0] == {"event": "span_start", "span": "tree"}
        assert documents[1] == {
            "event": "span_end",
            "span": "tree",
            "wall_seconds": 0.25,
            "cpu_seconds": 0.125,
        }

    def test_accepts_an_open_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            tracer = JsonlTracer(stream)
            tracer.on_run_end("label", 1.0)
            tracer.close()
            # close() must not close a caller-owned stream.
            assert not stream.closed
        documents = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert documents == [
            {"event": "run_end", "label": "label", "elapsed_seconds": 1.0}
        ]


class TestTeeTracer:
    def test_fans_out_to_enabled_children_only(self):
        first = RecordingTracer()
        second = RecordingTracer()
        null = NullTracer()
        tee = TeeTracer((first, null, second))
        assert tee.enabled
        tee.on_run_end("x", 0.5)
        assert len(first.named("run_end")) == 1
        assert len(second.named("run_end")) == 1

    def test_all_disabled_children_disable_the_tee(self):
        tee = TeeTracer((NullTracer(), NullTracer()))
        assert not tee.enabled
        assert TeeTracer(()).enabled is False

    def test_enabled_tracks_children_dynamically(self):
        class Toggleable(RecordingTracer):
            enabled = False

        child = Toggleable()
        tee = TeeTracer((NullTracer(), child))
        assert not tee.enabled
        child.enabled = True
        assert tee.enabled
        child.enabled = False
        assert not tee.enabled

    def test_child_toggled_after_construction_skips_then_resumes(self):
        # The tee binds each child's hooks once, when it is built; the
        # child's `enabled` flag must still be read on every event.
        class Toggleable(RecordingTracer):
            enabled = True

        child = Toggleable()
        always = RecordingTracer()
        tee = TeeTracer((child, always))
        tee.on_run_end("before", 0.1)
        child.enabled = False
        tee.on_run_end("while-off", 0.2)
        tee.on_transfer_attempt(3, 4)
        child.enabled = True
        tee.on_run_end("after", 0.3)
        assert [event["label"] for event in child.named("run_end")] == [
            "before",
            "after",
        ]
        assert not child.named("transfer_attempt")
        assert [event["label"] for event in always.named("run_end")] == [
            "before",
            "while-off",
            "after",
        ]
        assert len(always.named("transfer_attempt")) == 1

    def test_disabled_tee_suppresses_event_allocation(self, line_scenario):
        # The event site's `if tracer.enabled:` guard is the allocation
        # gate — an all-NullTracer tee must report disabled so the state
        # never materializes event payloads for it.
        tee = TeeTracer((NullTracer(), NullTracer()))
        with use_tracer(tee):
            state = NetworkState(line_scenario)
            link = line_scenario.network.link(0)
            plan = state.earliest_transfer(0, link, 0.0)
            assert plan is not None
            state.book_transfer(plan)
        recorder = RecordingTracer()
        seen = TeeTracer((recorder, NullTracer()))
        assert seen.enabled
        seen.on_run_end("x", 0.1)
        assert len(recorder.named("run_end")) == 1
