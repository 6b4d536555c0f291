"""The adapted multiple-source shortest-path algorithm of §4.2.

For one requested data item the algorithm computes, against the *current*
scheduling state, the earliest time a copy could arrive at every machine.
It is Dijkstra's algorithm on a time-dependent graph:

* the source set is the item's current copy holders, seeded with the times
  their copies become available;
* relaxing edge ``L[u,v][k]`` from a machine labelled ``t`` asks the state
  for the earliest feasible transfer start at or after ``t`` — respecting
  the link's availability window, its already-booked transfers, the
  receiver's storage over the copy's full residency (including garbage
  collection), and the sender's residency;
* the arrival label of ``v`` is the minimum completion time over all
  inbound virtual links.

Label-setting is correct because the earliest-completion function is
monotone in the ready time (waiting never lets a transfer finish earlier):
once a machine is popped its label is final.  Machines that already hold the
item are never relaxed *into* (a machine stores at most one copy).
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Set, Tuple

from repro.core.state import NetworkState
from repro.observability.profiling import PHASE_DIJKSTRA, span
from repro.routing.paths import ShortestPathTree, make_tree


def compute_shortest_path_tree(
    state: NetworkState,
    item_id: int,
    targets: Optional[Set[int]] = None,
    not_before: float = 0.0,
) -> ShortestPathTree:
    """Earliest-arrival tree for one data item over the current state.

    Args:
        state: the scheduling state to plan against (not mutated).
        item_id: the data item to route.
        targets: optional early-exit set — once every target machine is
            finalized the search stops.  Labels of machines finalized before
            the exit are still exact; unfinalized machines are reported
            unreachable, so only pass ``targets`` when paths to other
            machines are genuinely not needed.
        not_before: wall-clock lower bound on every planned transfer start
            (the "now" of a dynamic re-scheduling pass).  Copies whose
            release precedes it cannot seed the search.

    Returns:
        The :class:`~repro.routing.paths.ShortestPathTree` with exact
        earliest arrivals for every reachable (finalized) machine.
    """
    with span(PHASE_DIJKSTRA, state.tracer):
        return _compute_tree(state, item_id, targets, not_before)


def _compute_tree(
    state: NetworkState,
    item_id: int,
    targets: Optional[Set[int]],
    not_before: float,
) -> ShortestPathTree:
    network = state.scenario.network
    item_size = state.scenario.item(item_id).size
    seeds: Dict[int, float] = {
        machine: max(record.available_from, not_before)
        for machine, record in state.copies(item_id).items()
        if record.release > not_before
    }
    labels: Dict[int, float] = dict(seeds)
    parents: Dict[int, Tuple[int, int, float, float]] = {}
    finalized: Set[int] = set()
    pending_targets = set(targets) if targets is not None else None
    tracer = state.tracer
    tracing = tracer.enabled
    relaxations = 0
    pruned = 0
    # Delivered (possibly fault-degraded) bandwidth per link, fetched once
    # so the relaxation loop below stays a plain list index.
    bandwidths = state.effective_bandwidths()

    heap = [(available, machine) for machine, available in seeds.items()]
    heapq.heapify(heap)
    infinity = float("inf")

    while heap:
        label, machine = heapq.heappop(heap)
        if machine in finalized:
            continue
        if label > labels.get(machine, infinity):
            continue
        finalized.add(machine)
        if pending_targets is not None:
            pending_targets.discard(machine)
            if not pending_targets:
                break
        for link in network.outgoing(machine):
            receiver = link.destination
            if receiver in finalized:
                continue
            # Cheap pruning: even an uncontended transfer cannot complete
            # before max(window start, ready time) + communication time, so
            # links that cannot beat the receiver's current label are
            # skipped without the full feasibility search.  (Inlined
            # arithmetic — this is the hottest line of the library.)
            # The receiver's current label is read once per edge: nothing
            # between the prune check and the improvement test can change
            # it (earliest_transfer never touches labels).
            receiver_label = labels.get(receiver, infinity)
            duration = item_size / bandwidths[link.link_id] + link.latency
            start_floor = link.start if link.start > label else label
            if start_floor + duration >= receiver_label:
                if tracing:
                    pruned += 1
                continue
            if tracing:
                relaxations += 1
            plan = state.earliest_transfer(item_id, link, label, duration)
            if plan is None:
                continue
            if plan.end < receiver_label:
                labels[receiver] = plan.end
                parents[receiver] = (
                    machine,
                    link.link_id,
                    plan.start,
                    plan.end,
                )
                heapq.heappush(heap, (plan.end, receiver))

    # Drop labels of machines that were discovered but never finalized when
    # an early exit fired: their values may not be exact.
    if pending_targets is not None:
        labels = {
            machine: value
            for machine, value in labels.items()
            if machine in finalized
        }
        parents = {
            machine: parent
            for machine, parent in parents.items()
            if machine in finalized
        }
    if tracing:
        tracer.on_dijkstra(
            item_id, relaxations, pruned, len(finalized), len(seeds)
        )
    return make_tree(
        item_id=item_id, seeds=seeds, labels=labels, parents=parents
    )
