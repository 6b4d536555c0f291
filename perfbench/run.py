#!/usr/bin/env python3
"""The repository benchmark: untraced scheduler latency and throughput.

Run from the repository root::

    python3 perfbench/run.py --workload static-paper            # timing pass
    python3 perfbench/run.py --workload dynamic-outage --trace 1  # per layer
    python3 perfbench/run.py --workload all --trace 1            # everything

Workloads (see ``workloads.py`` for why each is here):

* ``static-paper`` — §5.3 paper-scale scenarios, the three heuristics
  with C4 at log10(E/U) = 0, healthy network;
* ``dynamic-outage`` — reduced-scale scenarios under the dynamic driver
  with arrivals at item start, inside a static fault plan (intensity 0.5);
* ``observed-sweep`` — reduced-scale sweep cells over the 11 paper
  pairings x log10(E/U) in {-1, 0, 1}, with metrics, profile and timeline
  collectors on.

One *op* is one call that hands a user a schedule.  ``--seconds`` fixes how
many cells (one scenario each) the workload draws from ``--seed``, at a
nominal op rate calibrated on a 2-CPU x86-64 box, so the same seed and
seconds always give the same inputs.  Every op runs in this one process,
single-threaded, with ``workers=1``.

``--trace 0`` (timing pass, no tracer) reports the end-to-end metrics:

* ``setup_s`` — the median time to import the library in a fresh
  interpreter (three interpreters, after this one has imported it once)
  plus the median of three generations of the workload's inputs
  (scenarios, fault plans, events);
* ``run_s_p50`` / ``run_s_tail`` — median and tail wall time per op; the
  tail is the highest percentile with at least ten ops beyond it; both
  are Harrell-Davis estimates (:func:`quantile`);
* ``throughput_rps`` — scenario requests per second of op wall time;
* ``value_fraction`` — mean achieved weighted priority sum over
  ``upper_bound`` (exact: any change in scheduling decisions moves it);
* ``peak_rss_mb`` — peak resident memory of this process.

Every time above is *speed-scaled*: a shared host's CPU speed drifts by
tens of percent over seconds and minutes, which would swamp the program's
own changes.  So a fixed reference loop that never touches the library
(:func:`reference`) is timed right before and right after each timed
step, and the step's wall time is multiplied by
``(NOMINAL_REFERENCE_S / mean(reference before, reference after)) **
SPEED_EXPONENT``: the time the step would take on a box where the loop
takes :data:`NOMINAL_REFERENCE_S`.  The raw wall times are printed
alongside.

Every op is checked: it fails if it raises, if ``ScheduleValidator``
rejects its schedule, or if ``evaluate_schedule`` disagrees with the
effect it reported.  The fail rate is printed and carried by the result's
``attempted``/``failed`` counts; any failure makes ``correct`` false and
the exit code 1.

``--trace 1`` draws a third of the cells (at least :data:`MIN_CELLS`),
runs the timing pass over them, then a traced pass over freshly
generated copies of the same cells with timing wrappers around the layer
boundaries (``layers.py``), and reports the per-layer metrics.  The traced
pass must reproduce every op's schedule and engine counters exactly, and
the first cells are traced a second time in a child interpreter with
another hash seed, whose work counts must repeat exactly; any mismatch
makes ``correct`` false and the exit code 1.

Seeds: the default ``--seed`` is :data:`DEFAULT_SEED`; a performance
claim made on it is re-checked on the held-out seed :data:`HELD_OUT_SEED`.
Every run prints an environment stamp (seed, commit, Python, nproc,
platform); ``--report`` saves it with the metrics and the work counts, and
``--baseline`` compares against a saved report, flagging a different
environment.  Against a report of the same commit, workload, seed and cell
count, differing work counts exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
WORKLOAD_NAMES = ("static-paper", "dynamic-outage", "observed-sweep")
#: A run draws at least this many cells, so the tail has ten beyond it.
MIN_CELLS = 11
#: How many times input generation and the library import are timed;
#: ``setup_s`` sums their medians.
SETUP_REPEATS = 3
#: How many cells the traced pass traces a second time, in a child process.
REPEAT_CELLS = 2
#: ``--trace 1`` draws this fraction of the cells (one in three): its ops
#: run twice, the traced ones about 1.5x slower, and the per-layer metrics
#: need no tight bound.
TRACED_SHARE = 3
#: Time of one :func:`reference` call on the 2-vCPU x86-64 box the
#: benchmark was tuned on; speed-scaled times are given at this speed.
NOMINAL_REFERENCE_S = 0.006
#: A reference reading is the best of this many timed calls.
REFERENCE_REPEATS = 3
#: How an op's time follows the reference's as the box slows down: fitted
#: as log(op time) against log(reference time), per op within each cell
#: (0.76) and per run over ten runs of each workload (0.63-0.76), on a box
#: whose speed drifted by 2x.  The scheduler touches more memory than the
#: reference loop and slows less than it.
SPEED_EXPONENT = 0.7

#: Run in a fresh interpreter with the benchmark and library directories
#: as arguments: prints how long importing the library takes.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "started = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - started)"
)
#: Run in a fresh interpreter with the workload, seed and cell count as
#: arguments: prints the traced pass's per-cell work counts as JSON.
COUNTS_PROBE = (
    "import json, sys; import run; "
    "print(json.dumps(run.traced_counts(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))"
)

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "throughput_rps": "1/s",
    "value_fraction": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Untraced scheduler latency/throughput benchmark.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; re-check claims on {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=25.0, help="sizes the cell count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="write the full report as JSON")
    parser.add_argument("--baseline", type=Path, help="compare with a saved --report")
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict[str, Any]:
    return {
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


#: Stamp fields whose difference makes two reports incomparable.
ENV_KEYS = ("python", "implementation", "nproc", "platform", "machine")


# -- statistics ------------------------------------------------------------------


def quantile(values: Sequence[float], share: float) -> float:
    """The Harrell-Davis estimate of the ``share`` quantile (0 < share < 1):
    the order statistics averaged with weights from a Beta((n + 1) share,
    (n + 1)(1 - share)) distribution over their ranks.  It estimates the
    same quantile as the single order statistic at that rank, with less
    run-to-run spread, since every sample contributes."""
    ordered = sorted(values)
    count = len(ordered)
    a, b = (count + 1) * share, (count + 1) * (1 - share)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule over each rank's share of [0, 1]
    weights = []
    for rank in range(count):
        total = 0.0
        for step in range(steps):
            x = (rank + (step + 0.5) / steps) / count
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the :func:`quantile` estimate of
    the highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    count = len(values)
    if count <= 10:
        return max(values), 100.0, count
    share = (count - 10) / count
    return quantile(values, share), 100.0 * share, count


def reference() -> None:
    """A fixed interpreter-bound loop, much like the scheduler's inner
    loops (dict updates, a bounded heap, float arithmetic), that never
    touches the library: its time measures the box's speed."""
    heap: List[Tuple[float, int]] = []
    totals: Dict[int, float] = {}
    for step in range(12_000):
        key = step * 7919 % 1009
        totals[key] = totals.get(key, 0.0) + step * 0.5
        heapq.heappush(heap, (totals[key], key))
        if len(heap) > 64:
            heapq.heappop(heap)


def reference_s() -> float:
    """The best of :data:`REFERENCE_REPEATS` timed :func:`reference`
    calls, with the garbage collector off so that a collection of the
    library's heap is never charged to the box's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            started = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


def speed_scale(before: float, after: float) -> float:
    """The factor that takes a wall time measured between two reference
    readings to :data:`NOMINAL_REFERENCE_S` speed."""
    return (NOMINAL_REFERENCE_S * 2 / (before + after)) ** SPEED_EXPONENT


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20


# -- passes ------------------------------------------------------------------------


class TimingPass:
    """Every cell once, untraced, each op checked after its timing.

    ``walls`` holds the raw wall time of each op, ``scaled`` the same
    times speed-scaled (see :func:`speed_scale`); the metrics use
    ``scaled``.
    """

    def __init__(self, workload: Any, cells: List[Any], keep_fingerprints: bool) -> None:
        self.walls: List[float] = []
        self.scaled: List[float] = []
        self.requests = 0
        self.fractions: List[float] = []
        self.failures: List[str] = []
        self.fingerprints: List[Any] = []
        self.engines: List[Any] = []
        before = reference_s()
        for cell in cells:
            gc.collect()
            started = time.perf_counter()
            try:
                out = workload.op(cell)
            except Exception:
                self._fail(cell, traceback.format_exc())
                continue
            wall = time.perf_counter() - started
            # Read right after the op, this also serves as the next op's
            # ``before``: the check in between is short next to an op.
            after = reference_s()
            scale = speed_scale(before, after)
            before = after
            try:
                checked = workload.check(cell, out)
            except Exception:
                self._fail(cell, traceback.format_exc())
                continue
            self.walls.append(wall)
            self.scaled.append(wall * scale)
            self.requests += cell.requests
            self.fractions.append(checked.weighted_sum / cell.bound)
            self.engines.append(checked.engine)
            self.fingerprints.append(checked.fingerprint if keep_fingerprints else None)

    def _fail(self, cell: Any, message: str) -> None:
        self.failures.append(f"cell {cell.index} ({cell.label}): {message}")

    def metrics(self, setup_s: float) -> Dict[str, float]:
        walls = self.scaled
        if not walls:
            return {name: 0.0 for name in END_TO_END}
        return {
            "setup_s": setup_s,
            "run_s_p50": quantile(walls, 0.5),
            "run_s_tail": tail(walls)[0],
            "throughput_rps": self.requests / sum(walls),
            "value_fraction": statistics.fmean(self.fractions),
            "peak_rss_mb": peak_rss_mb(),
        }


def traced_pass(
    workload: Any, seed: int, count: int
) -> Tuple[Any, List[str], List[float], List[Any], List[Dict[str, int]]]:
    """Generate and run the cells under the layer wrappers.

    Returns the recorder, the absent targets, each op's traced wall time,
    each op's decision fingerprint and each op's work counts.
    """
    from layers import KEPT, targets
    from spans import Patches, Recorder

    recorder = Recorder(keep=KEPT)
    captured: List[Any] = []
    wrap, absent = targets(recorder, captured)
    walls: List[float] = []
    fingerprints: List[Any] = []
    counts: List[Dict[str, int]] = []
    with Patches(recorder, wrap) as patches:
        cells = workload.cells(seed, count)
        for cell in cells:
            gc.collect()
            captured.clear()
            before = recorder.work_counts()
            recorder.enter("op")
            try:
                out = workload.op(cell)
            except Exception:
                print(f"# traced cell {cell.index} raised:\n{traceback.format_exc()}", file=sys.stderr)
                out = None
            finally:
                walls.append(recorder.exit())
            if out is not None:
                fingerprints.append(workload.traced_fingerprint(cell, out, captured))
            else:
                fingerprints.append(None)
            after = recorder.work_counts()
            counts.append({k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)})
    captured.clear()
    return recorder, absent + patches.absent, walls, fingerprints, counts


def traced_counts(name: str, seed: int, count: int) -> List[Dict[str, int]]:
    """Per-cell work counts of a traced pass over the first ``count``
    cells (what :data:`COUNTS_PROBE` prints)."""
    import workloads

    return traced_pass(workloads.WORKLOADS[name], seed, count)[4]


def counts_in_child(name: str, seed: int, count: int) -> List[Dict[str, int]]:
    """:func:`traced_counts` in a child interpreter whose hash seed differs
    from this one's, so that order-dependent decisions would show; empty
    if the child fails."""
    ours = os.environ.get("PYTHONHASHSEED", "")
    hash_seed = (int(ours) + 1) % 2**32 if ours.isdigit() else 1
    completed = subprocess.run(
        [sys.executable, "-c", COUNTS_PROBE, name, str(seed), str(count)],
        cwd=HERE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                 PYTHONPATH=os.pathsep.join((str(HERE), str(ROOT / "src")))),
    )
    if completed.returncode != 0:
        return []
    return json.loads(completed.stdout.strip().splitlines()[-1])


def work_digest(counts: Dict[str, float]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


def median_import_s(source: Path) -> Tuple[float, float]:
    """Median time to import the library in a fresh interpreter:
    ``(speed-scaled, raw)``."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        completed = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(source)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        wall = float(completed.stdout)
        raw.append(wall)
        times.append(wall * speed_scale(before, reference_s()))
    return statistics.median(times), statistics.median(raw)


# -- output --------------------------------------------------------------------------


def print_table(title: str, rows: Dict[str, float], units: Dict[str, str], absent: Sequence[str] = ()) -> None:
    print(f"# {title}")
    for name, value in rows.items():
        note = "  (absent)" if name in absent else ""
        print(f"#   {name:<34} {value:>16.6g} {units[name]}{note}")


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def compare_baseline(baseline: Dict[str, Any], report: Dict[str, Any]) -> List[str]:
    """Print ``report`` against a saved one; returns the work counts that
    differ although commit, workload, seed and cell count are the same."""
    then, now = baseline.get("env", {}), report["env"]
    differ = [key for key in ENV_KEYS if then.get(key) != now.get(key)]
    if differ:
        print("# WARNING: environment differs from the baseline; numbers are not comparable:")
        for key in differ:
            print(f"#   {key}: {then.get(key)} -> {now.get(key)}")
    same_inputs = (then.get("seed"), baseline.get("workload"), baseline.get("cells")) == (
        now["seed"], report["workload"], report["cells"])
    if not same_inputs:
        print("# WARNING: the baseline ran another workload, seed or cell count")
    print(f"# against baseline (commit {then.get('commit')}):")
    for name, value in report["metrics"].items():
        old = baseline.get("metrics", {}).get(name)
        if isinstance(old, (int, float)) and old:
            print(f"#   {name:<34} {old:>14.6g} -> {value:<14.6g} ({value / old:.3f}x)")
    old_counts, counts = baseline.get("work_counts"), report.get("work_counts")
    if not same_inputs or old_counts is None or counts is None:
        return []
    changed = sorted(name for name in counts.keys() | old_counts.keys()
                     if counts.get(name) != old_counts.get(name))
    if changed:
        print(f"# work counts differ from the baseline: {', '.join(changed)}")
    return changed if then.get("commit") == now["commit"] else []


# -- main ----------------------------------------------------------------------------


def trace_layers(
    workload: Any, seed: int, count: int, timing: TimingPass, report: Dict[str, Any]
) -> Tuple[Dict[str, float], Dict[str, str], int, int]:
    """The traced pass and its checks: per-layer metrics, their units, and
    the ops attempted and failed (mismatches count as failures)."""
    from layers import METRICS, absent_metrics, layer_values
    from workloads import engine_totals

    units = {name: unit for name, (unit, _, _) in METRICS.items()}
    if timing.failures:
        # The traced pass would only repeat the failures.
        return {name: 0.0 for name in METRICS}, units, 0, 0

    recorder, absent, walls, fingerprints, counts = traced_pass(workload, seed, count)
    mismatched = [
        index
        for index, (seen, expected) in enumerate(zip(fingerprints, timing.fingerprints))
        if seen != expected
    ]
    for index in mismatched:
        print(f"# MISMATCH cell {index}: the traced op decided differently", file=sys.stderr)
    engine = engine_totals(timing.engines)
    layer = layer_values(recorder, engine, timing.requests, sum(walls), sum(timing.walls))
    gone = absent_metrics(absent)
    for name in gone:
        layer[name] = 0.0
    print_table("per layer (traced)", layer, units, gone)
    if absent:
        print(f"# absent targets: {', '.join(absent)}")

    repeat = min(REPEAT_CELLS, count)
    counts_again = counts_in_child(workload.name, seed, repeat)
    differing = [index for index in range(repeat) if counts_again[index:index + 1] != counts[index:index + 1]]
    for index in differing:
        print(f"# MISMATCH cell {index}: work counts differ in a second process", file=sys.stderr)
    work_counts = {name: layer[name] for name, (unit, _, _) in METRICS.items() if unit == "count"}
    digest = work_digest(work_counts)
    print(f"# work-counts digest {digest} (value_fraction {statistics.fmean(timing.fractions)!r})")
    report.update(work_counts=work_counts, work_digest=digest, spans=recorder.spans)
    return layer, units, len(walls) + repeat, len(mismatched) + len(differing)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    merged: Dict[str, Dict[str, Any]] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print(f"# ===== {name} =====")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {completed.returncode})", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and completed.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, body in result["metrics"].items():
            merged[f"{name}.{metric}"] = body
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {source}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads  # imports the library, compiling its bytecode once

    import_s, import_raw = median_import_s(source)
    workload = workloads.WORKLOADS[args.workload]
    count = round(args.seconds * workload.cells_per_second)
    if args.trace:
        count //= TRACED_SHARE
    count = max(MIN_CELLS, count)
    env = environment(args.seed)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload.name}: {count} cells, seed {args.seed}; {workloads.WHY[workload.name]}")

    generations, generations_raw = [], []
    for _ in range(SETUP_REPEATS):
        cells = None  # free the previous copy before generating the next
        gc.collect()
        before = reference_s()
        started = time.perf_counter()
        cells = workload.cells(args.seed, count)
        wall = time.perf_counter() - started
        generations_raw.append(wall)
        generations.append(wall * speed_scale(before, reference_s()))
    generate_s = statistics.median(generations)
    setup_s = import_s + generate_s
    setup_raw = import_raw + statistics.median(generations_raw)

    timing = TimingPass(workload, cells, keep_fingerprints=bool(args.trace))
    del cells
    e2e = timing.metrics(setup_s)
    for failure in timing.failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    attempted = count
    failed = len(timing.failures)
    print_table("end-to-end (untraced)", e2e, END_TO_END)
    print(f"#   setup_s is import {import_s:.4f} s + generation {generate_s:.4f} s")
    if timing.walls:
        _, percentile, samples = tail(timing.walls)
        print(f"#   run_s_tail is p{percentile:.1f} of {samples} ops")
        raw = timing.walls
        print(f"#   raw wall times: setup {setup_raw:.4f} s, p50 {quantile(raw, 0.5):.4f} s, "
              f"tail {tail(raw)[0]:.4f} s, {timing.requests / sum(raw):.2f} requests/s")
    print(f"#   fail_rate {failed}/{attempted} = {failed / attempted:.4f}")
    report: Dict[str, Any] = {
        "env": env, "workload": workload.name, "cells": count,
        "op_walls": timing.walls, "op_scaled": timing.scaled, "end_to_end": e2e,
    }

    if not args.trace:
        metrics, units = e2e, END_TO_END
    else:
        metrics, units, traced_attempts, traced_failures = trace_layers(
            workload, args.seed, count, timing, report
        )
        attempted += traced_attempts
        failed += traced_failures
    report["metrics"] = metrics

    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=1))
    if args.baseline is not None:
        changed = compare_baseline(json.loads(args.baseline.read_text()), report)
        if changed:
            print("# MISMATCH: the same commit and inputs gave other work counts", file=sys.stderr)
            failed += 1
    correct = failed == 0
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
