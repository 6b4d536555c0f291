"""In-memory span recording and temporary wrapping of library callables.

The traced pass of the benchmark wraps a fixed list of public callables
(``layers.targets``) with timing wrappers, runs the workload, and removes
the wrappers again.  Each wrapped call is one *span*; spans
nest on a single stack (the benchmark runs in one thread), so a layer's
*self time* is its span's duration minus the time covered by the spans of
the calls it made into other wrapped layers.

Hot layers (the feasibility probe runs ~10^5 times per scheduler run) are
aggregated online, per span name: a call count, the summed duration and
the summed self time.  Names listed in ``keep`` additionally keep every
span as a ``(name, start, end, parent)`` record, for per-span
distributions (dynamic re-scheduling passes) and for ``run.py --report``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Generator, Iterator, List, Optional, Tuple

#: One kept span: name, start, end, and the enclosing span's name ("" at
#: the root).
Span = Tuple[str, float, float, str]


class SpanStat:
    """Online aggregate of every span with one name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Recorder:
    """A span stack plus per-name aggregates and free-form counters.

    Args:
        clock: monotonic clock in seconds (injectable for tests).
        keep: span names whose individual spans are kept in
            :attr:`spans`.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: FrozenSet[str] = frozenset(),
    ) -> None:
        self.clock = clock
        self.keep = keep
        self.stats: Dict[str, SpanStat] = {}
        self.counters: Dict[str, int] = {}
        self.spans: List[Span] = []
        # Open frames: [name, start, time covered by finished children].
        self._stack: List[list] = []

    def stat(self, name: str) -> SpanStat:
        """The aggregate for ``name``, created on first use."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def add(self, counter: str, amount: int = 1) -> None:
        """Bump a free-form counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def enter(self, name: str) -> None:
        """Open a span."""
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        stat = self.stat(name)
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - covered
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        if name in self.keep:
            self.spans.append((name, start, end, stack[-1][0] if stack else ""))
        return duration

    @property
    def depth(self) -> int:
        """Number of open spans."""
        return len(self._stack)

    def work_counts(self) -> Dict[str, int]:
        """Every call count and counter, keyed by name (no times)."""
        counts = {f"{name}.calls": stat.calls for name, stat in self.stats.items()}
        counts.update(self.counters)
        return counts


def _timed_generator(
    recorder: Recorder, name: str, generator: Generator[Any, None, None], counter: str
) -> Iterator[Any]:
    """Re-yield ``generator``, timing every resumption as one span.

    A generator does its work when it is resumed, not when it is created,
    so a wrapper around the creating call alone would time nothing.
    """
    enter, leave = recorder.enter, recorder.exit
    try:
        while True:
            enter(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                leave()
            recorder.add(counter)
            yield item
    finally:
        generator.close()


def timed(
    recorder: Recorder,
    name: str,
    func: Callable[..., Any],
    on_result: Optional[Callable[[Any], None]] = None,
    yield_counter: Optional[str] = None,
) -> Callable[..., Any]:
    """Wrap ``func`` so every call is a span named ``name``.

    Args:
        on_result: called with each return value (after the span closes),
            to count outcomes such as accepted probes.
        yield_counter: when the call returns a generator, each resumption
            becomes its own span and each yielded item bumps this counter;
            a returned sequence adds its length instead.
    """
    stack = recorder._stack
    clock = recorder.clock
    stat = recorder.stat(name)
    keep = name in recorder.keep

    # Recorder.enter/exit inlined: the probe wrapper runs ~10^5 times per
    # scheduler run, so every attribute lookup saved is trace overhead saved.
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack.append([name, clock(), 0.0])
        try:
            result = func(*args, **kwargs)
        finally:
            end = clock()
            frame = stack.pop()
            duration = end - frame[1]
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if keep:
                recorder.spans.append(
                    (name, frame[1], end, stack[-1][0] if stack else "")
                )
        if on_result is not None:
            on_result(result)
        if yield_counter is not None:
            if inspect.isgenerator(result):
                return _timed_generator(recorder, name, result, yield_counter)
            recorder.add(yield_counter, len(result))
        return result

    return wrapper


_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    Attributes:
        path: ``"module:Owner.attr"`` or ``"module:attr"``; the attribute
            is replaced on its owner (a class or the module itself), so a
            module-level name is wrapped *as bound in that module*.
        span: the span name its calls are recorded under.
        on_result: optional outcome hook (see :func:`timed`).
        yield_counter: optional item counter (see :func:`timed`).
    """

    path: str
    span: str
    on_result: Optional[Callable[[Any], None]] = None
    yield_counter: Optional[str] = None


def resolve(path: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` for a target path, or ``None`` if it is gone.

    Only a missing module, owner or attribute counts as gone; any other
    import error propagates.
    """
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        if exc.name is not None and (
            module_name == exc.name or module_name.startswith(exc.name + ".")
        ):
            return None
        raise
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Patches:
    """Installs timing wrappers for a list of targets; removes them on exit.

    ``absent`` lists the target paths that no longer exist in the library;
    their layers are reported as absent instead of failing the run.
    """

    def __init__(self, recorder: Recorder, targets: List[Target]) -> None:
        self._recorder = recorder
        self._targets = targets
        self._saved: List[Tuple[Any, str, Any]] = []
        self.absent: List[str] = []

    def __enter__(self) -> "Patches":
        try:
            for target in self._targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _install(self, target: Target) -> None:
        found = resolve(target.path)
        if found is None:
            self.absent.append(target.path)
            return
        owner, attr = found
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, getattr(owner, attr))
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, target: Target, func: Callable[..., Any]) -> Callable[..., Any]:
        return timed(
            self._recorder,
            target.span,
            func,
            on_result=target.on_result,
            yield_counter=target.yield_counter,
        )

    def restore(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
