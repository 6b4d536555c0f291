"""Span recording, self time, generator timing and wrapper removal."""

import random
import sys
import types

import pytest

from spans import Patches, Recorder, Target, resolve, timed


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def covered(interval, children):
    """Length of the union of ``children`` clipped to ``interval``."""
    start, end = interval
    clipped = sorted((max(s, start), min(e, end)) for s, e in children if e > start and s < end)
    total, cursor = 0.0, start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def oracle_self_times(spans):
    """Self time per name: each span's duration minus its children's union."""
    result = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        children = [(s, e) for (_, s, e, _, parent) in spans if parent == index]
        result[name] = result.get(name, 0.0) + (end - start) - covered((start, end), children)
    return result


def test_self_time_of_a_synthetic_tree():
    clock = FakeClock()
    recorder = Recorder(clock=clock, keep=frozenset({"root", "a", "a1", "b"}))
    for now, action in [
        (0, "root"), (1, "a"), (2, "a1"), (3, None), (4, None),
        (5, "b"), (9, None), (10, None),
    ]:
        clock.now = now
        recorder.enter(action) if action else recorder.exit()
    self_times = {name: stat.self_time for name, stat in recorder.stats.items()}
    assert self_times == {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    assert recorder.stats["root"].total == 10.0
    assert sorted(recorder.spans) == sorted(
        [("a1", 2, 3, "a"), ("a", 1, 4, "root"), ("b", 5, 9, "root"), ("root", 0, 10, "")]
    )


@pytest.mark.parametrize("seed", range(20))
def test_self_time_matches_duration_minus_covered_child_time(seed):
    rng = random.Random(seed)
    clock = FakeClock()
    names = ("op", "tree", "probe", "fit")
    recorder = Recorder(clock=clock)
    spans = []  # name, start, end, depth, parent index
    open_spans = []
    for _ in range(200):
        clock.now += rng.choice((0.0, 0.25, 1.0, 3.0))
        if open_spans and (len(open_spans) >= 4 or rng.random() < 0.45):
            index = open_spans.pop()
            name, start, _, depth, parent = spans[index]
            spans[index] = (name, start, clock.now, depth, parent)
            recorder.exit()
        else:
            name = rng.choice(names)
            parent = open_spans[-1] if open_spans else None
            spans.append((name, clock.now, None, len(open_spans), parent))
            open_spans.append(len(spans) - 1)
            recorder.enter(name)
    while open_spans:
        clock.now += 1.0
        index = open_spans.pop()
        name, start, _, depth, parent = spans[index]
        spans[index] = (name, start, clock.now, depth, parent)
        recorder.exit()
    expected = oracle_self_times(spans)
    for name, value in expected.items():
        assert recorder.stats[name].self_time == pytest.approx(value)
        assert recorder.stats[name].calls == sum(1 for s in spans if s[0] == name)


def test_timed_function_records_a_span_and_outcomes():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def probe(x):
        clock.now += 2.0
        return x if x > 0 else None

    accepted = []
    wrapped = timed(recorder, "probe", probe, on_result=lambda r: r is not None and accepted.append(r))
    assert [wrapped(1), wrapped(-1), wrapped(3)] == [1, None, 3]
    assert recorder.stats["probe"].calls == 3
    assert recorder.stats["probe"].self_time == 6.0
    assert accepted == [1, 3]
    assert wrapped.__name__ == "probe"


def test_a_generator_is_timed_per_resumption_not_at_creation():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def groups(n):
        for index in range(n):
            clock.now += 5.0  # the work happens while the caller iterates
            yield index

    wrapped = timed(recorder, "scoring", groups, yield_counter="scoring.groups")
    clock.now = 100.0
    recorder.enter("op")
    produced = []
    for group in wrapped(3):
        clock.now += 1.0  # the consumer's own work, outside the span
        produced.append(group)
    recorder.exit()
    assert produced == [0, 1, 2]
    assert recorder.stats["scoring"].total == 15.0
    assert recorder.counters["scoring.groups"] == 3
    # One span for the creating call plus one per resumption (three
    # yields and the final exhausting one).
    assert recorder.stats["scoring"].calls == 5
    assert recorder.stats["op"].self_time == 3.0


def test_a_returned_sequence_counts_its_length():
    recorder = Recorder(clock=FakeClock())
    wrapped = timed(recorder, "scoring", lambda: (1, 2, 3, 4), yield_counter="scoring.groups")
    assert wrapped() == (1, 2, 3, 4)
    assert recorder.counters["scoring.groups"] == 4


def test_a_span_closes_when_the_call_raises():
    recorder = Recorder(clock=FakeClock())

    def boom():
        raise ValueError("no")

    wrapped = timed(recorder, "probe", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert recorder.depth == 0
    assert recorder.stats["probe"].calls == 1


# -- installing and removing wrappers ----------------------------------------


class Base:
    def inherited(self):
        return "base"


class Owner(Base):
    def method(self):
        return "method"

    @staticmethod
    def static(x):
        return x + 1

    @classmethod
    def klass(cls):
        return cls.__name__


def module_function():
    return "module"


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_module")
    module.Owner = Owner
    module.module_function = module_function
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def snapshot(owners):
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_patches_wrap_every_kind_of_attribute_and_restore_them(fake_module):
    name = fake_module.__name__
    before = snapshot([Owner, Base, fake_module])
    recorder = Recorder()
    targets = [
        Target(f"{name}:Owner.method", "m"),
        Target(f"{name}:Owner.static", "s"),
        Target(f"{name}:Owner.klass", "k"),
        Target(f"{name}:Owner.inherited", "i"),
        Target(f"{name}:module_function", "f"),
        Target(f"{name}:Owner.deleted", "gone"),
        Target("perfbench_no_such_module:thing", "gone"),
    ]
    with Patches(recorder, targets) as patches:
        owner = fake_module.Owner()
        assert owner.method() == "method"
        assert Owner.static(1) == 2 and owner.static(1) == 2
        assert Owner.klass() == "Owner"
        assert owner.inherited() == "base"
        assert fake_module.module_function() == "module"
        assert "inherited" in vars(Owner)
    assert {n: recorder.stats[n].calls for n in "mskif"} == {"m": 1, "s": 2, "k": 1, "i": 1, "f": 1}
    assert patches.absent == [f"{name}:Owner.deleted", "perfbench_no_such_module:thing"]
    after = snapshot([Owner, Base, fake_module])
    assert after.keys() == before.keys()
    for key, attributes in before.items():
        assert after[key].keys() == attributes.keys()
        for attr, value in attributes.items():
            assert after[key][attr] is value, attr


def test_patches_restore_when_the_body_raises(fake_module):
    before = snapshot([Owner, fake_module])
    with pytest.raises(RuntimeError):
        with Patches(Recorder(), [Target(f"{fake_module.__name__}:Owner.method", "m")]):
            raise RuntimeError
    assert snapshot([Owner, fake_module]) == before


def test_resolve_reports_missing_names_but_not_broken_imports(fake_module, tmp_path, monkeypatch):
    assert resolve(f"{fake_module.__name__}:Owner.method") == (Owner, "method")
    assert resolve(f"{fake_module.__name__}:Nope.method") is None
    assert resolve("perfbench_no_such_module.sub:thing") is None
    (tmp_path / "perfbench_broken_module.py").write_text("import perfbench_missing_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    with pytest.raises(ModuleNotFoundError):
        resolve("perfbench_broken_module:thing")
