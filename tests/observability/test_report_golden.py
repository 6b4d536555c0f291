"""Golden-output tests for the plain-text renderers.

The renderers feed CLI output and CI logs; accidental format drift
breaks downstream grep/diff workflows.  Each test renders a hand-built,
fully deterministic aggregate and compares byte-for-byte against a
committed golden file.  To regenerate after an *intentional* format
change::

    PYTHONPATH=src python -m pytest \
        tests/observability/test_report_golden.py --force-regen

(there is no plugin magic — delete the golden file and re-run; the test
writes a missing golden and fails once, flagging the refresh).
"""

from pathlib import Path

from repro.observability import (
    RunMetrics,
    Timeline,
    TimingStat,
    render_run_metrics,
    render_timeline,
)
from repro.observability.timeline import (
    ClassSeries,
    LinkSeries,
    RequestForensics,
    StorageSeries,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_matches_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if not path.exists():  # first run: write and fail for review
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        raise AssertionError(
            f"golden file {path} was missing; wrote the current output — "
            f"review and commit it"
        )
    assert text == path.read_text(encoding="utf-8")


def sample_metrics() -> RunMetrics:
    return RunMetrics(
        counters={
            "runs": 3,
            "bookings": 42,
            "probe_attempts": 60,
            "probe_rejections": 18,
            "tree_cache_hits": 55,
            "tree_cache_misses": 5,
        },
        rejection_reasons={"window_closed": 11, "link_busy": 7},
        tree_cache_reasons={
            "clean": 30,
            "revalidated": 25,
            "item_changed": 3,
            "cold": 2,
        },
        link_busy_seconds={7: 120.0, 9: 60.5},
        link_transfer_counts={7: 12, 9: 6},
        link_window_seconds={7: 600.0, 9: 600.0},
        decision_seconds=TimingStat(
            count=60, total=0.12, min=0.001, max=0.005
        ),
        cell_seconds=TimingStat(count=3, total=4.5, min=1.2, max=1.8),
        workers=(0, 1),
    )


def sample_timeline() -> Timeline:
    return Timeline(
        horizon=100.0,
        runs=2,
        links={
            3: LinkSeries(
                window_start=0.0,
                window_end=100.0,
                attempts=20,
                rejections={"window_closed": 6, "link_busy": 2},
                bookings=[(0.0, 30.0, 0), (40.0, 90.0, 1)],
            ),
            5: LinkSeries(
                window_start=10.0,
                window_end=60.0,
                attempts=8,
                rejections={"no_storage": 1},
                bookings=[(10.0, 20.0, 1)],
            ),
        },
        storage={
            1: StorageSeries(
                capacity=1000.0, reservations=[(0.0, 50.0, 400.0, 0)]
            )
        },
        classes={
            2: ClassSeries(
                requests=4,
                satisfied=3,
                cancelled=0,
                reopened=0,
                slack=[(30.0, 20.0), (90.0, -5.0), (20.0, 60.0)],
                drains=[20.0, 30.0, 90.0],
            ),
            0: ClassSeries(
                requests=2,
                satisfied=1,
                cancelled=1,
                reopened=1,
                slack=[(15.0, 35.0)],
                drains=[15.0, 70.0],
            ),
        },
        forensics={
            "alpha#0": RequestForensics(
                scenario="alpha",
                request_id=0,
                item_id=0,
                destination=4,
                priority=2,
                deadline=50.0,
                observed=2,
                satisfied=1,
                attempts=12,
                bookings=1,
                rejections={"window_closed": 6, "link_busy": 2},
                arrivals=[(30.0, 20.0)],
                chain=[
                    ("attempt", 3),
                    ("rejected", 3, "link_busy"),
                    ("booked", 3, 0.0, 30.0),
                    ("satisfied", 30.0, 2),
                ],
            ),
            "alpha#1": RequestForensics(
                scenario="alpha",
                request_id=1,
                item_id=1,
                destination=2,
                priority=0,
                deadline=80.0,
                observed=2,
                satisfied=1,
                cancelled=1,
                reopened=1,
                attempts=4,
                bookings=2,
                rejections={"no_storage": 1},
                arrivals=[(15.0, 65.0)],
                chain=[
                    ("booked", 5, 10.0, 20.0),
                    ("satisfied", 15.0, 1),
                    ("reopened",),
                    ("cancelled", 70.0),
                ],
            ),
        },
    )


class TestGoldenRenders:
    def test_run_metrics_table(self):
        text = render_run_metrics(sample_metrics(), title="golden metrics")
        # The tree_cache rows must be present between the rejection
        # reasons and the timing summaries.
        assert "tree_cache:revalidated" in text
        assert_matches_golden("run_metrics.txt", text)

    def test_timeline_digest(self):
        text = render_timeline(sample_timeline(), top=3)
        assert_matches_golden("timeline.txt", text)

    def test_explain_transcript(self):
        text = sample_timeline().explain(0, scenario="alpha")
        assert_matches_golden("explain.txt", text + "\n")
