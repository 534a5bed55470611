"""The summary of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(speed, rss, digest):
    return {"digest": digest, "metrics": {"steps_per_s": speed, "peak_rss_mb": rss}}


def _pair(parent_speed, change_speed, parent_rss, change_rss, change_digest="d"):
    return {"first": "parent", "parent": _run(parent_speed, parent_rss, "d"),
            "change": _run(change_speed, change_rss, change_digest)}


def test_quartiles_interpolate_linearly():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]
    assert ab_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_summary_counts_wins_in_each_metrics_direction_and_ties_for_neither():
    pairs = [_pair(1.0, 2.0, 50.0, 50.0), _pair(2.0, 2.0, 50.0, 49.0),
             _pair(3.0, 5.0, 50.0, 51.0), _pair(4.0, 5.0, 50.0, 49.5)]
    summary = ab_pairs.summarize(pairs, {"steps_per_s": "higher", "peak_rss_mb": "lower"})
    assert summary["digests_match"] is True
    assert summary["steps_per_s"] == {"parent": [1.75, 2.5, 3.25], "change": [2.0, 3.5, 5.0],
                                      "wins": 3}
    assert summary["peak_rss_mb"]["wins"] == 2
    assert summary["peak_rss_mb"]["change"] == pytest.approx([49.375, 49.75, 50.25])


def test_summary_reports_a_digest_that_differs():
    pairs = [_pair(1.0, 1.0, 50.0, 50.0), _pair(1.0, 1.0, 50.0, 50.0, change_digest="e")]
    assert ab_pairs.summarize(pairs, {"steps_per_s": "higher"})["digests_match"] is False
