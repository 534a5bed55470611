"""The summary of ``tools/ab_pairs.py`` on fixed numbers, and its record of
a set in which a run fails."""

import importlib.util
import json
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


def test_summary_leaves_out_a_pair_with_a_failed_run():
    pairs = [_pair(1.0, 2.0, 50.0, 50.0), _pair(3.0, 5.0, 50.0, 50.0),
             {"first": "parent", "parent": {"exit": 1}, "change": _run(9.0, 40.0, "e")}]
    summary = ab_pairs.summarize(pairs, {"steps_per_s": "higher"})
    assert summary["failed"] == 1 and summary["digests_match"] is True
    assert summary["steps_per_s"] == {"parent": [1.5, 2.0, 2.5], "change": [2.75, 3.5, 4.25],
                                      "wins": 2}


def test_a_failed_run_keeps_its_exit_code_and_every_finished_pair(tmp_path, monkeypatch,
                                                                   capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "pairs.json"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "steps_per_s", "better": "higher"},
                        {"name": "peak_rss_mb", "better": "lower"}]}))
    out.write_text(json.dumps([{"workload": "earlier"}]))
    calls, written = [], []

    def fake_run_once(root, workload, seed):
        sets = json.loads(out.read_text())  # the earlier set, then this one once a pair is done
        written.append(len(sets[1]["pairs"]) if len(sets) > 1 else 0)
        calls.append(root.name)
        if len(calls) == 3:  # the change runs first in the second pair
            return {"exit": 1}
        return _run(2.0 if root == change else 1.0, 50.0, "d")

    monkeypatch.setattr(ab_pairs, "run_once", fake_run_once)
    assert ab_pairs.main([str(parent), str(change), "--workload", "w", "--seed", "11",
                          "--pairs", "3", "--out", str(out)]) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert written == [0, 0, 1, 1, 2, 2]  # --out holds every pair finished so far
    earlier, record = json.loads(out.read_text())
    assert earlier == {"workload": "earlier"}
    assert [pair["change"] for pair in record["pairs"]][1] == {"exit": 1}
    assert record["summary"]["failed"] == 1
    assert record["summary"]["steps_per_s"]["wins"] == 2
    printed = capsys.readouterr().out
    assert "3 pairs, 1 failed, digests match: True" in printed
    assert "change wins 2/2" in printed
