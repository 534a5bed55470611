import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from raft import agents, dataset, info_metrics, transform
from raft.agents import TrainConfig
from raft.cli import (
    _FILE_KEYS,
    ConfigError,
    RunConfig,
    build_parser,
    main,
    parse_config,
    run_search,
    write_outputs,
)
from raft.dataset import (
    FeatureSet,
    Target,
    TaskKind,
    default_bins,
    evaluate_lineage,
    load_csv,
    parse_lineage,
)
from raft.evaluator import ForestConfig, MetricKind, downstream_score
from raft.info_metrics import PairwiseDistanceKind
from raft.state_repr import EncoderKind, StateEncoder
from raft.synthetic import squared_sum_regression, two_class_blobs, write_fixture


@pytest.fixture()
def small_csv(tmp_path):
    fs = squared_sum_regression(m=80, n_distractors=3, seed=11)
    return write_fixture(fs, tmp_path / "data.csv")


def small_config(small_csv, tmp_path, **train_kwargs):
    defaults = dict(episodes=1, steps=2, seed=5)
    defaults.update(train_kwargs)
    return RunConfig(input_path=str(small_csv), target="y",
                     out_dir=str(tmp_path / "out"), train=TrainConfig(**defaults))


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_cli_flag_overrides_config_file(tmp_path, small_csv):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("distance = euclidean\nepisodes = 4\n", encoding="utf-8")
    cfg = parse_config([
        "run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
        "--config", str(cfgfile), "--distance", "cosine",
    ])
    assert cfg.train.distance is PairwiseDistanceKind.COSINE
    assert cfg.train.episodes == 4  # file value survives where no flag was given


def test_encoder_flag_sets_state_length(small_csv, tmp_path):
    cfg = parse_config([
        "run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
        "--encoder", "gae", "--k", "8",
    ])
    assert cfg.train.encoder is EncoderKind.GAE
    train = cfg.train
    encoder = StateEncoder(train.encoder, train.k, train.d, train.encoder_epochs, 0, 80)
    assert encoder.length == 8


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--nonsense", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["mystery", "clip_norm", "skip_tail_on_unary"])
def test_unknown_config_key_rejected(tmp_path, small_csv, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(["run", "--input", str(small_csv), "--target", "y",
                      "--out", str(tmp_path / "o"), "--config", str(cfgfile)])


def test_bad_config_value_type(tmp_path, small_csv):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("episodes = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad int value"):
        parse_config(["run", "--input", str(small_csv), "--target", "y",
                      "--out", str(tmp_path / "o"), "--config", str(cfgfile)])


def test_missing_required_option():
    with pytest.raises(ConfigError, match="missing required option --input"):
        parse_config(["run", "--target", "y", "--out", "o"])


def test_exit_codes(tmp_path, small_csv, capsys):
    assert main(["run", "--target", "y", "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--input", str(tmp_path / "missing.csv"), "--target", "y",
                 "--out", str(tmp_path / "o"), "--episodes", "1", "--steps", "1"]) == 3
    assert main(["run", "--input", str(small_csv), "--target", "nope",
                 "--out", str(tmp_path / "o"), "--episodes", "1", "--steps", "1"]) == 3
    assert main(["run", "--input", str(small_csv), "--target", "y",
                 "--out", str(tmp_path / "o"), "--metric", "f1_macro",
                 "--episodes", "1", "--steps", "1"]) == 2  # metric/task mismatch


@pytest.mark.parametrize("flags", [
    "--actor-lr 0", "--critic-lr -1", "--bins 0", "--max-size 0", "--k 0 --encoder ae",
    "--d 0 --encoder ae", "--encoder-epochs -1 --encoder ae", "--hidden 0", "--cross-cap 0",
    "--max-lineage-depth 0", "--max-lineage-depth 1", "--delta -1", "--delta 0",
    "--actor-lr 0 --bench", "--beta -0.5", "--episodes 0",
])
def test_bad_numeric_value_exits_2(tmp_path, small_csv, capsys, flags):
    code = main(["run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
                 "--episodes", "1", "--steps", "1", *flags.split()])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# run_search — loop arithmetic and artifacts
# ---------------------------------------------------------------------------

def test_one_episode_one_step_records_three_transitions(tmp_path):
    fs = squared_sum_regression(m=40, n_distractors=2, seed=3)
    path = write_fixture(fs, tmp_path / "tiny.csv")
    cfg = RunConfig(input_path=str(path), target="y", out_dir=str(tmp_path / "o"),
                    train=TrainConfig(episodes=1, steps=1, seed=1))
    result = run_search(cfg)
    assert result.n_transitions == 3
    assert len(result.trace) == 1
    assert np.isfinite(result.best_score)
    assert result.best_fs.n_cols >= 1


def test_two_runs_same_seed_byte_identical_outputs(small_csv, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = RunConfig(input_path=str(small_csv), target="y", out_dir=str(out),
                        train=TrainConfig(episodes=2, steps=2, seed=9))
        write_outputs(run_search(cfg), cfg)
    for name in ("transformed.csv", "trace.tsv", "report.txt", "config.echo"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_emitted_features_reevaluate_from_lineage(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=2, steps=3, seed=2))
    result = run_search(cfg)
    paths = write_outputs(result, cfg)
    original = load_csv(small_csv, "y")
    originals = original.original_columns()
    emitted = load_csv(paths["transformed"], "y")
    report_lines = paths["report"].read_text().splitlines()
    feature_lines = report_lines[report_lines.index(
        "name\timportance_share\torigin") + 1:]
    assert len(feature_lines) == emitted.n_cols
    for i, line in enumerate(feature_lines):
        name = line.split("\t")[0]
        expr = parse_lineage(name)
        recomputed = evaluate_lineage(expr, originals)
        np.testing.assert_array_equal(recomputed, emitted.values[:, i],
                                      err_msg=f"feature {name}")


def test_reported_score_matches_recomputation(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=1, steps=3, seed=4))
    result = run_search(cfg)
    paths = write_outputs(result, cfg)
    emitted = load_csv(paths["transformed"], "y")
    again = downstream_score(emitted, result.split_seed, result.metric,
                             ForestConfig(seed=result.forest_seed))
    assert again == result.best_score


def test_trace_is_monotone_in_episode(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=3, steps=2, seed=6))
    result = run_search(cfg)
    episodes = [row.episode for row in result.trace]
    assert episodes == sorted(episodes)
    assert len(result.trace) == 6


def test_importance_shares_sum_to_one(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=1, steps=2, seed=7))
    result = run_search(cfg)
    paths = write_outputs(result, cfg)
    lines = paths["report"].read_text().splitlines()
    shares = [float(line.split("\t")[1]) for line in lines[lines.index(
        "name\timportance_share\torigin") + 1:]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_bench_mode_runs_without_learning(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"), bench=True,
                    train=TrainConfig(episodes=2, steps=2, seed=8))
    result = run_search(cfg)
    assert result.n_transitions == 0
    assert len(result.trace) == 4
    assert np.isfinite(result.best_score)


def test_classification_run_all_original_report(tmp_path):
    fs = two_class_blobs(m=60, n_features=3, seed=21)
    path = write_fixture(fs, tmp_path / "clf.csv")
    cfg = RunConfig(input_path=str(path), target="label",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=1, steps=2, seed=3))
    result = run_search(cfg)
    assert result.task is TaskKind.CLASSIFICATION
    assert result.metric is MetricKind.F1_MACRO
    paths = write_outputs(result, cfg)
    lines = paths["report"].read_text().splitlines()
    start = lines.index("name\timportance_share\torigin") + 1
    for line in lines[start:]:
        name, share, origin = line.split("\t")
        if origin == "original":
            assert parse_lineage(name).name == name  # bare identifiers


def test_carry_features_persists_across_episodes(small_csv, tmp_path):
    cfg = RunConfig(input_path=str(small_csv), target="y",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=2, steps=2, seed=10,
                                      carry_features=True))
    result = run_search(cfg)
    assert len(result.trace) == 4


def test_cli_end_to_end_exit_zero(small_csv, tmp_path, capsys):
    code = main(["run", "--input", str(small_csv), "--target", "y",
                 "--out", str(tmp_path / "cli_out"), "--episodes", "1",
                 "--steps", "2", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "one_minus_rae" in captured.out
    assert (tmp_path / "cli_out" / "transformed.csv").exists()
    assert (tmp_path / "cli_out" / "config.echo").exists()


# ---------------------------------------------------------------------------
# Pinned outputs, the random control, numeric failures
# ---------------------------------------------------------------------------

# SHA-256 of (trace.tsv, transformed.csv) for a 2-episode, 3-step search on
# `small_csv`.  The search is deterministic for a seed, so these change only
# when the search itself (or the float arithmetic of numpy on the platform)
# changes.  The random control reads no state, so its two rows are equal.
PINNED_DIGESTS = {
    (False, "si"): ("bbfb06bd03285065cb967227550c4ca7941d3d743a9ed28fd6f7b449b969b9ce",
                    "e9956f45e7881ec5ad5e59919c8f5cd5c4e983b38c2b8cd399b3a7f4ad254c53"),
    (False, "all"): ("482f675092c0e902805bebeb5986c5ee4dc5c5b952d21ad5d917208b4525c8b2",
                     "fa27e9e98ccfb636f67110e30d123c3ad8519dc06a2fd3b2cf8ebf6530421278"),
    (True, "si"): ("c75f43a60b7ba80350ffa273c607b5537d00d4d57f66b0c13efaed7d7e9f908c",
                   "5fb7c1eb512f367fec08bedf72b019a6bdf92bfc4cdfd5fd9390f95162d6be01"),
    (True, "all"): ("c75f43a60b7ba80350ffa273c607b5537d00d4d57f66b0c13efaed7d7e9f908c",
                    "5fb7c1eb512f367fec08bedf72b019a6bdf92bfc4cdfd5fd9390f95162d6be01"),
}


@pytest.mark.parametrize("bench,encoder", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(small_csv, tmp_path, bench, encoder):
    cfg = RunConfig(input_path=str(small_csv), target="y", out_dir=str(tmp_path / "out"),
                    bench=bench, report=False,
                    train=TrainConfig(episodes=2, steps=3, seed=5,
                                      encoder=EncoderKind.parse(encoder)))
    paths = write_outputs(run_search(cfg), cfg)
    got = tuple(hashlib.sha256(paths[name].read_bytes()).hexdigest()
                for name in ("trace", "transformed"))
    assert got == PINNED_DIGESTS[(bench, encoder)]


def test_bench_mode_never_encodes(small_csv, tmp_path, monkeypatch):
    def refuse(self, fs):
        raise AssertionError("the random control encoded a state")

    monkeypatch.setattr(StateEncoder, "encode", refuse)
    cfg = replace(small_config(small_csv, tmp_path, episodes=2, steps=2,
                               encoder=EncoderKind.ALL), bench=True)
    result = run_search(cfg)
    assert len(result.trace) == 4
    assert result.n_transitions == 0


def test_a_search_hashes_no_matrix_and_each_column_once(small_csv, tmp_path, monkeypatch):
    # a column is hashed where it is born: at load (lazily) or as a kept
    # column of a generation step; every view and selection hands keys on
    original = dataset.content_hash
    shapes = []

    def spy(arr):
        shapes.append(np.shape(arr))
        return original(arr)

    for name, module in list(sys.modules.items()):
        if name.startswith("raft") and getattr(module, "content_hash", None) is original:
            monkeypatch.setattr(module, "content_hash", spy)
    born = []
    real_dedup = transform.dedup

    def counting_dedup(batch, fs):
        kept = real_dedup(batch, fs)
        born.append(len(kept))
        return kept

    monkeypatch.setattr(transform, "dedup", counting_dedup)
    result = run_search(small_config(small_csv, tmp_path, episodes=2, steps=3,
                                     encoder=EncoderKind.ALL))
    assert len(result.trace) == len(born) == 6 and sum(born) > 0
    assert all(len(shape) == 1 for shape in shapes)
    n_original = load_csv(small_csv, "y").n_cols
    assert len(shapes) == n_original + 1 + sum(born)  # the target is keyed once


def product_sign_table(m: int = 200, seed: int = 3) -> tuple[list[str], list[list[str]]]:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 5))
    label = (x[:, 0] * x[:, 1] + x[:, 2] > 0.0).astype(int)
    rows = [[repr(float(v)) for v in row] + [str(t)] for row, t in zip(x, label)]
    return ["x0", "x1", "x2", "x3", "x4", "label"], rows


def _set_cells(rows, cells):
    for r, c, text in cells:
        rows[r][c] = text
    return rows


INPUT_MATRIX = {
    # name: (edit of the product-sign rows, extra flags, exit code)
    "categorical column": (lambda rows: _set_cells(
        rows, [(r, 3, ("red", "blue")[r % 2]) for r in range(len(rows))]), [], 3),
    "ragged row": (lambda rows: rows[:5] + [rows[5][:-1]] + rows[6:], [], 3),
    "inf cell": (lambda rows: _set_cells(rows, [(7, 1, "inf")]), [], 3),
    "constant target": (lambda rows: _set_cells(rows, [(r, 5, "1") for r in range(len(rows))]),
                        [], 3),
    "2 rows": (lambda rows: rows[:2], [], 3),
    "header only": (lambda rows: [], [], 3),
    "missing cells": (lambda rows: _set_cells(rows, [(3, 0, ""), (9, 2, "NA")]), [], 3),
    "missing cells, median imputation": (
        lambda rows: _set_cells(rows, [(3, 0, ""), (9, 2, "NA")]), ["--impute", "median"], 0),
    "two constant columns": (lambda rows: _set_cells(
        rows, [(r, c, v) for r in range(len(rows)) for c, v in ((3, "2.5"), (4, "-1"))]), [], 0),
}


@pytest.mark.parametrize("case", list(INPUT_MATRIX))
def test_every_input_class_fails_loudly_or_works(tmp_path, capsys, monkeypatch, case):
    edit, flags, code = INPUT_MATRIX[case]
    header, rows = product_sign_table()
    path = tmp_path / "input.csv"
    path.write_text("\n".join(",".join(row) for row in [header] + edit(rows)) + "\n",
                    encoding="utf-8")
    reports = []
    real_update = agents.update_agents

    def spy(bundles, episode, cfg):
        updated, report = real_update(bundles, episode, cfg)
        reports.append(report)
        return updated, report

    monkeypatch.setattr(agents, "update_agents", spy)
    out = tmp_path / "out"
    got = main(["run", "--input", str(path), "--target", "label", "--out", str(out),
                "--episodes", "1", "--steps", "3", "--no-report", *flags])
    captured = capsys.readouterr()
    assert got == code, captured.err
    if code == 3:
        assert "data error" in captured.err
    else:
        assert (out / "trace.tsv").read_text().count("\n") == 1 + 3  # header and 3 steps
        (report,) = reports  # one episode, one update
        for name in ("head", "op"):
            objective = report[f"{name}_actor_objective"]
            assert math.isfinite(objective) and objective != 0.0, (name, objective)
        # exactly 0 while the tail agent has a single candidate (ROADMAP item 6)
        assert math.isfinite(report["tail_actor_objective"])


@pytest.mark.parametrize("flags", [["--bins", "5"], ["--bins", "9"], []],
                         ids=["bins-5", "bins-9", "default"])
def test_a_run_labels_every_column_at_its_bin_count(tmp_path, monkeypatch, flags):
    m = 150
    path = write_fixture(squared_sum_regression(m=m, n_distractors=3, seed=11),
                         tmp_path / "data.csv")
    want = int(flags[1]) if flags else default_bins(m)
    assert flags or want not in (5, 9)  # the default is told apart from both flags
    seen = []
    real_as_labels = info_metrics.as_labels

    def spy(values, bins):
        seen.append(bins)
        return real_as_labels(values, bins)

    monkeypatch.setattr(info_metrics, "as_labels", spy)
    got = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "out"),
                "--episodes", "1", "--steps", "2", "--no-report", *flags])
    assert got == 0
    assert seen and set(seen) == {want}


@pytest.mark.parametrize("metric", ["one_minus_mse", "one_minus_rae"])
def test_nonfinite_score_exits_4(tmp_path, capsys, metric):
    # squares of a ~1e200 target overflow, in the forest's split search and in
    # one_minus_mse
    fs = squared_sum_regression(m=80, n_distractors=3, seed=11)
    huge = FeatureSet(fs.values, fs.columns,
                      Target(fs.target.values * 1e200, TaskKind.REGRESSION, "y"))
    path = write_fixture(huge, tmp_path / "huge.csv")
    code = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "o"),
                 "--metric", metric, "--episodes", "1", "--steps", "1"])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["one_minus_mse", "one_minus_rae"])
def test_forest_split_overflow_window_exits_4(tmp_path, capsys, metric):
    # a ~1e152 target has a finite sum of squares, but the split search's
    # squared running sums over the sample overflow
    fs = squared_sum_regression(m=80, n_distractors=3, seed=11)
    huge = FeatureSet(fs.values, fs.columns,
                      Target(fs.target.values * 1e152, TaskKind.REGRESSION, "y"))
    path = write_fixture(huge, tmp_path / "huge.csv")
    code = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "o"),
                 "--metric", metric, "--episodes", "1", "--steps", "1"])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The CLI surface
# ---------------------------------------------------------------------------

RUN_OPTIONS = {
    "--input", "--target", "--out", "--config", "--task", "--metric", "--impute",
    "--distance", "--encoder", "--episodes", "--steps", "--seed", "--k", "--d",
    "--encoder-epochs", "--delta", "--bins", "--max-size", "--gamma", "--beta",
    "--actor-lr", "--critic-lr", "--hidden", "--cross-cap", "--max-lineage-depth",
    "--bench", "--no-report", "--carry-features",
}

# A non-default value for every TrainConfig-backed key; None marks a switch,
# given bare as a flag and as "true" in a config file.
TRAIN_KEY_VALUES = {
    "episodes": "3", "steps": "4", "seed": "7", "encoder": "gae", "k": "5", "d": "6",
    "encoder_epochs": "2", "distance": "cosine", "delta": "0.5", "gamma": "0.8",
    "beta": "0.02", "actor_lr": "0.002", "critic_lr": "0.003", "hidden": "16",
    "cross_cap": "10", "max_lineage_depth": "4", "bins": "9", "max_size": "12",
    "carry_features": None,
}

FILE_ONLY_VALUES = {
    "input": "data.csv", "target": "y", "out": "o", "task": "reg",
    "metric": "one_minus_rae", "impute": "median", "bench": "true", "report": "false",
}


def run_options() -> set[str]:
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    return {s for action in run._actions for s in action.option_strings} - {"-h", "--help"}


def test_cli_surface_is_pinned(tmp_path):
    assert run_options() == RUN_OPTIONS and len(RUN_OPTIONS) == 28
    accepted = set(TRAIN_KEY_VALUES) | set(FILE_ONLY_VALUES)
    assert set(_FILE_KEYS) == accepted and len(accepted) == 27
    values = {**FILE_ONLY_VALUES, **{k: v or "true" for k, v in TRAIN_KEY_VALUES.items()}}
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    cfg = parse_config(["run", "--config", str(cfgfile)])
    assert cfg.bench and not cfg.report and cfg.impute == "median"
    assert cfg.task is TaskKind.REGRESSION and cfg.metric is MetricKind.ONE_MINUS_RAE


@pytest.mark.parametrize("key", sorted(TRAIN_KEY_VALUES))
def test_train_key_flag_equals_file_value(tmp_path, key):
    value = TRAIN_KEY_VALUES[key]
    base = ["run", "--input", "data.csv", "--target", "y", "--out", "o"]
    flag = ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{key} = {value or 'true'}\n", encoding="utf-8")
    from_flag = parse_config(base + flag).train
    from_file = parse_config(base + ["--config", str(cfgfile)]).train
    assert from_flag == from_file
    assert from_flag != TrainConfig()
