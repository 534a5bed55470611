import builtins
import hashlib
import math
import re
import sys
from collections.abc import Sized
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from raft import agents, cli, dataset, info_metrics, transform
from raft.agents import TrainConfig
from raft.cli import (
    _KEYS,
    ConfigError,
    RunConfig,
    build_parser,
    main,
    parse_config,
    prepare,
    run_search,
    search,
    write_outputs,
    write_trace,
)
from raft.dataset import (
    BINARY_OPS,
    Binary,
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    default_bins,
    evaluate_lineage,
    load_csv,
    parse_lineage,
    write_csv,
)
from raft.evaluator import ForestConfig, MetricKind, downstream_score
from raft.state_repr import ENCODER_EPOCHS, LATENT_K, EncoderKind, StateEncoder
from raft.synthetic import product_sign_classification, squared_sum_regression, write_fixture
from oracles import ScriptedPolicy, two_class_blobs

_FILE_KEYS = list(_KEYS)
_TRAIN_KEYS = [key for key, (owner, *_) in _KEYS.items() if owner is TrainConfig]


def small_space() -> FeatureSet:
    return squared_sum_regression(m=80, n_distractors=3, seed=11)


@pytest.fixture()
def small_csv(tmp_path):
    return write_fixture(small_space(), tmp_path / "data.csv")


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
    cfgfile.write_text("encoder = ae\nepisodes = 4\n", encoding="utf-8")
    cfg = parse_config([
        "run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
        "--config", str(cfgfile), "--encoder", "gae",
    ])
    assert cfg.train.encoder is EncoderKind.GAE
    assert cfg.train.episodes == 4  # file value survives where no flag was given


def test_encoder_flag_sets_state_length(small_csv, tmp_path):
    cfg = parse_config([
        "run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
        "--encoder", "gae",
    ])
    assert cfg.train.encoder is EncoderKind.GAE
    assert StateEncoder(cfg.train.encoder, ENCODER_EPOCHS, 0).length == LATENT_K


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--nonsense", "1"])
    assert exc.value.code == 2


# d is Euclidean, the metric is the task's and the keys no run set are
# constants, so a config file or an old config.echo naming one of them fails
DELETED_KEYS = ["distance", "metric", "k", "d", "hidden", "delta", "bins", "max_size",
                "cross_cap", "max_lineage_depth", "encoder_epochs", "gamma", "beta",
                "actor_lr", "critic_lr"]


@pytest.mark.parametrize("key", ["mystery", "clip_norm", "skip_tail_on_unary", *DELETED_KEYS])
def test_unknown_config_key_rejected(tmp_path, small_csv, key):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"run.cfg:1: unknown key '{key}'$"):
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


@pytest.mark.parametrize("flags", ["--episodes 0", "--steps 0"])
def test_bad_numeric_value_exits_2(tmp_path, small_csv, capsys, flags):
    code = main(["run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
                 "--episodes", "1", "--steps", "1", *flags.split()])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# run_search — loop arithmetic and artifacts
# ---------------------------------------------------------------------------

def test_one_episode_one_step_records_three_transitions(tmp_path, monkeypatch):
    fs = squared_sum_regression(m=40, n_distractors=2, seed=3)
    path = write_fixture(fs, tmp_path / "tiny.csv")
    cfg = RunConfig(input_path=str(path), target="y", out_dir=str(tmp_path / "o"),
                    train=TrainConfig(episodes=1, steps=1, seed=1))
    batch_sizes = []
    real_update = agents.update_agents

    def spy(bundles, episode):
        batch_sizes.append([len(transitions) for transitions in episode])
        return real_update(bundles, episode)

    monkeypatch.setattr(agents, "update_agents", spy)
    result = run_search(cfg)
    assert batch_sizes == [[1, 1, 1]]  # one update, one transition per agent
    assert len(result.trace) == 1
    assert np.isfinite(result.best_score)
    assert result.best_fs.n_cols >= 1
    assert len(run_search(replace(cfg, bench=True)).trace) == 1
    assert batch_sizes == [[1, 1, 1]]  # the random control never updates


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


def test_a_search_that_never_beats_the_input_emits_it(small_csv, tmp_path, monkeypatch):
    # every generated space scores a full point below its true score
    real_score = cli.downstream_score

    def lowered(fs, *args):
        score = real_score(fs, *args)
        return score if all(meta.is_original for meta in fs.columns) else score - 1.0

    monkeypatch.setattr(cli, "downstream_score", lowered)
    cfg = small_config(small_csv, tmp_path, episodes=2, steps=3)
    result = run_search(cfg)
    assert max(row.p_a for row in result.trace) < result.baseline_score
    assert result.best_score == result.baseline_score
    assert result.best_u == result.baseline_u
    paths = write_outputs(result, cfg)
    original = tmp_path / "original.csv"
    write_csv(load_csv(small_csv, "y"), original)
    assert paths["transformed"].read_bytes() == original.read_bytes()


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
    assert len(result.trace) == 4
    assert np.isfinite(result.best_score)


def test_classification_run_all_original_report(tmp_path):
    fs = two_class_blobs(m=60, n_features=3, seed=21)
    path = write_fixture(fs, tmp_path / "clf.csv")
    cfg = RunConfig(input_path=str(path), target="label",
                    out_dir=str(tmp_path / "out"),
                    train=TrainConfig(episodes=1, steps=2, seed=3))
    result = run_search(cfg)
    assert result.metric.task is TaskKind.CLASSIFICATION
    assert result.metric is MetricKind.F1_MACRO
    paths = write_outputs(result, cfg)
    lines = paths["report"].read_text().splitlines()
    start = lines.index("name\timportance_share\torigin") + 1
    for line in lines[start:]:
        name, share, origin = line.split("\t")
        if origin == "original":
            assert parse_lineage(name).name == name  # bare identifiers


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
# search: the in-memory core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bench", [False, True], ids=["learned", "random"])
def test_search_replaying_a_runs_choices_gives_its_files_byte_for_byte(small_csv, tmp_path,
                                                                       bench):
    cfg = replace(small_config(small_csv, tmp_path, episodes=2, steps=3,
                               encoder=EncoderKind.ALL), bench=bench, report=False)
    paths = write_outputs(run_search(cfg), cfg)
    rows = [line.split("\t") for line in paths["trace"].read_text().splitlines()[1:]]
    choices = [(int(row[2]), row[3], int(row[4])) for row in rows]
    fs0 = small_space()  # the CSV's space, built in memory
    result = search(fs0, cfg.train, ScriptedPolicy(choices), prepare(fs0, cfg.train)[1])
    write_trace(result.trace, tmp_path / "trace.tsv")
    write_csv(result.best_fs, tmp_path / "transformed.csv")
    for name in ("trace.tsv", "transformed.csv"):
        assert (tmp_path / name).read_bytes() == (paths["trace"].parent / name).read_bytes()
    assert len(rows) == 6


@pytest.mark.parametrize("bench", [False, True], ids=["learned", "random"])
def test_search_opens_no_file(monkeypatch, bench):
    fs0 = small_space()
    train = TrainConfig(episodes=2, steps=2, seed=3, encoder=EncoderKind.ALL)
    policy, evalctx = prepare(fs0, train, bench=bench)

    def refuse(*args, **kwargs):
        raise AssertionError("the search core opened a file")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(Path, "open", refuse)
    result = search(fs0, train, policy, evalctx)
    assert len(result.trace) == 4


@pytest.mark.parametrize("encoder", ["si", "all"])
@pytest.mark.parametrize("bench", [False, True], ids=["learned", "random"])
def test_a_lone_column_group_crosses_itself(monkeypatch, bench, encoder):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(60)
    fs0 = FeatureSet(x[:, None], (FeatureMeta.from_lineage(Ident("x")),),
                     Target(x * x + 0.1 * rng.standard_normal(60), TaskKind.REGRESSION, "y"))
    calls = []
    real_step = cli.generation_step

    def spy(fs, head, op, tail, *args, **kwargs):
        out = real_step(fs, head, op, tail, *args, **kwargs)
        new = tuple(meta for meta in out.columns if meta not in fs.columns)
        calls.append((fs.n_cols, head.keys == tail.keys == fs.keys, op, new))
        return out

    monkeypatch.setattr(cli, "generation_step", spy)
    train = TrainConfig(episodes=6, steps=2, seed=1, encoder=EncoderKind.parse(encoder))
    result = search(fs0, train, *prepare(fs0, train, bench=bench))
    firsts = [row for row in result.trace if row.step == 0]
    assert len(firsts) == 6 and all(row.head == row.tail == 0 for row in firsts)
    crossed = [(op, metas) for n, _, op, metas in calls if n == 1 and op in BINARY_OPS]
    assert any(metas for _, metas in crossed)  # some cross kept a column
    for op, metas in crossed:
        assert [meta.lineage for meta in metas] in ([], [Binary(op, Ident("x"), Ident("x"))])
    assert all(whole for n, whole, _, _ in calls if n == 1)  # head and tail view the column


# The benchmark's two fixtures at its test size (60 rows, at most 12 columns).
FIXTURES = {
    "product_sign": lambda: product_sign_classification(60, 12, 123),
    "squared_sum": lambda: squared_sum_regression(m=60, n_distractors=6, seed=123),
}
SEARCH_CASES = pytest.mark.parametrize("fixture,bench,encoder", [
    pytest.param(fixture, bench, encoder,
                 id=f"{fixture}-{'random' if bench else 'learned'}-{encoder}")
    for fixture in FIXTURES for bench in (False, True) for encoder in ("si", "all")])


def fixture_train(encoder: str) -> TrainConfig:
    return TrainConfig(episodes=2, steps=2, seed=9, encoder=EncoderKind(encoder))


def search_in_memory(fs0: FeatureSet, train: TrainConfig, bench: bool, out: Path):
    """``search`` as ``prepare`` builds it, its trace.tsv and transformed.csv
    written under ``out``."""
    result = search(fs0, train, *prepare(fs0, train, bench))
    out.mkdir()
    write_trace(result.trace, out / "trace.tsv")
    write_csv(result.best_fs, out / "transformed.csv")
    return result


@SEARCH_CASES
def test_a_search_built_in_memory_writes_the_files_of_a_run_from_the_csv(tmp_path, fixture,
                                                                          bench, encoder):
    fs0 = FIXTURES[fixture]()
    cfg = RunConfig(input_path=str(write_fixture(fs0, tmp_path / "data.csv")),
                    target=fs0.target.name, out_dir=str(tmp_path / "run"), bench=bench,
                    report=False, train=fixture_train(encoder))
    write_outputs(run_search(cfg), cfg)
    search_in_memory(fs0, cfg.train, bench, tmp_path / "memory")
    for name in ("trace.tsv", "transformed.csv"):
        assert (tmp_path / "memory" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


@SEARCH_CASES
def test_renaming_every_input_column_changes_no_choice(tmp_path, fixture, bench, encoder):
    """The names are reversed in sort order, so no choice may rest on a name.
    Column order is left out: the random draws index groups by position."""
    fs0 = FIXTURES[fixture]()
    names = [f"renamed_{fs0.n_cols - i:02d}" for i in range(fs0.n_cols)]
    renamed = FeatureSet(fs0.values, tuple(FeatureMeta.from_lineage(Ident(name))
                                           for name in names), fs0.target)
    train = fixture_train(encoder)
    want = search_in_memory(fs0, train, bench, tmp_path / "original")
    got = search_in_memory(renamed, train, bench, tmp_path / "renamed")
    assert (tmp_path / "renamed" / "trace.tsv").read_bytes() == \
        (tmp_path / "original" / "trace.tsv").read_bytes()
    np.testing.assert_array_equal(got.best_fs.values, want.best_fs.values)


def _raft_globals() -> dict[str, dict[str, tuple[object, int | None]]]:
    """Each ``raft`` module's globals: the object, and a container's length."""
    return {name: {attr: (value, len(value) if isinstance(value, Sized) else None)
                   for attr, value in vars(module).items()}
            for name, module in sys.modules.items() if name.split(".")[0] == "raft"}


def test_no_state_outlives_a_search(tmp_path):
    """No module keeps a workspace or a memo from one search to the next."""
    fs0 = FIXTURES["product_sign"]()
    train = fixture_train("all")
    before = _raft_globals()
    first = search_in_memory(fs0, train, False, tmp_path / "first")
    search_in_memory(fs0, train, True, tmp_path / "random")
    after = _raft_globals()
    assert after.keys() == before.keys()
    for name, names in before.items():
        assert after[name].keys() == names.keys(), name
        for attr, (value, size) in names.items():
            assert after[name][attr][0] is value and after[name][attr][1] == size, (name, attr)
    again = search_in_memory(fs0, train, False, tmp_path / "again")
    assert (tmp_path / "again" / "trace.tsv").read_bytes() == \
        (tmp_path / "first" / "trace.tsv").read_bytes()
    assert again.best_fs.names() == first.best_fs.names()
    assert again.best_fs.values.tobytes() == first.best_fs.values.tobytes()


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
    fs = product_sign_classification(m, 5, seed)
    rows = [[repr(float(v)) for v in row] + [str(t)]
            for row, t in zip(fs.values, fs.target.values)]
    return [meta.name for meta in fs.columns] + [fs.target.name], rows


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
    "missing target cell": (lambda rows: _set_cells(rows, [(4, 5, "")]), [], 3),
    "missing target cell, median imputation": (
        lambda rows: _set_cells(rows, [(4, 5, "")]), ["--impute", "median"], 3),
    "missing regression target cell": (lambda rows: _set_cells(
        rows, [(r, 5, repr(r / 7)) for r in range(len(rows))] + [(4, 5, "")]), [], 3),
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

    def spy(bundles, episode):
        report = real_update(bundles, episode)
        reports.append(report)
        return report

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


def _write_table(path, header, rows):
    path.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n",
                    encoding="utf-8")
    return path


def test_a_class_with_one_sample_exits_0_or_3_on_every_seed(tmp_path, capsys):
    # the unstratified split may leave the lone sample's class out of training
    header, rows = product_sign_table()
    rows = [row[:-1] + ["1" if i == 7 else "0"] for i, row in enumerate(rows)]
    path = _write_table(tmp_path / "input.csv", header, rows)
    codes = {seed: main(["run", "--input", str(path), "--target", "label",
                         "--out", str(tmp_path / f"o{seed}"), "--episodes", "1",
                         "--steps", "1", "--seed", str(seed)]) for seed in range(20)}
    assert set(codes.values()) == {0, 3}
    assert {3, 12, 17} <= {seed for seed, code in codes.items() if code == 3}
    assert "data error: classification training target has a single class" in \
        capsys.readouterr().err


def test_the_unstratified_fallback_is_logged_once_per_run(tmp_path, caplog):
    header, rows = product_sign_table(80)
    rows[0][-1] = "2"  # a third class of one row: no split of this table is stratified
    path = _write_table(tmp_path / "input.csv", header, rows)
    with caplog.at_level("WARNING"):
        assert main(["run", "--input", str(path), "--target", "label", "--out",
                     str(tmp_path / "out"), "--episodes", "2", "--steps", "4"]) == 0
    assert [r.message for r in caplog.records if "unstratified" in r.message] == [
        "a class has a single sample; falling back to unstratified split"]


def test_a_feature_named_like_the_target_exits_3(tmp_path, capsys):
    header, rows = product_sign_table()
    path = _write_table(tmp_path / "input.csv", header[:4] + ["label", "label"],
                        [row[:4] + [row[5], row[4]] for row in rows])
    code = main(["run", "--input", str(path), "--target", "label",
                 "--out", str(tmp_path / "o"), "--episodes", "1", "--steps", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: a feature column has the target's name")
    assert not (tmp_path / "o").exists()


def test_a_run_labels_every_column_at_its_bin_count(tmp_path, monkeypatch):
    m = 150
    path = write_fixture(squared_sum_regression(m=m, n_distractors=3, seed=11),
                         tmp_path / "data.csv")
    seen = []
    real_as_labels = info_metrics.as_labels

    def spy(values, bins):
        seen.append(bins)
        return real_as_labels(values, bins)

    monkeypatch.setattr(info_metrics, "as_labels", spy)
    got = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "out"),
                "--episodes", "1", "--steps", "2", "--no-report"])
    assert got == 0
    assert seen and set(seen) == {default_bins(m)}


# x1e306: max|y| is 1.3e307, where the score's sums of errors overflow;
# x1e200: the target's squares overflow; x1e152: its sum of squares is finite,
# but squared running sums over the sample overflow. The forest fits y scaled
# by a power of two, so both run; a scale that is no power of two rounds y
# and may move the score.
@pytest.mark.parametrize("scale", [1e306, 1e200, 1e152], ids=["x1e306", "x1e200", "x1e152"])
def test_a_target_near_the_float_range_runs(tmp_path, capsys, scale):
    fs = squared_sum_regression(m=80, n_distractors=3, seed=11)
    huge = FeatureSet(fs.values, fs.columns,
                      Target(fs.target.values * scale, TaskKind.REGRESSION, "y"))
    path = write_fixture(huge, tmp_path / "huge.csv")
    code = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "o"),
                 "--episodes", "1", "--steps", "1"])
    assert code == 0
    out, err = capsys.readouterr()
    assert "numeric failure" not in err
    assert math.isfinite(float(re.search(r"original=(\S+)", out).group(1)))
    assert (tmp_path / "o" / "trace.tsv").is_file() and (tmp_path / "o" / "report.txt").is_file()


def test_a_target_at_the_top_of_the_float_range_scores_as_y(tmp_path, capsys):
    # y * 2^1018 puts max|y| at 3.6e307: a mean or sum of its errors would
    # overflow, so the score is taken in the forest's power-of-two units
    fs = squared_sum_regression(m=80, n_distractors=3, seed=11)
    scores = []
    for k in (0, 1018):
        scaled = FeatureSet(fs.values, fs.columns,
                            Target(np.ldexp(fs.target.values, k), TaskKind.REGRESSION, "y"))
        path = write_fixture(scaled, tmp_path / f"y{k}.csv")
        assert main(["run", "--input", str(path), "--target", "y", "--out",
                     str(tmp_path / f"o{k}"), "--episodes", "1", "--steps", "1"]) == 0
        scores.append(re.search(r"original=(\S+)", capsys.readouterr().out).group(1))
    assert scores[1] == scores[0]


def test_the_target_scale_moves_no_byte_of_the_trace_or_the_report(tmp_path):
    # the forest fits y scaled by a power of two: unscaled, y * 2^600's split
    # sums overflowed (exit 4) and y * 2^-600's squares underflowed to stumps.
    # The powers are chosen around a known defect (ROADMAP item 32): the
    # trace's MI terms take their row variable by content hash, so a power of
    # two that reorders y's hash against a feature's (2^1 does here) moves an
    # MI's last bit; 2^600 and 2^-600 keep every order on this input.
    fs = small_space()
    outputs = []
    for k in (0, 600, -600):
        scaled = FeatureSet(fs.values, fs.columns,
                            Target(np.ldexp(fs.target.values, k), TaskKind.REGRESSION, "y"))
        path = write_fixture(scaled, tmp_path / f"y{k}.csv")
        out = tmp_path / f"out{k}"
        assert main(["run", "--input", str(path), "--target", "y", "--out", str(out),
                     "--episodes", "1", "--steps", "3"]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trace.tsv", "report.txt")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_nan_score_exits_4(tmp_path, capsys, monkeypatch):
    # EvalContext.score's own guard: no later step could repair a NaN score
    monkeypatch.setattr(cli, "downstream_score", lambda *args: math.nan)
    path = write_fixture(product_sign_classification(60, 4, 5), tmp_path / "data.csv")
    code = main(["run", "--input", str(path), "--target", "label", "--out",
                 str(tmp_path / "o"), "--episodes", "1", "--steps", "1"])
    assert code == 4
    assert "numeric failure: f1_macro score is nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_diverged_actor_exits_4(tmp_path, capsys, monkeypatch):
    # clip_step bounds the gradient, not the step: at this rate the actor's
    # weights overflow and its softmax turns NaN
    monkeypatch.setattr(agents, "ACTOR_LR", 1e300)
    path = write_fixture(squared_sum_regression(m=200, n_distractors=4, seed=3),
                         tmp_path / "data.csv")
    code = main(["run", "--input", str(path), "--target", "y", "--out", str(tmp_path / "o"),
                 "--episodes", "3", "--steps", "3", "--seed", "3"])
    assert code == 4
    assert "numeric failure: an actor's softmax is not finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The CLI surface
# ---------------------------------------------------------------------------

RUN_OPTIONS = {
    "--input", "--target", "--out", "--config", "--task", "--impute",
    "--encoder", "--episodes", "--steps", "--seed", "--bench", "--no-report",
}

# A non-default value for every TrainConfig-backed key.
TRAIN_KEY_VALUES = {"episodes": "3", "steps": "4", "seed": "7", "encoder": "gae"}

FILE_ONLY_VALUES = {
    "input": "data.csv", "target": "y", "out": "o", "task": "reg",
    "impute": "median", "bench": "true", "report": "false",
}


def run_options() -> set[str]:
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    return {s for action in run._actions for s in action.option_strings} - {"-h", "--help"}


def test_cli_surface_is_pinned(tmp_path):
    assert run_options() == RUN_OPTIONS and len(RUN_OPTIONS) == 12
    accepted = set(TRAIN_KEY_VALUES) | set(FILE_ONLY_VALUES)
    assert set(_FILE_KEYS) == accepted and len(accepted) == 11
    values = {**FILE_ONLY_VALUES, **TRAIN_KEY_VALUES}
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    cfg = parse_config(["run", "--config", str(cfgfile)])
    assert cfg.bench and not cfg.report and cfg.impute == "median"
    assert cfg.task is TaskKind.REGRESSION


def test_every_train_config_field_is_a_flag_a_file_key_and_an_echo_line(small_csv, tmp_path):
    # a knob the CLI cannot set would be a value no run varies
    names = [f.name for f in fields(TrainConfig)]
    assert names == list(_TRAIN_KEYS)
    assert {"--" + name.replace("_", "-") for name in names} <= run_options()
    assert set(names) <= set(_FILE_KEYS)
    cfg = replace(small_config(small_csv, tmp_path, steps=1), report=False)
    paths = write_outputs(run_search(cfg), cfg)
    echoed = [line.split(" = ")[0] for line in paths["config"].read_text().splitlines()]
    assert [key for key in echoed if key in names] == names


@pytest.mark.parametrize("key", sorted(TRAIN_KEY_VALUES))
def test_train_key_flag_equals_file_value(tmp_path, key):
    value = TRAIN_KEY_VALUES[key]
    base = ["run", "--input", "data.csv", "--target", "y", "--out", "o"]
    flag = ["--" + key.replace("_", "-"), value]
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_flag = parse_config(base + flag).train
    from_file = parse_config(base + ["--config", str(cfgfile)]).train
    assert from_flag == from_file
    assert from_flag != TrainConfig()


def test_every_run_config_field_is_a_flag_a_file_key_and_an_echo_line(small_csv, tmp_path):
    # `train` holds the TrainConfig keys; `out` is not echoed (the echo lives there)
    run_fields = [f for f in fields(RunConfig) if f.name != "train"]
    keys = [f.metadata.get("key", f.name) for f in run_fields]
    assert keys == [key for key in _FILE_KEYS if key not in _TRAIN_KEYS]
    for f, key in zip(run_fields, keys):
        switch = "no_" + key if f.default is True else key  # --no-report
        assert "--" + switch.replace("_", "-") in run_options()
    cfg = replace(small_config(small_csv, tmp_path, steps=1), report=False)
    paths = write_outputs(run_search(cfg), cfg)
    echoed = [line.split(" = ")[0] for line in paths["config"].read_text().splitlines()]
    assert [key for key in echoed if key in keys] == [key for key in keys if key != "out"]


# only a line that starts with '#' is a comment: a trailing one is part of the value
@pytest.mark.parametrize("key, text, typ", [("episodes", "soon", "int"),
                                            ("steps", "2.5", "int"),
                                            ("seed", "1,5", "int"),
                                            ("episodes", "3  # note", "int")])
def test_a_bad_number_reads_alike_from_a_flag_and_a_file(tmp_path, small_csv, capsys,
                                                           key, text, typ):
    base = ["run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o")]
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{key} = {text}\n", encoding="utf-8")
    errors = []
    for extra in (["--" + key, text], ["--config", str(cfgfile)]):
        assert main(base + extra) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"config error: --{key}: bad {typ} value {text!r}\n"
    assert errors[1] == f"config error: {cfgfile}:1: bad {typ} value {text!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, text", [("task", "classify"), ("impute", "mean"),
                                       ("encoder", "vae"),
                                       ("encoder", "si+ae"), ("encoder", "ae+gae"),
                                       ("bench", "1"), ("report", "True")])
def test_a_named_key_rejects_an_unknown_word_from_a_file(tmp_path, key, text):
    # a flag's choices reject it before parse_config sees it
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text(f"{key} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"one.cfg:1: unknown {key} '{text}'") + "$"):
        parse_config(["run", "--input", "data.csv", "--target", "y", "--out", "o",
                      "--config", str(cfgfile)])


@pytest.mark.parametrize("flag, text", [
    ("--distance", "cosine"), ("--metric", "f1_macro"), ("--k", "8"), ("--d", "8"),
    ("--hidden", "64"), ("--delta", "1.0"), ("--bins", "9"), ("--max-size", "12"),
    ("--cross-cap", "64"), ("--max-lineage-depth", "6"), ("--encoder-epochs", "20"),
    ("--gamma", "0.9"), ("--beta", "0.01"), ("--actor-lr", "0.001"), ("--critic-lr", "0.001")])
def test_a_removed_flag_exits_2(tmp_path, small_csv, capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
              flag, text])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def round_trip_cases():
    given = {**FILE_ONLY_VALUES, **TRAIN_KEY_VALUES}
    for key, (_, f, typ, _) in _KEYS.items():
        values = [f.default, cli._value(key, given[key], "test")]
        values += [True, False] if typ is bool else list(TaskKind) if key == "task" else []
        for value in dict.fromkeys(values):
            yield pytest.param(key, value, id=f"{key}={value}")


@pytest.mark.parametrize("key, value", round_trip_cases())
def test_a_keys_text_reads_back_as_its_value(key, value):
    back = cli._value(key, cli._text(key, value), "test")
    assert back == value and type(back) is type(value)


@pytest.mark.parametrize("bench, encoder, name", [(False, "si", "data/data.csv"),
                                                  (True, "all", "data/data.csv"),
                                                  (False, "si", "run#1/data.csv"),
                                                  (False, "si", "data/data.csv ")],
                         ids=["learned-si", "random-all", "hash-in-the-path",
                              "space-at-the-end"])
def test_a_run_replays_byte_for_byte_from_its_config_echo(tmp_path, capsys, bench, encoder,
                                                          name):
    (tmp_path / name).parent.mkdir()
    path = write_fixture(small_space(), tmp_path / name)
    out, replay = tmp_path / "out", tmp_path / "replay"
    code = main(["run", "--input", str(path), "--target", "y", "--out", str(out),
                 "--episodes", "2", "--steps", "2", "--encoder", encoder,
                 "--seed", "4", *(["--bench"] if bench else [])])
    if name != name.strip():
        # a file line's value is stripped: the echo would replay another input
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == \
            f"config error: --input: input {str(path)!r} has white space at an end\n"
        return
    assert code == 0
    assert main(["run", "--config", str(out / "config.echo"), "--out", str(replay)]) == 0
    for name in ("trace.tsv", "transformed.csv", "report.txt", "config.echo"):
        assert (replay / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("flag, content, below, code, layer", [
    ("--input", None, "", 3, "data"),
    ("--input", b"x0,y\n\xff,1\n", "", 3, "data"),
    ("--config", None, "", 2, "config"),
    ("--config", b"episodes = 1\n\xff\n", "", 2, "config"),
    ("--out", b"", "", 2, "config"),
    ("--out", b"", "sub", 2, "config"),
], ids=["input-directory", "input-not-utf8", "config-directory", "config-not-utf8",
        "out-a-file", "out-under-a-file"])
def test_an_unreadable_input_file_exits_with_its_layers_code(tmp_path, small_csv, capsys,
                                                             monkeypatch, flag, content, below,
                                                             code, layer):
    path = tmp_path / "unreadable"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)

    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "search", refuse)  # every case fails before it
    # a second flag overrides the first
    assert main(["run", "--input", str(small_csv), "--target", "y", "--out", str(tmp_path / "o"),
                 "--episodes", "1", "--steps", "1", flag, str(path / below)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{layer} error: ") and str(path) in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
