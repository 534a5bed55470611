"""``tools/learning.py`` at a tiny size: the keys of its file, the same bytes
from two runs once the wall times are dropped, and a lineage rebuild that
gives a search's own columns back bit for bit."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from raft import cli
from raft.agents import TrainConfig
from raft.dataset import FeatureMeta
from raft.synthetic import product_sign_classification, squared_sum_regression

_PATH = Path(__file__).resolve().parents[1] / "tools" / "learning.py"
_SPEC = importlib.util.spec_from_file_location("learning", _PATH)
learning = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = learning  # the module's dataclass looks itself up there
_SPEC.loader.exec_module(learning)

TINY = {"train_seeds": (0, 1), "episodes": 2, "steps": 2, "fresh_seeds": (101,)}
FIXTURES = {name: learning.FIXTURES[name] for name in ("product_sign", "squared_sum")}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The file of two tiny runs, as written."""
    texts = []
    for i in range(2):
        path = tmp_path_factory.mktemp(f"run{i}") / "learning.json"
        learning.write(learning.run(FIXTURES, **TINY), path)
        texts.append(path.read_text())
    return texts


def test_the_file_has_every_field_for_every_fixture_and_arm(written):
    report = json.loads(written[0])
    assert set(report) == {"settings", "fixtures", "wall_s"}
    assert report["settings"]["train_seeds"] == [0, 1]
    assert list(report["fixtures"]) == list(FIXTURES) == list(report["wall_s"])
    for name, fx in report["fixtures"].items():
        assert set(fx) == {"target", "planted", "task", "rows", "columns", "noise_scale",
                           "arms", "raft_minus_rdg"}
        assert list(fx["arms"]) == ["original", "rdg", "raft"] == list(report["wall_s"][name])
        for arm in fx["arms"].values():
            assert set(arm) == {"fresh_score", "fresh_gain", "search_gain", "recovered_frac",
                                "inputs_kept_frac", "late_minus_early", "favourite_op_thirds",
                                "favourite_ops", "per_seed"}
            assert len(arm["per_seed"]["fresh_gain"]) == 2
        assert fx["arms"]["original"]["fresh_gain"] == 0.0
        assert len(fx["arms"]["raft"]["favourite_op_thirds"]) == 3
        lo, hi = fx["raft_minus_rdg"]["ci95"]
        assert lo <= fx["raft_minus_rdg"]["fresh_gain"] <= hi


def test_two_runs_write_the_same_bytes_but_the_wall_times(written):
    reports = [json.loads(text) for text in written]
    for report in reports:
        del report["wall_s"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


@pytest.mark.parametrize("bench", [True, False])
def test_a_rebuild_on_the_search_draw_gives_its_columns_back(bench):
    fx = FIXTURES["product_sign"]
    fs0 = fx.draw(learning.FIXTURE_SEED)
    train = TrainConfig(episodes=2, steps=2, seed=0)
    best = cli.search(fs0, train, *cli.prepare(fs0, train, bench=bench)).best_fs
    assert not all(meta.is_original for meta in best.columns)
    rebuilt = learning.rebuild(best, fs0)
    assert rebuilt.values.tobytes() == best.values.tobytes()
    assert rebuilt.names() == best.names()


def test_the_named_fixtures_are_table_rows():
    table = learning.FIXTURES
    assert (table["product_sign"].draw(3).values.tobytes()
            == product_sign_classification(500, 12, 3).values.tobytes())
    ours, named = table["squared_sum"].draw(3), squared_sum_regression(2000, 6, 0.1, 3)
    assert ours.values.tobytes() == named.values.tobytes()
    assert ours.target.values.tobytes() == named.target.values.tobytes()


def test_each_classification_target_splits_the_classes():
    for fx in learning.FIXTURES.values():
        if fx.task is learning.CLF:
            shares = np.bincount(fx.draw(learning.FIXTURE_SEED).target.values) / fx.rows
            assert len(shares) == 2 and shares.min() > 0.2


def test_recovery_counts_either_operand_order_of_a_sum_or_a_product():
    fs = product_sign_classification(50, 3, 0)

    def holds(lineage, planted):
        meta = FeatureMeta(learning.parse_lineage(lineage))
        return learning.holds(fs.with_columns(fs.values[:, :1], [meta]),
                              learning.parse_lineage(planted))

    assert holds("log((x1 * x0))", "(x0 * x1)") and holds("((x1 + x0) / x0)", "(x0 + x1)")
    assert not holds("(x1 / x0)", "(x0 / x1)") and not holds("(x1 - x0)", "(x0 - x1)")
    assert not holds("x0", "(x0 * x1)")
