"""Synthetic fixture datasets for experiments and the acceptance suite."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (FeatureMeta, FeatureSet, Ident, Target, TaskKind, evaluate_lineage,
                      parse_lineage, write_csv)


def planted(expr: str, names: Sequence[str], task: TaskKind, m: int, seed: int,
            noise_scale: float = 0.0) -> FeatureSet:
    """Standard-normal columns ``names`` and a target read off the lineage
    ``expr`` over them: plus ``noise_scale`` Gaussian noise for regression,
    its sign as 0/1 labels for classification."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m, len(names)))
    t = evaluate_lineage(parse_lineage(expr), dict(zip(names, values.T)))
    target = (Target(t + noise_scale * rng.standard_normal(m), task, "y")
              if task is TaskKind.REGRESSION else Target((t > 0.0).astype(np.int64), task, "label"))
    return FeatureSet(values, tuple(FeatureMeta.from_lineage(Ident(n)) for n in names), target)


def squared_sum_regression(m: int = 500, n_distractors: int = 6, noise_scale: float = 0.1,
                           seed: int = 2024) -> FeatureSet:
    """y = (f1 + f2)^2 + noise; f3..f(2+n_distractors) carry no signal."""
    names = [f"f{i + 1}" for i in range(2 + n_distractors)]
    return planted("square((f1 + f2))", names, TaskKind.REGRESSION, m, seed, noise_scale)


def product_sign_classification(m: int, n_features: int, seed: int) -> FeatureSet:
    """label = [x0*x1 + x2 > 0]: no single column separates the classes, so
    crossing features pays off."""
    names = [f"x{i}" for i in range(n_features)]
    return planted("((x0 * x1) + x2)", names, TaskKind.CLASSIFICATION, m, seed)


def write_fixture(fs: FeatureSet, path: str | Path) -> Path:
    path = Path(path)
    write_csv(fs, path)
    return path
