"""Synthetic fixture datasets for experiments and the acceptance suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import FeatureMeta, FeatureSet, Ident, Target, TaskKind, write_csv


def squared_sum_regression(
    m: int = 500,
    n_distractors: int = 6,
    noise_scale: float = 0.1,
    seed: int = 2024,
) -> FeatureSet:
    """Regression target y = (f1 + f2)^2 + noise with standard-normal features;
    f3..f(2+n_distractors) carry no signal."""
    rng = np.random.default_rng(seed)
    n = 2 + n_distractors
    values = rng.standard_normal((m, n))
    y = (values[:, 0] + values[:, 1]) ** 2 + noise_scale * rng.standard_normal(m)
    columns = tuple(FeatureMeta.from_lineage(Ident(f"f{i + 1}")) for i in range(n))
    return FeatureSet(values, columns, Target(y, TaskKind.REGRESSION, "y"))


def product_sign_classification(m: int, n_features: int, seed: int) -> FeatureSet:
    """Standard-normal features x0.., label = [x0*x1 + x2 > 0]: no single column
    separates the classes, so crossing features pays off."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m, n_features))
    labels = (values[:, 0] * values[:, 1] + values[:, 2] > 0.0).astype(np.int64)
    columns = tuple(FeatureMeta.from_lineage(Ident(f"x{i}")) for i in range(n_features))
    return FeatureSet(values, columns, Target(labels, TaskKind.CLASSIFICATION, "label"))


def write_fixture(fs: FeatureSet, path: str | Path) -> Path:
    path = Path(path)
    write_csv(fs, path)
    return path
