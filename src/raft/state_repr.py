"""Fixed-length state encodings of variable-size feature spaces.

Three encoders: two-stage descriptive statistics (length 49), a two-stage
column/row autoencoder over fixed-length column summaries (length k*d), and a
graph autoencoder over the column correlation graph (length k).  Combinations
concatenate the parts.  Output length never depends on the matrix shape.  A
state is a read-only, finite, 1-D float64 array.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dataset import FeatureSet, linear_quantiles
from .neural_core import (clip_step, derive_seed, forward, init_gcn, normalized_adjacency,
                          train_autoencoder)

SI_LENGTH = 49
SUMMARY_QUANTILES = 64  # per-column input length of the column autoencoder
_STATE_CLAMP = 1e30
_AE_LR = 1e-2  # the learning rate of the AE's and the GAE's training
_QUARTILES = np.array([0.25, 0.5, 0.75])


class EncoderKind(Enum):
    SI = "si"
    AE = "ae"
    GAE = "gae"
    SI_AE = "si+ae"
    SI_GAE = "si+gae"
    AE_GAE = "ae+gae"
    ALL = "all"

    @property
    def parts(self) -> tuple[str, ...]:
        if self is EncoderKind.ALL:
            return ("si", "ae", "gae")
        return tuple(self.value.split("+"))

    @staticmethod
    def parse(text: str) -> "EncoderKind":
        for kind in EncoderKind:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown encoder kind {text!r}")


def _read_only(vec: np.ndarray) -> np.ndarray:
    vec.flags.writeable = False
    return vec


def _finite(vec: np.ndarray) -> np.ndarray:
    """A read-only state: degenerate magnitudes (e.g. untrained nets on huge
    inputs) are clamped, so every state is finite."""
    vec = np.nan_to_num(vec, nan=0.0, posinf=_STATE_CLAMP, neginf=-_STATE_CLAMP)
    return _read_only(np.clip(vec, -_STATE_CLAMP, _STATE_CLAMP))


def _population_std(mat: np.ndarray, axis: int) -> np.ndarray:
    mean = mat.mean(axis=axis, keepdims=True)
    diff = np.clip(mat - mean, -1e308, 1e308)
    scale = np.max(np.abs(diff), axis=axis)
    scale_safe = np.where(scale > 0.0, scale, 1.0)
    scaled = diff / np.expand_dims(scale_safe, axis)
    return scale * np.sqrt(np.mean(scaled * scaled, axis=axis))


def _seven_stats(mat: np.ndarray, axis: int, count_scale: float) -> np.ndarray:
    """Stack of (count, std, min, max, q1, q2, q3) along the given axis.

    Returns shape (7, n) where n is the size of the other axis.  The count is
    divided by ``count_scale``; quartiles use linear interpolation
    (``linear_quantiles``) and std is the population std.
    """
    count = np.full(mat.shape[1 - axis], mat.shape[axis] / count_scale, dtype=np.float64)
    q1, q2, q3 = linear_quantiles(np.sort(mat, axis=axis), _QUARTILES, axis)
    return np.stack([count, _population_std(mat, axis), mat.min(axis=axis), mat.max(axis=axis),
                     q1, q2, q3])


def state_si(fs: FeatureSet, m_original: int | None = None) -> np.ndarray:
    """Two-stage descriptive statistics, flattened to length 49.

    Stage 1 summarizes each column; stage 2 summarizes each of the seven
    stage-1 rows.  Counts are normalized by the original sample count so the
    vector stays O(1) as the feature space grows."""
    scale = float(m_original if m_original is not None else fs.n_rows)
    col_stats = _seven_stats(fs.values, axis=0, count_scale=scale)
    meta = _seven_stats(col_stats, axis=1, count_scale=scale).T
    return _finite(meta.reshape(-1))


def column_summary(values: np.ndarray) -> np.ndarray:
    """Each column's SUMMARY_QUANTILES quantiles (linear interpolation, from
    the minimum to the maximum), centred on the median and divided by the
    largest deviation: shape (N, SUMMARY_QUANTILES), entries in [-1, 1],
    zeros for a constant column.  Row order and row count do not matter."""
    srt = np.sort(np.asarray(values, dtype=np.float64), axis=0)
    m = srt.shape[0]
    mag = np.max(np.abs(srt[[0, -1]]), axis=0)
    srt /= np.where(mag > 0.0, mag, 1.0)  # dividing first keeps every difference finite
    pos = np.append(np.linspace(0.0, m - 1.0, SUMMARY_QUANTILES), (m - 1) / 2.0)  # last: median
    lo = pos.astype(np.intp)
    below, above = srt[lo], srt[np.minimum(lo + 1, m - 1)]
    quantiles = below + (pos - lo)[:, None] * (above - below)
    dev = quantiles[:-1] - quantiles[-1]
    spread = np.max(np.abs(dev), axis=0)
    return (dev / np.where(spread > 0.0, spread, 1.0)).T


def state_ae(fs: FeatureSet, k: int, d: int, epochs: int, seed: int) -> np.ndarray:
    """Column autoencoder (``column_summary`` -> k per column) then row
    autoencoder (N -> d per latent row), flattened to length k*d."""
    if k < 1 or d < 1:
        raise ValueError("latent dims must be >= 1")
    summary = column_summary(fs.values)  # N samples of dimension SUMMARY_QUANTILES
    enc1, _ = train_autoencoder(summary, k, epochs, derive_seed(seed, "ae-cols"), _AE_LR)
    z = forward(enc1, summary).T  # k x N
    enc2, _ = train_autoencoder(z, d, epochs, derive_seed(seed, "ae-rows"), _AE_LR)
    z2 = forward(enc2, z)  # k x d
    return _finite(z2.reshape(-1))


def correlation_adjacency(values: np.ndarray) -> np.ndarray:
    """|Pearson correlation| between columns; constant columns get similarity 0
    to every other node; the diagonal (self-loop) is always 1."""
    n = values.shape[1]
    if n == 1:
        return np.ones((1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(values, rowvar=False)
    adj = np.abs(np.nan_to_num(corr, nan=0.0, posinf=0.0, neginf=0.0))
    np.fill_diagonal(adj, 1.0)
    return np.clip(adj, 0.0, 1.0)


def _standardize_columns(values: np.ndarray) -> np.ndarray:
    mean = values.mean(axis=0, keepdims=True)
    std = values.std(axis=0, keepdims=True)
    std = np.where(std > 0.0, std, 1.0)
    return (values - mean) / std


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the branch on the sign keeps both halves exact
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def gae_layer_grad(adj: np.ndarray, prop: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the GCN weight ``w`` of the mean cross-entropy of
    sigmoid(Z Z^T), Z = ReLU(prop @ w), against the adjacency, given the
    propagated features ``prop = normalized_adjacency(adj) @ feats``."""
    pre = prop @ w
    z = np.maximum(pre, 0.0)
    n = adj.shape[0]
    g = (_sigmoid(z @ z.T) - adj) / (n * n)
    dz = (g + g.T) @ z
    return prop.T @ (dz * (pre > 0.0))


def state_gae(fs: FeatureSet, k: int, epochs: int, seed: int) -> np.ndarray:
    """One-layer graph convolution over the standardized columns and their
    correlation graph, trained to reconstruct the adjacency through an
    inner-product decoder; the state is the mean over node embeddings
    (length k).  Training stops at the first non-finite clipped gradient."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = correlation_adjacency(fs.values)
    prop = normalized_adjacency(adj) @ _standardize_columns(fs.values).T
    flat = init_gcn(fs.n_rows, k, np.random.default_rng(derive_seed(seed, "gae"))).ravel()
    w = flat.reshape(fs.n_rows, k)  # a view: clip_step updates w through flat
    for _ in range(epochs):
        if not clip_step(flat, gae_layer_grad(adj, prop, w).ravel(), (0, flat.size), _AE_LR):
            break
    z = np.maximum(prop @ w, 0.0)
    return _finite(z.mean(axis=0))


def state_op(op: str, op_set) -> np.ndarray:
    """One-hot encoding of an operation under the set's fixed order."""
    vec = np.zeros(op_set.size, dtype=np.float64)
    vec[op_set.index(op)] = 1.0
    return _read_only(vec)


class StateEncoder:
    """Applies an encoder combination with content-hash caching; a combined
    state concatenates its parts in ``kind.parts`` order.

    Deterministic for fixed arguments: encoder training seeds depend only on
    ``seed`` and the encoder part, so identical feature sets always encode
    identically within and across runs.
    """

    def __init__(self, kind: EncoderKind, k: int, d: int, epochs: int, seed: int,
                 m_original: int) -> None:
        self.kind, self.k, self.d, self.epochs, self.seed = kind, k, d, epochs, seed
        self.m_original = m_original
        sizes = {"si": SI_LENGTH, "ae": k * d, "gae": k}
        self.length = sum(sizes[part] for part in kind.parts)
        self._cache: dict[bytes, np.ndarray] = {}

    def encode(self, fs: FeatureSet) -> np.ndarray:
        key = fs.key
        if key not in self._cache:
            parts = []
            for part in self.kind.parts:
                if part == "si":
                    parts.append(state_si(fs, self.m_original))
                elif part == "ae":
                    parts.append(state_ae(fs, self.k, self.d, self.epochs,
                                          derive_seed(self.seed, "ae")))
                else:
                    parts.append(state_gae(fs, self.k, self.epochs,
                                           derive_seed(self.seed, "gae")))
            self._cache[key] = _read_only(np.concatenate(parts))
        return self._cache[key]
