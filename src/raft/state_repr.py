"""Fixed-length state encodings of variable-size feature spaces.

Three encoders: two-stage descriptive statistics (length 49), a two-stage
column/row autoencoder over fixed-length column summaries (length k*d), and a
graph autoencoder over the column correlation graph (length k).  Combinations
concatenate the parts.  Output length never depends on the matrix shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import FeatureSet
from .neural_core import (GcnLayer, clip_by_norm, derive_seed, forward, gcn_forward, init_gcn,
                          normalized_adjacency, train_autoencoder)

SI_LENGTH = 49
SUMMARY_QUANTILES = 64  # per-column input length of the column autoencoder
_STATE_CLAMP = 1e30
_GAE_CLIP_NORM = 5.0
_AE_LR = 1e-2


@dataclass(frozen=True)
class StateVector:
    values: np.ndarray
    encoder_tag: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("state vectors are 1-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("state vectors must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


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


def _finite(vec: np.ndarray) -> np.ndarray:
    # degenerate magnitudes (e.g. untrained nets on huge inputs) are clamped so
    # the StateVector finiteness invariant always holds
    return np.clip(np.nan_to_num(vec, nan=0.0, posinf=_STATE_CLAMP, neginf=-_STATE_CLAMP),
                   -_STATE_CLAMP, _STATE_CLAMP)


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
    divided by ``count_scale`` (pass 1.0 for raw counts); quartiles use linear
    interpolation and std is the population std.
    """
    count = np.full(mat.shape[1 - axis], mat.shape[axis] / count_scale, dtype=np.float64)
    std = _population_std(mat, axis)
    mn = mat.min(axis=axis)
    mx = mat.max(axis=axis)
    q1, q2, q3 = np.quantile(mat, [0.25, 0.5, 0.75], axis=axis, method="linear")
    return np.stack([count, std, mn, mx, q1, q2, q3])


def state_si(fs: FeatureSet, m_original: int | None = None, raw_count: bool = False) -> StateVector:
    """Two-stage descriptive statistics, flattened to length 49.

    Stage 1 summarizes each column; stage 2 summarizes each of the seven
    stage-1 rows.  Counts are normalized by the original sample count so the
    vector stays O(1) as the feature space grows (``raw_count`` restores raw
    counts)."""
    scale = 1.0 if raw_count else float(m_original if m_original is not None else fs.n_rows)
    col_stats = _seven_stats(fs.values, axis=0, count_scale=scale)
    meta = _seven_stats(col_stats, axis=1, count_scale=scale).T
    return StateVector(_finite(meta.reshape(-1)), "si")


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


def state_ae(fs: FeatureSet, k: int, d: int, epochs: int, seed: int) -> StateVector:
    """Column autoencoder (``column_summary`` -> k per column) then row
    autoencoder (N -> d per latent row), flattened to length k*d."""
    if k < 1 or d < 1:
        raise ValueError("latent dims must be >= 1")
    summary = column_summary(fs.values)  # N samples of dimension SUMMARY_QUANTILES
    enc1, _, _ = train_autoencoder(summary, k, epochs, derive_seed(seed, "ae-cols"), lr=_AE_LR)
    z = np.atleast_2d(forward(enc1, summary)).T  # k x N
    enc2, _, _ = train_autoencoder(z, d, epochs, derive_seed(seed, "ae-rows"), lr=_AE_LR)
    z2 = np.atleast_2d(forward(enc2, z))  # k x d
    return StateVector(_finite(z2.reshape(-1)), "ae")


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gae_reconstruction_loss(adj: np.ndarray, z: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(Z Z^T) against the adjacency."""
    s = z @ z.T
    # max(s,0) - s*a + log(1+exp(-|s|)) is the overflow-safe BCE-with-logits
    loss = np.maximum(s, 0.0) - s * adj + np.log1p(np.exp(-np.abs(s)))
    return float(loss.mean())


def gae_layer_grad(adj: np.ndarray, prop: np.ndarray, layer: GcnLayer) -> np.ndarray:
    """Gradient of the reconstruction BCE w.r.t. the GCN weight matrix, given
    the propagated features ``normalized_adjacency(adj) @ feats``."""
    pre = prop @ layer.w
    z = np.maximum(pre, 0.0)
    n = adj.shape[0]
    g = (_sigmoid(z @ z.T) - adj) / (n * n)
    dz = (g + g.T) @ z
    return prop.T @ (dz * (pre > 0.0))


def state_gae(
    fs: FeatureSet,
    k: int,
    epochs: int,
    seed: int,
    lr: float = 1e-2,
) -> StateVector:
    """One-layer graph convolution over the standardized columns and their
    correlation graph, trained to reconstruct the adjacency through an
    inner-product decoder; the state is the mean over node embeddings
    (length k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = correlation_adjacency(fs.values)
    feats = _standardize_columns(fs.values).T
    rng = np.random.default_rng(derive_seed(seed, "gae"))
    layer = init_gcn(fs.n_rows, k, rng)
    prop = normalized_adjacency(adj) @ feats  # fixed across epochs
    for _ in range(epochs):
        (grad,), _ = clip_by_norm((gae_layer_grad(adj, prop, layer),), _GAE_CLIP_NORM)
        if not np.all(np.isfinite(grad)):
            break
        layer = GcnLayer(layer.w - lr * grad)
    z = gcn_forward(adj, feats, layer)
    return StateVector(_finite(z.mean(axis=0)), "gae")


def state_op(op: str, op_set) -> StateVector:
    """One-hot encoding of an operation under the set's fixed order."""
    vec = np.zeros(op_set.size, dtype=np.float64)
    vec[op_set.index(op)] = 1.0
    return StateVector(vec, "op")


def concat_states(parts: list[StateVector]) -> StateVector:
    if not parts:
        raise ValueError("need at least one state vector")
    if len(parts) == 1:
        return parts[0]
    return StateVector(
        np.concatenate([p.values for p in parts]),
        "+".join(p.encoder_tag for p in parts),
    )


@dataclass(frozen=True)
class EncoderConfig:
    kind: EncoderKind = EncoderKind.SI
    k: int = 8
    d: int = 8
    epochs: int = 20
    seed: int = 0
    raw_count: bool = False


def encoder_length(cfg: EncoderConfig) -> int:
    total = 0
    for part in cfg.kind.parts:
        if part == "si":
            total += SI_LENGTH
        elif part == "ae":
            total += cfg.k * cfg.d
        else:
            total += cfg.k
    return total


class StateEncoder:
    """Applies the configured encoder combination with content-hash caching.

    Deterministic for a fixed config: encoder training seeds depend only on
    the config seed and the encoder part, so identical feature sets always
    encode identically within and across runs.
    """

    def __init__(self, cfg: EncoderConfig, m_original: int) -> None:
        self.cfg = cfg
        self.m_original = m_original
        self._cache: dict[bytes, np.ndarray] = {}

    @property
    def length(self) -> int:
        return encoder_length(self.cfg)

    def encode(self, fs: FeatureSet) -> StateVector:
        key = fs.key
        if key not in self._cache:
            parts = []
            for part in self.cfg.kind.parts:
                if part == "si":
                    parts.append(state_si(fs, self.m_original, self.cfg.raw_count))
                elif part == "ae":
                    parts.append(state_ae(fs, self.cfg.k, self.cfg.d, self.cfg.epochs,
                                          derive_seed(self.cfg.seed, "ae")))
                else:
                    parts.append(state_gae(fs, self.cfg.k, self.cfg.epochs,
                                           derive_seed(self.cfg.seed, "gae")))
            self._cache[key] = concat_states(parts).values
        return StateVector(self._cache[key], self.cfg.kind.value)
