"""Two-layer dense networks with handwritten gradients, plus the graph
convolution and autoencoder trainers built on top of them.

Networks are immutable values; ``sgd_step`` returns an updated copy and is the
only parameter mutator.  For softmax heads, ``backward`` expects the upstream
gradient with respect to the *logits* (every softmax loss used here has a
closed-form logit gradient, e.g. probs - onehot for negative log-likelihood).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

HEAD_SOFTMAX = "softmax"
HEAD_SCALAR = "scalar"
HEAD_IDENTITY = "identity"
_HEADS = (HEAD_SOFTMAX, HEAD_SCALAR, HEAD_IDENTITY)


class NumericError(RuntimeError):
    """Unrecoverable numeric failure (maps to CLI exit code 4)."""


def derive_seed(base: int, salt: str) -> int:
    """Stable 63-bit sub-seed for a named random stream."""
    digest = hashlib.blake2b(f"{base}:{salt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class DenseNet:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    head: str

    @property
    def in_size(self) -> int:
        return self.w1.shape[0]

    @property
    def out_size(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True)
class Grads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class OptimState:
    lr: float = 1e-3
    clip_norm: float = 5.0

    def __post_init__(self) -> None:
        if self.lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")


@dataclass(frozen=True)
class GcnLayer:
    w: np.ndarray


def _fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_dense(in_size: int, hidden: int, out_size: int, head: str,
               rng: np.random.Generator) -> DenseNet:
    if head not in _HEADS:
        raise ValueError(f"unknown head {head!r}")
    if head == HEAD_SCALAR and out_size != 1:
        raise ValueError("scalar head requires out_size == 1")
    return DenseNet(
        w1=_fan_uniform(rng, in_size, hidden),
        b1=np.zeros(hidden),
        w2=_fan_uniform(rng, hidden, out_size),
        b2=np.zeros(out_size),
        head=head,
    )


def init_gcn(in_size: int, k: int, rng: np.random.Generator) -> GcnLayer:
    return GcnLayer(w=_fan_uniform(rng, in_size, k))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _dense_pass(net: DenseNet, x2: np.ndarray):
    """(pre-activation, hidden activation, output) for a (batch, in_size) input."""
    z1 = x2 @ net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    return z1, a1, a1 @ net.w2 + net.b2


def _dense_grads(net: DenseNet, x2: np.ndarray, z1: np.ndarray, a1: np.ndarray,
                 up: np.ndarray) -> tuple[Grads, np.ndarray]:
    """Batch-summed parameter gradients and the pre-activation gradient."""
    dz1 = (up @ net.w2.T) * (z1 > 0.0)
    return Grads(x2.T @ dz1, dz1.sum(axis=0), a1.T @ up, up.sum(axis=0)), dz1


def logits(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Pre-head output of the second affine layer (vector or batch)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != net.in_size:
        raise ValueError(f"input size {x2.shape[1]} != expected {net.in_size}")
    z2 = _dense_pass(net, x2)[2]
    return z2[0] if single else z2


def forward(net: DenseNet, x: np.ndarray):
    """Evaluate the two-layer net: its head applied to ``logits``.

    Accepts a single input vector or a (batch, in_size) matrix.  Softmax heads
    return probabilities; scalar heads return a float (or a vector per batch
    row); identity heads return the second affine output unchanged.
    """
    z2 = logits(net, x)
    if net.head == HEAD_SOFTMAX:
        return softmax(z2)
    if net.head == HEAD_SCALAR:
        return float(z2[0]) if z2.ndim == 1 else z2[:, 0]
    return z2


def backward(net: DenseNet, x: np.ndarray, upstream) -> tuple[Grads, np.ndarray]:
    """Exact reverse-mode gradients of the two-layer composition.

    ``upstream`` is the loss gradient w.r.t. the second affine output (the
    logits, for softmax heads).  Batched inputs return parameter gradients
    summed over the batch and per-row input gradients.  The ReLU subgradient
    at 0 is 0.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    up = np.asarray(upstream, dtype=np.float64)
    if net.head == HEAD_SCALAR:
        up = up.reshape(-1, 1)
    else:
        up = np.atleast_2d(up)
    if x2.shape[0] != up.shape[0] or up.shape[1] != net.out_size:
        raise ValueError("upstream gradient shape does not match the forward output")
    z1, a1, _ = _dense_pass(net, x2)
    grads, dz1 = _dense_grads(net, x2, z1, a1, up)
    dx = dz1 @ net.w1.T
    return grads, (dx[0] if single else dx)


def grads_scale(grads: Grads, factor: float) -> Grads:
    return Grads(grads.w1 * factor, grads.b1 * factor, grads.w2 * factor, grads.b2 * factor)


def grads_add(a: Grads, b: Grads) -> Grads:
    return Grads(a.w1 + b.w1, a.b1 + b.b1, a.w2 + b.w2, a.b2 + b.b2)


def grads_zero(net: DenseNet) -> Grads:
    return Grads(np.zeros_like(net.w1), np.zeros_like(net.b1),
                 np.zeros_like(net.w2), np.zeros_like(net.b2))


def clip_by_norm(arrays: tuple[np.ndarray, ...], clip: float) -> tuple[tuple, float]:
    """Scale the arrays by one factor so that their joint L2 norm is at most
    clip; also returns the norm before clipping."""
    total = 0.0
    for arr in arrays:
        total += float(np.sum(arr * arr))
    norm = math.sqrt(total)
    if norm > clip and norm > 0.0:
        return tuple(arr * (clip / norm) for arr in arrays), norm
    return arrays, norm


def sgd_step(net: DenseNet, grads: Grads, opt: OptimState) -> DenseNet:
    """theta <- theta - lr * clip(g); skips the update on non-finite gradients."""
    (w1, b1, w2, b2), norm = clip_by_norm((grads.w1, grads.b1, grads.w2, grads.b2),
                                          opt.clip_norm)
    # a finite norm bounds every entry, so only a non-finite one (NaN, or an
    # overflow that may have clipped finite entries to zero) needs the scan
    if not math.isfinite(norm) and not all(np.all(np.isfinite(a)) for a in (w1, b1, w2, b2)):
        logger.warning("non-finite gradient after clipping; parameters left unchanged")
        return net
    return DenseNet(w1=net.w1 - opt.lr * w1, b1=net.b1 - opt.lr * b1,
                    w2=net.w2 - opt.lr * w2, b2=net.b2 - opt.lr * b2, head=net.head)


# ---------------------------------------------------------------------------
# Graph convolution
# ---------------------------------------------------------------------------

def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """D^-1/2 A D^-1/2 (all degrees must be positive)."""
    deg = adj.sum(axis=1)
    if np.any(deg <= 0.0):
        raise ValueError("every node needs positive degree (add self-loops)")
    dinv = 1.0 / np.sqrt(deg)
    return adj * dinv[:, None] * dinv[None, :]


def gcn_forward(adj: np.ndarray, feats: np.ndarray, layer: GcnLayer) -> np.ndarray:
    """ReLU(D^-1/2 A D^-1/2 X W) for a symmetric nonnegative adjacency with
    self-loops (all degrees must be positive)."""
    adj = np.asarray(adj, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if np.any(adj < 0.0) or not np.allclose(adj, adj.T):
        raise ValueError("adjacency must be symmetric and nonnegative")
    if feats.shape[0] != adj.shape[0]:
        raise ValueError("feature rows must match the node count")
    return np.maximum(normalized_adjacency(adj) @ feats @ layer.w, 0.0)


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

def reconstruction_loss(encoder: DenseNet, decoder: DenseNet, data: np.ndarray) -> float:
    recon = forward(decoder, forward(encoder, data))
    return float(np.mean((recon - data) ** 2))


def train_autoencoder(
    data: np.ndarray,
    latent: int,
    epochs: int,
    seed: int,
    hidden: int = 32,
    lr: float = 1e-3,
) -> tuple[DenseNet, DenseNet, float]:
    """Full-batch gradient descent on mean-squared reconstruction of the rows.

    Returns (encoder, decoder, final loss); with epochs=0 the loss is the
    initial reconstruction error of the untouched random nets.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if latent < 1 or epochs < 0:
        raise ValueError("latent must be >= 1 and epochs >= 0")
    b, dim = data.shape
    rng = np.random.default_rng(seed)
    encoder = init_dense(dim, hidden, latent, HEAD_IDENTITY, rng)
    decoder = init_dense(latent, hidden, dim, HEAD_IDENTITY, rng)
    opt = OptimState(lr=lr)
    for _ in range(epochs):
        # one forward pass, reused backward; the encoder's input gradient is unused
        enc_z1, enc_a1, z = _dense_pass(encoder, data)
        dec_z1, dec_a1, recon = _dense_pass(decoder, z)
        upstream = 2.0 * (recon - data) / (b * dim)
        dec_grads, dec_dz1 = _dense_grads(decoder, z, dec_z1, dec_a1, upstream)
        enc_grads, _ = _dense_grads(encoder, data, enc_z1, enc_a1, dec_dz1 @ decoder.w1.T)
        decoder = sgd_step(decoder, dec_grads, opt)
        encoder = sgd_step(encoder, enc_grads, opt)
    return encoder, decoder, reconstruction_loss(encoder, decoder, data)
