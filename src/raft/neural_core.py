"""Two-layer dense networks with handwritten gradients, the graph
convolution's weight and adjacency, and the autoencoder trainer.

Networks are immutable values; ``sgd_step`` returns an updated copy.  Every
gradient step goes through ``clip_step`` on flat buffers.  For softmax heads,
``backward`` expects the upstream gradient with respect to the *logits* (every
softmax loss used here has a closed-form logit gradient, e.g. probs - onehot
for negative log-likelihood).
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)
_SKIPPED = "non-finite gradient after clipping; parameters left unchanged"

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
    return DenseNet(_fan_uniform(rng, in_size, hidden), np.zeros(hidden),
                    _fan_uniform(rng, hidden, out_size), np.zeros(out_size), head)


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
                 up: np.ndarray, out: Grads) -> np.ndarray:
    """Writes the batch-summed parameter gradients into ``out``; returns the
    pre-activation gradient."""
    dz1 = (up @ net.w2.T) * (z1 > 0.0)
    np.matmul(x2.T, dz1, out=out.w1)
    np.add.reduce(dz1, axis=0, out=out.b1)  # np.sum without its Python wrapper
    np.matmul(a1.T, up, out=out.w2)
    np.add.reduce(up, axis=0, out=out.b2)
    return dz1


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
    grads = Grads(*(np.empty_like(p) for p in (net.w1, net.b1, net.w2, net.b2)))
    dz1 = _dense_grads(net, x2, z1, a1, up, grads)
    dx = dz1 @ net.w1.T
    return grads, (dx[0] if single else dx)


def grads_scale(grads: Grads, factor: float) -> Grads:
    return Grads(grads.w1 * factor, grads.b1 * factor, grads.w2 * factor, grads.b2 * factor)


def grads_add(a: Grads, b: Grads) -> Grads:
    return Grads(a.w1 + b.w1, a.b1 + b.b1, a.w2 + b.w2, a.b2 + b.b2)


def grads_zero(net: DenseNet) -> Grads:
    return Grads(*(np.zeros_like(p) for p in (net.w1, net.b1, net.w2, net.b2)))


def _flat(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], tuple[int, ...]]:
    """One flat copy of the arrays, views into it shaped like them, and the offsets."""
    bounds = tuple(accumulate((a.size for a in arrays), initial=0))
    flat = np.concatenate([a.ravel() for a in arrays])
    views = [flat[lo:hi].reshape(a.shape) for lo, hi, a in zip(bounds, bounds[1:], arrays)]
    return flat, views, bounds


def clip_step(params: np.ndarray, grads: np.ndarray, bounds: Sequence[int], lr: float,
              clip: float) -> bool:
    """params -= lr * clip(grads) in place on flat buffers (``grads`` is
    overwritten), the squared norm adding each ``bounds`` slice's sum left to
    right.  Returns False, with ``params`` unchanged, on a non-finite step."""
    sq = grads * grads
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        total += float(np.add.reduce(sq[lo:hi]))
    norm = math.sqrt(total)
    if norm > clip and norm > 0.0:
        grads *= clip / norm
    # a finite norm bounds every entry, so only a non-finite one (NaN, or an
    # overflow that may have clipped finite entries to zero) needs the scan
    if not math.isfinite(norm) and not np.all(np.isfinite(grads)):
        return False
    grads *= lr
    params -= grads
    return True


def sgd_step(net: DenseNet, grads: Grads, opt: OptimState) -> DenseNet:
    """theta <- theta - lr * clip(g); skips the update on non-finite gradients."""
    params, views, bounds = _flat((net.w1, net.b1, net.w2, net.b2))
    flat = _flat((grads.w1, grads.b1, grads.w2, grads.b2))[0]
    if not clip_step(params, flat, bounds, opt.lr, opt.clip_norm):
        logger.warning(_SKIPPED)
        return net
    return DenseNet(*views, head=net.head)


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


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

def train_autoencoder(
    data: np.ndarray,
    latent: int,
    epochs: int,
    seed: int,
    hidden: int = 32,
    lr: float = 1e-3,
) -> tuple[DenseNet, DenseNet]:
    """Full-batch gradient descent on mean-squared reconstruction of the rows;
    returns (encoder, decoder), the untouched random nets when epochs=0.  An
    epoch makes one forward pass, writes the gradients in place and takes one
    ``clip_step`` per net, on flat buffers that the nets' arrays view."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if latent < 1 or epochs < 0:
        raise ValueError("latent must be >= 1 and epochs >= 0")
    b, dim = data.shape
    rng = np.random.default_rng(seed)
    nets, grads, steps = [], [], []
    for size_in, size_out in ((dim, latent), (latent, dim)):
        net = init_dense(size_in, hidden, size_out, HEAD_IDENTITY, rng)
        params, views, bounds = _flat((net.w1, net.b1, net.w2, net.b2))
        flat, grad_views, _ = _flat(views)  # the gradient buffer, laid out as the parameters
        nets.append(DenseNet(*views, head=HEAD_IDENTITY))
        grads.append(Grads(*grad_views))
        steps.append((params, flat, bounds))
    (encoder, decoder), (enc_grads, dec_grads) = nets, grads
    opt = OptimState(lr=lr)
    for _ in range(epochs):
        enc_z1, enc_a1, z = _dense_pass(encoder, data)
        dec_z1, dec_a1, recon = _dense_pass(decoder, z)
        upstream = 2.0 * (recon - data) / (b * dim)
        dec_dz1 = _dense_grads(decoder, z, dec_z1, dec_a1, upstream, dec_grads)
        _dense_grads(encoder, data, enc_z1, enc_a1, dec_dz1 @ decoder.w1.T, enc_grads)
        for params, flat, bounds in steps:
            if not clip_step(params, flat, bounds, opt.lr, opt.clip_norm):
                logger.warning(_SKIPPED)
    return encoder, decoder
