"""Two-layer dense networks with handwritten gradients, the graph
convolution's weight and adjacency, and the autoencoder trainer.

A ``DenseNet`` has no output head.  ``dense_pass`` runs it on a (batch,
in_size) input, and ``dense_grads`` differentiates that pass given the loss
gradient with respect to its output (for the actors' softmax losses, the
closed-form logit gradient, e.g. probs - onehot for negative log-likelihood).
A net keeps its parameters in one flat buffer, ``params``, laid out as w1,
b1, w2, b2; its four weight attributes are views into it.  A gradient is a
flat array in the same layout.  A net's shape is fixed, but its ``params``
train in place: every gradient step, of the agents, the AE and the GAE alike,
is one ``clip_step`` under the one ``CLIP_NORM``.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

CLIP_NORM = 5.0  # every gradient step's joint L2 norm is clipped to this
AE_HIDDEN = 32  # the hidden width of an autoencoder's encoder and decoder


def derive_seed(base: int, salt: str) -> int:
    """Stable 63-bit sub-seed for a named random stream."""
    digest = hashlib.blake2b(f"{base}:{salt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True, eq=False)
class DenseNet:
    """ReLU(x @ w1 + b1) @ w2 + b2; ``w1``, ``b1``, ``w2`` and ``b2`` view the
    flat ``params`` (``init_dense`` sizes it to the layers), which ``bounds``
    splits."""

    params: np.ndarray
    in_size: int
    hidden: int
    out_size: int
    w1: np.ndarray = field(init=False, repr=False)
    b1: np.ndarray = field(init=False, repr=False)
    w2: np.ndarray = field(init=False, repr=False)
    b2: np.ndarray = field(init=False, repr=False)
    bounds: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h = self.hidden
        sizes = (self.in_size * h, h, h * self.out_size, self.out_size)
        object.__setattr__(self, "bounds", tuple(accumulate(sizes, initial=0)))
        for name, view in zip(("w1", "b1", "w2", "b2"), self.split(self.params)):
            object.__setattr__(self, name, view)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a flat buffer in this layout, shaped like w1, b1, w2, b2."""
        _, i, j, k, _ = self.bounds
        return (flat[:i].reshape(self.in_size, self.hidden), flat[i:j],
                flat[j:k].reshape(self.hidden, self.out_size), flat[k:])


def fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) weight drawn uniformly from ±sqrt(6 / (fan_in + fan_out))."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_dense(in_size: int, hidden_size: int, out_size: int,
               rng: np.random.Generator) -> DenseNet:
    w1 = fan_uniform(rng, in_size, hidden_size)
    w2 = fan_uniform(rng, hidden_size, out_size)
    params = np.concatenate([w1.ravel(), np.zeros(hidden_size), w2.ravel(), np.zeros(out_size)])
    return DenseNet(params, in_size, hidden_size, out_size)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def dense_pass(net: DenseNet, x2: np.ndarray):
    """(pre-activation, hidden activation, output) for a (batch, in_size) input."""
    z1 = x2 @ net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    return z1, a1, a1 @ net.w2 + net.b2


def dense_grads(net: DenseNet, x2: np.ndarray, z1: np.ndarray, a1: np.ndarray,
                up: np.ndarray, out: Sequence[np.ndarray]) -> np.ndarray:
    """Writes the batch-summed parameter gradients of ``dense_pass(net, x2)``,
    given the (batch, out_size) output gradient ``up``, into ``out``: views
    shaped like w1, b1, w2, b2 (``net.split`` of a gradient buffer).  Returns
    the pre-activation gradient.  The ReLU subgradient at 0 is 0."""
    w1, b1, w2, b2 = out
    dz1 = (up @ net.w2.T) * (z1 > 0.0)
    np.matmul(x2.T, dz1, out=w1)
    np.add.reduce(dz1, axis=0, out=b1)  # np.sum without its Python wrapper
    np.matmul(a1.T, up, out=w2)
    np.add.reduce(up, axis=0, out=b2)
    return dz1


def clip_step(params: np.ndarray, grads: np.ndarray, bounds: Sequence[int], lr: float) -> bool:
    """params -= lr * clip(grads) in place on flat buffers (``grads`` is
    overwritten), clipped to a joint norm of ``CLIP_NORM``, the squared norm
    adding each ``bounds`` slice's sum left to right.  Returns False, with
    ``params`` unchanged and a warning, on a non-finite step."""
    sq = grads * grads
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        total += float(np.add.reduce(sq[lo:hi]))
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        grads *= CLIP_NORM / norm
    # a finite norm bounds every entry, so only a non-finite one (NaN, or an
    # overflow that may have clipped finite entries to zero) needs the scan
    if not math.isfinite(norm) and not np.all(np.isfinite(grads)):
        logger.warning("non-finite gradient after clipping; parameters left unchanged")
        return False
    grads *= lr
    params -= grads
    return True


# ---------------------------------------------------------------------------
# Graph convolution
# ---------------------------------------------------------------------------

def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """D^-1/2 A D^-1/2 of an adjacency with self-loops, so every degree is
    positive."""
    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    return adj * dinv[:, None] * dinv[None, :]


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

def train_autoencoder(data: np.ndarray, latent: int, epochs: int, seed: int,
                      lr: float) -> tuple[DenseNet, DenseNet]:
    """Full-batch gradient descent on mean-squared reconstruction of the rows;
    returns (encoder, decoder), the untouched random nets when epochs=0.  An
    epoch makes one forward pass, writes the gradients in place into one flat
    buffer per net and takes one ``clip_step`` per net on its ``params``.
    ``data`` is a (rows, dim) float64 matrix."""
    b, dim = data.shape
    rng = np.random.default_rng(seed)
    encoder = init_dense(dim, AE_HIDDEN, latent, rng)
    decoder = init_dense(latent, AE_HIDDEN, dim, rng)
    enc_flat, dec_flat = np.empty_like(encoder.params), np.empty_like(decoder.params)
    # built once per call: rebuilding the views every epoch is a measurable
    # share of an AE miss, which is many small-array steps
    enc_grads, dec_grads = encoder.split(enc_flat), decoder.split(dec_flat)
    for _ in range(epochs):
        enc_z1, enc_a1, z = dense_pass(encoder, data)
        dec_z1, dec_a1, recon = dense_pass(decoder, z)
        upstream = 2.0 * (recon - data) / (b * dim)
        dec_dz1 = dense_grads(decoder, z, dec_z1, dec_a1, upstream, dec_grads)
        dense_grads(encoder, data, enc_z1, enc_a1, dec_dz1 @ decoder.w1.T, enc_grads)
        for net, flat in ((encoder, enc_flat), (decoder, dec_flat)):
            clip_step(net.params, flat, net.bounds, lr)
    return encoder, decoder
