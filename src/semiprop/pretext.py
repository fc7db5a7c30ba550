"""Self-supervised auxiliary tasks: masked feature reconstruction and
clip-order prediction, with their losses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class OrderSample:
    shuffled: np.ndarray  # (..., T', C), T' = T truncated to a multiple of K
    label: np.ndarray  # (...) lexicographic index of each applied permutation in S_K


def mask_features(f1: np.ndarray, omega: float, rng: np.random.Generator):
    """Zero out round(omega*T) random rows of each (T, C) sequence in
    (..., T, C) features; returns (masked copy, boolean (..., T) row mask)."""
    if not (0.0 <= omega < 1.0):
        raise ValueError(f"omega must be in [0,1), got {omega}")
    *lead, T, _ = f1.shape
    mask = rng.random((*lead, T)).argsort(-1).argsort(-1) < round(omega * T)
    return np.where(mask[..., None], 0.0, f1), mask


def recon_loss(pred, f1) -> ad.Tensor:
    """Mean squared error between (..., T, C) reconstructions and features,
    over every row."""
    pred = ad.as_tensor(pred)
    f1 = np.asarray(f1)
    if pred.shape != f1.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {f1.shape}")
    return ad.mse(pred, f1)


def make_order_sample(f1: np.ndarray, K: int, rng: np.random.Generator) -> OrderSample:
    """Split each (T, C) sequence of (..., T, C) features into K equal
    contiguous clips (trailing remainder rows dropped), shuffle them with a
    uniform permutation, label = its lexicographic index."""
    *lead, T, _ = f1.shape
    if K < 2 or K > T:
        raise ValueError(f"need 2 <= K <= T, got K={K}, T={T}")
    clip_len = T // K
    perms = np.array(list(itertools.permutations(range(K))))
    label = rng.integers(len(perms), size=tuple(lead))
    rows = (perms[label][..., None] * clip_len + np.arange(clip_len)).reshape(*lead, -1)
    return OrderSample(shuffled=np.take_along_axis(f1, rows[..., None], -2), label=label)


def order_loss(logits, labels) -> ad.Tensor:
    """Mean cross entropy of permutation-class logits against true orders."""
    logits, labels = ad.as_tensor(logits), np.asarray(labels)
    n = logits.shape[-1]
    if not ((0 <= labels) & (labels < n)).all():
        raise ValueError(f"label {labels} out of range for {n} classes")
    return ad.cross_entropy_logits(logits, labels)
