"""Self-supervised auxiliary tasks: masked feature reconstruction and
clip-order prediction, with their losses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class OrderSample:
    shuffled: np.ndarray  # (T', C), T' = T truncated to a multiple of K
    label: int  # lexicographic index of the applied permutation in S_K
    K: int


def mask_features(f1: np.ndarray, omega: float, rng: np.random.Generator):
    """Zero out round(omega*T) random rows; returns (masked copy, 0/1 mask)."""
    if not (0.0 <= omega < 1.0):
        raise ValueError(f"omega must be in [0,1), got {omega}")
    T = f1.shape[0]
    n_mask = round(omega * T)
    mask = np.zeros(T, dtype=np.int8)
    if n_mask:
        idx = rng.choice(T, size=n_mask, replace=False)
        mask[idx] = 1
    f2 = f1.copy()
    f2[mask.astype(bool)] = 0.0
    return f2, mask


def recon_loss(pred, f1, mask: np.ndarray | None = None) -> ad.Tensor:
    """Mean squared error between (..., T, C) reconstructions and features.

    With a row mask (masked_only support), only masked rows enter the mean.
    """
    pred = ad.as_tensor(pred)
    f1 = np.asarray(f1)
    if pred.shape != f1.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {f1.shape}")
    return ad.mse(pred, f1, None if mask is None else mask[..., None])


def permutations_of(K: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(K)))


def make_order_sample(f1: np.ndarray, K: int, rng: np.random.Generator) -> OrderSample:
    """Split into K equal contiguous clips (trailing remainder rows dropped),
    shuffle them with a uniform permutation, label = its lexicographic index."""
    T = f1.shape[0]
    if K < 2 or K > T:
        raise ValueError(f"need 2 <= K <= T, got K={K}, T={T}")
    clip_len = T // K
    perms = permutations_of(K)
    label = int(rng.integers(len(perms)))
    perm = perms[label]
    clips = [f1[j * clip_len:(j + 1) * clip_len] for j in perm]
    return OrderSample(shuffled=np.concatenate(clips, axis=0), label=label, K=K)


def order_loss(logits, labels) -> ad.Tensor:
    """Mean cross entropy of permutation-class logits against true orders."""
    logits, labels = ad.as_tensor(logits), np.asarray(labels)
    n = logits.shape[-1]
    if not ((0 <= labels) & (labels < n)).all():
        raise ValueError(f"label {labels} out of range for {n} classes")
    return ad.cross_entropy_logits(logits, labels)
