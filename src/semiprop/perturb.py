"""Sequential input perturbations (channel shift, temporal flip) and the
output alignment needed to compare predictions across a flip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import candidate_mask


@dataclass
class ShiftPlan:
    """Channels shifted forward/backward by one step, for reproducibility."""

    forward_channels: np.ndarray
    backward_channels: np.ndarray


@dataclass
class Predictions:
    """Plain-array model predictions used by alignment, losses, decoding."""

    p_s: np.ndarray  # (..., T)
    p_e: np.ndarray  # (..., T)
    m_cc: np.ndarray  # (..., D, T)
    m_cr: np.ndarray  # (..., D, T)
    valid_mask: np.ndarray  # (D, T)


def temporal_shift(f: np.ndarray, mu: float, rng: np.random.Generator):
    """Shift k = 2*floor(C*mu/2) random channels of each (T, C) sequence in
    (..., T, C) features by one time step, half forward (zero-fill row 0) and
    half backward (zero-fill row T-1). Each sequence draws its own channels,
    so the plan's fields have shape (..., k/2)."""
    *lead, _, C = f.shape
    k = 2 * int(C * mu / 2)
    if k == 0:
        raise ValueError(f"mu={mu} selects zero channels for C={C}")
    chans = rng.random((*lead, C)).argsort(-1)[..., :k]
    plan = ShiftPlan(forward_channels=chans[..., : k // 2], backward_channels=chans[..., k // 2:])
    return apply_shift_plan(f, plan), plan


def apply_shift_plan(f: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """Apply a plan whose leading axes match those of (..., T, C) features."""
    out = f.copy()
    for chans, step in ((plan.forward_channels, 1), (plan.backward_channels, -1)):
        idx = np.expand_dims(chans, -2)
        moved = np.roll(np.take_along_axis(f, idx, -1), step, axis=-2)
        moved[..., 0 if step > 0 else -1, :] = 0.0
        np.put_along_axis(out, idx, moved, -1)
    return out


def temporal_flip(f: np.ndarray) -> np.ndarray:
    """Reverse the time axis of (..., T, C) features; an involution."""
    return f[..., ::-1, :].copy()


def align_flip_outputs(out: Predictions) -> Predictions:
    """Map predictions on a flipped input back to the original time axis.

    A flipped start is an end, so the boundary sequences swap and reverse.
    The candidate [i, i+d+1] reflects to start index T-(d+1)-i on the same
    duration row; entries whose source index falls outside the map are 0.
    """
    T = out.p_s.shape[-1]
    D = out.m_cc.shape[-2]
    d, i = np.nonzero(candidate_mask(T, D))
    src = T - (d + 1) - i

    def flip_map(m: np.ndarray) -> np.ndarray:
        res = np.zeros_like(m)
        res[..., d, i] = m[..., d, src]
        return res

    return Predictions(
        p_s=out.p_e[..., ::-1].copy(),
        p_e=out.p_s[..., ::-1].copy(),
        m_cc=flip_map(out.m_cc),
        m_cr=flip_map(out.m_cr),
        valid_mask=flip_map(out.valid_mask),
    )
