"""Brute-force references for Soft-NMS and the per-video recall matrix.

They share no code with semiprop and favour the obvious loop over speed:
Soft-NMS re-sorts the whole pool before every pick, and the recall matrix
tests every (threshold, AN, instance) cell against every ranked proposal.
The arithmetic mirrors the package's formulas step for step, so outputs
must agree to the bit.
"""

from __future__ import annotations

import numpy as np


def iou(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def soft_nms(cands, sigma: float, score_floor: float, max_out: int):
    """Gaussian Soft-NMS over (start, end, score) triples."""
    pool = [[c[0], c[1], c[2]] for c in cands]
    kept = []
    while pool and len(kept) < max_out:
        pool.sort(key=lambda p: (-p[2], p[0], p[1]))
        best = pool.pop(0)
        if best[2] < score_floor:
            break
        kept.append(tuple(best))
        for p in pool:
            ov = iou(best, p)
            if ov > 0.0:
                p[2] *= float(np.exp(-(ov * ov) / sigma))
    return kept


def recall_matrix(props, gt, thresholds, an_values) -> np.ndarray:
    """Fraction of instances in `gt` matched at IoU >= each threshold by one
    of the top-AN proposals, for every (threshold, AN) cell."""
    out = np.zeros((len(thresholds), len(an_values)))
    for i, th in enumerate(thresholds):
        for j, an in enumerate(an_values):
            hits = 0
            for inst in gt:
                if any(iou((p[0], p[1]), inst) >= th for p in props[:an]):
                    hits += 1
            out[i, j] = float(hits) / len(gt)
    return out
