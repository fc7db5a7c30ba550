"""Proposal quality metrics: per-video tIoU recall matrices, AR@AN, AUC."""

from __future__ import annotations

import os

import numpy as np

from .data import AnnotationSet, replacing, segment_iou
from .postprocess import Proposals

THUMOS_THRESHOLDS = tuple(np.arange(0.5, 1.0 + 1e-9, 0.05).round(2))
ANET_THRESHOLDS = tuple(np.arange(0.5, 0.95 + 1e-9, 0.05).round(2))


def threshold_set(name: str) -> tuple[float, ...]:
    if name == "thumos":
        return THUMOS_THRESHOLDS
    if name == "anet":
        return ANET_THRESHOLDS
    raise ValueError(f"unknown threshold convention {name!r}")


def recall_matrix(props, gt: AnnotationSet, thresholds, an_values) -> np.ndarray:
    """Entry (i, j): fraction of gt instances matched at IoU >= thresholds[i]
    by some proposal among the top an_values[j]. `props` is a `Proposals` or
    a sequence of `Proposal` rows, sorted by descending score; gt must be
    non-empty."""
    props = Proposals.of(props)
    if np.any(props.score[:-1] < props.score[1:]):
        raise ValueError("proposals must be sorted by descending score")
    if not gt.instances:
        raise ValueError("recall is undefined for a video without ground truth")
    g_start, g_end = np.array(gt.instances, dtype=np.float64).T
    if np.any(g_start >= g_end):
        raise ValueError("degenerate ground-truth segment")
    ious = segment_iou(props.start[:, None], props.end[:, None], g_start, g_end)
    # row k: best IoU per gt among the top k proposals (row 0: none)
    best = np.zeros((len(props) + 1, len(g_start)))
    np.maximum.accumulate(ious, axis=0, out=best[1:])
    top = best[np.clip(np.asarray(an_values, dtype=np.intp), 0, len(props))]
    hits = (top[None, :, :] >= np.asarray(thresholds, dtype=np.float64)[:, None, None]).sum(axis=2)
    return hits / len(g_start)


def ar_at_an(recalls: list[np.ndarray], an_index: int) -> float:
    """Dataset AR at one AN column: mean over videos of the threshold-mean
    recall. `recalls` holds one recall matrix per eligible video."""
    if not recalls:
        raise ValueError("no eligible videos (all ground truth empty)")
    return float(np.mean([r[:, an_index].mean() for r in recalls]))


def auc(recalls: list[np.ndarray], an_values, curve=None) -> float:
    """100 x mean of AR@AN over AN in 1..100 (integer-grid rectangle rule).
    `an_values` labels the columns of the recall matrices and must cover
    1..100; `curve`, the AR at every column, is read when it is given."""
    an_values = list(an_values)
    idx = [an_values.index(an) for an in range(1, 101)]
    ar = [ar_at_an(recalls, j) if curve is None else curve[j] for j in idx]
    return 100.0 * float(np.mean(ar))


def evaluate_dataset(per_video: dict[str, tuple[Proposals, AnnotationSet]],
                     thresholds, an_max: int = 100) -> dict:
    """Aggregate metrics for a mapping video_id -> (ranked proposals, gt).
    Videos with empty gt are excluded from averaging."""
    if an_max < 1:
        raise ValueError(f"an_max must be at least 1, got {an_max}")
    an_values = list(range(1, an_max + 1))
    mats = [recall_matrix(props, gt, thresholds, an_values)
            for props, gt in per_video.values() if gt.instances]
    if not mats:
        return {"eligible_videos": 0}
    result = {
        "eligible_videos": len(mats),
        "thresholds": [float(t) for t in thresholds],
        "an_values": an_values,
        "ar_curve": [ar_at_an(mats, j) for j in range(len(an_values))],
    }
    curve = result["ar_curve"]  # `ar_at_an` of each AN column; AN = j + 1
    for an in (10, 50, 100):
        if an <= an_max:
            result[f"AR@{an}"] = curve[an - 1]
    if an_max >= 100:
        result["AUC"] = auc(mats, an_values, curve)
    # per-threshold recall at the largest AN
    last = len(an_values) - 1
    result["recall_at_max_an"] = {
        f"{t:.2f}": float(np.mean([m[i, last] for m in mats]))
        for i, t in enumerate(thresholds)
    }
    return result


def write_report(result: dict, path: str | os.PathLike) -> None:
    with replacing(path) as fh:
        fh.write("proposal quality report\n")
        fh.write(f"eligible videos: {result.get('eligible_videos', 0)}\n")
        for key in ("AR@10", "AR@50", "AR@100", "AUC"):
            if key in result:
                fh.write(f"{key}: {result[key]:.4f}\n")
        if "recall_at_max_an" in result:
            fh.write("recall by tIoU threshold (at max AN):\n")
            for th, r in result["recall_at_max_an"].items():
                fh.write(f"  {th}: {r:.4f}\n")


def write_ar_curve_csv(result: dict, path: str | os.PathLike) -> None:
    with replacing(path) as fh:
        fh.write("an,ar\n")
        for an, ar in zip(result["an_values"], result["ar_curve"]):
            fh.write(f"{an},{ar:.6f}\n")
