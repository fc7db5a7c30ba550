"""Proposal decoding from network predictions, score fusion, and Soft-NMS."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import FormatError, read_text_lines, replacing
from .perturb import Predictions


@dataclass
class Proposal:
    start: float
    end: float
    score: float


@dataclass(eq=False)
class Proposals:
    """Proposals as three equal-length float64 arrays. Every value is
    finite and every segment has start < end.

    Iterating yields `Proposal` rows; `len()` and integer indexing work, and
    a `Proposals` equals any sequence of the same rows.
    """

    start: np.ndarray
    end: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        self.start, self.end, self.score = (
            np.asarray(a, dtype=np.float64) for a in (self.start, self.end, self.score))
        if not (self.start.ndim == 1 and self.start.shape == self.end.shape == self.score.shape):
            raise ValueError("start, end and score must be 1-D arrays of one length")
        if not all(np.isfinite(a).all() for a in (self.start, self.end, self.score)):
            raise ValueError("proposal values must be finite")
        if np.any(self.start >= self.end):
            raise ValueError("degenerate proposal segment: start >= end")

    @classmethod
    def of(cls, props) -> Proposals:
        """`props` itself if it is a `Proposals`, else its rows collected."""
        if isinstance(props, cls):
            return props
        rows = list(props)
        return cls(*(np.array([getattr(p, f) for p in rows], dtype=np.float64)
                     for f in ("start", "end", "score")))

    def __len__(self) -> int:
        return self.score.shape[0]

    def __iter__(self):
        return map(Proposal, self.start.tolist(), self.end.tolist(), self.score.tolist())

    def __getitem__(self, i: int) -> Proposal:
        return Proposal(float(self.start[i]), float(self.end[i]), float(self.score[i]))

    def __eq__(self, other):
        if isinstance(other, (Proposals, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _boundary_set(p: np.ndarray) -> np.ndarray:
    """Indices that are strict local maxima or exceed half the global max."""
    padded = np.pad(p, 1, constant_values=-np.inf)
    keep = (p > 0.5 * p.max()) | ((p > padded[:-2]) & (p > padded[2:]))
    return np.flatnonzero(keep)


def decode_candidates(out: Predictions, max_duration: int | None = None) -> Proposals:
    """All (start, end) combinations of boundary candidates, scored by
    p_s(s) * p_e(e-1) * m_cc(d, s) * m_cr(d, s) with d = e - s - 1.

    A start index s opens the segment at coordinate s; an end index t closes
    it at coordinate t + 1, so the pair decodes to segment [s, t+1] matching
    the (d, i) -> [i, i+d+1] map convention. The pool is in (start, end)
    order, as `nonzero` yields the pairs, and is not ranked: ranking is
    `soft_nms`'s job. Scores are computed in the predictions' dtype, in that
    factor order, then widened to float64.
    """
    D = out.m_cc.shape[0] if max_duration is None else min(max_duration, out.m_cc.shape[0])
    starts = _boundary_set(out.p_s)
    end_snippets = _boundary_set(out.p_e)
    d = end_snippets[None, :] - starts[:, None]
    si, ti = np.nonzero((d >= 0) & (d < D))
    s, t, d = starts[si], end_snippets[ti], d[si, ti]
    score = (out.p_s[s] * out.p_e[t] * out.m_cc[d, s] * out.m_cr[d, s]).astype(np.float64)
    return Proposals(s.astype(np.float64), (t + 1).astype(np.float64), score)


def check_nms_params(sigma: float, score_floor: float) -> None:
    """Raise `ValueError` for a Soft-NMS `sigma` that is not finite and
    positive, or a `score_floor` that is NaN."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if math.isnan(score_floor):
        raise ValueError("score_floor must be a number, got nan")


def soft_nms(props, sigma: float = 0.4, score_floor: float = 0.001,
             max_out: int = 100) -> Proposals:
    """Gaussian Soft-NMS: keep the best proposal, decay the rest by
    exp(-iou^2 / sigma), repeat. Ties break on (start, end).

    `props` is a `Proposals` or a sequence of `Proposal` rows, in any order;
    it is not modified. A pool already in (start, end) order, as
    `decode_candidates` returns it, is not re-sorted. The IoU is `iou_1d`'s,
    operation for operation.
    """
    check_nms_params(sigma, score_floor)
    props = Proposals.of(props)
    # in (start, end) order, argmax's first maximum is the tie-break winner,
    # and the candidates that start before a pick's end are a prefix
    start, end, score = props.start, props.end, props.score.copy()
    s0, s1 = start[:-1], start[1:]
    if not ((s0 <= s1).all() and ((s0 < s1) | (end[:-1] <= end[1:])).all()):
        order = np.lexsort((end, start))  # stable: equal pairs keep their order
        start, end, score = start[order], end[order], score[order]
    length = end - start
    # a picked entry's end reads -inf, so it overlaps nothing and its -inf
    # score is multiplied by exactly 1 (never by an exp that underflowed to 0)
    reach = end.copy()
    ov, union = np.empty_like(score), np.empty_like(score)
    picks, kept = [], []
    n_out = min(max_out, len(score))
    for _ in range(n_out):
        best = int(score.argmax())
        top = score.item(best)
        if top < score_floor:
            break
        picks.append(best)
        kept.append(top)
        if len(picks) == n_out:
            break  # the last pick: no later argmax reads a decay
        score[best] = reach[best] = -np.inf
        a, b = start.item(best), end.item(best)
        k = int(start.searchsorted(b))
        o, u = ov[:k], union[:k]
        np.minimum(reach[:k], b, out=o)
        o -= np.maximum(start[:k], a, out=u)
        np.maximum(o, 0.0, out=o)  # no overlap: iou 0, factor exp(-0.0) == 1.0
        np.add(b - a, length[:k], out=u)
        u -= o
        o /= u
        o *= o
        np.divide(o, -sigma, out=o)
        score[:k] *= np.exp(o, out=o)
    picks = np.array(picks, dtype=np.intp)
    return Proposals(start[picks], end[picks], np.array(kept, dtype=np.float64))


def write_proposals(props, T: int, path: str | os.PathLike) -> None:
    """One line per proposal: start, end, score in snippet coordinates, then
    the segment normalized to [0, 1] by the video length. A score above the
    previous proposal's raises `ValueError`, as `read_proposals` would
    reject the file."""
    props = Proposals.of(props)
    if np.any(props.score[:-1] < props.score[1:]):
        raise ValueError("proposals must be sorted by descending score")
    rows = zip(props.start.tolist(), props.end.tolist(), props.score.tolist())
    with replacing(path) as fh:
        fh.write("# start end score start_norm end_norm\n" + "".join(
            f"{s:.6f} {e:.6f} {c:.8g} {s / T:.6f} {e / T:.6f}\n" for s, e, c in rows))


def read_proposals(path: str | os.PathLike) -> Proposals:
    """Read a file written by `write_proposals`. Bytes that are not UTF-8,
    a line with fewer than three fields, a field that is not a finite number,
    start >= end, or a score above the previous line's raises `FormatError`
    naming the path (and the line)."""
    rows = []
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise FormatError(f"{path}:{lineno}: expected start, end and score, "
                              f"got {len(parts)} fields")
        try:
            row = [float(x) for x in parts[:3]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{path}:{lineno}: non-finite value")
        if row[0] >= row[1]:
            raise FormatError(f"{path}:{lineno}: start {row[0]} >= end {row[1]}")
        if rows and row[2] > rows[-1][2]:
            raise FormatError(f"{path}:{lineno}: score {row[2]} is above the "
                              f"previous proposal's {rows[-1][2]}")
        rows.append(row)
    return Proposals(*np.array(rows, dtype=np.float64).reshape(-1, 3).T.copy())
