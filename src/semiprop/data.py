"""Data model, synthetic dataset generation, label maps, and feature file I/O.

Both binary formats (feature files here, checkpoints in `model`) share one
framing, written by `write_framed` and read by `read_framed`: an 8-byte
magic, a fixed prefix, a little-endian uint32 header length, a UTF-8 JSON
header, then a raw little-endian payload whose size the header declares.
Feature files use the prefix for a `<II` version block and hold T*C float32
values in time-major order. The dataset manifest is a JSON file listing
every video with its annotations (annotations are always written, the
``labeled`` flag decides whether training may look at them).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SEQFEAT1"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed feature file, checkpoint, manifest, proposal or metrics file."""


@contextlib.contextmanager
def replacing(path, binary: bool = False):
    """Open `<path>.tmp` for writing (UTF-8 text unless `binary`); when the
    block ends without an error the temporary file replaces `path`, and when
    it raises the temporary file is removed. So a write that fails or is
    killed part way leaves any earlier file at `path` intact."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_framed(path, magic: bytes, prefix: bytes, header: dict, payload) -> None:
    """Write magic, prefix, header length, JSON header, then each payload
    array, through `replacing`."""
    hbytes = json.dumps(header).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(magic + prefix + struct.pack("<I", len(hbytes)))
        fh.write(hbytes)
        for arr in payload:
            fh.write(arr.tobytes())


def read_framed(path, magic: bytes, prefix: bytes, kind: str, payload_layout):
    """Read a framed file back as (header, payload memoryview).

    `payload_layout(header)` gives the (count, dtype) of the payload the
    header declares. The header must fit, and the payload must hold exactly
    what the header declares, with no bytes after it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(magic) + len(prefix) + 4
    if len(blob) < start or blob[:start - 4] != magic + prefix:
        raise FormatError(f"{path}: bad magic or version block, not a {kind} file")
    end = start + struct.unpack_from("<I", blob, start - 4)[0]
    if len(blob) < end:
        raise FormatError(f"{path}: header runs {end - len(blob)} bytes past the end")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
        count, dtype = payload_layout(header)
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad header block: {exc}") from exc
    payload = memoryview(blob)[end:]
    if len(payload) != count * dtype.itemsize:
        raise FormatError(f"{path}: expected {count} {dtype.name} values, "
                          f"got {len(payload) / dtype.itemsize:g}")
    return header, payload


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that do not decode raise
    `FormatError` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


@dataclass
class AnnotationSet:
    """Ground-truth action instances in continuous snippet coordinates."""

    instances: list[tuple[float, float]] = field(default_factory=list)

    def validate(self, T: int) -> None:
        for ts, te in self.instances:
            if not (0.0 <= ts < te <= T):
                raise ValueError(f"annotation [{ts}, {te}] outside [0, {T}]")


# the fewest snippets a video may have, on write and on read
MIN_T = 4


@dataclass
class FeatureSequence:
    video_id: str
    values: np.ndarray  # (T, C) float32
    annotations: AnnotationSet | None = None

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def C(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("feature values must be a T x C matrix")
        if self.T < MIN_T or self.C < 1:
            raise ValueError(f"need T >= {MIN_T} and C >= 1, got T={self.T}, C={self.C}")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite feature value")
        if self.annotations is not None:
            self.annotations.validate(self.T)


@dataclass
class LabelMaps:
    g_start: np.ndarray  # (T,)
    g_end: np.ndarray  # (T,)
    g_iou: np.ndarray  # (D, T), zero outside `candidate_mask(T, D)`


@dataclass
class VideoEntry:
    video_id: str
    T: int
    C: int
    labeled: bool
    feature_file: str
    annotations: list[tuple[float, float]]


@dataclass
class DatasetManifest:
    videos: list[VideoEntry]
    seed: int
    generator_params: dict


def iou_1d(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal IoU of two (start, end) segments; 0 when disjoint."""
    if a[0] >= a[1] or b[0] >= b[1]:
        raise ValueError(f"degenerate segment: {a} vs {b}")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def segment_iou(a_start, a_end, b_start, b_end) -> np.ndarray:
    """`iou_1d` over broadcast arrays of non-degenerate segments, with the
    same operations in the same order, so each entry equals `iou_1d`'s."""
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    union = (a_end - a_start) + (b_end - b_start) - inter
    return np.where(inter > 0.0, inter / union, 0.0)


def candidate_mask(T: int, D: int) -> np.ndarray:
    """The (D, T) 0/1 map of the candidates (d, i), the segments [i, i+d+1]
    that end inside a T-snippet video: i + d + 1 <= T."""
    return (np.arange(D)[:, None] + np.arange(T)[None, :] + 1 <= T).astype(np.float64)


def build_label_maps(ann: AnnotationSet, T: int, D: int) -> LabelMaps:
    """BMN-style training targets for a T-snippet video with max duration D.

    Map entry (d, i) scores the candidate segment [i, i+d+1]. Boundary targets
    are soft IoR values of the width-1 snippet interval [t, t+1] against a
    region of width dur/5 centered on each ground-truth boundary.
    """
    if D > T:
        raise ValueError(f"D={D} must not exceed T={T}")
    g_start = np.zeros(T)
    g_end = np.zeros(T)
    g_iou = np.zeros((D, T))
    t = np.arange(T, dtype=np.float64)  # snippet and candidate start indices
    ends = t + np.arange(D)[:, None] + 1.0

    for ts, te in ann.instances:
        half = (te - ts) / 10.0
        # overlap of each snippet [t, t+1] with the regions around ts and te
        g_start = np.maximum(g_start, np.minimum(t + 1, ts + half) - np.maximum(t, ts - half))
        g_end = np.maximum(g_end, np.minimum(t + 1, te + half) - np.maximum(t, te - half))
        g_iou = np.maximum(g_iou, segment_iou(t, ends, ts, te))

    g_iou *= candidate_mask(T, D)
    return LabelMaps(g_start=g_start, g_end=g_end, g_iou=g_iou)


FEATURE_PREFIX = struct.pack("<II", FORMAT_VERSION, 0)


def write_features(seq: FeatureSequence, path: str | os.PathLike) -> None:
    seq.validate()
    meta = {"video_id": seq.video_id, "T": seq.T, "C": seq.C}
    write_framed(path, MAGIC, FEATURE_PREFIX, meta,
                 [np.ascontiguousarray(seq.values, dtype="<f4")])


def read_features(path: str | os.PathLike) -> FeatureSequence:
    """Read a file written by `write_features`. A sequence that
    `FeatureSequence.validate` refuses (fewer than `MIN_T` snippets, a
    non-finite value) raises `FormatError` naming the path."""
    meta, payload = read_framed(path, MAGIC, FEATURE_PREFIX, "feature",
                                lambda m: (int(m["T"]) * int(m["C"]), np.dtype("<f4")))
    if "video_id" not in meta:
        raise FormatError(f"{path}: bad header block: no video_id")
    T, C = int(meta["T"]), int(meta["C"])
    try:  # a negative T and C whose product is the payload size fail the reshape
        seq = FeatureSequence(video_id=str(meta["video_id"]),
                              values=np.frombuffer(payload, dtype="<f4").reshape(T, C).copy())
        seq.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return seq


def _plant_instances(rng: np.random.Generator, T: int) -> list[tuple[float, float]]:
    n = int(rng.integers(1, 4))
    placed: list[tuple[float, float]] = []
    for _ in range(n):
        dur = rng.uniform(0.05 * T, 0.4 * T)
        for _attempt in range(50):
            ts = rng.uniform(0.0, T - dur)
            te = ts + dur
            if all(te <= p0 or ts >= p1 for p0, p1 in placed):
                placed.append((ts, te))
                break
    placed.sort()
    return placed


def _synthesize_video(rng: np.random.Generator, T: int, C: int):
    values = rng.normal(0.0, 0.1, size=(T, C))
    instances = _plant_instances(rng, T)
    for ts, te in instances:
        sig = rng.normal(size=C)
        sig /= np.linalg.norm(sig)
        lo = max(0, int(math.floor(ts)))
        hi = min(T, int(math.ceil(te)))
        centers = np.arange(lo, hi) + 0.5
        # raised-cosine envelope over the instance span
        phase = np.clip((centers - ts) / (te - ts), 0.0, 1.0)
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * phase))
        values[lo:hi] += env[:, None] * sig[None, :]
        values[lo, 0] += 0.5
        values[hi - 1, 0] -= 0.5
    return values.astype(np.float32), instances


def gen_synthetic_dataset(
    out_dir: str | os.PathLike,
    n_videos: int,
    T: int,
    C: int,
    label_fraction: float,
    seed: int,
) -> DatasetManifest:
    """Generate a deterministic synthetic dataset with planted action segments.

    Each video gets 1-3 non-overlapping instances (duration uniform in
    [0.05T, 0.4T]) carved into zero-mean noise: a unit-norm channel signature
    under a raised-cosine envelope plus a +/-0.5 transient on channel 0 at the
    first and last covered snippet. Exactly round(label_fraction * n_videos)
    videos are flagged labeled; annotations are stored for every video.
    """
    if not (0.0 <= label_fraction <= 1.0):
        raise ValueError(f"label_fraction must be in [0,1], got {label_fraction}")
    if n_videos < 1 or T < 16 or C < 4:
        raise ValueError("need n_videos >= 1, T >= 16, C >= 4")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    os.makedirs(out_dir, exist_ok=True)
    n_labeled = round(label_fraction * n_videos)
    entries = []
    for idx in range(n_videos):
        rng = np.random.Generator(np.random.PCG64(seed ^ idx))
        values, instances = _synthesize_video(rng, T, C)
        vid = f"v{idx:05d}"
        fname = f"{vid}.feat"
        seq = FeatureSequence(video_id=vid, values=values, annotations=AnnotationSet(instances))
        write_features(seq, os.path.join(out_dir, fname))
        entries.append(VideoEntry(video_id=vid, T=T, C=C, labeled=idx < n_labeled,
                                  feature_file=fname, annotations=[list(p) for p in instances]))
    manifest = DatasetManifest(
        videos=entries, seed=seed,
        generator_params={"n_videos": n_videos, "T": T, "C": C,
                          "label_fraction": label_fraction,
                          "noise_std": 0.1, "signature_scale": 1.0},
    )
    write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def write_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    doc = {**vars(manifest), "videos": [vars(v) for v in manifest.videos]}
    with replacing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _video_entry(v) -> VideoEntry:
    """One manifest video, each field checked for its JSON type and range."""
    if not isinstance(v, dict):
        raise TypeError(f"video entry must be an object, got {v!r}")
    for key in ("video_id", "feature_file"):
        if not isinstance(v[key], str):
            raise TypeError(f"{key} must be a string, got {v[key]!r}")
    for key, least in (("T", MIN_T), ("C", 1)):
        if type(v[key]) is not int or v[key] < least:
            raise ValueError(f"{key} must be an integer >= {least}, got {v[key]!r}")
    if type(v["labeled"]) is not bool:
        raise TypeError(f"labeled must be true or false, got {v['labeled']!r}")
    annotations = []
    for a in v["annotations"]:
        if not (isinstance(a, list) and len(a) == 2
                and all(type(x) in (int, float) and math.isfinite(x) for x in a)):
            raise ValueError(f"annotation must be a [start, end] pair of finite "
                             f"numbers, got {a!r}")
        annotations.append(tuple(a))
    AnnotationSet(annotations).validate(v["T"])
    return VideoEntry(video_id=v["video_id"], T=v["T"], C=v["C"], labeled=v["labeled"],
                      feature_file=v["feature_file"], annotations=annotations)


def read_manifest(path: str | os.PathLike) -> DatasetManifest:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc["videos"], list):
            raise TypeError("videos must be a list")
        videos = [_video_entry(v) for v in doc["videos"]]
        seed = doc["seed"]
        if type(seed) is not int:
            raise TypeError(f"seed must be an integer, got {seed!r}")
        generator_params = doc.get("generator_params", {})
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad manifest: {exc}") from exc
    ids = [v.video_id for v in videos]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate video ids")
    return DatasetManifest(videos=videos, seed=seed, generator_params=generator_params)


def load_video(manifest_path: str | os.PathLike, entry: VideoEntry) -> FeatureSequence:
    base = os.path.dirname(os.fspath(manifest_path))
    path = os.path.join(base, entry.feature_file)
    seq = read_features(path)
    if (seq.T, seq.C) != (entry.T, entry.C):
        raise FormatError(f"{path}: holds T={seq.T}, C={seq.C}; "
                          f"the manifest says T={entry.T}, C={entry.C}")
    seq.annotations = AnnotationSet([tuple(a) for a in entry.annotations])
    return seq
