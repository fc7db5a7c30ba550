"""Mean-teacher training: EMA updates, supervised and consistency losses,
pretext losses, loss composition, batching, and the Adam optimizer.

Per step, the student sees the clean input (supervised loss on labeled
videos), a channel-shifted input and a flipped input (consistency against the
teacher's clean-pass predictions, the flip branch aligned back), a masked
input (reconstruction) and a clip-shuffled input (order prediction), each as
one pass over the stacked videos. The teacher runs in evaluation mode and
receives no gradients; after each optimizer step its weights follow the
student by exponential moving average.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import pretext
from .data import (AnnotationSet, DatasetManifest, FormatError, LabelMaps, build_label_maps,
                   load_video, read_text_lines, replacing)
from .model import (CHECKPOINT_STORES, HyperShape, ModelOutputs, ParamStore,
                    ProposalNetwork, leaf_grads, load_stores, prefixed,
                    save_checkpoint, wrap_params)
from .perturb import (Predictions, align_flip_outputs, shift_count, temporal_flip,
                      temporal_shift)

log = logging.getLogger(__name__)

LOG_EPS = 1e-12
# the trainer's random streams: batch order of each pool, and everything else
RNG_STREAMS = ("labeled", "unlabeled", "aux")
# a step's weighted loss terms -> their weight fields; `supervised` has weight 1
LOSS_WEIGHTS = {"shift": "lambda1", "flip": "lambda2", "recon": "lambda3", "order": "lambda4"}
LOSS_TERMS = ("supervised", *LOSS_WEIGHTS)


# the JSON value types a config file may give a field, by its default's type:
# an integer is accepted for a float, and for max_duration (default None)
_JSON_TYPES = {float: (float, int), int: (int,), str: (str,), type(None): (type(None), int)}


def _at_least(lo):
    return (lambda x: x >= lo), f">= {lo}"


_UNIT = (lambda x: 0 <= x < 1), "in [0, 1)"
_POSITIVE = (lambda x: x > 0), "> 0"
# field -> (check, the range it asks for); `TrainConfig` checks each at
# construction, after finding every float field finite
_FIELD_RANGES = {
    "alpha": ((lambda x: 0 < x < 1), "in (0, 1)"),
    "mu": ((lambda x: 0 < x <= 1), "in (0, 1]"),
    **dict.fromkeys((*LOSS_WEIGHTS.values(), "batch_unlabeled", "seed"), _at_least(0)),
    **dict.fromkeys(("omega", "p_drop", "beta1", "beta2"), _UNIT),
    **dict.fromkeys(("lr", "eps"), _POSITIVE),
    **dict.fromkeys(("batch_labeled", "epochs", "hidden", "pem_hidden"), _at_least(1)),
    **dict.fromkeys(("K", "n_samples"), _at_least(2)),
    "precision": ((lambda x: x in ("float32", "float64")), "float32 or float64"),
    "max_duration": ((lambda x: x is None or x >= 1), "null or >= 1"),
}


@dataclass
class TrainConfig:
    alpha: float = 0.999
    lambda1: float = 1.0
    lambda2: float = 0.1
    lambda3: float = 0.0001
    lambda4: float = 0.001
    mu: float = 2.0 ** -4
    omega: float = 0.3
    K: int = 2
    p_drop: float = 0.1
    batch_labeled: int = 2
    batch_unlabeled: int = 2
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 20
    seed: int = 1
    precision: str = "float64"
    hidden: int = 32
    pem_hidden: int = 16
    n_samples: int = 8
    max_duration: int | None = None  # None -> D = T

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, (ok, want) in _FIELD_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32

    def lambdas(self):
        return tuple(getattr(self, field) for field in LOSS_WEIGHTS.values())

    def to_file(self, path) -> None:
        with replacing(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    @classmethod
    def from_file(cls, path, **overrides) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), path, **overrides)

    @classmethod
    def from_dict(cls, doc, where, **overrides) -> "TrainConfig":
        """The config a JSON document `doc` (read from `where`) holds, with
        the `overrides` that are not None on top: a `ValueError` unless it
        is an object whose keys are fields and whose values have their
        field's JSON type."""
        if not isinstance(doc, dict):
            raise ValueError(f"{where}: config must be a JSON object")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValueError(f"{where}: unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if type(value) not in _JSON_TYPES[type(defaults[key])]:
                raise ValueError(f"{where}: config field {key} has the wrong type: {value!r}")
        return cls(**{**doc, **{k: v for k, v in overrides.items() if v is not None}})


def ema_update(teacher: np.ndarray, student: np.ndarray, alpha: float) -> np.ndarray:
    """theta' <- alpha * theta' + (1 - alpha) * theta, in place on a teacher buffer."""
    if teacher.shape != student.shape:
        raise ValueError(f"shape mismatch: teacher {teacher.shape} vs student {student.shape}")
    teacher *= alpha
    teacher += (1.0 - alpha) * student
    return teacher


class _OncePerEpoch(logging.Filter):
    """While entered, the module logger passes each distinct message once
    until `seen` is cleared, which `Trainer.run` does at the start of every
    epoch."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def filter(self, record):
        message = record.getMessage()
        if message in self.seen:
            return False
        self.seen.add(message)
        return True

    def __enter__(self):
        log.addFilter(self)
        return self

    def __exit__(self, *exc):
        log.removeFilter(self)


def _balanced_bce(p: ad.Tensor, target: np.ndarray, mask: np.ndarray | None,
                  what: str) -> ad.Tensor:
    """Class-balanced binary logistic loss; targets binarized at 0.5,
    positives/negatives reweighted by inverse frequency inside `mask`."""
    if mask is None:
        mask = np.ones_like(target)
    mask = mask.astype(bool)
    pos = (target > 0.5) & mask
    neg = (~(target > 0.5)) & mask
    n = float(mask.sum())
    n_pos, n_neg = float(pos.sum()), float(neg.sum())
    if n_pos == 0.0:
        log.warning("no positive entries for %s; positive term dropped", what)
    w_pos = 0.5 * n / n_pos if n_pos else 0.0
    w_neg = 0.5 * n / n_neg if n_neg else 0.0
    dt = p.data.dtype
    pos_w = (pos * w_pos).astype(dt)
    neg_w = (neg * w_neg).astype(dt)
    term = ad.mul(ad.log(p, eps=LOG_EPS), pos_w) + ad.mul(ad.log(1.0 - p, eps=LOG_EPS), neg_w)
    return ad.tsum(term) * (-1.0 / n)


def supervised_loss(out: ModelOutputs, labels: LabelMaps,
                    rng: np.random.Generator | None = None) -> ad.Tensor:
    """Boundary losses + candidate-map classification and regression losses.

    Classification uses positives g_iou > 0.9 and negatives g_iou < 0.3 on
    the valid region; regression is MSE over positives (g_iou > 0) plus a
    1:1 randomly subsampled set of zero-target negatives. For stacked
    videos, the class weights and the negative subsample pool the stack.
    """
    if out.p_s.data.shape != labels.g_start.shape or out.m_cr.data.shape != labels.g_iou.shape:
        raise ValueError("prediction/label shape mismatch")
    loss = _balanced_bce(out.p_s, labels.g_start, None, "start boundaries")
    loss = loss + _balanced_bce(out.p_e, labels.g_end, None, "end boundaries")

    valid = out.valid_mask.astype(bool)  # (D, T), broadcast over a stack
    cls_mask = valid & ((labels.g_iou > 0.9) | (labels.g_iou < 0.3))
    loss = loss + _balanced_bce(out.m_cc, labels.g_iou, cls_mask, "confidence map")

    pos = valid & (labels.g_iou > 0.0)
    neg = valid & (labels.g_iou == 0.0)
    n_pos = int(pos.sum())
    sel = pos.copy()
    neg_idx = np.flatnonzero(neg.ravel())
    if n_pos and neg_idx.size:
        take = min(n_pos, neg_idx.size)
        if rng is not None and take < neg_idx.size:
            chosen = rng.choice(neg_idx, size=take, replace=False)
        else:
            chosen = neg_idx[:take]
        sel.ravel()[chosen] = True
    elif not n_pos:
        sel = neg
    return loss + ad.mse(out.m_cr, labels.g_iou, sel)


def consistency_loss(student_out: ModelOutputs, teacher_aligned: Predictions) -> ad.Tensor:
    """Sum of per-field mean squared differences; maps restricted to the
    student's candidates. Teacher values are constants. The student's mask
    is the teacher's too, aligned or not: a flip maps each candidate (d, i)
    to (d, T-(d+1)-i), so it maps the candidates onto themselves."""
    if student_out.p_s.data.shape != teacher_aligned.p_s.shape:
        raise ValueError("student/teacher shape mismatch")
    valid = student_out.valid_mask
    loss = ad.mse(student_out.p_s, teacher_aligned.p_s)
    loss = loss + ad.mse(student_out.p_e, teacher_aligned.p_e)
    loss = loss + ad.mse(student_out.m_cc, teacher_aligned.m_cc, valid)
    return loss + ad.mse(student_out.m_cr, teacher_aligned.m_cr, valid)


@dataclass
class AdamState:
    m: ParamStore
    v: ParamStore
    t: int = 0

    @classmethod
    def like(cls, params: ParamStore) -> "AdamState":
        zeros = lambda: ParamStore(np.zeros_like(params.flat), params.shapes)
        return cls(m=zeros(), v=zeros())


def adam_step(params: ParamStore, grads: ParamStore, state: AdamState,
              cfg: TrainConfig) -> None:
    """One Adam update in place, on the stores' whole buffers. An overflow
    leaves inf or NaN in the parameters or moments; `train_step`, which runs
    with overflow warnings off, checks them."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    g, m, v = grads.flat, state.m.flat, state.v.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params.flat -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class BatchVideo:
    video_id: str
    features: np.ndarray  # (T, C) in training dtype
    labeled: bool
    label_maps: LabelMaps | None = None


@np.errstate(over="ignore", invalid="ignore")
def train_step(net: ProposalNetwork, student: ParamStore, teacher: ParamStore,
               batch: list[BatchVideo], cfg: TrainConfig, rng: np.random.Generator,
               opt: AdamState) -> dict:
    """One optimizer step over a mixed batch, then the EMA update.

    Each branch is one pass over the stacked videos, and each loss is pooled
    over the stack. As soon as a branch's loss exists, the backward of its
    weighted loss runs into the shared wrapped parameters and frees its
    graph, so a step holds one branch's graph at a time. By linearity the
    gradients sum to those of the weighted total, and in `LOSS_TERMS` order
    each parameter's gradient takes the same additions as one backward from
    that total would. Returns a report with the raw (unweighted) value of
    each loss term and the composed total. An overflow raises no warning: a
    non-finite activation or total loss, or a parameter or Adam moment left
    non-finite by the update, raises `FloatingPointError` naming it.

    `rng` is drawn in a fixed order, on which resuming and byte-identical
    reruns rely: nothing for the teacher pass; the supervised dropout mask,
    then its negative subsample; then, for each later branch in `LOSS_TERMS`
    order, its input draw (none for the flip), then its dropout mask.
    """
    w = dict(zip(LOSS_TERMS, (1.0, *cfg.lambdas())))
    lab = np.array([bv.labeled for bv in batch])
    if not lab.any() and not any(cfg.lambdas()):
        raise ValueError("batch has no labeled videos and all loss weights are zero")

    wrapped = wrap_params(student)

    def student_pass(f, head):
        return net.forward(wrapped, f, heads={head}, train_mode=True, rng=rng,
                           p_drop=cfg.p_drop)

    terms, weighted = {}, []

    def add_term(k, loss):
        """Keep branch k's raw loss and weighted value, and run the weighted
        loss's backward, which frees the branch's graph."""
        terms[k] = loss.item()
        piece = loss * w[k]
        piece.backward()
        weighted.append(piece.data)

    f1 = np.stack([bv.features for bv in batch])
    if w["shift"] > 0.0 or w["flip"] > 0.0:
        teacher_pred = net.forward(teacher, f1, heads={"proposal"},
                                   train_mode=False, requires_grad=False).detach()
    if lab.any():  # label maps stacked field by field
        maps = [vars(bv.label_maps).values() for bv in batch if bv.labeled]
        add_term("supervised", supervised_loss(student_pass(f1[lab], "proposal"),
                                               LabelMaps(*map(np.stack, zip(*maps))), rng=rng))
    if w["shift"] > 0.0:
        shifted = temporal_shift(f1, cfg.mu, rng)[0]
        add_term("shift", consistency_loss(student_pass(shifted, "proposal"), teacher_pred))
    if w["flip"] > 0.0:
        add_term("flip", consistency_loss(student_pass(temporal_flip(f1), "proposal"),
                                          align_flip_outputs(teacher_pred)))
    if w["recon"] > 0.0:
        f2, _ = pretext.mask_features(f1, cfg.omega, rng)
        add_term("recon", pretext.recon_loss(student_pass(f2, "recon").recon, f1))
    if w["order"] > 0.0:
        shuffled, label = pretext.make_order_sample(f1, cfg.K, rng)
        add_term("order", pretext.order_loss(student_pass(shuffled, "order").order_logits,
                                             label))

    total = float(sum(weighted[1:], weighted[0]))
    if not math.isfinite(total):
        raise FloatingPointError(f"non-finite total loss {total}")
    adam_step(student, leaf_grads(wrapped), opt, cfg)
    ema_update(teacher.flat, student.flat, cfg.alpha)
    stores = (student, teacher, opt.m, opt.v)
    if not all(np.isfinite(s.flat).all() for s in stores):
        bad = next(k for k, v in prefixed(*stores).items() if not np.isfinite(v).all())
        raise FloatingPointError(f"non-finite {bad} after the Adam update")

    report = {k: terms.get(k, 0.0) for k in LOSS_TERMS}
    report["total"] = total
    return report


@dataclass
class Trainer:
    """Owns the student/teacher parameter stores and the training loop."""

    net: ProposalNetwork
    cfg: TrainConfig
    student: ParamStore
    teacher: ParamStore
    opt: AdamState
    rng_labeled: np.random.Generator
    rng_unlabeled: np.random.Generator
    rng_aux: np.random.Generator
    epoch: int = 0

    @classmethod
    def create(cls, hyper: HyperShape, cfg: TrainConfig) -> "Trainer":
        net = ProposalNetwork(hyper)
        student = net.init_params(cfg.seed, dtype=cfg.dtype)
        teacher = student.copy_store()
        seqs = np.random.SeedSequence(cfg.seed).spawn(len(RNG_STREAMS))
        rngs = {f"rng_{name}": np.random.Generator(np.random.PCG64(seq))
                for name, seq in zip(RNG_STREAMS, seqs)}
        return cls(net=net, cfg=cfg, student=student, teacher=teacher,
                   opt=AdamState.like(student), **rngs)

    def epoch_batches(self, labeled: list[BatchVideo], unlabeled: list[BatchVideo]):
        cfg = self.cfg
        lab = list(labeled)
        unl = list(unlabeled)
        self.rng_labeled.shuffle(lab)
        self.rng_unlabeled.shuffle(unl)
        b_u = cfg.batch_unlabeled if unl else 0
        n_steps = math.ceil(len(lab) / cfg.batch_labeled)
        if b_u:
            n_steps = max(n_steps, math.ceil(len(unl) / b_u))
        for s in range(n_steps):
            batch = [lab[(s * cfg.batch_labeled + j) % len(lab)]
                     for j in range(min(cfg.batch_labeled, len(lab)))]
            if b_u:
                batch += [unl[(s * b_u + j) % len(unl)] for j in range(b_u)]
            yield batch

    def run(self, labeled: list[BatchVideo], unlabeled: list[BatchVideo],
            out_dir: str | os.PathLike, epochs: int | None = None) -> list[dict]:
        if not labeled:
            raise ValueError("training needs at least one labeled video")
        os.makedirs(out_dir, exist_ok=True)
        epochs = self.cfg.epochs if epochs is None else epochs
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        records = []
        if self.epoch:
            _truncate_metrics(metrics_path, self.epoch)
        with (_OncePerEpoch() as once,
              open(metrics_path, "a" if self.epoch else "w", encoding="utf-8") as metrics_fh):
            while self.epoch < epochs:
                once.seen.clear()
                t0 = time.perf_counter()
                reports = []
                for step, b in enumerate(self.epoch_batches(labeled, unlabeled), 1):
                    try:
                        reports.append(train_step(self.net, self.student, self.teacher, b,
                                                  self.cfg, self.rng_aux, self.opt))
                    except FloatingPointError as exc:
                        raise FloatingPointError(
                            f"epoch {self.epoch + 1}, step {step}: {exc}") from exc
                self.epoch += 1
                rec = {"epoch": self.epoch, "steps": len(reports),
                       "wall_time_s": round(time.perf_counter() - t0, 4)}
                for key in LOSS_TERMS + ("total",):
                    rec[key] = float(np.mean([r[key] for r in reports]))
                metrics_fh.write(json.dumps(rec) + "\n")
                metrics_fh.flush()
                records.append(rec)
                self.save(os.path.join(out_dir, "checkpoint.bin"))
        return records

    def save(self, path) -> None:
        tensors = prefixed(self.student, self.teacher, self.opt.m, self.opt.v)
        extra = {
            "epoch": self.epoch,
            "config": dataclasses.asdict(self.cfg),
            "rng": {name: getattr(self, f"rng_{name}").bit_generator.state
                    for name in RNG_STREAMS},
        }
        save_checkpoint(path, self.net.hyper, self.cfg.seed, self.opt.t,
                        self.cfg.precision, tensors, extra=extra)

    @classmethod
    def load(cls, path, cfg: TrainConfig | None = None) -> "Trainer":
        """Resume from a checkpoint `save` wrote. The header's `step` is the
        Adam step count; the config is the checkpoint's unless `cfg` is given."""
        header, hyper, (student, teacher, m, v) = load_stores(path, CHECKPOINT_STORES,
                                                              "training")
        extra = header.get("extra")
        epoch = extra.get("epoch") if isinstance(extra, dict) else None
        for name, value in (("step", header.get("step")), ("epoch", epoch)):
            if type(value) is not int or value < 0:
                raise FormatError(f"{path}: bad {name} {value!r}; expected an integer >= 0")
        if cfg is None:
            try:
                cfg = TrainConfig.from_dict(extra["config"], path)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad config: {exc!r}") from exc
        elif cfg.precision != header["precision"]:
            raise ValueError(f"{path}: checkpoint precision {header['precision']!r} "
                             f"differs from the configured precision {cfg.precision!r}")
        rngs = {}
        for name in RNG_STREAMS:
            rngs[f"rng_{name}"] = np.random.Generator(np.random.PCG64())
            try:
                rngs[f"rng_{name}"].bit_generator.state = extra["rng"][name]
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad rng.{name} state: {exc!r}") from exc
        return cls(net=ProposalNetwork(hyper), cfg=cfg, student=student, teacher=teacher,
                   opt=AdamState(m=m, v=v, t=header["step"]), epoch=epoch, **rngs)


def _truncate_metrics(path: str, epoch: int) -> None:
    """Keep the metrics lines of epochs up to the resumed checkpoint's.

    A line is written before its epoch's checkpoint, so a run stopped between
    the two writes (or during the line, leaving it without a newline) has
    lines for an epoch that the resumed run trains and logs again. A kept
    line must hold numeric loss terms, because it may be the last line,
    which `semiprop train` reports.
    """
    def kept(line: str) -> bool:
        rec = json.loads(line)
        if rec["epoch"] > epoch:
            return False
        if not all(isinstance(rec[k], (int, float)) for k in LOSS_TERMS + ("total",)):
            raise TypeError(f"non-numeric loss term in {line.strip()!r}")
        return True

    try:
        lines = read_text_lines(path)
    except FileNotFoundError:
        return
    try:
        keep = [ln for ln in lines if ln.endswith("\n") and kept(ln)]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: bad metrics line: {exc!r}") from exc
    if keep != lines:
        with replacing(path) as fh:
            fh.writelines(keep)


def hyper_from(cfg: TrainConfig, T: int, C: int) -> HyperShape:
    return HyperShape(T=T, C=C, H=cfg.hidden, Hp=cfg.pem_hidden,
                      D=cfg.max_duration or T, N=cfg.n_samples, K=cfg.K)


def training_hyper(manifest: DatasetManifest, manifest_path, cfg: TrainConfig) -> HyperShape:
    """The network shape that `cfg` trains on a manifest, checked before
    anything is written: every video shares one T and C (else `FormatError`);
    one video is labeled, the shape is valid, and the shift and order losses,
    when on, move one of the C channels and fit K clips in T (else `ValueError`)."""
    Ts = {v.T for v in manifest.videos}
    Cs = {v.C for v in manifest.videos}
    if len(Ts) != 1 or len(Cs) != 1:
        raise FormatError(f"{manifest_path}: all videos in a training manifest must "
                          "share T and C")
    if not any(v.labeled for v in manifest.videos):
        raise ValueError("training needs at least one labeled video")
    T, C = Ts.pop(), Cs.pop()
    if getattr(cfg, LOSS_WEIGHTS["shift"]) > 0.0:
        shift_count(C, cfg.mu)
    if getattr(cfg, LOSS_WEIGHTS["order"]) > 0.0 and cfg.K > T:
        raise ValueError(f"need 2 <= K <= T, got K={cfg.K}, T={T}")
    return hyper_from(cfg, T, C)


def load_training_set(manifest: DatasetManifest, manifest_path, cfg: TrainConfig):
    """Read all videos into memory and build label maps for the labeled ones."""
    hyper = training_hyper(manifest, manifest_path, cfg)
    labeled, unlabeled = [], []
    for entry in manifest.videos:
        seq = load_video(manifest_path, entry)
        feats = seq.values.astype(cfg.dtype)
        if entry.labeled:
            lm = build_label_maps(AnnotationSet(entry.annotations), hyper.T, hyper.D)
            labeled.append(BatchVideo(entry.video_id, feats, True, lm))
        else:
            unlabeled.append(BatchVideo(entry.video_id, feats, False))
    return hyper, labeled, unlabeled


def train_run(manifest: DatasetManifest, manifest_path, cfg: TrainConfig,
              out_dir, resume_from=None) -> tuple[str, Trainer]:
    """Full training entry point: `config.json`, then the epoch loop,
    metrics log and checkpoints, all in `out_dir`.

    A resumed checkpoint whose epoch already reaches `cfg.epochs` trains
    nothing, so it is a `ValueError` unless `out_dir` holds a checkpoint,
    raised before anything is written there."""
    hyper, labeled, unlabeled = load_training_set(manifest, manifest_path, cfg)
    ckpt = os.path.join(os.fspath(out_dir), "checkpoint.bin")
    if resume_from:
        trainer = Trainer.load(resume_from, cfg=cfg)
        if trainer.net.hyper != hyper:
            raise ValueError("checkpoint hyper shape does not match dataset")
        if trainer.epoch >= cfg.epochs and not os.path.exists(ckpt):
            raise ValueError(f"{resume_from} is at epoch {trainer.epoch} and the run asks for "
                             f"{cfg.epochs} epochs: nothing to train, and {out_dir} "
                             f"holds no checkpoint")
    else:
        trainer = Trainer.create(hyper, cfg)
    os.makedirs(out_dir, exist_ok=True)
    cfg.to_file(os.path.join(out_dir, "config.json"))
    trainer.run(labeled, unlabeled, out_dir)
    return ckpt, trainer
