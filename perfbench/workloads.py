"""The three workloads: set-up, warm-up, measured window and output checks.

Every workload is a closed loop driven from this process: the next step or
video starts when the previous one has returned. The seed argument alone
fixes the generated data, the untrained weights and every RNG state.
Output checks run outside the measured window and count into `failed`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from semiprop import cli, data, metrics, model, postprocess, trainer

import reference
from tracer import HEAVY_OPS, LAYER_FUNCTIONS, Tracer

T, C = 100, 16
TRAIN_VIDEOS = 20
TEST_VIDEOS = 6
SETUP_REPEATS = 15
EVAL_REPEATS = 5
# the loss digest covers this many epochs after warm-up, so it is fixed per seed
LOSS_EPOCHS = 2
NMS = {"sigma": 0.4, "score_floor": 0.001, "max_out": 100}
LOSS_KEYS = ("supervised", "shift", "flip", "recon", "order", "total")
# The host's speed drifts by up to 2x over seconds (shared cores), so the
# bounded timings are scaled to a machine on which the speed probe below
# takes REF_NOMINAL_S. The probe runs before each chunk of measured work and
# after any step or video that ends PROBE_EVERY_S after the last probe.
REF_NOMINAL_S = 0.02
PROBE_EVERY_S = 0.5
REF_XS = [float(i) for i in range(1000)]
REF_X = np.random.default_rng(0).standard_normal((10000, 16)).astype(np.float32)
REF_W = np.random.default_rng(1).standard_normal((16, 16)).astype(np.float32)


def speed_probe() -> float:
    """Time fixed work of both kinds the workloads do, an interpreted loop
    and small numpy kernels; ~REF_NOMINAL_S on an uncontended core."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(500):
        for x in REF_XS:
            acc += x * 1.0001
    for _ in range(24):
        np.maximum(REF_X @ REF_W, 0.0).sum(axis=0)
    return time.perf_counter() - t0


@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Window:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # seconds per step or video
    chunks: int = 0  # training epochs, or passes over the test set
    nominal_s: float = 0.0  # wall time scaled to nominal machine speed

    def add(self, other: "Window", slowdown: float) -> None:
        self.wall_s += other.wall_s
        self.latencies += other.latencies
        self.chunks += other.chunks
        self.nominal_s += other.wall_s / slowdown


def timing_summary(samples_s) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it (when that is above the median), in ms, with the sample count."""
    ms = np.asarray(samples_s, dtype=float) * 1e3
    n = len(ms)
    out = {"n": n, "p50": float(np.median(ms)) if n else None}
    q = math.floor(100.0 * (n - 10) / n) if n else 0
    if q > 50:
        out[f"p{q}"] = float(np.percentile(ms, q))
    return out


class Workload:
    """Shared run loop: repeated set-up, warm-up, then the measured window."""

    item = "step"
    eval_videos = 0  # videos scored by the eval passes

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name, self.seed, self.work = name, seed, work_dir
        self.checks = Checks()
        self.setup_s: list[float] = []
        self.probes: list[float] = []
        self.probe_s = 0.0  # time spent in probes
        self.probing = True
        self._last_probe = 0.0

    def probe(self, force: bool = False) -> None:
        if force or (self.probing and
                     time.perf_counter() - self._last_probe >= PROBE_EVERY_S):
            t = speed_probe()
            self.probes.append(t)
            self.probe_s += t
            self._last_probe = time.perf_counter()

    def slowdown_since(self, k: int) -> float:
        return float(np.mean(self.probes[k:])) / REF_NOMINAL_S

    def setup_once(self, where: str) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def chunk(self) -> Window:
        """One unit of measured work: an epoch, or a pass over the test set."""
        raise NotImplementedError

    def finish(self, tracer: Tracer | None) -> dict:
        """Checks and any work after the window; returns named results."""
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        """Set up, warm up, then measure whole chunks until `seconds` have
        passed. With a tracer, traced and untraced chunks alternate, so
        both halves see the same machine and their ratio is the overhead;
        probes then run only between chunks, outside every span."""
        self.probing = tracer is None
        if tracer is not None:
            tracer.install()
        self.probe(force=True)
        for r in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup_once(os.path.join(self.work, f"setup{r}"))
            self.setup_s.append(time.perf_counter() - t0)
        self.probe(force=True)
        self.setup_slowdown = self.slowdown_since(0)
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "window"
        self.warm_up()
        self.measured = Window()
        self.traced = Window() if tracer is not None else None
        t0 = time.perf_counter()
        n = 0
        while (time.perf_counter() - t0 < seconds or not self.measured.chunks
               or (tracer is not None and not self.traced.chunks)):
            k = len(self.probes)
            self.probe(force=True)
            spent = self.probe_s
            if tracer is None or n % 2 == 0:
                win, part = self.chunk(), self.measured
            else:
                tracer.install()
                try:
                    win, part = self.chunk(), self.traced
                finally:
                    tracer.uninstall()
            win.wall_s -= self.probe_s - spent
            part.add(win, self.slowdown_since(k))
            n += 1
        return self.finish(tracer)


# ---------------------------------------------------------------------------
# training

class TrainWorkload(Workload):
    """`Trainer.run` one epoch at a time, with a checkpoint and a metrics
    line per epoch; the first epoch is warm-up."""

    def __init__(self, name, seed, work_dir, mode):
        super().__init__(name, seed, work_dir)
        self.mode = mode
        self.step_s: list[float] = []
        self.reports: list[dict] = []

    def setup_once(self, where):
        fraction = 0.1 if self.mode == "sstap" else 1.0
        data.gen_synthetic_dataset(where, n_videos=TRAIN_VIDEOS, T=T, C=C,
                                   label_fraction=fraction, seed=self.seed)
        manifest_path = os.path.join(where, "manifest.json")
        manifest = data.read_manifest(manifest_path)
        cfg = cli.apply_mode(trainer.TrainConfig(
            precision="float32", mu=0.125, seed=self.seed,
            batch_labeled=2, batch_unlabeled=2), self.mode)
        hyper, self.labeled, self.unlabeled = trainer.load_training_set(
            manifest, manifest_path, cfg)
        self.trainer = trainer.Trainer.create(hyper, cfg)
        self.run_dir = os.path.join(self.work, "run")

    def _timed_step(self, original):
        def step(*args, **kwargs):
            t0 = time.perf_counter()
            report = original(*args, **kwargs)
            self.step_s.append(time.perf_counter() - t0)
            self.reports.append(report)
            self.probe()
            return report
        return step

    def chunk(self):
        first = len(self.step_s)
        original = trainer.train_step
        trainer.train_step = self._timed_step(original)
        try:
            t0 = time.perf_counter()
            self.trainer.run(self.labeled, self.unlabeled, self.run_dir,
                             epochs=self.trainer.epoch + 1)
            wall = time.perf_counter() - t0
        finally:
            trainer.train_step = original
        return Window(wall, self.step_s[first:], 1)

    def warm_up(self):
        self.chunk()
        self.warm_steps = len(self.step_s)

    def finish(self, tracer):
        for i, rep in enumerate(self.reports):
            bad = [k for k in LOSS_KEYS if not math.isfinite(rep[k])]
            self.checks.record(not bad, f"step {i}: non-finite loss {bad}")
        ckpt = os.path.join(self.run_dir, "checkpoint.bin")
        resumed = trainer.Trainer.load(ckpt)
        same = resumed.epoch == self.trainer.epoch and all(
            np.array_equal(resumed.student[k], v) for k, v in self.trainer.student.items())
        self.checks.record(same, "last checkpoint does not hold the final student")
        with open(os.path.join(self.run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        self.checks.record(lines == self.trainer.epoch,
                           f"{lines} metrics lines for {self.trainer.epoch} epochs")
        steps_per_epoch = len(self.reports) // self.trainer.epoch
        digest = self.reports[self.warm_steps:self.warm_steps + LOSS_EPOCHS * steps_per_epoch]
        return {"loss_mean": float(np.mean([r["total"] for r in digest]))}


# ---------------------------------------------------------------------------
# inference and evaluation

class InferWorkload(Workload):
    """`cli.run_inference` on one video at a time, in whole passes over the
    test set, then the eval path over the files it wrote."""

    item = "video"

    def setup_once(self, where):
        data.gen_synthetic_dataset(where, n_videos=TEST_VIDEOS, T=T, C=C,
                                   label_fraction=1.0, seed=self.seed)
        self.manifest_path = os.path.join(where, "manifest.json")
        self.manifest = data.read_manifest(self.manifest_path)
        hyper = trainer.hyper_from(trainer.TrainConfig(), T, C)
        params = model.init_params(hyper, self.seed, dtype=np.float32)
        ckpt = os.path.join(where, "untrained.bin")
        model.save_checkpoint(ckpt, hyper, self.seed, 0, "float32",
                              {f"student.{k}": v for k, v in params.items()})
        hyper, self.params = cli.params_from_checkpoint(ckpt)
        self.net = model.ProposalNetwork(hyper)
        self.out_dir = os.path.join(self.work, "proposals")
        self.outputs: list[tuple[data.VideoEntry, list]] = []

    def _one_video(self, entry):
        sub = dataclasses.replace(self.manifest, videos=[entry])
        t0 = time.perf_counter()
        props = cli.run_inference(self.net, self.params, sub, self.manifest_path,
                                  self.out_dir, **NMS)
        dt = time.perf_counter() - t0
        self.outputs.append((entry, props[entry.video_id]))
        self.probe()
        return dt

    def warm_up(self):
        self._one_video(self.manifest.videos[0])

    def chunk(self):
        t0 = time.perf_counter()
        lat = [self._one_video(e) for e in self.manifest.videos]
        return Window(time.perf_counter() - t0, lat, 1)

    def eval_pass(self):
        props = {e.video_id: postprocess.read_proposals(
                     os.path.join(self.out_dir, f"{e.video_id}.props.tsv"))
                 for e in self.manifest.videos}
        return props, cli.evaluate_proposals(props, self.manifest,
                                             metrics.threshold_set("anet"))

    def finish(self, tracer):
        first = {}
        for entry, props in self.outputs:
            self.checks.record(*self._check_proposals(entry, props, first))
        if tracer is not None:
            tracer.phase = "eval"
            tracer.install()
        eval_s, results = [], []
        self.eval_videos = EVAL_REPEATS * len(self.manifest.videos)
        try:
            for _ in range(EVAL_REPEATS):
                t0 = time.perf_counter()
                results.append(self.eval_pass())
                eval_s.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        in_memory = cli.evaluate_proposals(first, self.manifest,
                                           metrics.threshold_set("anet"))
        for read, result in results:
            self.checks.record(self._check_eval(read, result, first, in_memory),
                               "eval pass disagrees with the proposals in memory")
        self.checks.record(*self._check_reference(first))
        return {"eval_s": eval_s, "auc": in_memory.get("AUC", float("nan"))}

    @staticmethod
    def _check_proposals(entry, props, first):
        rows = [(p.start, p.end, p.score) for p in props]
        what = f"video {entry.video_id}"
        if entry.video_id not in first:
            first[entry.video_id] = props
        elif rows != [(p.start, p.end, p.score) for p in first[entry.video_id]]:
            return False, f"{what}: proposals differ between passes"
        arr = np.asarray(rows, dtype=float).reshape(-1, 3)
        if not np.isfinite(arr).all():
            return False, f"{what}: non-finite proposal"
        if len(rows) > NMS["max_out"] or not rows:
            return False, f"{what}: {len(rows)} proposals"
        if np.any(np.diff(arr[:, 2]) > 0):
            return False, f"{what}: scores not in descending order"
        if arr[:, 0].min() < 0 or arr[:, 1].max() > entry.T or np.any(arr[:, 0] >= arr[:, 1]):
            return False, f"{what}: segment outside [0, T]"
        return True, what

    @staticmethod
    def _check_eval(read, result, first, in_memory) -> bool:
        for vid, props in first.items():
            got = read[vid]
            if len(got) != len(props) or any(
                    (a.start, a.end) != (b.start, b.end)
                    or abs(a.score - b.score) > 1e-7 * abs(b.score)
                    for a, b in zip(got, props)):
                return False
        keys = ("AUC", "AR@10", "AR@50", "AR@100", "eligible_videos")
        return all(result.get(k) == in_memory.get(k) for k in keys) and \
            math.isfinite(result["AUC"]) and 0.0 <= result["AUC"] <= 100.0

    def _check_reference(self, first):
        """Video 0 through the brute-force Soft-NMS and recall matrix."""
        entry = self.manifest.videos[0]
        seq = data.load_video(self.manifest_path, entry)
        out = self.net.forward(self.params, seq.values.astype(np.float32),
                               heads={"proposal"}, train_mode=False, requires_grad=False)
        cands = postprocess.decode_candidates(out.detach(), max_duration=self.net.hyper.D)
        ref = reference.soft_nms([(c.start, c.end, c.score) for c in cands], **NMS)
        got = first[entry.video_id]
        if ref != [(p.start, p.end, p.score) for p in got]:
            return False, "soft_nms differs from the brute-force reference"
        thresholds, an_values = metrics.threshold_set("anet"), list(range(1, 101))
        gt = data.AnnotationSet([tuple(a) for a in entry.annotations])
        lib = metrics.recall_matrix(got, gt, thresholds, an_values)
        ref_m = reference.recall_matrix(ref, gt.instances, thresholds, an_values)
        if not np.array_equal(lib, ref_m):
            return False, "recall_matrix differs from the brute-force reference"
        return True, "reference"


def make(name: str, seed: int, work_dir: str) -> Workload:
    if name == "train_sstap":
        return TrainWorkload(name, seed, work_dir, "sstap")
    if name == "train_supervised":
        return TrainWorkload(name, seed, work_dir, "supervised")
    if name == "infer_dense":
        return InferWorkload(name, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

OP_BUCKETS = HEAVY_OPS + ("other",)
FLOP_OPS = ("conv1d", "conv2d", "sparse_sample", "reduce_axis1")
PER_EPOCH = ("trainer.save", "model.save_checkpoint")
LAYER_SPANS = [n for n in LAYER_FUNCTIONS.values() if n != "autodiff.graph_walk"]


def layer_metrics(wl: Workload, tracer: Tracer, extra: dict) -> dict:
    """Per-layer numbers. A span's self time is reported per unit of the
    phase it ran in: per step or video in the traced window (per epoch for
    the checkpoint writes), per video evaluated in the eval passes, and per
    set-up for spans that ran only in set-up."""
    win = wl.traced
    items = len(win.latencies)
    out = {}

    def per(phase, name):
        if phase == "window":
            return win.chunks if name in PER_EPOCH and win.chunks else items
        return wl.eval_videos if phase == "eval" else SETUP_REPEATS

    for name in LAYER_SPANS:
        for phase in ("window", "eval", "setup"):
            if tracer.calls.get((phase, name)):
                break
        else:
            phase = "window"
        out[f"{name}.ms"] = 1e3 * tracer.self_s.get((phase, name), 0.0) / per(phase, name)

    for b in OP_BUCKETS:
        out[f"autodiff.{b}.fwd_ms"] = 1e3 * tracer.self_s.get(("window", f"autodiff.{b}.fwd"), 0.0) / items
        out[f"autodiff.{b}.bwd_ms"] = 1e3 * tracer.self_s.get(("window", f"autodiff.{b}.bwd"), 0.0) / items
        out[f"autodiff.{b}.calls"] = tracer.calls.get(("window", f"autodiff.{b}.fwd"), 0) / items
    for op in FLOP_OPS:
        out[f"autodiff.{op}.mflop"] = tracer.flop.get(("window", op), 0) / 1e6 / items
    out["autodiff.graph_walk_ms"] = 1e3 * tracer.self_s.get(("window", "autodiff.graph_walk"), 0.0) / items
    out["model.forward.calls"] = tracer.calls.get(("window", "model.forward"), 0) / items

    steps = tracer.durations.get(("window", "trainer.train_step"), [])
    out["trainer.train_step.ms_p50"] = 1e3 * float(np.percentile(steps, 50)) if steps else 0.0
    out["trainer.train_step.ms_p90"] = 1e3 * float(np.percentile(steps, 90)) if steps else 0.0
    out["trainer.steps"] = len(steps)
    out["trainer.loss_mean"] = extra.get("loss_mean", 0.0)

    cands = tracer.result_len.get(("window", "postprocess.decode_candidates"), 0)
    kept = tracer.result_len.get(("window", "postprocess.soft_nms"), 0)
    videos = tracer.calls.get(("window", "postprocess.soft_nms"), 0)
    out["postprocess.candidates_per_video"] = cands / videos if videos else 0.0
    out["postprocess.kept_per_video"] = kept / videos if videos else 0.0
    out["postprocess.kept_ratio"] = kept / cands if cands else 0.0
    out["metrics.proposal_auc"] = extra.get("auc", 0.0)

    untraced = wl.measured.wall_s / len(wl.measured.latencies)
    out["trace.overhead_frac"] = (win.wall_s / items) / untraced - 1.0
    out["trace.accounted_frac"] = tracer.phase_total_s("window") / win.wall_s
    return {k: (v, layer_unit(k)) for k, v in out.items()}


def layer_unit(name: str) -> str:
    if name.endswith(("ms", "ms_p50", "ms_p90")):
        return "ms"
    if name.endswith(".mflop"):
        return "MFLOP-computed"
    if name.endswith((".calls", "_per_video", ".steps")):
        return "count"
    if name.endswith("_auc"):
        return "%"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "1"
