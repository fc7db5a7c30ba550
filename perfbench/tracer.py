"""Span tracer that instruments semiprop from outside the package.

`Tracer.install()` replaces the public functions of each semiprop module,
under every name a caller looks them up by (a module attribute, or a name
imported into another module), with wrappers that record a span: start,
end and the time its child spans cover. Every autodiff op is wrapped the
same way, and the `_backward` closure on each tensor an op returns is
wrapped so that backward time is charged to the op that built the tensor.
`Tracer.uninstall()` puts the original objects back.

Spans are kept as per-phase totals in memory: self time (a span minus its
children), call counts, inclusive durations for the step function, output
lengths for decode and Soft-NMS, and forward MFLOP computed from operand
shapes for the heavy ops.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# autodiff ops reported on their own; every other op is summed as "other"
HEAVY_OPS = ("conv1d", "conv2d", "sparse_sample", "reduce_axis1", "scatter_grid")
# ops outside autodiff that build tensors with a backward closure
EXTRA_OPS = (("model", "take_last"),)

# (module, attribute) -> span name; "Class.method" attributes patch the class
LAYER_FUNCTIONS = {
    ("model", "ProposalNetwork.forward"): "model.forward",
    ("model", "backward"): "model.backward",
    ("model", "save_checkpoint"): "model.save_checkpoint",
    ("model", "load_checkpoint"): "model.load_checkpoint",
    ("autodiff", "Tensor.backward"): "autodiff.graph_walk",
    ("trainer", "Trainer.run"): "trainer.run",
    ("trainer", "Trainer.save"): "trainer.save",
    ("trainer", "train_step"): "trainer.train_step",
    ("trainer", "supervised_loss"): "trainer.supervised_loss",
    ("trainer", "consistency_loss"): "trainer.consistency_loss",
    ("trainer", "adam_step"): "trainer.adam_step",
    ("trainer", "ema_update"): "trainer.ema_update",
    ("perturb", "temporal_shift"): "perturb.temporal_shift",
    ("perturb", "temporal_flip"): "perturb.temporal_flip",
    ("perturb", "align_flip_outputs"): "perturb.align_flip_outputs",
    ("pretext", "mask_features"): "pretext.mask_features",
    ("pretext", "make_order_sample"): "pretext.make_order_sample",
    ("pretext", "recon_loss"): "pretext.recon_loss",
    ("pretext", "order_loss"): "pretext.order_loss",
    ("postprocess", "decode_candidates"): "postprocess.decode_candidates",
    ("postprocess", "soft_nms"): "postprocess.soft_nms",
    ("postprocess", "write_proposals"): "postprocess.write_proposals",
    ("postprocess", "read_proposals"): "postprocess.read_proposals",
    ("metrics", "recall_matrix"): "metrics.recall_matrix",
    ("metrics", "evaluate_dataset"): "metrics.evaluate_dataset",
    ("data", "gen_synthetic_dataset"): "data.gen_synthetic_dataset",
    ("data", "read_manifest"): "data.read_manifest",
    ("data", "load_video"): "data.load_video",
    ("data", "build_label_maps"): "data.build_label_maps",
    ("cli", "run_inference"): "cli.run_inference",
    ("cli", "evaluate_proposals"): "cli.evaluate_proposals",
}
# spans whose inclusive durations are kept, and spans whose result length is summed
KEEP_DURATIONS = ("trainer.train_step",)
COUNT_RESULTS = ("postprocess.decode_candidates", "postprocess.soft_nms")


def _shape(a):
    return np.shape(getattr(a, "data", a))


def forward_flop(op: str, args, out) -> int:
    """Multiply-adds of one forward call, times two, from operand shapes."""
    if op == "conv1d":
        k, cin, cout = _shape(args[1])
        return 2 * out.data.shape[0] * k * cin * cout
    if op == "conv2d":
        k, k2, cin, cout = _shape(args[1])
        d_out, t_out = out.data.shape[:2]
        return 2 * d_out * t_out * k * k2 * cin * cout
    if op == "sparse_sample":
        return 2 * args[1].nnz * _shape(args[0])[1]
    if op == "reduce_axis1":
        c, n, j = _shape(args[0])
        return 2 * c * n * j
    return 0


class Tracer:
    """Collects span totals keyed by (phase, span name)."""

    def __init__(self):
        self.phase = "setup"
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flop = defaultdict(int)
        self.durations = defaultdict(list)
        self.result_len = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float], dur: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        key = (self.phase, name)
        self.self_s[key] += dur - frame[0]
        self.calls[key] += 1

    def wrap(self, name: str, fn):
        keep = name in KEEP_DURATIONS
        count = name in COUNT_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._exit(name, frame, dur)
            if keep:
                self.durations[(self.phase, name)].append(dur)
            if count:
                self.result_len[(self.phase, name)] += len(result)
            return result

        return traced

    def wrap_op(self, op: str, fn):
        bucket = op if op in HEAVY_OPS else "other"
        fwd_name = f"autodiff.{bucket}.fwd"
        bwd_name = f"autodiff.{bucket}.bwd"

        def wrap_backward(closure):
            def traced_backward():
                frame = self._enter()
                t0 = time.perf_counter()
                try:
                    closure()
                finally:
                    self._exit(bwd_name, frame, time.perf_counter() - t0)

            traced_backward.traced = True
            return traced_backward

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(fwd_name, frame, time.perf_counter() - t0)
            # an op built from another op (square -> mul) returns that op's
            # tensor, whose closure is already charged to the inner op
            closure = getattr(out, "_backward", None)
            if closure is not None and not getattr(closure, "traced", False):
                out._backward = wrap_backward(closure)
            if op in HEAVY_OPS:
                self.flop[(self.phase, bucket)] += forward_flop(op, args, out)
            return out

        return traced

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Replace `original` under every name a semiprop module holds it by."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "semiprop" or mod_name.startswith("semiprop.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import semiprop.autodiff as ad

        mods = {name: sys.modules[f"semiprop.{name}"] for name in (
            "autodiff", "model", "trainer", "perturb", "pretext",
            "postprocess", "metrics", "data", "cli")}
        ops = [(ad, name) for name, value in vars(ad).items()
               if callable(value) and not name.startswith("_")
               and getattr(value, "__module__", None) == ad.__name__
               and not isinstance(value, type) and name != "as_tensor"]
        ops += [(mods[m], name) for m, name in EXTRA_OPS if hasattr(mods[m], name)]
        for mod, name in ops:
            original = getattr(mod, name)
            self._patch_everywhere(original, self.wrap_op(name, original))
        for (m, attr), span in LAYER_FUNCTIONS.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[m], cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    self._patch(cls, meth, self.wrap(span, getattr(cls, meth)))
            elif hasattr(mods[m], attr):
                original = getattr(mods[m], attr)
                self._patch_everywhere(original, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the totals -----------------------------------------------

    def phase_total_s(self, phase: str) -> float:
        return sum(v for (p, _), v in self.self_s.items() if p == phase)
