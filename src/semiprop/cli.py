"""Command-line entry point: data generation, training, inference,
evaluation, gradient checking, and ablation grids.

Exit codes: 0 success, 1 usage or config error, 2 data/format or path error,
3 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from . import postprocess
from .data import (AnnotationSet, DatasetManifest, FormatError,
                   gen_synthetic_dataset, load_video, read_manifest)
from .model import HyperShape, ParamStore, ProposalNetwork, grad_check, load_stores
from .trainer import TrainConfig, train_run


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def config_hash(cfg: TrainConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


# training mode -> config patch. `supervised` zeroes every auxiliary weight
# and drops unlabeled data, the vanilla fully-supervised baseline; `sstap`
# keeps the config as is; `no_shift`/`no_flip`/`no_recon`/`no_order` zero a
# single term.
MODES = {
    "sstap": {},
    "supervised": {"lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0,
                   "lambda4": 0.0, "batch_unlabeled": 0},
    "no_shift": {"lambda1": 0.0},
    "no_flip": {"lambda2": 0.0},
    "no_recon": {"lambda3": 0.0},
    "no_order": {"lambda4": 0.0},
}


def apply_mode(cfg: TrainConfig, mode: str) -> TrainConfig:
    if mode not in MODES:
        raise ValueError(f"unknown training mode {mode!r}")
    return dataclasses.replace(cfg, **MODES[mode])


@np.errstate(over="ignore", invalid="ignore")
def run_inference(net: ProposalNetwork, params: ParamStore,
                  manifest: DatasetManifest, manifest_path, out_dir,
                  sigma: float = 0.4, score_floor: float = 0.001,
                  max_out: int = 100) -> dict[str, postprocess.Proposals]:
    """Decode + Soft-NMS proposals for every video; write one file each.
    Weights that overflow raise no warning: the forward pass raises
    `FloatingPointError` on a non-finite output."""
    if max_out < 1:
        raise ValueError(f"max_out must be >= 1, got {max_out}")
    for entry in manifest.videos:
        if (entry.T, entry.C) != (net.hyper.T, net.hyper.C):
            raise FormatError(f"{manifest_path}: video {entry.video_id} has "
                              f"T={entry.T}, C={entry.C}; the checkpoint expects "
                              f"T={net.hyper.T}, C={net.hyper.C}")
    os.makedirs(out_dir, exist_ok=True)
    all_props = {}
    for entry in manifest.videos:
        seq = load_video(manifest_path, entry)
        feats = seq.values.astype(next(iter(params.values())).dtype)
        out = net.forward(params, feats, heads={"proposal"},
                          train_mode=False, requires_grad=False)
        cands = postprocess.decode_candidates(out.detach(), max_duration=net.hyper.D)
        props = postprocess.soft_nms(cands, sigma=sigma, score_floor=score_floor,
                                     max_out=max_out)
        postprocess.write_proposals(props, entry.T, os.path.join(out_dir, f"{entry.video_id}.props.tsv"))
        all_props[entry.video_id] = props
    return all_props


def evaluate_proposals(all_props: dict, manifest: DatasetManifest,
                       thresholds, an_max: int = 100) -> dict:
    per_video = {}
    for entry in manifest.videos:
        per_video[entry.video_id] = (
            all_props.get(entry.video_id, []),
            AnnotationSet([tuple(a) for a in entry.annotations]),
        )
    return metrics_mod.evaluate_dataset(per_video, thresholds, an_max=an_max)


def params_from_checkpoint(path, which: str = "student"):
    _, hyper, (params,) = load_stores(path, (which,), which)
    return hyper, params


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    gen_synthetic_dataset(args.out, n_videos=args.videos, T=args.snippets,
                          C=args.channels, label_fraction=args.labeled,
                          seed=args.seed)
    print(f"wrote {args.videos} videos to {args.out}")
    return 0


def _train_config(args) -> TrainConfig:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.config:
        cfg = TrainConfig.from_file(args.config, **overrides)
    else:
        cfg = TrainConfig(**overrides)
    return apply_mode(cfg, args.mode)


def cmd_train(args) -> int:
    cfg = _train_config(args)
    manifest = read_manifest(args.manifest)
    out_dir = args.out or os.path.join("runs", f"{config_hash(cfg)}-s{cfg.seed}")
    os.makedirs(out_dir, exist_ok=True)
    cfg.to_file(os.path.join(out_dir, "config.json"))
    ckpt, trainer = train_run(manifest, args.manifest, cfg, out_dir,
                              resume_from=args.resume)
    last = None
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            last = json.loads(line)
    print(f"trained {trainer.epoch} epochs; checkpoint at {ckpt}")
    if last:
        print(f"final losses: total={last['total']:.4f} "
              f"supervised={last['supervised']:.4f}")
    return 0


def cmd_infer(args) -> int:
    hyper, params = params_from_checkpoint(args.checkpoint, args.weights)
    net = ProposalNetwork(hyper)
    manifest = read_manifest(args.manifest)
    run_inference(net, params, manifest, args.manifest, args.out,
                  sigma=args.sigma, score_floor=args.score_floor,
                  max_out=args.max_out)
    print(f"proposals for {len(manifest.videos)} videos written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not os.path.isdir(args.proposals):
        raise NotADirectoryError(f"{args.proposals}: no such proposal directory")
    manifest = read_manifest(args.manifest)
    all_props = {}
    for entry in manifest.videos:
        ppath = os.path.join(args.proposals, f"{entry.video_id}.props.tsv")
        if os.path.exists(ppath):
            all_props[entry.video_id] = postprocess.read_proposals(ppath)
    result = evaluate_proposals(all_props, manifest,
                                metrics_mod.threshold_set(args.thresholds),
                                an_max=args.an_max)
    if result.get("eligible_videos", 0) == 0:
        print("no eligible videos (all ground truth empty); metrics absent")
        return 0
    out_dir = args.out or args.proposals
    os.makedirs(out_dir, exist_ok=True)
    metrics_mod.write_report(result, os.path.join(out_dir, "report.txt"))
    metrics_mod.write_ar_curve_csv(result, os.path.join(out_dir, "ar_curve.csv"))
    for key in ("AR@10", "AR@50", "AR@100", "AUC"):
        if key in result:
            print(f"{key}: {result[key]:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    hyper = HyperShape(T=args.snippets, C=args.channels, H=args.hidden,
                       Hp=args.pem_hidden, D=args.max_duration, N=args.n_samples)
    report = grad_check(hyper, args.seed)
    for name, rel in report["tensors"].items():
        print(f"{name}: max_rel_error={rel:.3e}")
    status = "PASS" if report["passed"] else "FAIL"
    print(f"gradient check {status} "
          f"(max {report['max_rel_error']:.3e}, tol {report['tolerance']:g})")
    return 0 if report["passed"] else 3


ABLATION_METRICS = ("AUC", "AR@10", "AR@50", "AR@100")
GRIDS = {
    "default": ["sstap", "supervised"],
    "components": ["sstap", "no_shift", "no_flip", "no_recon", "no_order",
                   "supervised"],
}


def cmd_ablate(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = GRIDS[args.grid]
    train_manifest = read_manifest(args.train_manifest)
    test_manifest = read_manifest(args.test_manifest)
    base = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for mode in modes:
        for seed in seeds:
            cfg = dataclasses.replace(apply_mode(base, mode), seed=seed)
            run_dir = os.path.join(args.out, f"{mode}-{config_hash(cfg)}-s{seed}")
            _, trainer = train_run(train_manifest, args.train_manifest, cfg, run_dir)
            props = run_inference(trainer.net, trainer.student, test_manifest,
                                  args.test_manifest, os.path.join(run_dir, "proposals"))
            result = evaluate_proposals(props, test_manifest,
                                        metrics_mod.threshold_set(args.thresholds))
            row = {"config": mode, "seed": seed,
                   **{k: result.get(k, float("nan")) for k in ABLATION_METRICS}}
            rows.append(row)
            print(f"{mode} seed={seed}: AUC={row['AUC']:.3f} "
                  f"AR@10={row['AR@10']:.3f}")
    csv_path = os.path.join(args.out, "ablation.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("config", "seed") + ABLATION_METRICS) + "\n")
        for r in rows:
            cells = [r["config"], str(r["seed"])] + [f"{r[k]:.4f}" for k in ABLATION_METRICS]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="semiprop",
                description="semi-supervised temporal action proposal toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic feature dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--videos", type=int, required=True)
    g.add_argument("--snippets", type=int, default=100)
    g.add_argument("--channels", type=int, default=16)
    g.add_argument("--labeled", type=float, default=1.0,
                   help="fraction of videos flagged labeled")
    g.add_argument("--seed", type=int, default=1)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset manifest")
    t.add_argument("--manifest", required=True)
    t.add_argument("--config", help="JSON config file; flags override it")
    t.add_argument("--mode", default="sstap", choices=list(MODES))
    t.add_argument("--out", help="run directory (default: runs/<hash>-s<seed>)")
    t.add_argument("--resume", help="checkpoint to resume from")
    for name, typ in (("alpha", float), ("lambda1", float), ("lambda2", float),
                      ("lambda3", float), ("lambda4", float), ("mu", float),
                      ("omega", float), ("p_drop", float),
                      ("batch_labeled", int), ("batch_unlabeled", int),
                      ("lr", float), ("epochs", int), ("seed", int),
                      ("hidden", int), ("pem_hidden", int), ("n_samples", int),
                      ("max_duration", int)):
        t.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ)
    t.add_argument("--precision", choices=["float32", "float64"])
    t.set_defaults(func=cmd_train)

    i = sub.add_parser("infer", help="emit proposals from a checkpoint")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--manifest", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--weights", default="student", choices=["student", "teacher"])
    i.add_argument("--sigma", type=float, default=0.4)
    i.add_argument("--score-floor", dest="score_floor", type=float, default=0.001)
    i.add_argument("--max-out", dest="max_out", type=int, default=100)
    i.set_defaults(func=cmd_infer)

    e = sub.add_parser("eval", help="score proposal files against a manifest")
    e.add_argument("--proposals", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--out")
    e.add_argument("--thresholds", default="anet", choices=["anet", "thumos"])
    e.add_argument("--an-max", dest="an_max", type=int, default=100)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("grad-check", help="finite-difference gradient check")
    c.add_argument("--snippets", type=int, default=12)
    c.add_argument("--channels", type=int, default=3)
    c.add_argument("--hidden", type=int, default=4)
    c.add_argument("--pem-hidden", dest="pem_hidden", type=int, default=4)
    c.add_argument("--max-duration", dest="max_duration", type=int, default=6)
    c.add_argument("--n-samples", dest="n_samples", type=int, default=4)
    c.add_argument("--seed", type=int, default=1)
    c.set_defaults(func=cmd_grad_check)

    a = sub.add_parser("ablate", help="run a config grid over shared seeds")
    a.add_argument("--grid", default="default", choices=sorted(GRIDS))
    a.add_argument("--seeds", default="1,2,3,4,5")
    a.add_argument("--train-manifest", dest="train_manifest", required=True)
    a.add_argument("--test-manifest", dest="test_manifest", required=True)
    a.add_argument("--config")
    a.add_argument("--out", required=True)
    a.add_argument("--thresholds", default="anet", choices=["anet", "thumos"])
    a.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
