"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and prints
one PASS/FAIL line. The training-based checks pin their seeds; runtimes are
asserted where the guarantee includes a budget.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from semiprop import cli, pretext
from semiprop.data import (AnnotationSet, build_label_maps,
                           gen_synthetic_dataset, iou_1d, load_video,
                           read_manifest)
from semiprop.metrics import ar_at_an, recall_matrix
from semiprop.model import HyperShape, grad_check
from semiprop.perturb import (Predictions, align_flip_outputs, temporal_flip,
                              temporal_shift)
from semiprop.postprocess import Proposal, read_proposals, soft_nms
from semiprop.trainer import (BatchVideo, TrainConfig, Trainer, load_training_set,
                              train_run, train_step)


def report(name, passed, detail=""):
    line = f"[ACCEPT] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_label_map_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    T, D = 20, 10
    worst = 0.0
    for _ in range(50):
        inst = []
        for _ in range(rng.integers(1, 4)):
            s = rng.uniform(0, T - 1)
            inst.append((s, min(float(T), s + rng.uniform(0.5, 6))))
        lm = build_label_maps(AnnotationSet(inst), T, D)
        oracle = np.zeros((D, T))
        for d in range(D):
            for i in range(T - d):
                oracle[d, i] = max(iou_1d((i, i + d + 1), g) for g in inst)
        worst = max(worst, float(np.abs(lm.g_iou - oracle).max()))
    elapsed = time.perf_counter() - t0
    report("label-map oracle", worst <= 1e-12 and elapsed < 5.0,
           f"max_abs_diff={worst:.2e}, {elapsed:.2f}s")


def test_metrics_oracle():
    thresholds = [0.5, 0.75, 0.95]
    m = recall_matrix([Proposal(12, 28, 0.9)], AnnotationSet([(10, 30)]),
                      thresholds, [1])
    ar1 = ar_at_an([m], 0)
    videos = [
        ([Proposal(0, 4, 0.9), Proposal(10, 14, 0.8)],
         AnnotationSet([(0, 4), (10, 14)])),
        ([Proposal(1, 5, 0.7)], AnnotationSet([(0, 4)])),
        ([Proposal(2, 9, 0.6), Proposal(0, 3, 0.5)],
         AnnotationSet([(0, 3), (20, 25)])),
    ]
    an_values = [1, 2, 3]
    mats = [recall_matrix(p, g, thresholds, an_values) for p, g in videos]
    worst = 0.0
    for j, an in enumerate(an_values):
        per_video = []
        for props, gt in videos:
            recs = [np.mean([any(iou_1d((p.start, p.end), tuple(g)) >= th
                                 for p in props[:an])
                             for g in gt.instances])
                    for th in thresholds]
            per_video.append(np.mean(recs))
        worst = max(worst, abs(ar_at_an(mats, j) - float(np.mean(per_video))))
    # AUC oracle on the same fixture: mean of AR@AN over 1..100 (columns
    # saturate at AN=3, so extend by repetition)
    full = [recall_matrix(p, g, thresholds, range(1, 101)) for p, g in videos]
    auc_direct = 100.0 * np.mean([ar_at_an(full, j) for j in range(100)])
    from semiprop.metrics import auc
    worst = max(worst, abs(auc(full, range(1, 101)) - auc_direct))
    report("metrics oracle", abs(ar1 - 2 / 3) <= 1e-12 and worst <= 1e-12,
           f"AR@1={ar1:.6f}, max_abs_diff={worst:.2e}")


def test_soft_nms_oracle():
    decayed = soft_nms([Proposal(0, 9, 1.0), Proposal(1, 10, 0.9)],
                       sigma=0.4, score_floor=0.0)[1].score
    decay_ok = abs(decayed - 0.9 * math.exp(-1.6)) <= 1e-6

    rng = np.random.default_rng(1)
    agree = True
    for _ in range(100):
        seen, props = set(), []
        for _ in range(rng.integers(1, 21)):
            s = int(rng.integers(0, 30))
            e = s + int(rng.integers(1, 11))
            if (s, e) in seen:
                continue
            seen.add((s, e))
            props.append(Proposal(float(s), float(e),
                                  round(float(rng.uniform(0.05, 1)), 6)))
        got = soft_nms(props, sigma=1e-6, score_floor=0.001)
        pool = sorted(props, key=lambda p: (-p.score, p.start, p.end))
        keep = []
        while pool:
            best = pool.pop(0)
            keep.append(best)
            pool = [p for p in pool
                    if iou_1d((best.start, best.end), (p.start, p.end)) == 0.0]
        agree &= [(p.start, p.end) for p in got] == [(p.start, p.end) for p in keep]
    report("soft-nms oracle", decay_ok and agree,
           f"decayed={decayed:.6f}, hard-NMS agreement on 100 sets: {agree}")


def test_gradient_check():
    t0 = time.perf_counter()
    res = grad_check(HyperShape(T=12, C=3, H=4, Hp=4, D=6, N=4), seed=0)
    elapsed = time.perf_counter() - t0
    report("gradient check", res["passed"] and elapsed < 60.0,
           f"max_rel_error={res['max_rel_error']:.2e}, {elapsed:.1f}s")


def test_ema_closed_form():
    alpha, k = 0.999, 50
    theta0, theta = 2.5, -1.25
    teacher = np.full(8, theta0)
    for _ in range(k):
        from semiprop.trainer import ema_update
        ema_update(teacher, np.full(8, theta), alpha)
    expect = alpha ** k * theta0 + (1 - alpha ** k) * theta
    err = float(np.abs(teacher - expect).max())
    report("EMA closed form", err <= 1e-10, f"abs_err={err:.2e}")


def test_perturbation_algebra():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1000):
        T = int(rng.integers(4, 16))
        C = int(rng.integers(4, 20))
        f = rng.normal(size=(T, C))
        ok &= np.array_equal(temporal_flip(temporal_flip(f)), f)

        mu = float(rng.uniform(2.0 / C, 1.0))
        shifted, plan = temporal_shift(f, mu, rng)
        touched = set(plan.forward_channels) | set(plan.backward_channels)
        for c in range(C):
            if c not in touched:
                ok &= np.array_equal(shifted[:, c], f[:, c])

        D = int(rng.integers(1, T + 1))
        vm = np.zeros((D, T))
        for d in range(D):
            vm[d, : T - d] = 1.0
        pred = Predictions(p_s=rng.random(T), p_e=rng.random(T),
                           m_cc=rng.random((D, T)) * vm,
                           m_cr=rng.random((D, T)) * vm)
        twice = align_flip_outputs(align_flip_outputs(pred))
        v = vm.astype(bool)
        ok &= np.array_equal(twice.p_s, pred.p_s)
        ok &= np.array_equal(twice.p_e, pred.p_e)
        ok &= np.array_equal(twice.m_cc[v], pred.m_cc[v])
        ok &= np.array_equal(twice.m_cr[v], pred.m_cr[v])
    report("perturbation algebra", ok, "1000 randomized trials")


def test_loss_decomposition():
    hyper = HyperShape(T=16, C=4, H=4, Hp=4, D=8, N=4, K=2)
    cfg = TrainConfig(hidden=4, pem_hidden=4, n_samples=4, max_duration=8,
                      mu=0.5, seed=1)  # paper lambda defaults
    trainer = Trainer.create(hyper, cfg)
    rng = np.random.default_rng(3)
    batch = []
    for j in range(2):
        f = rng.normal(size=(hyper.T, hyper.C))
        lm = build_label_maps(AnnotationSet([(3.0, 7.0)]), hyper.T, hyper.D)
        batch.append(BatchVideo(f"l{j}", f, True, lm))
    for j in range(2):
        batch.append(BatchVideo(f"u{j}", rng.normal(size=(hyper.T, hyper.C)), False))
    l1, l2, l3, l4 = cfg.lambdas()
    worst = 0.0
    for _ in range(10):
        rep = train_step(trainer.net, trainer.student, trainer.teacher, batch,
                         cfg, trainer.rng_aux, trainer.opt)
        composed = (rep["supervised"] + l1 * rep["shift"] + l2 * rep["flip"]
                    + l3 * rep["recon"] + l4 * rep["order"])
        worst = max(worst, abs(rep["total"] - composed))
    report("loss decomposition", worst <= 1e-9, f"max_abs_diff={worst:.2e} over 10 steps")


def test_overfit_sanity(tmp_path):
    t0 = time.perf_counter()
    root = tmp_path / "data"
    gen_synthetic_dataset(root, n_videos=20, T=100, C=16,
                          label_fraction=1.0, seed=1)
    mpath = root / "manifest.json"
    manifest = read_manifest(mpath)
    cfg = TrainConfig(epochs=200, seed=1, precision="float32",
                      lambda1=0, lambda2=0, lambda3=0, lambda4=0,
                      batch_unlabeled=0, batch_labeled=4)
    hyper, labeled, unlabeled = load_training_set(manifest, mpath, cfg)
    trainer = Trainer.create(hyper, cfg)
    records = trainer.run(labeled, unlabeled, tmp_path / "run")
    initial, final = records[0]["total"], records[-1]["total"]

    props = cli.run_inference(trainer.net, trainer.student, manifest, mpath,
                              tmp_path / "props")
    recalls = []
    for entry in manifest.videos:
        mat = recall_matrix(props[entry.video_id],
                            AnnotationSet([tuple(a) for a in entry.annotations]),
                            [0.5], [10])
        recalls.append(mat[0, 0])
    ar10 = float(np.mean(recalls))
    elapsed = time.perf_counter() - t0
    report("overfit sanity",
           ar10 >= 0.9 and final <= 0.5 * initial and elapsed < 600.0,
           f"AR@10@0.5={ar10:.3f}, loss {initial:.3f}->{final:.3f}, {elapsed:.0f}s")


def test_semi_supervised_direction(tmp_path):
    train_root, test_root = tmp_path / "train", tmp_path / "test"
    gen_synthetic_dataset(train_root, n_videos=100, T=50, C=16,
                          label_fraction=0.1, seed=100)
    gen_synthetic_dataset(test_root, n_videos=20, T=50, C=16,
                          label_fraction=1.0, seed=200)
    # mu = 2^-3: the smallest value that selects a channel pair at C=16
    cfg = TrainConfig(epochs=8, precision="float32", mu=0.125)
    cfg_path = tmp_path / "config.json"
    cfg.to_file(cfg_path)
    out_dir = tmp_path / "ablation"
    rc = cli.main(["ablate", "--grid", "default", "--seeds", "1,2,3,4,5",
                   "--train-manifest", str(train_root / "manifest.json"),
                   "--test-manifest", str(test_root / "manifest.json"),
                   "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    with open(out_dir / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    auc = {(r["config"], r["seed"]): float(r["AUC"]) for r in rows}
    seeds = ["1", "2", "3", "4", "5"]
    wins = sum(auc[("sstap", s)] >= auc[("supervised", s)] for s in seeds)
    mean_full = np.mean([auc[("sstap", s)] for s in seeds])
    mean_sup = np.mean([auc[("supervised", s)] for s in seeds])
    report("semi-supervised direction",
           wins >= 4 and mean_full > mean_sup,
           f"wins={wins}/5, mean AUC full={mean_full:.2f} vs supervised={mean_sup:.2f}")


def _pretext_train(root, cfg, steps):
    mpath = os.path.join(root, "manifest.json")
    manifest = read_manifest(mpath)
    hyper, labeled, _ = load_training_set(manifest, mpath, cfg)
    trainer = Trainer.create(hyper, cfg)
    init = trainer.student.copy_store()
    pool = [BatchVideo(bv.video_id, bv.features, False, None) for bv in labeled]
    rng = trainer.rng_aux
    for _ in range(steps):
        idx = rng.choice(len(pool), size=4, replace=False)
        train_step(trainer.net, trainer.student, trainer.teacher,
                   [pool[i] for i in idx], cfg, rng, trainer.opt)
    return trainer, init, pool


def test_pretext_learnability(tmp_path):
    base = dict(epochs=1, precision="float32", mu=0.125, p_drop=0.0,
                lambda1=0, lambda2=0, batch_unlabeled=4, lr=2e-3, seed=1)

    # clip-order: train on 100 videos, measure on 10 held-out videos
    order_root = tmp_path / "order"
    gen_synthetic_dataset(order_root, n_videos=100, T=20, C=16,
                          label_fraction=1.0, seed=1)
    held_root = tmp_path / "held"
    gen_synthetic_dataset(held_root, n_videos=10, T=20, C=16,
                          label_fraction=1.0, seed=51)
    cfg_o = TrainConfig(lambda3=1.0, lambda4=1.0, hidden=32, **base)
    tr_o, _, _ = _pretext_train(order_root, cfg_o, steps=4000)
    held_mpath = held_root / "manifest.json"
    held = read_manifest(held_mpath)
    erng = np.random.default_rng(99)
    hits = total = 0
    for entry in held.videos:
        f = load_video(held_mpath, entry).values.astype(np.float32)
        for _ in range(20):
            shuffled, label = pretext.make_order_sample(f, cfg_o.K, erng)
            out = tr_o.net.forward(tr_o.student, shuffled, heads={"order"},
                                   requires_grad=False)
            hits += int(np.argmax(out.order_logits.data) == label)
            total += 1
    acc = hits / total

    # reconstruction: loss on masked inputs, trained vs freshly initialized
    recon_root = tmp_path / "recon"
    gen_synthetic_dataset(recon_root, n_videos=30, T=20, C=16,
                          label_fraction=1.0, seed=1)
    cfg_r = TrainConfig(lambda3=1.0, lambda4=0.0, hidden=64, **base)
    tr_r, init_r, pool_r = _pretext_train(recon_root, cfg_r, steps=8000)
    before, after = [], []
    for bv in pool_r:
        f2, _ = pretext.mask_features(bv.features, cfg_r.omega, erng)
        for params, acc_list in ((init_r, before), (tr_r.student, after)):
            out = tr_r.net.forward(params, f2, heads={"recon"},
                                   requires_grad=False)
            acc_list.append(pretext.recon_loss(out.recon.data, bv.features).item())
    ratio = float(np.mean(before) / np.mean(after))
    report("pretext learnability", acc >= 0.95 and ratio >= 5.0,
           f"order_acc={acc:.3f}, recon_ratio={ratio:.2f}")
