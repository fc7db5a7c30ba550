import copy
import ctypes
import dataclasses
import gc
import json
import logging
import math
import platform
import resource

import numpy as np
import pytest

import semiprop
from semiprop import autodiff as ad
from semiprop import pretext
from semiprop import trainer as trainer_mod
from semiprop.cli import MODES, apply_mode
from semiprop.data import (AnnotationSet, FormatError, LabelMaps, build_label_maps,
                           candidate_mask, gen_synthetic_dataset, read_manifest)
from semiprop.model import (HyperShape, ModelOutputs, ParamStore, ProposalNetwork,
                            backward, load_checkpoint, save_checkpoint, wrap_params)
from semiprop.perturb import (Predictions, align_flip_outputs, temporal_flip,
                              temporal_shift)
from semiprop.trainer import (LOSS_TERMS, AdamState, BatchVideo, TrainConfig,
                              Trainer, consistency_loss, ema_update,
                              load_training_set, supervised_loss, train_run,
                              train_step)

TINY = HyperShape(T=16, C=4, H=4, Hp=4, D=8, N=4, K=2)


def tiny_cfg(**kw):
    base = dict(hidden=4, pem_hidden=4, n_samples=4, max_duration=8,
                batch_labeled=2, batch_unlabeled=2, epochs=1, seed=1,
                mu=0.5)  # C=4 test inputs: the default mu selects 0 channels
    base.update(kw)
    return TrainConfig(**base)


def make_batch(net, rng, n_labeled, n_unlabeled):
    h = net.hyper
    out = []
    for j in range(n_labeled):
        f = rng.normal(size=(h.T, h.C))
        anns = AnnotationSet([(3.0, 7.0)])
        lm = build_label_maps(anns, h.T, h.D)
        out.append(BatchVideo(f"lab{j}", f, True, lm))
    for j in range(n_unlabeled):
        out.append(BatchVideo(f"unl{j}", rng.normal(size=(h.T, h.C)), False))
    return out


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.999
        assert cfg.lambdas() == (1.0, 0.1, 0.0001, 0.001)
        assert cfg.mu == 2.0 ** -4 and cfg.omega == 0.3 and cfg.K == 2

    @pytest.mark.parametrize("kw", [dict(alpha=1.0), dict(alpha=0.0),
                                    dict(lambda2=-1.0), dict(batch_labeled=0),
                                    dict(precision="float16"),
                                    dict(epochs=0), dict(epochs=-1),
                                    dict(p_drop=1.0), dict(p_drop=-0.1),
                                    dict(p_drop=float("nan")), dict(lr=-1.0),
                                    dict(lr=0.0), dict(lr=float("nan")),
                                    dict(max_duration=0), dict(lambda1=float("nan")),
                                    dict(beta1=2.0), dict(eps=-1.0), dict(mu=5.0),
                                    dict(beta2=-1.0), dict(omega=1.5), dict(K=1),
                                    dict(hidden=0), dict(n_samples=1),
                                    dict(lr=float("inf")), dict(eps=0.0), dict(mu=0.0),
                                    dict(beta1=1.0), dict(omega=-0.1),
                                    dict(pem_hidden=0), dict(seed=-1),
                                    dict(lambda4=float("inf")), dict(alpha=float("nan"))])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_range_ends_accepted(self):
        TrainConfig(beta1=0.0, beta2=0.0, omega=0.0, mu=1.0, K=2, hidden=1, pem_hidden=1,
                    n_samples=2, seed=0, lambda1=0.0, batch_unlabeled=0)

    def test_file_roundtrip_and_unknown_key(self, tmp_path):
        cfg = tiny_cfg(lr=0.5)
        path = tmp_path / "config.json"
        cfg.to_file(path)
        assert TrainConfig.from_file(path) == cfg
        doc = json.loads(path.read_text())
        doc["learning_rate"] = 0.1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_file(path)

    def test_file_accepts_int_for_float_and_null_max_duration(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lr": 1, "max_duration": None, "epochs": 3}))
        cfg = TrainConfig.from_file(path)
        assert (cfg.lr, cfg.max_duration, cfg.epochs) == (1, None, 3)


class TestEmaUpdate:
    def test_single_step_arithmetic(self):
        teacher = np.zeros(3)
        ema_update(teacher, np.ones(3), alpha=0.999)
        assert np.allclose(teacher, 0.001)

    def test_alpha_zero_copies_student(self):
        teacher = np.full(3, 5.0)
        student = np.array([1.0, 2.0, 3.0])
        ema_update(teacher, student, alpha=0.0)
        assert np.array_equal(teacher, student)

    def test_constant_student_matches_closed_form_k50(self):
        alpha = 0.999
        theta0, theta = 3.0, -2.0
        teacher = np.full(4, theta0)
        student = np.full(4, theta)
        for _ in range(50):
            ema_update(teacher, student, alpha)
        expect = alpha ** 50 * theta0 + (1 - alpha ** 50) * theta
        assert np.abs(teacher - expect).max() <= 1e-10

    def test_varying_student_matches_recurrence_oracle(self):
        rng = np.random.default_rng(0)
        alpha = 0.9
        teacher = rng.normal(size=5)
        expect = teacher.copy()
        for _ in range(20):
            s = rng.normal(size=5)
            ema_update(teacher, s, alpha)
            expect = alpha * expect + (1 - alpha) * s
        assert np.abs(teacher - expect).max() <= 1e-12

    def test_moves_every_tensor_of_a_store_through_its_buffer(self):
        shapes = {"a.w": (2, 3), "a.b": (3,)}
        teacher = ParamStore(np.zeros(9), shapes)
        student = ParamStore(np.arange(9.0), shapes)
        ema_update(teacher.flat, student.flat, alpha=0.5)
        for name in shapes:
            assert np.array_equal(teacher[name], 0.5 * student[name])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros(3), np.zeros(4), 0.5)


def const_outputs(T, D, value=0.5):
    vm = np.zeros((D, T))
    for d in range(D):
        vm[d, : T - d] = 1.0
    full = np.full((D, T), value) * vm
    return ModelOutputs(
        p_s=ad.Tensor(np.full(T, value), requires_grad=True),
        p_e=ad.Tensor(np.full(T, value), requires_grad=True),
        m_cc=ad.Tensor(full.copy(), requires_grad=True),
        m_cr=ad.Tensor(full.copy(), requires_grad=True),
        valid_mask=vm,
    )


def naive_supervised_loss(p_s, p_e, m_cc, m_cr, labels):
    """Straightforward scalar-loop re-implementation used as an oracle."""

    def balanced_bce(p, target, mask):
        idx = [i for i in np.ndindex(target.shape) if mask[i]]
        n = len(idx)
        pos = [i for i in idx if target[i] > 0.5]
        neg = [i for i in idx if target[i] <= 0.5]
        w_pos = 0.5 * n / len(pos) if pos else 0.0
        w_neg = 0.5 * n / len(neg) if neg else 0.0
        total = 0.0
        for i in pos:
            total += w_pos * math.log(max(p[i], 1e-12))
        for i in neg:
            total += w_neg * math.log(max(1.0 - p[i], 1e-12))
        return -total / n

    ones = np.ones_like(labels.g_start)
    valid = candidate_mask(*labels.g_iou.shape[::-1]).astype(bool)
    loss = balanced_bce(p_s, labels.g_start, ones.astype(bool))
    loss += balanced_bce(p_e, labels.g_end, ones.astype(bool))
    cls_mask = valid & ((labels.g_iou > 0.9) | (labels.g_iou < 0.3))
    loss += balanced_bce(m_cc, labels.g_iou, cls_mask)

    pos = [i for i in np.ndindex(labels.g_iou.shape)
           if valid[i] and labels.g_iou[i] > 0]
    neg = [i for i in np.ndindex(labels.g_iou.shape)
           if valid[i] and labels.g_iou[i] == 0]
    sel = pos + neg[: len(pos)] if pos else neg
    sq = sum((m_cr[i] - labels.g_iou[i]) ** 2 for i in sel)
    return loss + sq / max(len(sel), 1)


class TestSupervisedLoss:
    def test_uniform_half_prediction_value(self):
        T, D = 4, 2
        labels = build_label_maps(AnnotationSet([(0.0, 2.0)]), T, D)
        # force a fully specified tiny label set
        labels.g_start[:] = [1.0, 1.0, 0.0, 0.0]
        labels.g_end[:] = [0.0, 0.0, 1.0, 1.0]
        labels.g_iou[:] = 0.0
        labels.g_iou[1, 0] = 1.0
        out = const_outputs(T, D)
        got = supervised_loss(out, labels).item()
        # boundary terms ln2 each; cls term ln2 (both classes present);
        # regression: one positive + one subsampled negative at 0.5
        expect = 3 * math.log(2) + ((0.5 - 1.0) ** 2 + 0.25) / 2
        assert got == pytest.approx(expect, abs=1e-12)

    def test_saturated_predictions_drive_loss_to_zero(self):
        T, D = 8, 4
        labels = build_label_maps(AnnotationSet([(2.0, 6.0)]), T, D)
        out = const_outputs(T, D)
        eps = 1e-9
        out.p_s.data[:] = np.where(labels.g_start > 0.5, 1 - eps, eps)
        out.p_e.data[:] = np.where(labels.g_end > 0.5, 1 - eps, eps)
        out.m_cc.data[:] = np.where(labels.g_iou > 0.5, 1 - eps, eps)
        out.m_cr.data[:] = labels.g_iou
        assert supervised_loss(out, labels).item() < 1e-6

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(5)
        T, D = 10, 5
        for trial in range(10):
            s = rng.uniform(0, 6)
            labels = build_label_maps(AnnotationSet([(s, s + rng.uniform(1, 4))]),
                                      T, D)
            out = const_outputs(T, D)
            out.p_s.data[:] = rng.uniform(0.05, 0.95, T)
            out.p_e.data[:] = rng.uniform(0.05, 0.95, T)
            out.m_cc.data[:] = rng.uniform(0.05, 0.95, (D, T)) * out.valid_mask
            out.m_cr.data[:] = rng.uniform(0.05, 0.95, (D, T)) * out.valid_mask
            got = supervised_loss(out, labels).item()
            want = naive_supervised_loss(out.p_s.data, out.p_e.data,
                                         out.m_cc.data, out.m_cr.data, labels)
            assert abs(got - want) <= 1e-10

    def test_shape_mismatch(self):
        labels = build_label_maps(AnnotationSet([]), 8, 4)
        with pytest.raises(ValueError):
            supervised_loss(const_outputs(9, 4), labels)

    def test_negatives_are_subsampled_one_to_one_from_the_rng(self, monkeypatch):
        """With more zero-IoU negatives than positives, the regression term
        is the mean squared error over the positives and as many negatives,
        drawn without replacement from the generator passed in."""
        T, D = 16, 8
        labels = build_label_maps(AnnotationSet([(5.0, 6.5)]), T, D)
        out = const_outputs(T, D)
        out.m_cr.data[:] = np.random.default_rng(4).uniform(0.05, 0.95, (D, T)) * out.valid_mask
        valid = out.valid_mask.astype(bool)
        pos = valid & (labels.g_iou > 0.0)
        neg_idx = np.flatnonzero((valid & (labels.g_iou == 0.0)).ravel())
        n_pos = int(pos.sum())
        assert 0 < n_pos < neg_idx.size

        rng = np.random.default_rng(9)
        draw = copy.deepcopy(rng)
        sel = pos.copy()
        sel.ravel()[draw.choice(neg_idx, n_pos, replace=False)] = True
        want = float(np.mean((out.m_cr.data - labels.g_iou)[sel] ** 2))

        terms, mse = [], ad.mse

        def recorded(*args):
            terms.append((args, mse(*args)))
            return terms[-1][1]
        monkeypatch.setattr(ad, "mse", recorded)
        supervised_loss(out, labels, rng)
        (args, term), = terms
        assert np.array_equal(args[2], sel)
        assert term.item() == pytest.approx(want, rel=1e-12)
        assert rng.bit_generator.state == draw.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(9).bit_generator.state


class TestConsistencyLoss:
    def test_identical_outputs_zero(self):
        out = const_outputs(8, 4)
        assert consistency_loss(out, out.detach()).item() == 0.0

    def test_constant_offset_point_zero_one_per_field(self):
        out = const_outputs(8, 4, value=0.6)
        teacher = const_outputs(8, 4, value=0.5).detach()
        got = consistency_loss(out, teacher).item()
        assert got == pytest.approx(4 * 0.01, abs=1e-12)

    def test_gradient_reaches_student_only(self):
        out = const_outputs(8, 4, value=0.6)
        teacher = const_outputs(8, 4, value=0.5).detach()
        before = teacher.p_s.copy()
        consistency_loss(out, teacher).backward()
        assert out.p_s.grad is not None and np.abs(out.p_s.grad).max() > 0
        assert np.array_equal(teacher.p_s, before)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            consistency_loss(const_outputs(8, 4), const_outputs(9, 4).detach())


def fresh_state(cfg, seed_data=0, n_labeled=2, n_unlabeled=2):
    net = ProposalNetwork(TINY)
    student = net.init_params(cfg.seed, dtype=cfg.dtype)
    teacher = student.copy_store()
    opt = AdamState.like(student)
    batch = make_batch(net, np.random.default_rng(seed_data),
                       n_labeled, n_unlabeled)
    return net, student, teacher, opt, batch


class TestTrainStep:
    def test_report_has_all_terms_and_exact_composition(self):
        cfg = tiny_cfg()
        net, student, teacher, opt, batch = fresh_state(cfg)
        rng = np.random.default_rng(7)
        rep = train_step(net, student, teacher, batch, cfg, rng, opt)
        for key in ("supervised", "shift", "flip", "recon", "order"):
            assert rep[key] > 0.0
        l1, l2, l3, l4 = cfg.lambdas()
        composed = (rep["supervised"] + l1 * rep["shift"] + l2 * rep["flip"]
                    + l3 * rep["recon"] + l4 * rep["order"])
        assert rep["total"] == pytest.approx(composed, abs=1e-12)
        assert opt.t == 1

    def test_all_lambda_zero_reports_zero_aux(self):
        cfg = tiny_cfg(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        net, student, teacher, opt, batch = fresh_state(cfg)
        rep = train_step(net, student, teacher, batch, cfg,
                         np.random.default_rng(7), opt)
        assert rep["shift"] == rep["flip"] == rep["recon"] == rep["order"] == 0.0
        assert rep["total"] == rep["supervised"] > 0.0

    def test_unlabeled_only_with_zero_lambdas_rejected(self):
        cfg = tiny_cfg(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        net, student, teacher, opt, batch = fresh_state(cfg, n_labeled=0)
        with pytest.raises(ValueError):
            train_step(net, student, teacher, batch, cfg,
                       np.random.default_rng(0), opt)

    def test_three_steps_bitwise_deterministic(self):
        cfg = tiny_cfg()

        def run():
            net, student, teacher, opt, batch = fresh_state(cfg)
            rng = np.random.default_rng(11)
            reports = [train_step(net, student, teacher, batch, cfg, rng, opt)
                       for _ in range(3)]
            return reports, student

        r1, s1 = run()
        r2, s2 = run()
        assert r1 == r2
        for k in s1:
            assert np.array_equal(s1[k], s2[k])

    def test_zero_lambdas_make_unlabeled_videos_irrelevant(self):
        cfg = tiny_cfg(lambda1=0, lambda2=0, lambda3=0, lambda4=0)

        def run(n_unlabeled):
            net, student, teacher, opt, batch = fresh_state(
                cfg, n_unlabeled=n_unlabeled)
            rng = np.random.default_rng(13)
            for _ in range(2):
                train_step(net, student, teacher, batch, cfg, rng, opt)
            return student, teacher

        s_mixed, t_mixed = run(n_unlabeled=2)
        s_only, t_only = run(n_unlabeled=0)
        for k in s_mixed:
            assert np.array_equal(s_mixed[k], s_only[k])
            assert np.array_equal(t_mixed[k], t_only[k])

    def test_teacher_tracks_ema_closed_form(self):
        cfg = tiny_cfg(alpha=0.9)
        net, student, teacher, opt, batch = fresh_state(cfg)
        theta0 = student.copy_store()
        rng = np.random.default_rng(17)
        expect = {k: v.copy() for k, v in theta0.items()}
        for _ in range(5):
            train_step(net, student, teacher, batch, cfg, rng, opt)
            for k in expect:
                expect[k] = 0.9 * expect[k] + 0.1 * student[k]
        for k in expect:
            assert np.abs(teacher[k] - expect[k]).max() <= 1e-8


    @pytest.mark.parametrize("mode, n_unlabeled, passes",
                             [("sstap", 2, 6), ("supervised", 0, 1)])
    def test_one_network_pass_per_branch(self, mode, n_unlabeled, passes, monkeypatch):
        """A step runs each branch (teacher, supervised, shift, flip, recon,
        order) once over the stacked videos, not once per video."""
        cfg = apply_mode(tiny_cfg(), mode)
        net, student, teacher, opt, batch = fresh_state(cfg, n_unlabeled=n_unlabeled)
        shapes = []
        forward = ProposalNetwork.forward

        def counting(self, params, f, *args, **kwargs):
            shapes.append(f.shape)
            return forward(self, params, f, *args, **kwargs)

        monkeypatch.setattr(ProposalNetwork, "forward", counting)
        train_step(net, student, teacher, batch, cfg, np.random.default_rng(0), opt)
        assert len(shapes) == passes
        assert shapes[0][0] == len(batch) and all(len(s) == 3 for s in shapes)

    def test_pooled_losses_equal_per_video_means(self):
        """Shift, flip, recon and order pool over the stack with equal
        denominators per video, so the batch loss is the mean of per-video
        losses; the supervised loss pools its class weights instead."""
        cfg = tiny_cfg(precision="float64")
        net, student, *_ = fresh_state(cfg)
        rng = np.random.default_rng(9)
        f = rng.normal(size=(3, TINY.T, TINY.C))
        out = net.forward(student, f, heads={"proposal", "recon", "order"},
                          requires_grad=False)
        teacher = net.forward(student, f[::-1].copy(), requires_grad=False).detach()
        labels = np.array([0, 1, 1])
        batched = [consistency_loss(out, teacher).item(),
                   pretext.recon_loss(out.recon, f[::-1]).item(),
                   pretext.order_loss(out.order_logits, labels).item()]
        per_video = []
        for k in range(3):
            one = net.forward(student, f[k], heads={"proposal", "recon", "order"},
                              requires_grad=False)
            t = net.forward(student, f[2 - k], requires_grad=False).detach()
            per_video.append([consistency_loss(one, t).item(),
                              pretext.recon_loss(one.recon, f[2 - k]).item(),
                              pretext.order_loss(one.order_logits, labels[k]).item()])
        assert np.allclose(batched, np.mean(per_video, axis=0), rtol=1e-12, atol=0)

    def test_step_leaves_no_graph_for_the_cyclic_collector(self):
        """Every tensor of a step's graph is freed by reference counting:
        with DEBUG_SAVEALL the collector keeps what it finds unreachable,
        and none of it is a Tensor."""
        cfg = tiny_cfg(precision="float32")
        net, student, teacher, opt, batch = fresh_state(cfg)
        batch = [BatchVideo(bv.video_id, bv.features.astype(np.float32), bv.labeled,
                            bv.label_maps) for bv in batch]
        flags = gc.get_debug()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                train_step(net, student, teacher, batch, cfg, np.random.default_rng(5), opt)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, ad.Tensor)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []


def summed_graph_step(net, student, teacher, batch, cfg, rng):
    """The gradients, raw terms and total of a step that keeps every
    branch's graph and runs one backward from the summed weighted total:
    `train_step` up to its Adam update, as it was before each branch ran its
    own backward."""
    w = dict(zip(LOSS_TERMS, (1.0, *cfg.lambdas())))
    lab = np.array([bv.labeled for bv in batch])
    wrapped = wrap_params(student)

    def student_pass(f, head):
        return net.forward(wrapped, f, heads={head}, train_mode=True, rng=rng,
                           p_drop=cfg.p_drop)

    f1 = np.stack([bv.features for bv in batch])
    terms = {}
    if w["shift"] > 0.0 or w["flip"] > 0.0:
        teacher_pred = net.forward(teacher, f1, heads={"proposal"},
                                   train_mode=False, requires_grad=False).detach()
    if lab.any():
        maps = [vars(bv.label_maps).values() for bv in batch if bv.labeled]
        terms["supervised"] = supervised_loss(student_pass(f1[lab], "proposal"),
                                              LabelMaps(*map(np.stack, zip(*maps))), rng=rng)
    if w["shift"] > 0.0:
        shifted = temporal_shift(f1, cfg.mu, rng)[0]
        terms["shift"] = consistency_loss(student_pass(shifted, "proposal"), teacher_pred)
    if w["flip"] > 0.0:
        terms["flip"] = consistency_loss(student_pass(temporal_flip(f1), "proposal"),
                                         align_flip_outputs(teacher_pred))
    if w["recon"] > 0.0:
        f2, _ = pretext.mask_features(f1, cfg.omega, rng)
        terms["recon"] = pretext.recon_loss(student_pass(f2, "recon").recon, f1)
    if w["order"] > 0.0:
        shuffled, label = pretext.make_order_sample(f1, cfg.K, rng)
        terms["order"] = pretext.order_loss(student_pass(shuffled, "order").order_logits, label)
    pieces = [terms[k] * w[k] for k in terms]
    total = sum(pieces[1:], pieces[0])
    report = {k: terms[k].item() if k in terms else 0.0 for k in LOSS_TERMS}
    report["total"] = total.item()
    return backward(total, wrapped), report


def typed_state(cfg, seed_data=0, n_labeled=2, n_unlabeled=2):
    """`fresh_state` with the batch's features in the training dtype."""
    net, student, teacher, opt, batch = fresh_state(cfg, seed_data, n_labeled, n_unlabeled)
    batch = [dataclasses.replace(bv, features=bv.features.astype(cfg.dtype)) for bv in batch]
    return net, student, teacher, opt, batch


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes() if np.isscalar(x) else x.tobytes()


class TestBranchBackward:
    """Each branch runs its own backward as soon as its loss exists."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_gradients_equal_the_summed_graph_bit_for_bit(self, mode, precision,
                                                          monkeypatch):
        cfg = apply_mode(tiny_cfg(precision=precision), mode)
        net, student, teacher, opt, _ = typed_state(cfg)
        grads = []
        adam = trainer_mod.adam_step

        def capturing(params, g, state, c):
            grads.append(g.flat.copy())
            adam(params, g, state, c)

        monkeypatch.setattr(trainer_mod, "adam_step", capturing)
        rng = np.random.default_rng(23)
        for step in range(3):
            batch = typed_state(cfg, seed_data=step, n_unlabeled=cfg.batch_unlabeled)[4]
            want, want_report = summed_graph_step(net, student, teacher, batch, cfg,
                                                  copy.deepcopy(rng))
            report = train_step(net, student, teacher, batch, cfg, rng, opt)
            assert grads[-1].dtype == want.flat.dtype == cfg.dtype
            assert bits(grads[-1]) == bits(want.flat), f"step {step}"
            assert report.keys() == want_report.keys()
            for k in report:
                assert bits(report[k]) == bits(want_report[k]), f"step {step}, {k}"
        assert len(grads) == 3

    def test_each_branch_graph_is_released_before_the_next_pass(self, monkeypatch):
        cfg = tiny_cfg(precision="float32")
        net, student, teacher, opt, batch = typed_state(cfg)
        losses, passes = [], []

        def recording(fn):
            def wrapper(*args, **kwargs):
                loss = fn(*args, **kwargs)
                losses.append(loss)
                return loss
            return wrapper

        for owner, name in ((trainer_mod, "supervised_loss"),
                            (trainer_mod, "consistency_loss"),
                            (pretext, "recon_loss"), (pretext, "order_loss")):
            monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
        forward = net.forward

        def checking(params, f, *args, **kwargs):
            if kwargs.get("requires_grad", True):  # a student pass
                assert len(losses) == len(passes)
                assert all(loss._parents is None for loss in losses)
                passes.append(f.shape)
            return forward(params, f, *args, **kwargs)

        monkeypatch.setattr(net, "forward", checking)
        train_step(net, student, teacher, batch, cfg, np.random.default_rng(3), opt)
        assert len(passes) == len(losses) == len(LOSS_TERMS)
        assert all(loss._parents is None for loss in losses)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("branch", [(trainer_mod, "supervised_loss"),
                                        (trainer_mod, "consistency_loss"),
                                        (pretext, "recon_loss"), (pretext, "order_loss")],
                             ids=lambda b: b[1])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_non_finite_branch_loss_raises_before_any_update(self, precision, branch, value,
                                                             monkeypatch):
        cfg = tiny_cfg(precision=precision)
        net, student, teacher, opt, batch = typed_state(cfg)
        rng = np.random.default_rng(29)
        train_step(net, student, teacher, batch, cfg, rng, opt)  # nonzero Adam moments
        owner, name = branch
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: ad.mul(fn(*a, **kw), value))
        stores = (student, teacher, opt.m, opt.v)
        before = [s.flat.copy() for s in stores]
        with pytest.raises(FloatingPointError, match="non-finite total loss (inf|nan)"):
            train_step(net, student, teacher, batch, cfg, rng, opt)
        assert opt.t == 1
        for store, flat in zip(stores, before):
            assert bits(store.flat) == bits(flat)


class TestTrainerRun:
    def _dataset(self, tmp_path, n=4, frac=0.5, T=16, C=4, seed=2):
        root = tmp_path / "data"
        gen_synthetic_dataset(root, n_videos=n, T=T, C=C,
                              label_fraction=frac, seed=seed)
        return root / "manifest.json", read_manifest(root / "manifest.json")

    def test_single_epoch_accounting(self, tmp_path):
        mpath, manifest = self._dataset(tmp_path, n=4, frac=0.5)
        cfg = tiny_cfg(epochs=1)
        ckpt, trainer = train_run(manifest, mpath, cfg, tmp_path / "run")
        assert trainer.epoch == 1
        assert trainer.opt.t == 1  # 2 labeled / batch of 2 -> one step
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert {"epoch", "steps", "wall_time_s", "supervised", "total"} <= set(rec)

    def test_resume_reproduces_trajectory_bitwise(self, tmp_path):
        mpath, manifest = self._dataset(tmp_path, n=4, frac=0.5)
        cfg2 = tiny_cfg(epochs=2)
        _, straight = train_run(manifest, mpath, cfg2, tmp_path / "run_a")

        cfg1 = tiny_cfg(epochs=1)
        ckpt, _ = train_run(manifest, mpath, cfg1, tmp_path / "run_b")
        _, resumed = train_run(manifest, mpath, cfg2, tmp_path / "run_b",
                               resume_from=ckpt)
        for k in straight.student:
            assert np.array_equal(straight.student[k], resumed.student[k])
            assert np.array_equal(straight.teacher[k], resumed.teacher[k])
        assert straight.opt.t == resumed.opt.t

    def _rewrite(self, ckpt, step=None, **extra):
        """Save `ckpt` again with its header's step and extra fields changed."""
        header, tensors = load_checkpoint(ckpt)
        header["extra"].update(extra)
        save_checkpoint(ckpt, HyperShape(**header["hyper"]), header["seed"],
                        header["step"] if step is None else step, header["precision"],
                        tensors, extra=header["extra"])
        return header

    def test_header_step_is_the_one_step_counter(self, tmp_path):
        """A checkpoint holds no step counter but the header's, and one that
        still carries the old `adam_t` and `teacher_step` fields loads with
        its Adam step taken from the header."""
        mpath, manifest = self._dataset(tmp_path)
        ckpt, trainer = train_run(manifest, mpath, tiny_cfg(epochs=1), tmp_path / "run")
        header, _ = load_checkpoint(ckpt)
        assert header["step"] == trainer.opt.t == 1
        assert not {"adam_t", "teacher_step"} & set(header["extra"])
        self._rewrite(ckpt, step=5, adam_t=1, teacher_step=1)
        assert Trainer.load(ckpt).opt.t == 5

    @pytest.mark.parametrize("config", [None, [1], {"alpha": 2.0}, {"lr": "x"},
                                        {"recon_support": "all"}, {"epochs": 2.5},
                                        {"seed": 1.5}, {"batch_labeled": 2.0},
                                        {"hidden": True}])
    def test_load_with_bad_stored_config_is_format_error(self, tmp_path, config):
        """With no config passed, the checkpoint's own must build a
        `TrainConfig`, read as a `--config` file is: a stale field name (one
        written before the field was removed) is rejected too, and so is a
        value of the wrong JSON type (a float or a bool for an integer)."""
        mpath, manifest = self._dataset(tmp_path)
        ckpt, _ = train_run(manifest, mpath, tiny_cfg(epochs=1), tmp_path / "run")
        stored = self._rewrite(ckpt)["extra"]["config"]
        self._rewrite(ckpt, config={**stored, **config} if isinstance(config, dict) else config)
        with pytest.raises(FormatError, match="bad config"):
            Trainer.load(ckpt)

    def test_resume_drops_metrics_lines_after_checkpoint(self, tmp_path):
        mpath, manifest = self._dataset(tmp_path, n=4, frac=0.5)
        ckpt, _ = train_run(manifest, mpath, tiny_cfg(epochs=1), tmp_path / "run")
        metrics = tmp_path / "run" / "metrics.jsonl"
        # a run stopped after epoch 2's line but before its checkpoint, and
        # one stopped while writing epoch 3's line
        with open(metrics, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"epoch": 2, "steps": 1, "total": -1.0}) + "\n")
            fh.write('{"epoch": 3, "st')
        train_run(manifest, mpath, tiny_cfg(epochs=3), tmp_path / "run",
                  resume_from=ckpt)
        recs = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        assert [r["epoch"] for r in recs] == [1, 2, 3]
        assert recs[1]["total"] != -1.0

    def test_resume_with_garbled_metrics_line_is_format_error(self, tmp_path):
        mpath, manifest = self._dataset(tmp_path, n=4, frac=0.5)
        ckpt, _ = train_run(manifest, mpath, tiny_cfg(epochs=1), tmp_path / "run")
        metrics = tmp_path / "run" / "metrics.jsonl"
        metrics.write_text("not json\n" + metrics.read_text())
        with pytest.raises(FormatError, match="metrics.jsonl"):
            train_run(manifest, mpath, tiny_cfg(epochs=2), tmp_path / "run",
                      resume_from=ckpt)

    def test_no_labeled_videos_rejected(self, tmp_path):
        mpath, manifest = self._dataset(tmp_path, n=2, frac=0.0)
        with pytest.raises(ValueError):
            train_run(manifest, mpath, tiny_cfg(), tmp_path / "run")

    def test_run_without_labeled_videos_rejected_before_writing(self, tmp_path):
        trainer = Trainer.create(TINY, tiny_cfg())
        unlabeled = [BatchVideo("unl0", np.zeros((TINY.T, TINY.C)), False)]
        with pytest.raises(ValueError, match="at least one labeled video"):
            trainer.run([], unlabeled, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_missing_positives_warn_once_per_cause_per_epoch(self, tmp_path, caplog):
        cfg = tiny_cfg(epochs=2, lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        trainer = Trainer.create(TINY, cfg)
        rng = np.random.default_rng(0)
        no_actions = build_label_maps(AnnotationSet([]), TINY.T, TINY.D)
        labeled = [BatchVideo(f"lab{j}", rng.normal(size=(TINY.T, TINY.C)), True, no_actions)
                   for j in range(4)]
        with caplog.at_level(logging.WARNING, logger="semiprop.trainer"):
            records = trainer.run(labeled, [], tmp_path / "run")
        assert [r["steps"] for r in records] == [2, 2]  # 2 videos per step, 3 causes each
        warned = [r.getMessage() for r in caplog.records if "no positive entries" in r.getMessage()]
        causes = ["start boundaries", "end boundaries", "confidence map"]
        assert sorted(warned) == sorted(
            f"no positive entries for {c}; positive term dropped" for c in causes * 2)
        # outside Trainer.run every call still warns, once per cause: the
        # loss is pooled over the call's stacked videos
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="semiprop.trainer"):
            for _ in range(2):
                train_step(trainer.net, trainer.student, trainer.teacher, labeled[:2],
                           cfg, np.random.default_rng(1), trainer.opt)
        assert len([r for r in caplog.records if "no positive" in r.getMessage()]) == 6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the package raises glibc's malloc thresholds only")
def test_training_step_faults_in_no_memory(tmp_path):
    """A warm 2 + 2 SSTAP step at the benchmark's shape (T = 100, C = 16,
    float32) reuses the memory the step before it freed. With glibc's default
    thresholds it faults thousands of pages back in per step."""
    gen_synthetic_dataset(tmp_path, n_videos=8, T=100, C=16, label_fraction=0.5, seed=1)
    mpath = tmp_path / "manifest.json"
    cfg = TrainConfig(precision="float32", mu=0.125, seed=1, batch_labeled=2,
                      batch_unlabeled=2)
    hyper, labeled, unlabeled = load_training_set(read_manifest(mpath), mpath, cfg)
    trainer = Trainer.create(hyper, cfg)
    batch = next(trainer.epoch_batches(labeled, unlabeled))
    assert [v.labeled for v in batch] == [True, True, False, False]

    def steps(n):
        for _ in range(n):
            train_step(trainer.net, trainer.student, trainer.teacher, batch, cfg,
                       trainer.rng_aux, trainer.opt)

    steps(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(5)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert per_step < 50, f"{per_step:.0f} minor page faults per step"


def test_malloc_thresholds_are_left_alone_on_other_libcs(monkeypatch):
    def no_libc(*args, **kwargs):
        raise AssertionError("the C library was opened")

    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    semiprop._keep_freed_memory()
