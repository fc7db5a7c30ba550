"""Every squared-error loss goes through `ad.mse`. These tests keep copies of
the expressions each site wrote out by hand before that, and check that the
values and gradients are the same to the bit."""

import copy

import numpy as np
import pytest

from semiprop import autodiff as ad
from semiprop import pretext
from semiprop.data import AnnotationSet, build_label_maps
from semiprop.model import (HyperShape, ModelOutputs, ProposalNetwork, backward,
                            composite_loss, wrap_params)
from semiprop.perturb import align_flip_outputs
from semiprop.trainer import _balanced_bce, consistency_loss, supervised_loss

DTYPES = [np.float32, np.float64]
SMALL = HyperShape(T=12, C=3, H=4, Hp=4, D=6, N=4, K=2)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


def old_composite_loss(net, wrapped, f, targets, rng):
    out = net.forward(wrapped, f, heads={"proposal", "recon", "order"},
                      train_mode=True, rng=rng, p_drop=0.1)
    vm = net.valid_mask
    nvalid = vm.sum()
    loss = ad.tmean(ad.square(out.p_s - targets["p_s"]))
    loss = loss + ad.tmean(ad.square(out.p_e - targets["p_e"]))
    loss = loss + ad.tsum(ad.mul(ad.square(out.m_cc - targets["m_cc"]), vm)) / nvalid
    loss = loss + ad.tsum(ad.mul(ad.square(out.m_cr - targets["m_cr"]), vm)) / nvalid
    loss = loss + pretext.recon_loss(out.recon, targets["recon"])
    loss = loss + pretext.order_loss(out.order_logits, targets["order_label"])
    return loss


@pytest.mark.parametrize("dtype", DTYPES)
def test_composite_loss_matches_old_expression(dtype):
    net = ProposalNetwork(SMALL)
    rng = np.random.default_rng(3)
    params = net.init_params(3, dtype=dtype)
    for v in params.values():
        v += rng.uniform(-0.1, 0.1, size=v.shape).astype(dtype)
    h = SMALL
    f = rng.normal(size=(h.T, h.C)).astype(dtype)
    targets = {"p_s": rng.random(h.T), "p_e": rng.random(h.T),
               "m_cc": rng.random((h.D, h.T)) * net.valid_mask,
               "m_cr": rng.random((h.D, h.T)) * net.valid_mask,
               "recon": rng.normal(size=(h.T, h.C))}
    targets = {k: v.astype(dtype) for k, v in targets.items()}
    targets["order_label"] = 1
    new_w, old_w = wrap_params(params), wrap_params(params)
    new = composite_loss(net, new_w, f, targets, copy.deepcopy(rng))
    old = old_composite_loss(net, old_w, f, targets, rng)
    new_g, old_g = backward(new, new_w), backward(old, old_w)
    for name in params:
        assert same(new_g[name], old_g[name]), name
    if dtype == np.float64:
        assert same(new.data, old.data)
    else:
        # the old map terms multiplied float32 squares by the float64 valid
        # mask, so they summed in float64; `mse` keeps pred's dtype
        assert new.item() == pytest.approx(old.item(), rel=1e-6)


def old_consistency_loss(student_out, teacher_aligned):
    dt = student_out.p_s.data.dtype
    loss = ad.tmean(ad.square(student_out.p_s - teacher_aligned.p_s.astype(dt)))
    loss = loss + ad.tmean(ad.square(student_out.p_e - teacher_aligned.p_e.astype(dt)))
    inter = (student_out.valid_mask * teacher_aligned.valid_mask).astype(dt)
    denom = max(float(inter.sum()), 1.0)
    for s_map, t_map in ((student_out.m_cc, teacher_aligned.m_cc),
                         (student_out.m_cr, teacher_aligned.m_cr)):
        sq = ad.square(s_map - t_map.astype(dt))
        loss = loss + ad.tsum(ad.mul(sq, inter)) / denom
    return loss


def random_outputs(rng, dtype, T=12, D=6):
    vm = np.zeros((D, T))
    for d in range(D):
        vm[d, : T - d] = 1.0
    grid = lambda: ad.Tensor((rng.random((D, T)) * vm).astype(dtype), requires_grad=True)
    seq = lambda: ad.Tensor(rng.random(T).astype(dtype), requires_grad=True)
    return ModelOutputs(valid_mask=vm, p_s=seq(), p_e=seq(), m_cc=grid(), m_cr=grid())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("flip", [False, True])
def test_consistency_loss_matches_old_expression(dtype, flip):
    rng = np.random.default_rng(7)
    teacher = random_outputs(rng, np.float64).detach()
    if flip:
        teacher = align_flip_outputs(teacher)
    student = random_outputs(rng, dtype)
    fields = ("p_s", "p_e", "m_cc", "m_cr")
    new = consistency_loss(student, teacher)
    new.backward()
    new_g = [getattr(student, k).grad.copy() for k in fields]
    for k in fields:
        getattr(student, k).grad = None
    old = old_consistency_loss(student, teacher)
    old.backward()
    assert same(new.data, old.data)
    for k, g in zip(fields, new_g):
        assert same(g, getattr(student, k).grad), k


def old_supervised_loss(out, labels, rng):
    loss = _balanced_bce(out.p_s, labels.g_start, None, "start boundaries")
    loss = loss + _balanced_bce(out.p_e, labels.g_end, None, "end boundaries")
    valid = labels.valid_mask.astype(bool)
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
    count = max(float(sel.sum()), 1.0)
    dt = out.m_cr.data.dtype
    sq = ad.square(out.m_cr - labels.g_iou.astype(dt))
    return loss + ad.tsum(ad.mul(sq, sel.astype(dt))) / count


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("instances", [[], [(2.0, 5.5)], [(0.5, 3.0), (6.0, 11.0)]])
def test_supervised_loss_regression_term_matches_old_expression(dtype, instances):
    labels = build_label_maps(AnnotationSet(instances), 12, 6)
    out = random_outputs(np.random.default_rng(1), dtype)
    new = supervised_loss(out, labels, rng=np.random.default_rng(4))
    new.backward()
    new_g = out.m_cr.grad.copy()
    out.m_cr.grad = None
    old = old_supervised_loss(out, labels, np.random.default_rng(4))
    old.backward()
    assert same(new.data, old.data)
    assert same(new_g, out.m_cr.grad)
