import copy
import math

import numpy as np
import pytest

from semiprop import autodiff as ad
from semiprop import model
from semiprop.data import FormatError, candidate_mask
from semiprop.model import (GRAD_CHECK_TOLERANCE, GateTape, HyperShape, ParamStore,
                            ProposalNetwork, backward, build_bm_mask, composite_loss,
                            grad_check, init_params, load_checkpoint, load_stores,
                            param_shapes, save_checkpoint, wrap_params)
from semiprop.perturb import temporal_flip
from semiprop.pretext import recon_loss
from test_autodiff import old_relu, old_scatter_grid, old_sigmoid, old_take_last
from sampler_reference import assert_same_entries, csc_bm_mask, csc_of
from test_data import loop_bm_mask

TINY = HyperShape(T=12, C=3, H=4, Hp=4, D=6, N=4, K=2)


def assert_views_of_flat(store: ParamStore) -> None:
    """Every tensor of `store` is a view of its one contiguous 1-D buffer, in
    declaration order: a write through either shows in the other."""
    assert store.flat.ndim == 1 and store.flat.flags.c_contiguous
    offset = 0
    for name, v in store.items():
        assert v.shape == store.shapes[name]
        before = store.flat.copy()
        store.flat[offset] = 123.0
        assert v.ravel()[0] == 123.0, name
        v.ravel()[-1] = -7.0
        assert store.flat[offset + v.size - 1] == -7.0, name
        store.flat[...] = before
        offset += v.size
    assert offset == store.flat.size


def column_weights(S, T: int, D: int, n: int, d: int, i: int) -> np.ndarray:
    """Dense weight column for sample n of candidate (d, i) of the (N*T, J)
    sampling matrix S; zeros for invalid candidates."""
    col = np.zeros(T)
    j = np.flatnonzero(np.flatnonzero(candidate_mask(T, D)) == d * T + i)
    if j.size:
        col[:] = S[n * T:(n + 1) * T, int(j[0])].toarray().ravel()
    return col


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        a = init_params(TINY, seed=3)
        b = init_params(TINY, seed=3)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_biases_zero_kernels_bounded(self):
        params = init_params(TINY, seed=0)
        shapes = param_shapes(TINY)
        for name, v in params.items():
            assert v.shape == shapes[name]
            if name.endswith(".b"):
                assert np.all(v == 0.0)
            else:
                fan = v.shape[0] if v.ndim <= 2 else int(np.prod(v.shape[:-1]))
                assert np.abs(v).max() <= math.sqrt(1.0 / fan)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            init_params(HyperShape(T=5, D=6), seed=0)


class TestHyperShape:
    """A `HyperShape` checks itself when it is made; no caller checks it."""

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"T": 5, "D": 6}, "D=6 must not exceed T=5", id="D_above_T"),
        pytest.param({"N": 1}, "need N >= 2 sample points", id="N1"),
        pytest.param({"K": 1}, "bad hyper shape", id="K1"),
        # T below 1 takes D with it, so that D > T is not what fails
        *(pytest.param({name: value, **({"D": value} if name == "T" else {})},
                       "bad hyper shape", id=f"{name}{value}")
          for name in ("T", "C", "H", "Hp", "D") for value in (0, -1)),
    ])
    def test_invalid_shape_raises_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            HyperShape(**fields)

    def test_smallest_valid_shape(self):
        assert HyperShape(T=1, C=1, H=1, Hp=1, D=1, N=2, K=2).n_orders == 2

    def test_has_no_validate_method(self):
        assert not hasattr(HyperShape, "validate")


def no_sort(monkeypatch):
    """Make every numpy sort raise while the test runs."""
    def boom(*args, **kwargs):
        raise AssertionError("sorted")
    for name in ("sort", "argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, boom)


def sampling_matrix(T, D, N):
    """`build_bm_mask`'s sampler, after checking that its entries are the
    CSC reference's exactly, as a scipy matrix."""
    S = build_bm_mask(T, D, N)
    assert_same_entries(S, csc_bm_mask(T, D, N))
    return csc_of(S)


class TestBMSamplingMask:
    def test_valid_columns_sum_to_one(self):
        S = sampling_matrix(T=10, D=5, N=4)
        sums = S.toarray().reshape(4, 10, -1).sum(axis=1)  # (N, J)
        assert np.allclose(sums, 1.0)

    def test_at_most_two_nonzeros_per_column(self):
        S = sampling_matrix(T=10, D=5, N=4)
        counts = (S.toarray().reshape(4, 10, -1) != 0).sum(axis=1)  # (N, J)
        assert counts.max() <= 2

    def test_integer_location_single_weight(self):
        # candidate (d=3, i=0): region [-1, 5] clips to start at 0, an
        # exact integer, so sample 0 is a single unit weight on snippet 0
        S = sampling_matrix(T=8, D=4, N=4)
        col = column_weights(S, 8, 4, n=0, d=3, i=0)
        assert col[0] == 1.0 and col[1:].sum() == 0.0

    def test_fractional_location_splits_weights(self):
        # candidate (d=0, i=1): region [0.75, 2.25], N=4 -> second sample
        # at 1.25, interpolating 0.75/0.25 between snippets 1 and 2
        S = sampling_matrix(T=8, D=4, N=4)
        col = column_weights(S, 8, 4, n=1, d=0, i=1)
        assert col[1] == pytest.approx(0.75)
        assert col[2] == pytest.approx(0.25)
        assert col.sum() == pytest.approx(1.0)

    def test_constant_feature_reproduced_at_every_sample(self):
        S = sampling_matrix(T=12, D=6, N=4)
        sampled = np.full(12, 3.5) @ S.toarray().reshape(4, 12, -1)  # (N, J)
        assert np.allclose(sampled, 3.5)

    def test_candidate_count(self):
        S = sampling_matrix(T=10, D=5, N=4)
        assert S.shape == (4 * 10, sum(10 - d for d in range(5)))

    def test_invalid_args(self):
        for build in (build_bm_mask, csc_bm_mask):
            with pytest.raises(ValueError):
                build(T=4, D=5, N=4)
            with pytest.raises(ValueError):
                build(T=4, D=4, N=1)

    @pytest.mark.parametrize("T,D,N", [(100, 100, 8), (100, 60, 8), (100, 100, 32),
                                       (100, 60, 32)])
    def test_matches_coo_build_at_benchmark_shapes(self, T, D, N):
        """The reference matrix written in CSC order is the COO build's, byte
        for byte and dtype for dtype, in canonical format, and the sampler
        holds its entries."""
        want, _, _ = loop_bm_mask(T, D, N)
        S = csc_bm_mask(T, D, N)
        assert S.format == "csc" and S.shape == want.shape and S.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(S, attr), getattr(want, attr)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), attr
        assert_same_entries(build_bm_mask(T, D, N), want)

    def test_network_build_sorts_nothing(self, monkeypatch):
        """The network's sampler is built once per dtype, without a sort, and
        its float32 table is the float64 one's cast."""
        no_sort(monkeypatch)
        net = ProposalNetwork(HyperShape())
        S64, S32 = net._W(np.float64), net._W(np.float32)
        for S, dtype in ((S64, np.float64), (S32, np.float32)):
            assert S.table.dtype == dtype and S.shape == (800, 5050) and S.nnz == 75348
            assert net._W(dtype) is S
        assert np.array_equal(S32.table, S64.table.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_point_stacked_matrix_is_W_reordered_with_no_sort(self, dtype, monkeypatch):
        """The sampler's (N*T, J) matrix holds W[t, n*J + j] of the (T, N*J)
        layout at row n*T + t, column j, built once per dtype without a
        sort."""
        h = HyperShape()
        d_idx, i_idx = np.nonzero(candidate_mask(h.T, h.D))
        J = d_idx.size
        # the (T, N*J) layout, sample point n of candidate j in column n*J + j
        dur = d_idx + 1.0
        lo, hi = i_idx - 0.25 * dur, i_idx + 1.25 * dur
        locs = np.clip(lo + (hi - lo) * (np.arange(h.N) / (h.N - 1))[:, None],
                       0.0, h.T - 1.0)  # (N, J)
        base = np.floor(locs).astype(np.int64)
        frac, cols = locs - base, np.arange(h.N * J).reshape(h.N, J)
        W = np.zeros((h.T, h.N * J))
        np.add.at(W, (base, cols), 1.0 - frac)
        up = frac > 0
        np.add.at(W, (base[up] + 1, cols[up]), frac[up])

        no_sort(monkeypatch)
        net = ProposalNetwork(h)
        S = net._W(dtype)
        monkeypatch.undo()
        want = W.reshape(h.T, h.N, J).swapaxes(0, 1).reshape(h.N * h.T, J)
        assert S.table.dtype == dtype
        assert S.nnz == np.count_nonzero(W)
        assert np.array_equal(csc_of(S).toarray(), want.astype(dtype))
        assert net._W(dtype) is S

    def test_network_construction_builds_no_sampling_matrix(self, monkeypatch):
        """Construction sits on the set-up path: the matrix is built by the
        first forward pass, once per dtype."""
        calls = []

        def counted(*args):
            calls.append(args)
            return build_bm_mask(*args)
        monkeypatch.setattr(model, "build_bm_mask", counted)
        net = ProposalNetwork(TINY)
        assert len(calls) == 0
        params = net.init_params(seed=0, dtype=np.float32)
        f = np.zeros((TINY.T, TINY.C), dtype=np.float32)
        for expected in (1, 1):
            net.forward(params, f, requires_grad=False)
            assert len(calls) == expected


class TestForward:
    def test_all_zero_params_give_half(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=0)
        for v in params.values():
            v[...] = 0.0
        f = np.random.default_rng(0).normal(size=(TINY.T, TINY.C))
        out = net.forward(params, f, requires_grad=False)
        assert np.allclose(out.p_s.data, 0.5)
        assert np.allclose(out.p_e.data, 0.5)
        vm = net.valid_mask.astype(bool)
        assert np.allclose(out.m_cc.data[vm], 0.5)
        assert np.allclose(out.m_cr.data[vm], 0.5)

    def test_outputs_in_unit_interval_and_masked(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=1)
        f = np.random.default_rng(1).normal(size=(TINY.T, TINY.C))
        out = net.forward(params, f, requires_grad=False)
        for a in (out.p_s.data, out.p_e.data):
            assert np.all((a > 0) & (a < 1))
        invalid = net.valid_mask == 0
        assert np.all(out.m_cc.data[invalid] == 0.0)
        assert np.all(out.m_cr.data[invalid] == 0.0)

    def test_shape_mismatch_rejected(self):
        net = ProposalNetwork(TINY)
        with pytest.raises(ValueError):
            net.forward(net.init_params(0), np.zeros((TINY.T + 1, TINY.C)))

    def test_deterministic_given_frozen_dropout(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=2)
        f = np.random.default_rng(2).normal(size=(TINY.T, TINY.C))
        a, b = (net.forward(params, f, train_mode=True, p_drop=0.1,
                            rng=np.random.default_rng(3), requires_grad=False)
                for _ in range(2))
        assert np.array_equal(a.p_s.data, b.p_s.data)
        assert np.array_equal(a.m_cc.data, b.m_cc.data)

    def test_sampling_layer_linear_in_features(self):
        net = ProposalNetwork(TINY)
        rng = np.random.default_rng(4)
        q = rng.normal(size=(TINY.T, TINY.Hp))
        w, b = rng.normal(size=TINY.N), np.zeros(TINY.Hp)
        S = net._W(np.float64)
        s1 = ad.sparse_sample(ad.Tensor(q), S, w, b).data
        s2 = ad.sparse_sample(ad.Tensor(2.0 * q), S, w, b).data
        assert s1.shape == (net.cells.size, TINY.Hp)
        assert np.allclose(s2, 2.0 * s1)

    def test_constant_input_is_flip_fixed_point(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=5)
        f = np.tile(np.random.default_rng(5).normal(size=(1, TINY.C)),
                    (TINY.T, 1))
        a = net.forward(params, f, requires_grad=False)
        b = net.forward(params, temporal_flip(f), requires_grad=False)
        assert np.array_equal(a.p_s.data, b.p_s.data)
        assert np.array_equal(a.p_e.data, b.p_e.data)
        assert np.array_equal(a.m_cc.data, b.m_cc.data)

    def test_aux_heads_shapes(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=6)
        f = np.random.default_rng(6).normal(size=(TINY.T, TINY.C))
        out = net.forward(params, f, heads={"proposal", "recon", "order"},
                          requires_grad=False)
        assert out.recon.data.shape == (TINY.T, TINY.C)
        assert out.order_logits.data.shape == (TINY.n_orders,)


class TestParamStoreLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_tensors_are_views_of_flat(self, dtype):
        params = init_params(TINY, seed=2, dtype=dtype)
        assert list(params) == list(param_shapes(TINY)) and params.flat.dtype == dtype
        assert_views_of_flat(params)

    def test_copy_store_is_independent_of_its_source(self):
        src = init_params(TINY, seed=2)
        dup = src.copy_store()
        assert_views_of_flat(dup)
        assert not np.shares_memory(dup.flat, src.flat)
        assert np.array_equal(dup.flat, src.flat) and list(dup) == list(src)
        dup["base.conv1.w"][...] = 5.0
        src.flat[-1] = 9.0
        assert not (src["base.conv1.w"] == 5.0).any() and dup.flat[-1] != 9.0

    def test_backward_gradients_are_views_of_one_flat(self):
        net = ProposalNetwork(TINY)
        wrapped = wrap_params(init_params(TINY, seed=2))
        out = net.forward(wrapped, np.random.default_rng(0).normal(size=(TINY.T, TINY.C)))
        grads = backward(ad.tsum(out.m_cc) + ad.tsum(out.p_s), wrapped)
        assert list(grads) == list(wrapped)
        for name, t in wrapped.items():  # recon and order heads get no gradient
            assert np.array_equal(grads[name], t.grad if t.grad is not None else 0 * t.data)
        assert not grads["recon.conv.w"].any() and grads["base.conv1.w"].any()
        assert_views_of_flat(grads)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_load_stores_packs_each_store_into_one_flat(self, tmp_path, precision):
        student = init_params(TINY, seed=2, dtype=precision)
        teacher = init_params(TINY, seed=3, dtype=precision)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, TINY, 2, 0, precision,
                        {f"{name}.{k}": v for name, store in (("student", student),
                                                              ("teacher", teacher))
                         for k, v in store.items()})
        _, hyper, stores = load_stores(path, ("student", "teacher"), "test")
        assert hyper == TINY
        for back, orig in zip(stores, (student, teacher)):
            assert back.flat.dtype == precision and np.array_equal(back.flat, orig.flat)
            assert_views_of_flat(back)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_on_a_stack_matches_each_sequence(dtype):
    """A (3, T, C) stack gives each sequence's own outputs, bit for bit, on
    every head but the order logits, whose pooled product runs as one
    matrix product instead of a vector one (1e-12 relative)."""
    net = ProposalNetwork(TINY)
    params = net.init_params(seed=3, dtype=dtype)
    f = np.random.default_rng(3).normal(size=(3, TINY.T, TINY.C)).astype(dtype)
    heads = {"proposal", "recon", "order"}
    stacked = net.forward(params, f, heads=heads, requires_grad=False)
    for k in range(3):
        one = net.forward(params, f[k], heads=heads, requires_grad=False)
        for name in ("p_s", "p_e", "m_cc", "m_cr", "recon"):
            a, b = getattr(stacked, name).data[k], getattr(one, name).data
            assert a.dtype == dtype and np.array_equal(a, b), name
        a, b = stacked.order_logits.data[k], one.order_logits.data
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestBackward:
    def test_recon_stationary_point_zero_gradients(self):
        net = ProposalNetwork(TINY)
        params = net.init_params(seed=7)
        f = np.random.default_rng(7).normal(size=(TINY.T, TINY.C))
        out = net.forward(params, f, heads={"recon"}, requires_grad=False)
        wrapped = wrap_params(params)
        out = net.forward(wrapped, f, heads={"recon"})
        grads = backward(recon_loss(out.recon, out.recon.data.copy()), wrapped)
        for name in ("recon.conv.w", "recon.conv.b", "base.conv1.w"):
            assert np.abs(grads[name]).max() == 0.0

    def test_linear_head_gradient_exact(self):
        # pure affine graph: finite differences agree to roundoff
        rng = np.random.default_rng(8)
        x = np.random.default_rng(9).normal(size=(6, 3))
        w = ad.Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        coeff = rng.normal(size=(6, 2))
        ad.tsum(ad.mul(ad.conv1d(ad.Tensor(x), w, b, pad=1), coeff)).backward()

        def value():
            y = ad.conv1d(ad.Tensor(x), ad.Tensor(w.data), ad.Tensor(b.data), pad=1)
            return ad.tsum(ad.mul(y, coeff)).item()

        h = 1e-3
        for t in (w, b):
            flat = t.data.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = value()
                flat[j] = orig - h
                dn = value()
                flat[j] = orig
                fd = (up - dn) / (2 * h)
                rel = abs(t.grad.ravel()[j] - fd) / max(abs(fd), 1e-8)
                assert rel <= 1e-8


class TestGradCheck:
    def test_tiny_model_passes_with_frozen_dropout(self):
        report = grad_check(TINY, seed=0)
        assert report["passed"]
        assert report["max_rel_error"] <= 1e-4

    def test_broken_relu_backward_is_detected(self, monkeypatch):
        """The check differentiates the network's own ReLUs: halving the one
        ReLU derivative that every epilogue takes fails the 1e-4 bound, on a
        conv1d layer and on the sampler."""
        activate_grad = ad._activate_grad

        def half_relu_grad(gy, y, act, mask, out):  # same value, half the gradient
            activate_grad(gy, y, act, mask, out)
            if act == "relu":
                out *= 0.5
            return out

        monkeypatch.setattr(ad, "_activate_grad", half_relu_grad)
        report = grad_check(TINY, seed=0)
        assert not report["passed"]
        assert report["max_rel_error"] > 1e-2
        for name in ("base.conv1.w", "pem.reduce.w"):
            assert report["tensors"][name] > GRAD_CHECK_TOLERANCE, name

    def test_broken_fused_relu_backward_is_detected(self, monkeypatch):
        """The ReLU in pem.conv2a's epilogue is differentiated too: a
        convolution epilogue that passes back half its ReLU gradient fails
        the bound on conv2a's weights, and conv2b's stay within it."""
        epilogue_grad = ad._epilogue_grad

        def half_relu_grad(gy, y, extent, epilogue, channels_first):
            gz = epilogue_grad(gy, y, extent, epilogue, channels_first)
            return gz * 0.5 if epilogue[0] == "relu" else gz

        monkeypatch.setattr(ad, "_epilogue_grad", half_relu_grad)
        report = grad_check(TINY, seed=0)
        assert not report["passed"]
        assert report["tensors"]["pem.conv2a.w"] > 1e-2
        assert report["tensors"]["pem.conv2b.w"] <= GRAD_CHECK_TOLERANCE


class TestGateTape:
    def test_one_mask_per_relu_and_a_bit_equal_replay(self):
        """The recording pass keeps one mask per ReLU, conv2a's fused one
        included, (D, T, Hp) like its output; replaying them gives the
        recorded loss bit for bit."""
        h = TINY
        net = ProposalNetwork(h)
        rng = np.random.default_rng(0)
        params = net.init_params(0)
        params.flat += rng.uniform(-0.1, 0.1, size=params.flat.size)
        f = rng.normal(size=(h.T, h.C))
        targets = {"p_s": rng.random(h.T), "p_e": rng.random(h.T),
                   "m_cc": rng.random((h.D, h.T)) * net.valid_mask,
                   "m_cr": rng.random((h.D, h.T)) * net.valid_mask,
                   "recon": rng.normal(size=(h.T, h.C)), "order_label": 1}
        tape = GateTape()

        def loss(requires_grad):
            return composite_loss(net, wrap_params(params, requires_grad), f, targets,
                                  copy.deepcopy(rng), gate_tape=tape).item()

        recorded = loss(True)
        # base.conv1, base.conv2, tem.conv1, pem.conv1, the sampler, pem.conv2a, order.conv
        assert len(tape.masks) == 7
        assert tape.masks[5].shape == (h.D, h.T, h.Hp)
        tape.rewind()
        assert loss(False) == recorded


def composite_value_and_grads(net, seed=0):
    """The float64 loss over every head at a jittered point, and its
    parameter gradients."""
    h = net.hyper
    rng = np.random.default_rng(seed)
    params = net.init_params(seed)
    for v in params.values():
        v += rng.uniform(-0.1, 0.1, size=v.shape)
    f = rng.normal(size=(h.T, h.C))
    targets = {"p_s": rng.random(h.T), "p_e": rng.random(h.T),
               "m_cc": rng.random((h.D, h.T)) * net.valid_mask,
               "m_cr": rng.random((h.D, h.T)) * net.valid_mask,
               "recon": rng.normal(size=(h.T, h.C)), "order_label": 1}
    wrapped = wrap_params(params)
    loss = composite_loss(net, wrapped, f, targets, rng)
    return loss.item(), backward(loss, wrapped)


def nan_outside(a, extent, channels_first=False):
    """`a`, a (..., D, T, C) grid or a (..., C, D, T) one, with NaN in every
    cell outside the extent."""
    out = np.full_like(a, np.nan)
    for d0, d1, t1 in extent:
        cells = (..., slice(d0, d1), slice(t1)) + (() if channels_first else (slice(None),))
        out[cells] = a[cells]
    return out


# D = T, D < T, and D values that the block count does not divide
STAIRCASE_HYPERS = [TINY, HyperShape(T=16, C=3, H=4, Hp=4, D=16, N=4),
                    HyperShape(T=13, C=3, H=4, Hp=4, D=7, N=4),
                    HyperShape(T=100, C=4, H=8, Hp=8, D=100, N=4)]


class TestStaircaseExtents:
    @pytest.mark.parametrize("hyper", STAIRCASE_HYPERS, ids=lambda h: f"T{h.T}D{h.D}")
    def test_matches_full_grid_in_float64(self, hyper):
        net = ProposalNetwork(hyper)
        loss, grads = composite_value_and_grads(net)
        rows = net.extents["pem.conv2a"][1]
        net.extents = {"pem.conv2a": (None, rows), "pem.conv2b": (None, None)}
        full_loss, full_grads = composite_value_and_grads(net)
        assert loss == full_loss
        for name, g in full_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    @pytest.mark.parametrize("hyper", STAIRCASE_HYPERS, ids=lambda h: f"T{h.T}D{h.D}")
    def test_gradients_outside_extents_are_never_read(self, hyper, monkeypatch):
        """NaN in every 2-D convolution's output gradient outside its output
        extent, in conv2b's input gradient outside its input-gradient
        extent, and in the cells of each block of conv2a's input gradient
        that are not written to the candidate rows changes neither the loss
        nor any gradient. (Its output outside the extent stays zero: conv2b's
        epilogue applies the candidate mask, and conv2b's blocks reach past
        conv2a's halo.) conv2b's output gradient is poisoned in its
        channel-first layout, and conv2a's input gradient in each block
        before `CellRows.put` writes its candidate cells: every cell it
        drops, inside the input-gradient extent or not, is NaN."""
        net = ProposalNetwork(hyper)
        loss, grads = composite_value_and_grads(net)
        conv_grid, put, puts = ad._conv_grid, ad.CellRows.put, []

        def poisoned(x, w, b, pad, out_extent=None, in_extent=None, *rest):
            y, conv_grads = conv_grid(x, w, b, pad, out_extent, in_extent, *rest)
            _, channels_first = rest
            rows = isinstance(in_extent, ad.CellRows)

            def poisoned_grads(gy):
                gx, gw, gb = conv_grads(nan_outside(gy, out_extent, channels_first))
                return (gx if rows else nan_outside(gx, in_extent)), gw, gb
            return y, poisoned_grads

        def poisoned_put(rows, out, block, r, c):
            (r0, r1), (c0, c1) = r, c
            d, i = np.divmod(rows.cells, rows.shape[1])
            kept = (d >= r0) & (d < r1) & (i >= c0) & (i < c1)
            written = np.zeros(block.shape[-3:-1], dtype=bool)
            written[d[kept] - r0, i[kept] - c0] = True
            puts.append(written.size - written.sum())
            put(rows, out, np.where(written[:, :, None], block, np.nan), r, c)

        monkeypatch.setattr(ad, "_conv_grid", poisoned)
        monkeypatch.setattr(ad.CellRows, "put", poisoned_put)
        poisoned_loss, poisoned_grads = composite_value_and_grads(net)
        assert puts and sum(puts) > 0  # conv2a's blocks were written, and dropped cells
        assert poisoned_loss == loss
        for name, g in grads.items():
            assert np.isfinite(poisoned_grads[name]).all(), name
            assert np.array_equal(poisoned_grads[name], g), name

    def test_gather_index_is_built_on_first_forward_per_extent(self):
        """Construction finds no strip runs; the first pass finds one set per
        output block of conv2a and the next pass reuses them. After the
        extents are swapped for the whole grid, one more set is found."""
        net = ProposalNetwork(HyperShape())
        rows = net.extents["pem.conv2a"][1]
        assert rows._runs == {}
        params = net.init_params(0, dtype=np.float32)
        f = np.zeros((2, 100, 16), dtype=np.float32)
        net.forward(params, f, requires_grad=False)
        runs = dict(rows._runs)
        assert len(runs) == len(net.extents["pem.conv2a"][0])
        net.forward(params, f, requires_grad=False)
        assert rows._runs.keys() == runs.keys()
        assert all(rows._runs[k] is v for k, v in runs.items())
        net.extents = {"pem.conv2a": (None, rows), "pem.conv2b": (None, None)}
        net.forward(params, f, requires_grad=False)
        assert len(rows._runs) == len(runs) + 1


def old_head(net, red, P):
    """The confidence head before its fusion: scatter_grid -> conv2d ->
    relu -> conv2d -> sigmoid -> mask -> take_last x 2."""
    h = net.hyper
    g = old_scatter_grid(red, net.cells, (h.D, h.T))
    out_a, rows = net.extents["pem.conv2a"]
    g = old_relu(ad.conv2d(g, P("pem.conv2a.w"), P("pem.conv2a.b"), 1, out_a, rows.blocks))
    g = old_sigmoid(ad.conv2d(g, P("pem.conv2b.w"), P("pem.conv2b.b"), 1,
                              *net.extents["pem.conv2b"]))
    g = ad.mul(g, net.valid_mask.astype(g.dtype)[:, :, None])
    return old_take_last(g, 0), old_take_last(g, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [None, 3])
@pytest.mark.parametrize("hyper", STAIRCASE_HYPERS, ids=lambda h: f"T{h.T}D{h.D}")
def test_fused_head_is_bit_equal_to_the_old_chain(hyper, B, dtype):
    """m_cc, m_cr and the gradients of the candidate rows and of both
    kernels and biases equal the old chain's, bit for bit."""
    net = ProposalNetwork(hyper)
    h, lead = hyper, () if B is None else (B,)
    rng = np.random.default_rng([h.T, h.D, B or 0])
    arrays = {"red": rng.normal(size=(*lead, net.cells.size, h.Hp)),
              "pem.conv2a.w": rng.normal(size=(3, 3, h.Hp, h.Hp)) / 4,
              "pem.conv2a.b": rng.normal(size=h.Hp),
              "pem.conv2b.w": rng.normal(size=(3, 3, h.Hp, 2)) / 4,
              "pem.conv2b.b": rng.normal(size=2)}
    upstream = [rng.normal(size=(*lead, h.D, h.T)).astype(dtype) for _ in range(2)]

    def run(head):
        ts = {k: ad.Tensor(v.astype(dtype), requires_grad=True) for k, v in arrays.items()}
        maps = head(ts["red"], ts.__getitem__)
        ad.add(*(ad.tsum(ad.mul(m, u)) for m, u in zip(maps, upstream))).backward()
        return [m.data for m in maps] + [t.grad for t in ts.values()]

    def new_head(red, P):
        maps = net._maps(red, P, lambda conv: conv(model.RELU))
        return ad.plane(maps, 0), ad.plane(maps, 1)

    new = run(new_head)
    old = run(lambda red, P: old_head(net, red, P))
    for a, b in zip(new, old, strict=True):
        assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


def unfused_forward(net, wrapped, f, rng, p_drop):
    """The training pass over all three heads before its activations moved
    into epilogues: every ReLU and tem's sigmoid a node of its own, p_s and
    p_e two take_last columns, and the confidence head `old_head`."""
    P = wrapped.__getitem__
    dtype = P("base.conv1.w").dtype

    def conv(x, layer, pad=1):
        return ad.conv1d(x, P(f"{layer}.w"), P(f"{layer}.b"), pad)

    x = ad.Tensor(np.ascontiguousarray(f, dtype=dtype))
    base = old_relu(conv(old_relu(conv(x, "base.conv1")), "base.conv2"))
    keep = rng.random(base.shape) >= p_drop
    base = ad.mul(base, (keep / (1.0 - p_drop)).astype(dtype))
    t = old_sigmoid(conv(old_relu(conv(base, "tem.conv1")), "tem.conv2", 0))
    q = old_relu(conv(base, "pem.conv1"))
    red = old_relu(ad.sparse_sample(q, net._W(dtype), P("pem.reduce.w"), P("pem.reduce.b")))
    pooled = ad.tmean(old_relu(conv(base, "order.conv")), axis=-2)
    return (old_take_last(t, 0), old_take_last(t, 1), *old_head(net, red, P),
            conv(base, "recon.conv"), ad.add(ad.dot_vm(pooled, P("order.fc.w")), P("order.fc.b")))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [None, 3])
@pytest.mark.parametrize("hyper", [TINY, HyperShape()], ids=lambda h: f"T{h.T}D{h.D}")
def test_forward_is_bit_equal_to_the_unfused_chain(hyper, B, dtype):
    """Every output of a training pass and every parameter gradient equal
    those of the pass with standalone activation ops, bit for bit."""
    net = ProposalNetwork(hyper)
    lead = () if B is None else (B,)
    rng = np.random.default_rng([hyper.T, B or 0])
    params = net.init_params(0, dtype=dtype)
    params.flat += rng.uniform(-0.1, 0.1, size=params.flat.size).astype(dtype)
    f = rng.normal(size=(*lead, hyper.T, hyper.C)).astype(dtype)
    fields = ("p_s", "p_e", "m_cc", "m_cr", "recon", "order_logits")

    def run(forward):
        wrapped = wrap_params(params)
        outs = forward(wrapped, np.random.default_rng(1))
        upstream = np.random.default_rng(2)
        loss = sum(ad.tsum(ad.mul(o, upstream.normal(size=o.shape).astype(dtype)))
                   for o in outs)
        return [o.data for o in outs] + [backward(loss, wrapped).flat]

    def forward(wrapped, drop):
        out = net.forward(wrapped, f, heads={"proposal", "recon", "order"}, train_mode=True,
                          rng=drop, p_drop=0.1)
        return [getattr(out, name) for name in fields]

    new = run(forward)
    old = run(lambda wrapped, drop: unfused_forward(net, wrapped, f, drop, 0.1))
    for name, a, b in zip([*fields, "grads"], new, old, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def graph_nodes(*roots):
    """Every tensor in the graph behind `roots`, leaves included."""
    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def training_pass(heads):
    """A B = 4 float32 training pass at the network's shape."""
    h = HyperShape()
    net = ProposalNetwork(h)
    wrapped = wrap_params(net.init_params(0, dtype=np.float32))
    f = np.random.default_rng(0).normal(size=(4, h.T, h.C)).astype(np.float32)
    return h, net.forward(wrapped, f, heads=heads, train_mode=True,
                          rng=np.random.default_rng(1), p_drop=0.1)


def test_training_pass_graph_holds_one_full_grid():
    """A B = 4 float32 training pass at the network's shape: the graph
    behind m_cc and m_cr holds one (4, D, T, Hp) array, conv2a's output
    with its ReLU applied (the scatter, conv2a, ReLU chain held three), and
    both maps are planes of conv2b's channel-first output."""
    h, out = training_pass({"proposal"})
    nodes = graph_nodes(out.m_cc, out.m_cr)
    grids = [n for n in nodes if n.data.shape == (4, h.D, h.T, h.Hp)]
    maps = out.m_cc._parents[0]
    assert len(grids) == 1 and maps._parents[0] is grids[0]
    assert maps.data.shape == (4, 2, h.D, h.T) and out.m_cr._parents[0] is maps
    assert all(np.shares_memory(m.data, maps.data) for m in (out.m_cc, out.m_cr))


def test_training_pass_graph_has_no_activation_nodes():
    """Over all three heads the graph holds 19 op nodes: every ReLU and
    the sigmoid run in their ops' epilogues (with them as nodes of their
    own it held 26), so no node is the ReLU of another, and p_s and p_e
    are columns of tem.conv2's output."""
    _, out = training_pass({"proposal", "recon", "order"})
    ops = [n for n in graph_nodes(out.p_s, out.p_e, out.m_cc, out.m_cr, out.recon,
                                  out.order_logits) if n._parents]
    assert len(ops) == 19
    for node in ops:
        first, *rest = node._parents
        assert rest or first.shape != node.shape or \
            not np.array_equal(node.data, np.maximum(first.data, 0.0))
    tem = out.p_s._parents[0]
    assert out.p_e._parents[0] is tem and tem.shape == (4, 100, 2)
    assert all(np.shares_memory(p.data, tem.data) for p in (out.p_s, out.p_e))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(TINY, seed=11)
        tensors = {f"student.{k}": v for k, v in params.items()}
        path = tmp_path / "ck.bin"
        save_checkpoint(path, TINY, seed=11, step=7, precision="float64",
                        tensors=tensors, extra={"note": 1})
        header, back = load_checkpoint(path)
        assert header["step"] == 7
        assert header["extra"]["note"] == 1
        assert HyperShape(**header["hyper"]) == TINY
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = init_params(TINY, seed=12)
        tensors = {f"student.{k}": v for k, v in params.items()}
        tensors["student.base.conv1.b"] = np.zeros(TINY.H + 1)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, TINY, seed=12, step=0, precision="float64",
                        tensors=tensors)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)

    def _tiny_checkpoint(self, path):
        tensors = {"student.base.conv1.b": np.arange(TINY.H, dtype=np.float64),
                   "adam.t": np.array([3], dtype=np.int32)}
        save_checkpoint(path, TINY, seed=1, step=0, precision="float64",
                        tensors=tensors)
        return tensors

    def test_tiny_roundtrip_bitwise(self, tmp_path):
        tensors = self._tiny_checkpoint(tmp_path / "ck.bin")
        _, back = load_checkpoint(tmp_path / "ck.bin")
        for k, v in tensors.items():
            assert back[k].dtype == v.dtype and np.array_equal(back[k], v)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        self._tiny_checkpoint(path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"junk" * 8])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "ck.bin"
        self._tiny_checkpoint(path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError):
            load_checkpoint(path)
