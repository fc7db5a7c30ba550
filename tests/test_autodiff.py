import inspect
import warnings

import numpy as np
import pytest
from scipy import sparse

from semiprop import autodiff as ad
from semiprop.data import candidate_mask
from semiprop.model import (CONV_BLOCKS, build_bm_mask, halo, sample_entries,
                            staircase)

# a random sampling matrix for N=3 sample points of J=5 candidates over T=6
SAMPLE_W = sparse.random(6, 3 * 5, density=0.4, random_state=1, format="csr")
SAMPLE_ENTRIES = sample_entries(SAMPLE_W, 5)
# constant targets and 0/1 weights for the mean square error: a (D, T) map
# and a (T, C) sequence with a per-row (T, 1) weight
_mse_rng = np.random.default_rng(2)
MSE_MAP, MSE_SEQ = _mse_rng.normal(size=(4, 6)), _mse_rng.normal(size=(6, 3))
MSE_MAP_W = (_mse_rng.random((4, 6)) < 0.6).astype(float)
MSE_ROW_W = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0]])


def numeric_grad(build, arrs, i, h=1e-6):
    a = arrs[i]
    fd = np.zeros_like(a)
    flat, fd_flat = a.ravel(), fd.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = build(*[ad.Tensor(x) for x in arrs]).item()
        flat[j] = orig - h
        dn = build(*[ad.Tensor(x) for x in arrs]).item()
        flat[j] = orig
        fd_flat[j] = (up - dn) / (2 * h)
    return fd


CASES = {
    "conv1d_k3": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=1))),
                  [(8, 3), (3, 3, 4), (4,)]),
    "conv1d_k1": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=0))),
                  [(8, 3), (1, 3, 2), (2,)]),
    "conv1d_pad0": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=0))),
                    [(8, 2), (3, 2, 4), (4,)]),
    "conv1d_k2": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=1))),
                  [(7, 3), (2, 3, 2), (2,)]),
    "conv2d": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b, pad=1))),
               [(5, 6, 3), (3, 3, 3, 2), (2,)]),
    "conv2d_pad0": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b, pad=0))),
                    [(5, 6, 2), (3, 3, 2, 4), (4,)]),
    "conv2d_k2": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b, pad=1))),
                  [(4, 5, 3), (2, 2, 3, 2), (2,)]),
    "reduce": (lambda x, w, b: ad.tsum(ad.square(
        ad.sparse_sample(x, SAMPLE_W, w, b, SAMPLE_ENTRIES))),
               [(6, 4), (3,), (4,)]),
    "sigmoid": (lambda x: ad.tmean(ad.sigmoid(x)), [(6, 4)]),
    "dot_vm": (lambda x, w: ad.tsum(ad.square(ad.dot_vm(x, w))), [(5,), (5, 3)]),
    "take_last_2d": (lambda x: ad.tsum(ad.square(ad.take_last(x, 1))), [(6, 3)]),
    "take_last_3d": (lambda x: ad.tsum(ad.square(ad.take_last(x, 1))), [(4, 5, 2)]),
    "cross_entropy": (lambda x: ad.cross_entropy_logits(x, 1), [(4,)]),
    "log": (lambda x: ad.tsum(ad.log(ad.sigmoid(x), eps=1e-12)), [(7,)]),
    "mean_axis": (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=0))), [(6, 4)]),
    "mse": (lambda x: ad.mse(x, MSE_MAP), [(4, 6)]),
    "mse_weighted": (lambda x: ad.mse(x, MSE_MAP, MSE_MAP_W), [(4, 6)]),
    "mse_row_weight": (lambda x: ad.mse(x, MSE_SEQ, MSE_ROW_W), [(6, 3)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_gradients_match_finite_differences(name):
    build, shapes = CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    arrs = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrs]
    build(*tensors).backward()
    for i in range(len(arrs)):
        fd = numeric_grad(build, arrs, i)
        g = tensors[i].grad
        assert g is not None
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(g - fd).max() / scale < 1e-6


def test_constant_subgraph_builds_no_tape():
    x = ad.Tensor(np.ones((3, 2)))
    y = ad.mul(ad.add(x, 1.0), 2.0)
    assert not y.requires_grad and y._backward is None and y._parents == ()


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_attaches_backward_only_with_grad(name):
    """Constants carry no closure and no parents; with an input that needs
    a gradient, every op output in the graph holds its backward as a
    zero-argument callable on `_backward` (the per-op tracer wraps it)."""
    build, shapes = CASES[name]
    rng = np.random.default_rng(0)
    arrs = [rng.normal(size=s) for s in shapes]
    const = build(*[ad.Tensor(a) for a in arrs])
    assert not const.requires_grad and const._backward is None and const._parents == ()
    for i in range(len(arrs)):
        ts = [ad.Tensor(a, requires_grad=j == i) for j, a in enumerate(arrs)]
        ops = [n for n in ad._toposort(build(*ts)) if n._parents]
        assert ops
        for node in ops:
            assert callable(node._backward)
            assert not inspect.signature(node._backward).parameters


def keep_graph_backward(root):
    """The backward walk that keeps the graph: a reverse topological order
    of every node that needs a gradient, each closure run once, nothing
    released."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in visited)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(CASES))
def test_backward_releases_graph_with_unchanged_gradients(name, dtype):
    """backward() leaves every op node without a closure or parents, and
    its gradients are bit-equal to those of a walk that keeps the graph."""
    build, shapes = CASES[name]
    rng = np.random.default_rng(3)
    arrs = [rng.normal(size=s).astype(dtype) for s in shapes]
    kept = [ad.Tensor(a, requires_grad=True) for a in arrs]
    keep_graph_backward(build(*kept))
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrs]
    root = build(*leaves)
    ops = [n for n in ad._toposort(root) if n._parents]
    assert ops
    root.backward()
    for node in ops:
        assert node._backward is None and not node._parents
    for t, k in zip(leaves, kept, strict=True):
        assert t.grad.dtype == k.grad.dtype and np.array_equal(t.grad, k.grad)


def test_second_backward_through_released_graph_raises():
    x = ad.Tensor(np.arange(3.0), requires_grad=True)
    y = ad.relu(ad.mul(x, 2.0))
    loss = ad.tsum(y)
    loss.backward()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new root over a released node must not pass as a leaf either
    with pytest.raises(RuntimeError, match="released"):
        ad.tsum(ad.square(y)).backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 2.0])


def test_leaves_are_reusable_after_backward():
    x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ad.tsum(ad.square(x)).backward()
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, [3.0, -3.0])


def test_sigmoid_saturates_without_overflow_warning():
    x = np.linspace(-1000.0, 100.0, 2201, dtype=np.float32)
    t = ad.Tensor(x, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ad.sigmoid(t)
        ad.tsum(s).backward()
    with np.errstate(over="ignore"):
        expect = 1.0 / (1.0 + np.exp(-x))
    assert s.data.dtype == np.float32 and np.array_equal(s.data, expect)
    assert s.data[0] == 0.0 and s.data[-1] == 1.0
    assert np.isfinite(t.grad).all() and t.grad[0] == 0.0


def test_broadcast_add_gradient_sums_over_broadcast_axes():
    x = ad.Tensor(np.zeros((4, 3)), requires_grad=True)
    b = ad.Tensor(np.zeros(3), requires_grad=True)
    ad.tsum(ad.add(x, b)).backward()
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_shared_node_accumulates_both_paths():
    x = ad.Tensor(np.array(3.0), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, derivative 2x + 1
    y.backward()
    assert y.item() == 12.0
    assert float(x.grad) == 7.0


def test_backward_requires_scalar():
    x = ad.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        x.backward()


def test_conv2d_rejects_pad_beyond_kernel():
    x, w, b = np.zeros((4, 4, 2)), np.zeros((3, 3, 2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match="pad=3"):
        ad.conv2d(x, w, b, pad=3)


@pytest.mark.parametrize("k,pad", [(3, 3), (1, 1), (2, -1)])
def test_conv1d_rejects_pad_out_of_range(k, pad):
    x, w, b = np.zeros((6, 2)), np.zeros((k, 2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match=f"pad={pad}, k={k}"):
        ad.conv1d(x, w, b, pad=pad)


def test_sparse_sample_matches_dense():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w, b = rng.normal(size=3), rng.normal(size=3)
    out = ad.sparse_sample(x, SAMPLE_W, w, b, SAMPLE_ENTRIES)
    samples = (x.data.T @ SAMPLE_W.toarray()).reshape(3, 3, 5)  # (C, N, J)
    assert np.allclose(out.data, np.einsum("cnj,n->jc", samples, w) + b)
    ad.tsum(ad.square(out)).backward()
    fd = numeric_grad(lambda t: ad.tsum(ad.square(
        ad.sparse_sample(t, SAMPLE_W, w, b, SAMPLE_ENTRIES))), [x.data], 0)
    assert np.abs(x.grad - fd).max() < 1e-6


def test_scatter_grid_roundtrip_gradient():
    d_idx = np.array([0, 0, 1])
    i_idx = np.array([0, 2, 1])
    x = ad.Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    g = ad.scatter_grid(x, d_idx, i_idx, (2, 4))
    assert g.data.shape == (2, 4, 2)
    assert np.array_equal(g.data[0, 2], x.data[1])
    assert g.data[1, 3].sum() == 0.0
    ad.tsum(ad.square(g)).backward()
    assert np.allclose(x.grad, 2 * x.data)


# ---------------------------------------------------------------------------
# parity with the earlier kernels: conv1d with its own tap loops and a
# tap-by-tap scattered input gradient, per-tap tensordot conv2d backward, and
# the sample -> reshape -> reduce -> scatter -> transpose chain of the sampler

def old_conv1d(x, w, b, pad):
    x, w, b = ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)
    T, cin = x.data.shape
    k, _, cout = w.data.shape
    xp = np.zeros((T + 2 * pad, cin), dtype=x.data.dtype)
    xp[pad:pad + T] = x.data
    t_out = T + 2 * pad - k + 1
    y = np.zeros((t_out, cout), dtype=x.data.dtype)
    for j in range(k):
        y += xp[j:j + t_out] @ w.data[j]
    y += b.data
    out = ad.Tensor(y, _parents=(x, w, b))

    def bwd():
        gy = out.grad
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for j in range(k):
            gw[j] = xp[j:j + t_out].T @ gy
            gxp[j:j + t_out] += gy @ w.data[j].T
        ad._accum(x, gxp[pad:pad + T])
        ad._accum(w, gw)
        ad._accum(b, gy.sum(axis=0))

    out._backward = bwd
    return out


def old_conv2d(x, w, b, pad):
    x, w, b = ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)
    D, T, cin = x.data.shape
    k = w.data.shape[0]
    cout = w.data.shape[3]
    xp = np.zeros((D + 2 * pad, T + 2 * pad, cin), dtype=x.data.dtype)
    xp[pad:pad + D, pad:pad + T] = x.data
    d_out = D + 2 * pad - k + 1
    t_out = T + 2 * pad - k + 1
    y = np.zeros((d_out, t_out, cout), dtype=x.data.dtype)
    for a in range(k):
        for c in range(k):
            y += xp[a:a + d_out, c:c + t_out] @ w.data[a, c]
    y += b.data
    out = ad.Tensor(y, _parents=(x, w, b))

    def bwd():
        gy = out.grad
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for a in range(k):
            for c in range(k):
                patch = xp[a:a + d_out, c:c + t_out]
                gw[a, c] = np.tensordot(patch, gy, axes=([0, 1], [0, 1]))
                gxp[a:a + d_out, c:c + t_out] += gy @ w.data[a, c].T
        ad._accum(x, gxp[pad:pad + D, pad:pad + T])
        ad._accum(w, gw)
        ad._accum(b, gy.sum(axis=(0, 1)))

    out._backward = bwd
    return out


def old_sample_chain(q, w, b, W, bm):
    """(T, C) -> (D, T, C) through the separate sampling ops."""
    q, w, b = ad.as_tensor(q), ad.as_tensor(w), ad.as_tensor(b)
    C, N, J = q.data.shape[1], bm.N, bm.n_valid
    samp = ad.Tensor(np.asarray(q.data.T @ W), _parents=(q,))
    samp._backward = lambda: ad._accum(q, np.asarray(W @ samp.grad.T))
    x = ad.Tensor(samp.data.reshape(C, N, J), _parents=(samp,))
    x._backward = lambda: ad._accum(samp, x.grad.reshape(C, N * J))
    red = ad.Tensor(np.tensordot(x.data, w.data, axes=([1], [0])) + b.data[:, None],
                    _parents=(x, w, b))

    def red_bwd():
        gy = red.grad
        ad._accum(x, gy[:, None, :] * w.data[None, :, None])
        ad._accum(w, np.tensordot(x.data, gy, axes=([0, 2], [0, 1])))
        ad._accum(b, gy.sum(axis=1))

    red._backward = red_bwd
    grid = ad.Tensor(np.zeros((C, bm.D, bm.T), dtype=q.data.dtype), _parents=(red,))
    grid.data[:, bm.d_idx, bm.i_idx] = red.data
    grid._backward = lambda: ad._accum(red, grid.grad[:, bm.d_idx, bm.i_idx])
    out = ad.Tensor(np.transpose(grid.data, (1, 2, 0)), _parents=(grid,))
    out._backward = lambda: ad._accum(grid, np.transpose(out.grad, (2, 0, 1)))
    return out


def new_sample_chain(q, w, b, W, bm):
    out = ad.sparse_sample(q, W, w, b, sample_entries(W, bm.n_valid))
    return ad.scatter_grid(out, bm.d_idx, bm.i_idx, (bm.D, bm.T))


def outputs_and_grads(op, shapes, dtype, seed, *const):
    rng = np.random.default_rng(seed)
    ts = [ad.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    out = op(*ts, *const)
    upstream = rng.normal(size=out.data.shape).astype(dtype)
    ad.tsum(ad.mul(out, upstream)).backward()
    return [out.data] + [t.grad for t in ts]


def assert_close(new, old, rtol):
    for a, b in zip(new, old, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.abs(a - b).max() <= rtol * np.abs(b).max()


PARITY_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,pad", [(3, 1), (1, 0), (3, 0), (2, 1)])
def test_conv1d_matches_old_kernel(k, pad, dtype):
    shapes = [(11, 4), (k, 4, 3), (3,)]
    new = outputs_and_grads(lambda x, w, b: ad.conv1d(x, w, b, pad), shapes, dtype, 4)
    old = outputs_and_grads(lambda x, w, b: old_conv1d(x, w, b, pad), shapes, dtype, 4)
    assert_close(new, old, PARITY_RTOL[dtype])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shapes,pad", [
    ([(12, 10, 4), (3, 3, 4, 4), (4,)], 1),
    ([(12, 10, 4), (3, 3, 4, 2), (2,)], 1),
    ([(9, 11, 3), (3, 3, 3, 5), (5,)], 0),
    ([(7, 6, 2), (2, 2, 2, 3), (3,)], 1),
])
def test_conv2d_matches_old_kernel(shapes, pad, dtype):
    new = outputs_and_grads(lambda x, w, b: ad.conv2d(x, w, b, pad), shapes, dtype, 5)
    old = outputs_and_grads(lambda x, w, b: old_conv2d(x, w, b, pad), shapes, dtype, 5)
    assert_close(new, old, PARITY_RTOL[dtype])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("T,D,N,C", [(12, 8, 4, 5), (16, 16, 8, 3), (5, 1, 2, 2)])
def test_fused_sampler_matches_old_chain(T, D, N, C, dtype):
    bm = build_bm_mask(T, D, N)
    W = bm.W.astype(dtype)
    shapes = [(T, C), (N,), (C,)]
    new = outputs_and_grads(new_sample_chain, shapes, dtype, 6, W, bm)
    old = outputs_and_grads(old_sample_chain, shapes, dtype, 6, W, bm)
    assert_close(new, old, PARITY_RTOL[dtype])


def test_mse_weighted_mean_and_empty_weight():
    pred = np.array([[1.0, 2.0], [3.0, 5.0]])
    target = np.zeros((2, 2), dtype=np.float32)
    assert ad.mse(pred, target).item() == (1 + 4 + 9 + 25) / 4
    assert ad.mse(pred, target, np.array([[1.0], [0.0]])).item() == (1 + 4) / 2
    assert ad.mse(pred, target, np.zeros((2, 2))).item() == 0.0
    assert ad.mse(pred.astype(np.float32), pred).dtype == np.float64  # the 1/n factor


# ---------------------------------------------------------------------------
# staircase extents: the candidate triangle of a (D, T) map and its one-cell
# halo, against one block over the whole grid. The shapes cover D < T, D not
# a multiple of the block count, and fewer rows than blocks.

STAIRCASE_SHAPES = [(16, 16), (11, 6), (13, 7), (9, 3)]
assert any(D % CONV_BLOCKS for _, D in STAIRCASE_SHAPES)


def inside(extent, shape):
    """The (D, T) cells inside an extent."""
    cells = np.zeros(shape, dtype=bool)
    for d0, d1, t1 in extent:
        cells[d0:d1, :t1] = True
    return cells


def staircase_case(T, D, conv2a):
    """Random float64 operands and conv2a's (output on the halo, input
    gradient on the candidates) or conv2b's (the reverse) extents."""
    valid = candidate_mask(T, D)
    pair = (staircase(halo(valid)), staircase(valid))
    out_ext, grad_ext = pair if conv2a else pair[::-1]
    rng = np.random.default_rng(T * 100 + D)
    x, w, b = rng.normal(size=(D, T, 3)), rng.normal(size=(3, 3, 3, 4)), rng.normal(size=4)
    gy = rng.normal(size=(D, T, 4))
    return x, w, b, gy, out_ext, grad_ext


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_staircase_covers_mask_and_halo():
    valid = candidate_mask(13, 7)
    grown = halo(valid)
    d, i = np.indices(valid.shape)
    assert np.array_equal(grown, i <= 13 - d + 1)
    for mask in (valid, grown):
        ext = staircase(mask)
        assert len(ext) == CONV_BLOCKS and inside(ext, mask.shape)[mask > 0].all()
    assert staircase(np.ones((5, 8)), 1) == ((0, 5, 8),)


@pytest.mark.parametrize("conv2a", [True, False])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_staircase_conv_matches_full_grid(T, D, conv2a):
    """On the cells that are computed, the output is bit-equal to the
    full-grid kernel's and the gradients agree to 1e-12 when the full-grid
    backward gets the output gradient masked to the output extent; every
    other cell is zero."""
    x, w, b, gy, out_ext, grad_ext = staircase_case(T, D, conv2a)
    out_cells, grad_cells = inside(out_ext, (D, T)), inside(grad_ext, (D, T))
    y_full, grads_full = ad._conv_grid(x, w, b, (1, 1))
    y, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, grad_ext)
    assert np.array_equal(y[out_cells], y_full[out_cells]) and not y[~out_cells].any()
    gx_full, gw_full, gb_full = grads_full(gy * out_cells[..., None])
    gx, gw, gb = grads(gy)
    assert rel_err(gx[grad_cells], gx_full[grad_cells]) <= 1e-12
    assert not gx[~grad_cells].any()
    assert rel_err(gw, gw_full) <= 1e-12 and rel_err(gb, gb_full) <= 1e-12


@pytest.mark.parametrize("conv2a", [True, False])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_staircase_conv_reads_no_gradient_outside_output_extent(T, D, conv2a):
    x, w, b, gy, out_ext, grad_ext = staircase_case(T, D, conv2a)
    out_cells = inside(out_ext, (D, T))
    _, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, grad_ext)
    clean = grads(np.where(out_cells[..., None], gy, 0.0))
    poisoned = grads(np.where(out_cells[..., None], gy, np.nan))
    for a, c in zip(poisoned, clean, strict=True):
        assert np.isfinite(a).all() and np.array_equal(a, c)


def padded_conv_grid(x, w, b, pad, out_extent=None, grad_extent=None):
    """The kernel before per-block strips: whole padded copies of the input
    (kept for the weight gradient) and of the output gradient, each with a
    spare zero row, and the block taps read from them."""
    def block_taps(src, block, kd, kt):
        d0, d1, t1 = block
        width = t1 + kt - 1
        strip = np.ascontiguousarray(src[d0:d1 + kd, :width])
        row, ch = strip.strides[1:]
        return np.lib.stride_tricks.as_strided(
            strip, shape=(kd, kt, (d1 - d0) * width, src.shape[2]),
            strides=(width * row, row, row, ch), writeable=False)

    def taps_conv(src, w, shape, extent, bias=None):
        kd, kt, _, cout = w.shape
        out = np.zeros((*shape, cout), dtype=src.dtype)
        for d0, d1, t1 in extent:
            acc = np.matmul(block_taps(src, (d0, d1, t1), kd, kt), w).sum(axis=(0, 1))
            if bias is not None:
                acc += bias
            out[d0:d1, :t1] = acc.reshape(d1 - d0, -1, cout)[:, :t1]
        return out

    D, T, cin = x.shape
    kd, kt, _, cout = w.shape
    pd, pt = pad
    xp = np.zeros((D + 2 * pd + 1, T + 2 * pt, cin), dtype=x.dtype)
    xp[pd:pd + D, pt:pt + T] = x
    d_out, t_out = D + 2 * pd - kd + 1, T + 2 * pt - kt + 1
    out_extent = out_extent or ((0, d_out, t_out),)
    grad_extent = grad_extent or ((0, D, T),)
    y = taps_conv(xp, w, (d_out, t_out), out_extent, b)

    def grads(gy):
        qd, qt = kd - 1 - pd, kt - 1 - pt
        gyp = np.zeros((d_out + 2 * qd + 1, t_out + 2 * qt, cout), dtype=gy.dtype)
        gw = np.zeros_like(w)
        gb = np.zeros(cout, dtype=gy.dtype)
        for d0, d1, t1 in out_extent:
            g = gy[d0:d1, :t1]
            gyp[qd + d0:qd + d1, qt:qt + t1] = g
            gb += g.sum(axis=(0, 1))
            rows = np.zeros((d1 - d0, t1 + kt - 1, cout), dtype=gy.dtype)
            rows[:, :t1] = g
            gw += np.matmul(block_taps(xp, (d0, d1, t1), kd, kt).swapaxes(2, 3),
                            rows.reshape(-1, cout))
        w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        return taps_conv(gyp, w_flip, (D, T), grad_extent), gw, gb

    return y, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv2a", [True, False, None])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_strip_conv_bit_equal_to_padded_grid_kernel(T, D, conv2a, dtype):
    """Per-block strips give the padded-grid kernel's output and gradients
    bit for bit, on staircase extents and on the whole grid (None), and at
    every pad of a 3 x 3 and a 2 x 3 kernel."""
    x, w, b, gy, out_ext, grad_ext = staircase_case(T, D, bool(conv2a))
    x, w, b, gy = (a.astype(dtype) for a in (x, w, b, gy))
    cases = [((1, 1), w, out_ext, grad_ext)] if conv2a is not None else [
        (pad, k, None, None) for k in (w, w[1:]) for pad in
        ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2)) if pad[0] < k.shape[0]]
    for pad, k, oe, ge in cases:
        y, grads = ad._conv_grid(x, k, b, pad, oe, ge)
        y_old, grads_old = padded_conv_grid(x, k, b, pad, oe, ge)
        assert y.dtype == dtype and np.array_equal(y, y_old)
        g = np.resize(gy, y.shape).astype(dtype)
        for new, old in zip(grads(g), grads_old(g), strict=True):
            assert new.dtype == old.dtype and np.array_equal(new, old)
