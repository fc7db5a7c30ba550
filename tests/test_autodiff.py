import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from semiprop import autodiff as ad
from semiprop.data import candidate_mask
from semiprop.model import CONV_BLOCKS, GateTape, build_bm_mask, halo, staircase
from sampler_reference import (assert_same_entries, csc_bm_mask, csc_of, point_stacked_sample,
                               sampler_of)

# a random sampling matrix for N=3 sample points of J=5 candidates over T=6,
# in the sampler's point-stacked (N*T, J) form: scipy's, and the sampler
# holding its entries
SAMPLE_CSC = sparse.random(3 * 6, 5, density=0.4, random_state=1, format="csc")
SAMPLE_S = sampler_of(SAMPLE_CSC, 3)
# constant targets and 0/1 weights for the mean square error: a (D, T) map
# and a (T, C) sequence with a per-row (T, 1) weight
_mse_rng = np.random.default_rng(2)
MSE_MAP, MSE_SEQ = _mse_rng.normal(size=(4, 6)), _mse_rng.normal(size=(6, 3))
MSE_MAP_W = (_mse_rng.random((4, 6)) < 0.6).astype(float)
MSE_ROW_W = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
# conv2a's staircase extents on a (D, T) = (5, 6) candidate grid: output on
# the candidates' halo, input gradient on the candidates (so the grid case
# zeroes its input elsewhere, as reading the 20 candidate rows does), and
# conv2b's, the reverse
_VALID = candidate_mask(6, 5)
HALO_EXTENTS = (staircase(halo(_VALID)), staircase(_VALID))
VALID_ROWS = ad.CellRows(np.flatnonzero(_VALID), _VALID.shape, HALO_EXTENTS[1])
# cells (0, 0), (0, 2) and (1, 1) of a (2, 4) grid, in one block
SCATTER_ROWS = ad.CellRows(np.array([0, 2, 5]), (2, 4), ((0, 2, 3),))
# 0/1 masks in the layout of a (8, 4) conv1d output and of the sampler's
# (J, C) = (5, 4) output: replayed ReLU gates
_mask_rng = np.random.default_rng(4)
SEQ_MASK, ROWS_MASK = ((_mask_rng.random(s) < 0.5).astype(float) for s in ((8, 4), (5, 4)))
# the sign of each of four output channels: with the products before it
# nonnegative, `signed(b)` keeps every channel's value at least 0.5 from
# zero, so a ReLU epilogue on it is evaluated away from its kink
SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def signed(b):
    return ad.mul(ad.add(ad.square(b), 0.5), SIGNS)


def sigmoid_planes(x, w, b):
    """A k = 1 conv1d with the sigmoid epilogue, its two output columns
    split by `plane` and each given a loss of its own."""
    y = ad.conv1d(x, w, b, 0, ("sigmoid", None))
    s, e = ad.plane(y, 0, axis=-1), ad.plane(y, 1, axis=-1)
    return ad.add(ad.tsum(ad.square(s)), ad.tmean(e))


def gather(rows, grid):
    """The rows of a (..., D, T, C) grid's cells, as the `CellRows` `rows`
    holds them."""
    return grid.reshape(*grid.shape[:-3], -1, grid.shape[-1]).take(rows.cells, axis=-2)


def rows_to_grid(x, rows):
    """The zero-filled (..., D, T, C) grid whose cells `rows` holds the
    (..., J, C) rows of `x`: the grid read as one `CellRows` strip, and its
    gradient gathered back to the rows."""
    D, T = rows.shape

    def bwd():
        ad._accum(x, gather(rows, out.grad))

    out = ad.Tensor(rows.strip(x.data, (0, D), (0, T)), _parents=(x,), _backward=bwd)
    return out


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
        ad.sparse_sample(x, SAMPLE_S, w, b))),
               [(6, 4), (3,), (4,)]),
    # activation epilogues: a ReLU off its kink and a replayed gate, on a
    # convolution and on the sampler; the boundary head's sigmoid and split
    "conv1d_relu": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(
        ad.square(x), ad.mul(ad.square(w), SIGNS), signed(b), 1, ("relu", None)))),
                    [(8, 3), (3, 3, 4), (4,)]),
    "conv1d_mask": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, 1, (None, SEQ_MASK)))),
                    [(8, 3), (3, 3, 4), (4,)]),
    "conv1d_sigmoid_planes": (sigmoid_planes, [(6, 3), (1, 3, 2), (2,)]),
    "conv1d_sigmoid_planes_batched": (sigmoid_planes, [(2, 6, 3), (1, 3, 2), (2,)]),
    "reduce_relu": (lambda x, w, b: ad.tsum(ad.square(ad.sparse_sample(
        ad.mul(ad.square(x), SIGNS), SAMPLE_S, ad.square(w), signed(b), ("relu", None)))),
                    [(6, 4), (3,), (4,)]),
    "reduce_mask": (lambda x, w, b: ad.tsum(ad.square(ad.sparse_sample(
        x, SAMPLE_S, w, b, (None, ROWS_MASK)))), [(6, 4), (3,), (4,)]),
    # the deleted standalone activation ops, kept as the references of the
    # unfused forward pass in test_model
    "sigmoid": (lambda x: ad.tmean(old_sigmoid(x)), [(6, 4)]),
    "dot_vm": (lambda x, w: ad.tsum(ad.square(ad.dot_vm(x, w))), [(5,), (5, 3)]),
    "take_last_2d": (lambda x: ad.tsum(ad.square(old_take_last(x, 1))), [(6, 3)]),
    "take_last_3d": (lambda x: ad.tsum(ad.square(old_take_last(x, 1))), [(4, 5, 2)]),
    "cross_entropy": (lambda x: ad.cross_entropy_logits(x, 1), [(4,)]),
    "log": (lambda x: ad.tsum(ad.log(ad.add(ad.square(x), 0.5), eps=1e-12)), [(7,)]),
    "mean_axis": (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=0))), [(6, 4)]),
    "mse": (lambda x: ad.mse(x, MSE_MAP), [(4, 6)]),
    "mse_weighted": (lambda x: ad.mse(x, MSE_MAP, MSE_MAP_W), [(4, 6)]),
    "mse_row_weight": (lambda x: ad.mse(x, MSE_SEQ, MSE_ROW_W), [(6, 3)]),
    # the same ops on a leading (batch) axis, or two
    "conv1d_batched": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=1))),
                       [(2, 7, 3), (3, 3, 4), (4,)]),
    "conv1d_batched_2axes": (lambda x, w, b: ad.tsum(ad.square(ad.conv1d(x, w, b, pad=0))),
                             [(2, 2, 6, 2), (2, 2, 3), (3,)]),
    "conv2d_batched": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b, pad=1))),
                       [(2, 5, 6, 3), (3, 3, 3, 2), (2,)]),
    "conv2d_batched_staircase": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(
        ad.mul(x, _VALID[:, :, None]), w, b, 1, *HALO_EXTENTS))),
                                 [(3, 5, 6, 2), (3, 3, 2, 2), (2,)]),
    "reduce_batched": (lambda x, w, b: ad.tsum(ad.square(
        ad.sparse_sample(x, SAMPLE_S, w, b))), [(2, 6, 4), (3,), (4,)]),
    "scatter_batched": (lambda x: ad.tsum(ad.square(rows_to_grid(x, SCATTER_ROWS))),
                        [(3, 3, 2)]),
    "conv2d_rows_batched": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(
        x, w, b, 1, HALO_EXTENTS[0], VALID_ROWS))), [(3, 20, 2), (3, 3, 2, 2), (2,)]),
    "conv2d_rows_narrow": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(
        x, w, b, 1, HALO_EXTENTS[0], VALID_ROWS))), [(20, 3), (3, 3, 3, 2), (2,)]),
    # epilogues: the masked sigmoid in the output-side order, and a mask
    # alone (a replayed ReLU gate) in the tap loop, both channel first
    "conv2d_sigmoid_mask_channels_first": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(
        x, w, b, 1, *HALO_EXTENTS[::-1], epilogue=("sigmoid", _VALID), channels_first=True))),
                                           [(2, 5, 6, 3), (3, 3, 3, 2), (2,)]),
    "conv2d_mask_channels_first": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(
        x, w, b, 1, epilogue=(None, _VALID), channels_first=True))),
                                   [(5, 6, 2), (3, 3, 2, 3), (3,)]),
    "dot_vm_batched": (lambda x, w: ad.tsum(ad.square(ad.dot_vm(x, w))), [(4, 5), (5, 3)]),
    "cross_entropy_batched": (lambda x: ad.cross_entropy_logits(x, np.array([1, 0, 3])),
                              [(3, 4)]),
    "mean_axis_batched": (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=-2))), [(2, 6, 4)]),
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
    x = ad.Tensor(np.arange(3.0)[:, None], requires_grad=True)  # T = 3, one channel
    y = ad.conv1d(x, np.full((1, 1, 1), 2.0), np.zeros(1), 0, ("relu", None))
    loss = ad.tsum(y)
    loss.backward()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new root over a released node must not pass as a leaf either
    with pytest.raises(RuntimeError, match="released"):
        ad.tsum(ad.square(y)).backward()
    assert np.array_equal(x.grad[:, 0], [0.0, 2.0, 2.0])


def test_leaves_are_reusable_after_backward():
    x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ad.tsum(ad.square(x)).backward()
    ad.tsum(x).backward()
    assert np.array_equal(x.grad, [3.0, -3.0])


def test_sigmoid_saturates_without_overflow_warning():
    """The sigmoid epilogue of a k = 1 conv1d that passes its one channel
    through unchanged (weight 1, bias 0)."""
    x = np.linspace(-1000.0, 100.0, 2201, dtype=np.float32)[:, None]
    t = ad.Tensor(x, requires_grad=True)
    w, b = np.ones((1, 1, 1), dtype=np.float32), np.zeros(1, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ad.conv1d(t, w, b, 0, ("sigmoid", None))
        ad.tsum(s).backward()
    with np.errstate(over="ignore"):
        expect = 1.0 / (1.0 + np.exp(-x))
    assert s.data.dtype == np.float32 and np.array_equal(s.data, expect)
    assert s.data[0, 0] == 0.0 and s.data[-1, 0] == 1.0
    assert np.isfinite(t.grad).all() and t.grad[0, 0] == 0.0


def test_broadcast_add_gradient_sums_over_broadcast_axes():
    x = ad.Tensor(np.zeros((4, 3)), requires_grad=True)
    b = ad.Tensor(np.zeros(3), requires_grad=True)
    ad.tsum(ad.add(x, b)).backward()
    assert np.array_equal(b.grad, np.full(3, 4.0))


@pytest.mark.parametrize("op", [ad.add, ad.mul])
@pytest.mark.parametrize("x_shape, const", [((4, 3), 2.0), ((4, 3), np.ones(3)),
                                            ((3,), np.ones((4, 3)))])
def test_constant_operand_gets_no_gradient_work(op, x_shape, const, monkeypatch):
    """add and mul reduce a gradient to the shape of the operands that need
    one only: a scalar, mask or weight constant costs no broadcast sum."""
    shapes = []
    unbroadcast = ad._unbroadcast

    def recording(g, shape):
        shapes.append(shape)
        return unbroadcast(g, shape)

    monkeypatch.setattr(ad, "_unbroadcast", recording)
    x = ad.Tensor(np.arange(np.prod(x_shape), dtype=float).reshape(x_shape),
                  requires_grad=True)
    for a, b in ((x, const), (const, x)):
        x.grad = None
        ad.tsum(op(a, b)).backward()
        expect = np.broadcast_to(const if op is ad.mul else 1.0,
                                 np.broadcast_shapes(x_shape, np.shape(const)))
        assert np.array_equal(x.grad, unbroadcast(expect, x_shape))
    assert shapes and all(s == x_shape for s in shapes)


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


@pytest.mark.parametrize("n_rows", [19, 21, 6])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_conv2d_rejects_rows_other_than_the_cells(n_rows, lead):
    """A `CellRows` input extent holds one row of x per cell: more rows or
    fewer (a dense (D, T) grid's T = 6 among them) stop before any product,
    naming both sizes."""
    x, w, b = np.zeros((*lead, n_rows, 2)), np.zeros((3, 3, 2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match=f"{n_rows} rows for the 20 cells"):
        ad.conv2d(x, w, b, 1, HALO_EXTENTS[0], VALID_ROWS)


@pytest.mark.parametrize("k,pad", [(3, 3), (1, 1), (2, -1)])
def test_conv1d_rejects_pad_out_of_range(k, pad):
    x, w, b = np.zeros((6, 2)), np.zeros((k, 2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match=f"pad={pad}, k={k}"):
        ad.conv1d(x, w, b, pad=pad)


def test_sparse_sample_matches_dense():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w, b = rng.normal(size=3), rng.normal(size=3)
    out = ad.sparse_sample(x, SAMPLE_S, w, b)
    samples = np.einsum("tc,ntj->cnj", x.data, SAMPLE_CSC.toarray().reshape(3, 6, 5))
    assert np.allclose(out.data, np.einsum("cnj,n->jc", samples, w) + b)
    ad.tsum(ad.square(out)).backward()
    fd = numeric_grad(lambda t: ad.tsum(ad.square(
        ad.sparse_sample(t, SAMPLE_S, w, b))), [x.data], 0)
    assert np.abs(x.grad - fd).max() < 1e-6


@pytest.mark.parametrize("name", ["conv1d_k3", "conv2d", "reduce", "dot_vm"])
def test_batched_op_matches_per_item_calls(name):
    """An op on a stack of three inputs gives, for the stack's summed loss,
    each input's own gradient, and the per-item gradients of the shared
    operands summed."""
    build, shapes = CASES[name]
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, *shapes[0]))
    rest = [rng.normal(size=s) for s in shapes[1:]]
    ts = [ad.Tensor(a, requires_grad=True) for a in [stack, *rest]]
    loss = build(*ts)
    loss.backward()
    grads, items, total = [np.zeros_like(a) for a in rest], [], 0.0
    for k in range(3):
        tk = [ad.Tensor(a, requires_grad=True) for a in [stack[k], *rest]]
        item = build(*tk)
        item.backward()
        total += item.item()
        items.append(tk[0].grad)
        for g, t in zip(grads, tk[1:]):
            g += t.grad
    assert np.isclose(loss.item(), total, rtol=1e-12, atol=0)
    assert np.allclose(ts[0].grad, np.stack(items), rtol=1e-12, atol=1e-14)
    for g, t in zip(grads, ts[1:]):
        assert np.allclose(t.grad, g, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("rows,cols", [((-1, 3), (-1, 8)), ((0, 5), (0, 6)), ((2, 7), (1, 4)),
                                       ((4, 5), (-2, 3)), ((-3, -1), (0, 6))])
def test_cell_rows_strip_is_the_scattered_grid_strip(rows, cols):
    """A strip cut from the candidate rows holds what the same strip of the
    zero-filled grid holds, also past the grid's edges; `gather` reads the
    rows back off the grid."""
    x = np.random.default_rng(1).normal(size=(2, 20, 3))
    grid = old_scatter_grid(x, VALID_ROWS.cells, _VALID.shape).data
    strip = _strip_of_grid(grid, rows, cols)
    for _ in range(2):  # the second read reuses the runs found by the first
        assert np.array_equal(VALID_ROWS.strip(x, rows, cols), strip)
    assert np.array_equal(gather(VALID_ROWS, grid), x)


@pytest.mark.parametrize("rows,cols", [((-1, 3), (-1, 8)), ((0, 5), (0, 6)), ((2, 7), (1, 4)),
                                       ((4, 5), (0, 3)), ((0, 5), (0, 0))])
def test_cell_rows_put_writes_the_cells_of_the_block(rows, cols):
    """`put` writes back the rows of a strip's cells, at any width of the
    block, and leaves every other row as it was."""
    x = np.random.default_rng(2).normal(size=(2, 20, 3))
    grid = old_scatter_grid(x, VALID_ROWS.cells, _VALID.shape).data
    (r0, r1), (c0, c1) = rows, cols
    d, i = np.divmod(VALID_ROWS.cells, _VALID.shape[1])
    inside = (d >= r0) & (d < r1) & (i >= c0) & (i < c1)
    for extra in (0, 2):  # dropped columns past c1, as the kernels' blocks have
        block = _strip_of_grid(grid, rows, (c0, c1 + extra))
        out = np.full_like(x, np.nan)
        for _ in range(2):  # the second write reuses the runs found by the first
            VALID_ROWS.put(out, block, rows, cols)
        assert np.array_equal(out[:, inside], x[:, inside])
        assert np.isnan(out[:, ~inside]).all()


def _strip_of_grid(grid, rows, cols):
    (r0, r1), (c0, c1) = rows, cols
    D, T = grid.shape[-3:-1]
    padded = np.zeros((*grid.shape[:-3], D + 20, T + 20, grid.shape[-1]))
    padded[..., 10:10 + D, 10:10 + T, :] = grid
    return padded[..., r0 + 10:r1 + 10, c0 + 10:c1 + 10, :]


# ---------------------------------------------------------------------------
# parity with the earlier kernels: conv1d with its own tap loops and a
# tap-by-tap scattered input gradient, per-tap tensordot conv2d backward, the
# sample -> reshape -> reduce -> scatter -> transpose chain of the sampler,
# the scatter op that wrote the candidate rows into a zeroed grid, and the
# standalone ReLU, sigmoid and column ops that the epilogues replaced

def old_relu(a):
    a = ad.as_tensor(a)

    def bwd():
        ad._accum(a, out.grad * (a.data > 0.0))

    out = ad.Tensor(np.maximum(a.data, 0.0), _parents=(a,), _backward=bwd)
    return out


def old_sigmoid(a):
    a = ad.as_tensor(a)
    s = ad._sigmoid(a.data, np.empty_like(a.data))

    def bwd():
        ad._accum(a, out.grad * s * (1.0 - s))

    out = ad.Tensor(s, _parents=(a,), _backward=bwd)
    return out


def old_take_last(a, idx):
    """Select index `idx` of the trailing axis (a column of a 2-D tensor)."""
    a = ad.as_tensor(a)

    def bwd():
        g = np.zeros_like(a.data)
        g[..., idx] = out.grad
        ad._accum(a, g)

    out = ad.Tensor(np.ascontiguousarray(a.data[..., idx]), _parents=(a,), _backward=bwd)
    return out


def old_scatter_grid(x, cells, grid_shape):
    """Scatter per-candidate features (J, C) into a dense (D, T, C) grid,
    zero outside the candidates; candidate j sits at the grid's flat cell
    `cells[j]` = d * T + i, and both directions index that one axis."""
    x = ad.as_tensor(x)
    y = np.zeros((*x.data.shape[:-2], *grid_shape, x.data.shape[-1]), dtype=x.data.dtype)
    flat = y.reshape(*y.shape[:-3], -1, y.shape[-1])  # (..., D*T, C) view
    flat[..., cells, :] = x.data

    def bwd():
        ad._accum(x, out.grad.reshape(flat.shape).take(cells, axis=-2))

    out = ad.Tensor(y, _parents=(x,), _backward=bwd)
    return out


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


def wide_matrix(S, N):
    """The (T, N*J) CSR layout of an (N*T, J) sampling matrix (a `Sampler`),
    which the earlier kernels read: S[r, j] moves to row r % T, column
    (r // T)*J + j."""
    (T, J), C = (S.shape[0] // N, S.shape[1]), csc_of(S).tocoo()
    return sparse.csr_matrix((C.data, (C.row % T, C.row // T * J + C.col)), shape=(T, N * J))


def old_sample_chain(q, w, b, W, D):
    """(T, C) -> (D, T, C) through the separate sampling ops, on the (T, N*J)
    matrix W."""
    q, w, b = ad.as_tensor(q), ad.as_tensor(w), ad.as_tensor(b)
    (T, C), N = q.data.shape, w.data.shape[0]
    J = W.shape[1] // N
    d_idx, i_idx = np.nonzero(candidate_mask(T, D))
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
    grid = ad.Tensor(np.zeros((C, D, T), dtype=q.data.dtype), _parents=(red,))
    grid.data[:, d_idx, i_idx] = red.data
    grid._backward = lambda: ad._accum(red, grid.grad[:, d_idx, i_idx])
    out = ad.Tensor(np.transpose(grid.data, (1, 2, 0)), _parents=(grid,))
    out._backward = lambda: ad._accum(grid, np.transpose(out.grad, (2, 0, 1)))
    return out


def new_sample_chain(q, w, b, S, D):
    T = q.data.shape[0]
    out = ad.sparse_sample(q, S, w, b)
    return old_scatter_grid(out, np.flatnonzero(candidate_mask(T, D)), (D, T))


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


def one_row_grid_conv1d(x, w, b, pad, epilogue, gy):
    """conv1d's output and its x, w and b gradients for the output gradient
    `gy`, run as `_conv_grid` on a (..., 1, T, C) grid."""
    if epilogue is not None and epilogue[1] is not None:
        epilogue = (epilogue[0], epilogue[1][..., None, :, :])
    y, grads = ad._conv_grid(x[..., None, :, :], w[None], b, (0, pad), epilogue=epilogue)
    gx, gw, gb = grads(gy[..., None, :, :].copy())
    return y[..., 0, :, :], gx[..., 0, :, :], gw[0], gb


def assert_bits_equal(got, want, dtype):
    for a, c in zip(got, want, strict=True):
        assert a.shape == c.shape and a.dtype == c.dtype == dtype
        assert a.tobytes() == c.tobytes()


@pytest.mark.parametrize("epilogue", [None, "relu", "sigmoid", "gate"])
@pytest.mark.parametrize("B", [None, 1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout,k,pad", [(16, 32, 3, 1), (32, 32, 3, 1), (32, 16, 3, 1),
                                            (32, 2, 1, 0)], ids=lambda v: str(v))
def test_conv1d_is_bit_equal_to_the_one_row_grid(cin, cout, k, pad, dtype, B, epilogue,
                                                 monkeypatch):
    """conv1d's own kernel against `_conv_grid` on a one-row grid, at the
    network's layer shapes: the output and the x, w and b gradients are
    equal bit for bit, for an output gradient in C order and in the
    T-innermost layout that the backward of a mean over T hands back. An x
    that needs no gradient keeps `grad` None, leaves the w and b gradients
    as they were, and gets no input-gradient tap loop."""
    rng = np.random.default_rng([cin, cout, k, B or 0])
    lead = () if B is None else (B,)
    x = rng.normal(size=(*lead, 100, cin)).astype(dtype)
    w = (rng.normal(size=(k, cin, cout)) / 4).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    if epilogue == "gate":  # a replayed ReLU gate: the mask alone
        tape = GateTape()
        tape.relu(lambda ep: ad.conv1d(x, w, b, pad, ep))
        epilogue = (None, tape.masks[0])
    elif epilogue is not None:
        epilogue = (epilogue, None)
    gy = rng.normal(size=(*lead, 100 + 2 * pad - k + 1, cout)).astype(dtype)
    want = one_row_grid_conv1d(x, w, b, pad, epilogue, gy)
    for g in (gy, np.ascontiguousarray(gy.swapaxes(-1, -2)).swapaxes(-1, -2)):
        ts = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ad.conv1d(*ts, pad, epilogue)
        out.grad = g.copy(order="K")
        out._backward()
        assert_bits_equal([out.data] + [t.grad for t in ts], want, dtype)

    loops = []
    monkeypatch.setattr(ad, "_tap_loop", lambda *a, _f=ad._tap_loop: loops.append(1) or _f(*a))
    xc, wt, bt = ad.Tensor(x), ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True)
    out = ad.conv1d(xc, wt, bt, pad, epilogue)
    out.grad = gy.copy()
    out._backward()
    assert xc.grad is None and len(loops) == 1  # the forward's
    assert_bits_equal([out.data, wt.grad, bt.grad], [want[0], *want[2:]], dtype)


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
    S = build_bm_mask(T, D, N).astype(dtype)
    shapes = [(T, C), (N,), (C,)]
    new = outputs_and_grads(new_sample_chain, shapes, dtype, 6, S, D)
    old = outputs_and_grads(old_sample_chain, shapes, dtype, 6, wide_matrix(S, N), D)
    assert_close(new, old, PARITY_RTOL[dtype])


def parent_sparse_sample(x, W, w, b):
    """The sampler before the point-stacked matrix, on a (T, N*J) CSR W:
    each call builds the (T, J) matrix W_comb = sum_n w[n] * W_n, and the
    weight gradient reads the dense (T, J) product x @ gy.T at W's entries."""
    x, w, b = ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)
    T, NJ = W.shape
    N = w.data.shape[0]
    n, j = np.divmod(W.indices, NJ // N)
    flat = np.repeat(np.arange(T), np.diff(W.indptr)) * (NJ // N) + j
    Wc = sparse.csr_matrix((W.data * w.data[n], j, W.indptr), shape=(T, NJ // N))
    columns = lambda a: np.moveaxis(a, -2, 0).reshape(a.shape[-2], -1)
    stacked = lambda a: np.moveaxis(a.reshape(a.shape[0], *x.data.shape[:-2], -1), 0, -2)

    def bwd():
        gy = columns(out.grad)
        ad._accum(x, stacked(Wc @ gy))
        per_entry = W.data * (columns(x.data) @ gy.T).ravel().take(flat)
        ad._accum(w, np.bincount(n, per_entry, minlength=N).astype(w.data.dtype))
        ad._accum(b, gy.reshape(-1, b.data.shape[0]).sum(axis=0))

    y = stacked(Wc.T @ columns(x.data))
    y += b.data
    out = ad.Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B", [None, 1, 2, 4])
@pytest.mark.parametrize("T,D,N,C", [(12, 8, 4, 5), (100, 100, 8, 16)])
def test_point_stacked_sampler_matches_parent_op(T, D, N, C, B, dtype):
    """The output and the gradients of x, w and b match the (T, J) W_comb
    op's, unbatched and on a batch axis, at a small and the network's shape."""
    S = build_bm_mask(T, D, N).astype(dtype)
    shapes = [(T, C) if B is None else (B, T, C), (N,), (C,)]
    new = outputs_and_grads(lambda x, w, b, S: ad.sparse_sample(x, S, w, b),
                            shapes, dtype, 8, S)
    old = outputs_and_grads(lambda x, w, b, W: parent_sparse_sample(x, W, w, b),
                            shapes, dtype, 8, wide_matrix(S, N))
    assert_close(new, old, PARITY_RTOL[dtype])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B", [1, 2, 4])
def test_point_stacked_sampler_stack_is_bit_equal_to_single_calls(B, dtype):
    T, D, N, C = 100, 100, 8, 16
    S = build_bm_mask(T, D, N).astype(dtype)
    rng = np.random.default_rng(B)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in ((B, T, C), (N,), (C,)))
    y = ad.sparse_sample(x, S, w, b).data
    assert y.dtype == dtype and y.shape == (B, S.shape[1], C)
    assert np.array_equal(y, np.stack([ad.sparse_sample(x[v], S, w, b).data
                                       for v in range(B)]))


@pytest.mark.parametrize("x_shape,N", [((5, 4), 3), ((2, 7, 4), 3), ((6, 4), 2)])
def test_sparse_sample_rejects_matrix_of_other_shape(x_shape, N):
    """SAMPLE_S is (N*T, J) = (18, 5) for N = 3 and T = 6: any other T of x
    or N of w is refused, naming both shapes."""
    x, w, b = np.ones(x_shape), np.ones(N), np.ones(4)
    with pytest.raises(ValueError, match=re.escape(f"(18, 5) does not fit x of shape {x_shape}")):
        ad.sparse_sample(x, SAMPLE_S, w, b)


def test_sampler_backward_allocates_under_a_megabyte():
    """At the network's shape (T = D = 100, N = 8, 16 channels, B = 1,
    float32) the backward's peak allocation stays under 1 MB; the parent
    op's, with its dense (T, J) product, is at least 2.0 MB."""
    T, D, N, C = 100, 100, 8, 16
    S = build_bm_mask(T, D, N).astype(np.float32)
    rng = np.random.default_rng(9)
    arrs = [rng.normal(size=s).astype(np.float32) for s in ((1, T, C), (N,), (C,))]

    def backward_peak(op, matrix):
        x, w, b = (ad.Tensor(a, requires_grad=True) for a in arrs)
        out = op(x, matrix, w, b)
        out.grad = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out._backward()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert backward_peak(ad.sparse_sample, S) < 1e6
    assert backward_peak(parent_sparse_sample, wide_matrix(S, N)) >= 2.0e6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B", [None, 1, 2, 4])
@pytest.mark.parametrize("T,D,N,C", [(12, 8, 4, 5), (100, 100, 8, 16)])
def test_folded_sampler_matches_point_stacked_op(T, D, N, C, B, dtype):
    """The output and the gradients of x, w and b of the op on its folded
    matrix match the sparse point-stacked op's on the scipy matrix,
    unbatched and on a batch axis, at a small and the network's shape."""
    shapes = [(T, C) if B is None else (B, T, C), (N,), (C,)]
    new = outputs_and_grads(lambda x, w, b, S: ad.sparse_sample(x, S, w, b),
                            shapes, dtype, 10, build_bm_mask(T, D, N).astype(dtype))
    old = outputs_and_grads(lambda x, w, b, S: point_stacked_sample(x, S, w, b),
                            shapes, dtype, 10, csc_bm_mask(T, D, N).astype(dtype))
    assert_close(new, old, PARITY_RTOL[dtype])


def folded(T, D, N, w):
    """A^T = (sum_n w[n] * S_n)^T from the dense scipy reference matrix."""
    return np.einsum("ntj,n->jt", csc_bm_mask(T, D, N).toarray().reshape(N, T, -1), w)


def test_sampler_fold_is_kept_while_the_bytes_of_w_are():
    """A w of equal bytes reuses the folded matrix; an in-place change to w
    builds a new one and leaves the old one as it was."""
    S = build_bm_mask(12, 8, 4)
    w = np.array([0.5, -1.0, 2.0, 0.25])
    at = S.fold(w)
    assert at.shape == (S.shape[1], 12) and at.flags.c_contiguous
    assert np.allclose(at, folded(12, 8, 4, w), rtol=0, atol=1e-15)
    assert S.fold(w.copy()) is at
    kept = at.copy()
    w[1] = 3.0
    rebuilt = S.fold(w)
    assert rebuilt is not at and not np.shares_memory(rebuilt, at)
    assert np.array_equal(at, kept)
    assert np.allclose(rebuilt, folded(12, 8, 4, w), rtol=0, atol=1e-15)
    assert S.fold(w) is rebuilt


def test_sampler_folds_of_two_dtypes_are_never_shared():
    """A sampler and its float32 cast fold the same weights into two
    matrices, each in its own dtype; one sampler given w in either dtype
    keys its matrix by the dtype too, so it never hands one to the other."""
    S = build_bm_mask(12, 8, 4)
    S32 = S.astype(np.float32)
    assert (S.table.dtype, S32.table.dtype) == (np.float64, np.float32)
    w64 = np.array([0.5, -1.0, 2.0, 0.25])
    w32 = w64.astype(np.float32)
    a64, a32 = S.fold(w64), S32.fold(w32)
    assert (a64.dtype, a32.dtype) == (np.float64, np.float32)
    assert not np.shares_memory(a64, a32)
    assert S32.fold(w32) is a32 and S.fold(w64) is a64
    from_w32 = S.fold(w32)
    assert from_w32 is not a64 and np.array_equal(from_w32, a64)
    assert S.fold(w64) is not from_w32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pending_backward_uses_its_own_fold(dtype):
    """A backward still pending when a forward with other weights rebuilds
    the cached matrix runs on the matrix of its own forward: its gradients
    equal, bit for bit, those of a backward run before the rebuild."""
    T, D, N, C = 12, 8, 4, 5
    S = build_bm_mask(T, D, N).astype(dtype)
    rng = np.random.default_rng(11)
    x, w, b, other = (rng.normal(size=s).astype(dtype) for s in ((2, T, C), (N,), (C,), (N,)))
    up = rng.normal(size=(2, S.shape[1], C)).astype(dtype)

    def grads(rebuild):
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        loss = ad.tsum(ad.mul(ad.sparse_sample(*ts[:1], S, *ts[1:]), up))
        if rebuild:
            ad.sparse_sample(x, S, other, b)
            assert S._fold[0] == (other.dtype, other.tobytes())
        loss.backward()
        return [t.grad for t in ts]

    for a, c in zip(grads(False), grads(True), strict=True):
        assert a.dtype == c.dtype == dtype and np.array_equal(a, c)


def test_sampler_entries_are_the_scipy_matrix_entries():
    """The random test matrix and the network's round-trip through the
    sampler entry for entry, values bit for bit."""
    assert_same_entries(SAMPLE_S, SAMPLE_CSC)
    S = build_bm_mask(100, 100, 8)
    assert S.shape == (800, 5050) and S.nnz == 75348 and S.cells.size == 69183
    assert_same_entries(sampler_of(csc_of(S), 8), csc_bm_mask(100, 100, 8))


def old_tsum(a, axis=None):
    """tsum before its gradient was made C order: the broadcast's order."""
    a = ad.as_tensor(a)

    def bwd():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        ad._accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    out = ad.Tensor(np.sum(a.data, axis=axis), _parents=(a,), _backward=bwd)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mean_over_T_gives_a_C_order_gradient_and_the_same_conv_gradients(dtype, monkeypatch):
    """order.conv's chain, a conv1d with a ReLU epilogue pooled by a mean
    over T: the mean's gradient comes back C-contiguous (the broadcast's
    order put T innermost), and the convolution's gradients, its bias
    gradient among them, keep their bytes."""
    rng = np.random.default_rng(12)
    arrs = [rng.normal(size=s).astype(dtype) for s in ((3, 9, 4), (3, 4, 6), (6,))]
    up = rng.normal(size=(3, 6)).astype(dtype)

    def run():
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrs]
        y = ad.conv1d(*ts, 1, ("relu", None))
        ad.tsum(ad.mul(ad.tmean(y, axis=-2), up)).backward()
        return y.grad, [t.grad for t in ts]

    gy, new = run()
    assert gy.flags.c_contiguous
    monkeypatch.setattr(ad, "tsum", old_tsum)
    gy_old, old = run()
    assert not gy_old.flags.c_contiguous
    for a, c in zip(new, old, strict=True):
        assert a.dtype == c.dtype and a.tobytes() == c.tobytes()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [2, 4])
@pytest.mark.parametrize("conv2a", [True, False])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_tap_loop_on_a_batch_axis_matches_per_video_kernel(T, D, conv2a, B, dtype):
    """On a (B, D, T, C) stack the output and the input gradient are the
    per-video padded-grid kernel's bit for bit. The weight and bias
    gradients sum the videos inside each block (and the bias over all cells
    at once) where the reference sums each video's whole gradient, so they
    differ by rounding only: within 16 ulps of the largest entry (at most
    7 seen)."""
    _, w, b, _, out_ext, grad_ext = staircase_case(T, D, conv2a)
    rng = np.random.default_rng(B * 1000 + T * 10 + D)
    x = rng.normal(size=(B, D, T, w.shape[2])).astype(dtype)
    gy = rng.normal(size=(B, D, T, w.shape[3])).astype(dtype)
    w, b = w.astype(dtype), b.astype(dtype)
    y, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, grad_ext)
    gx, gw, gb = grads(gy)
    refs = [padded_conv_grid(x[v], w, b, (1, 1), out_ext, grad_ext) for v in range(B)]
    per_video = [grads_v(gy[v]) for v, (_, grads_v) in enumerate(refs)]
    assert np.array_equal(y, np.stack([y_v for y_v, _ in refs]))
    assert np.array_equal(gx, np.stack([g[0] for g in per_video]))
    for got, parts in ((gw, [g[1] for g in per_video]), (gb, [g[2] for g in per_video])):
        assert got.dtype == dtype
        assert rel_err(got, np.sum(parts, axis=0)) <= 16 * np.finfo(dtype).eps


# ---------------------------------------------------------------------------
# the output-side order, which a kernel narrower at its output (Cout < Cin
# and kd > 1) takes: conv2b's 16 -> 2 and a 4 -> 2 kernel, on both staircase
# cases, unbatched (B None) and on a batch axis

NARROW_KERNELS = [(16, 2), (4, 2)]


def narrow_case(T, D, conv2a, cin, cout, B, dtype):
    *_, out_ext, grad_ext = staircase_case(T, D, conv2a)
    rng = np.random.default_rng([T, D, cin, B or 0])
    lead = () if B is None else (B,)
    x, gy = rng.normal(size=(*lead, D, T, cin)), rng.normal(size=(*lead, D, T, cout))
    w, b = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    return *(a.astype(dtype) for a in (x, w, b, gy)), out_ext, grad_ext


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [None, 1, 2, 4])
@pytest.mark.parametrize("cin,cout", NARROW_KERNELS)
@pytest.mark.parametrize("conv2a", [True, False])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_narrow_conv_matches_padded_grid_kernel(T, D, conv2a, cin, cout, B, dtype):
    """The output and input gradient match the per-video padded-grid kernel,
    and the weight and bias gradients its per-video sum."""
    x, w, b, gy, out_ext, grad_ext = narrow_case(T, D, conv2a, cin, cout, B, dtype)
    y, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, grad_ext)
    videos = zip(x.reshape(-1, D, T, cin), gy.reshape(-1, D, T, cout))
    refs = []
    for x_v, gy_v in videos:
        y_v, grads_v = padded_conv_grid(x_v, w, b, (1, 1), out_ext, grad_ext)
        refs.append((y_v, *grads_v(gy_v)))
    y_ref, gx_ref = (np.stack([r[i] for r in refs]).reshape(a.shape)
                     for i, a in ((0, y), (1, x)))
    gw_ref, gb_ref = (np.sum([r[i] for r in refs], axis=0) for i in (2, 3))
    assert_close([y, *grads(gy)], [y_ref, gx_ref, gw_ref, gb_ref], PARITY_RTOL[dtype])


@pytest.mark.parametrize("B", [None, 2])
@pytest.mark.parametrize("cin,cout", NARROW_KERNELS)
@pytest.mark.parametrize("conv2a", [True, False])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_narrow_conv_keeps_the_extent_contract(T, D, conv2a, cin, cout, B):
    """The output is zero outside the output extent, NaN in the output
    gradient there changes no gradient, and the input gradient is zero
    outside the input-gradient extent."""
    x, w, b, gy, out_ext, grad_ext = narrow_case(T, D, conv2a, cin, cout, B, np.float64)
    out_cells, grad_cells = inside(out_ext, (D, T)), inside(grad_ext, (D, T))
    y, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, grad_ext)
    assert not y[..., ~out_cells, :].any()
    clean = grads(np.where(out_cells[..., None], gy, 0.0))
    poisoned = grads(np.where(out_cells[..., None], gy, np.nan))
    for a, c in zip(poisoned, clean, strict=True):
        assert np.isfinite(a).all() and np.array_equal(a, c)
    assert clean[0][..., grad_cells, :].any() and not clean[0][..., ~grad_cells, :].any()


@pytest.mark.parametrize("w_shape,narrow", [
    ((3, 3, 16, 2), True), ((2, 3, 4, 2), True), ((3, 3, 16, 16), False),
    ((3, 3, 2, 16), False), ((1, 3, 32, 2), False), ((1, 1, 32, 2), False)])
def test_evaluation_order_is_picked_from_the_shapes(w_shape, narrow, monkeypatch):
    """Cout < Cin with more than one kernel row takes the output-side order;
    Cout >= Cin and every one-row kernel (each conv1d) the tap loop."""
    called = []
    for name in ("_conv2d_taps", "_conv2d_planes", "_narrow_grads"):
        def spy(*args, _f=getattr(ad, name), _name=name, **kwargs):
            called.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(ad, name, spy)
    x = np.ones((6, 7, w_shape[2]))
    y, grads = ad._conv_grid(x, np.ones(w_shape), np.ones(w_shape[3]),
                             (w_shape[0] // 2, w_shape[1] // 2))
    grads(np.ones_like(y))
    expect = ["_conv2d_planes", "_narrow_grads"] if narrow else ["_conv2d_taps"] * 2
    assert called == expect


# ---------------------------------------------------------------------------
# the input gradient of a `CellRows` source, written straight into the
# candidate rows, against the earlier path that built it on a zeroed grid and
# gathered the rows from it; and epilogue gradients taken in place in the
# output gradient, against the earlier out-of-place copy

ACTIVATE_GRAD = ad._activate_grad  # the program's own, which a test below patches


def old_epilogue_grad(gy, y, extent, epilogue, channels_first):
    """The epilogue gradient written into a fresh copy of `gy`."""
    act, mask = epilogue
    gz = np.empty_like(gy)
    for block in extent:
        g, o, out = (ad._cells(a, block, channels_first) for a in (gy, y, gz))
        m = None if mask is None else ad._cells(mask, block, channels_first)
        ACTIVATE_GRAD(g, o, act, m, out)
    return gz


def grid_then_gather(x, w, b, out_ext, rows, epilogue=None):
    """`_conv_grid` on the candidate rows `x` the earlier way: the kernel
    runs on the zero-filled grid, with the rows' blocks as its input
    extent, and its input gradient, a grid, is gathered back to the rows."""
    D, T = rows.shape
    y, grads = ad._conv_grid(rows.strip(x, (0, D), (0, T)), w, b, (1, 1), out_ext, rows.blocks,
                             epilogue)

    def gathered(gy):
        gx, gw, gb = grads(gy)
        return gather(rows, gx), gw, gb
    return y, gathered


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [None, 1, 2, 4])
@pytest.mark.parametrize("cin,cout", [(3, 4), (4, 2)], ids=["tap_loop", "narrow"])
@pytest.mark.parametrize("T,D", STAIRCASE_SHAPES)
def test_rows_input_gradient_is_bit_equal_to_grid_then_gather(T, D, cin, cout, B, dtype):
    """On conv2a's extents, in both evaluation orders, the output and every
    gradient of a `CellRows` source are the grid-then-gather path's bit for
    bit, and the input gradient has the rows' shape and dtype."""
    valid = candidate_mask(T, D)
    rows = ad.CellRows(np.flatnonzero(valid), valid.shape, staircase(valid))
    out_ext = staircase(halo(valid))
    rng = np.random.default_rng([T, D, cin, B or 0])
    lead = () if B is None else (B,)
    x = rng.normal(size=(*lead, rows.cells.size, cin)).astype(dtype)
    w, b = rng.normal(size=(3, 3, cin, cout)).astype(dtype), rng.normal(size=cout).astype(dtype)
    gy = rng.normal(size=(*lead, D, T, cout)).astype(dtype)
    y, grads = ad._conv_grid(x, w, b, (1, 1), out_ext, rows)
    y_old, grads_old = grid_then_gather(x, w, b, out_ext, rows)
    assert np.array_equal(y, y_old)
    new, old = grads(gy.copy()), grads_old(gy.copy())
    assert new[0].shape == x.shape
    for a, c in zip(new, old, strict=True):
        assert a.dtype == c.dtype == dtype and np.array_equal(a, c)


def two_readers(y):
    """A loss that reads `y` twice, so its gradient is the sum of two."""
    c = np.linspace(-1.0, 1.0, y.data.size).reshape(y.shape).astype(y.dtype)
    return ad.add(ad.tsum(ad.square(y)), ad.tsum(ad.mul(y, c)))


_VALID_CF = _VALID.astype(float)
EPILOGUE_OPS = {
    "conv1d_relu": (lambda x, w, b: ad.conv1d(x, w, b, 1, ("relu", None)),
                    [(2, 8, 3), (3, 3, 4), (4,)]),
    "conv1d_sigmoid_mask": (lambda x, w, b: ad.conv1d(x, w, b, 1, ("sigmoid", SEQ_MASK)),
                            [(8, 3), (3, 3, 4), (4,)]),
    "conv2d_rows_relu": (lambda x, w, b: ad.conv2d(x, w, b, 1, HALO_EXTENTS[0], VALID_ROWS,
                                                   ("relu", None)),
                         [(2, 20, 3), (3, 3, 3, 3), (3,)]),
    "conv2d_sigmoid_mask_channels_first": (lambda x, w, b: ad.conv2d(
        x, w, b, 1, *HALO_EXTENTS[::-1], epilogue=("sigmoid", _VALID_CF),
        channels_first=True), [(2, 5, 6, 3), (3, 3, 3, 2), (2,)]),
    "sparse_sample_relu": (lambda x, w, b: ad.sparse_sample(x, SAMPLE_S, w, b, ("relu", None)),
                           [(2, 6, 4), (3,), (4,)]),
    "sparse_sample_mask": (lambda x, w, b: ad.sparse_sample(x, SAMPLE_S, w, b,
                                                            (None, ROWS_MASK)),
                           [(6, 4), (3,), (4,)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(EPILOGUE_OPS))
def test_in_place_epilogue_gradient_of_a_twice_read_output(name, dtype, monkeypatch):
    """The gradient of an epilogue's output that two consumers read is
    accumulated in its node's own array, and the epilogue gradient taken in
    place there gives every gradient bit-equal to an out-of-place copy
    (`old_epilogue_grad` for the convolutions, a fresh output array for
    the sampler)."""
    op, shapes = EPILOGUE_OPS[name]
    rng = np.random.default_rng(len(name))
    arrs = [rng.normal(size=s).astype(dtype) for s in shapes]

    def grads():
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in arrs]
        two_readers(op(*ts)).backward()
        return [t.grad for t in ts]

    in_place = grads()
    monkeypatch.setattr(ad, "_epilogue_grad", old_epilogue_grad)
    monkeypatch.setattr(ad, "_activate_grad", lambda gy, y, act, mask, out: ACTIVATE_GRAD(
        gy, y, act, mask, np.empty_like(out) if out is gy else out))
    for a, c in zip(in_place, grads(), strict=True):
        assert a.dtype == c.dtype and np.array_equal(a, c)


def test_conv2a_backward_peaks_a_grid_below_grid_then_gather(monkeypatch):
    """pem.conv2a's backward (B = 4, T = D = 100, Hp = 16, float32, its ReLU
    epilogue) peaks at least one (B, D, T, Hp) grid, 2.56 MB, below the
    earlier path's, which copied the output gradient for the epilogue, built
    the input gradient on a zeroed grid and gathered the rows from it."""
    B, T, D, Hp = 4, 100, 100, 16
    valid = candidate_mask(T, D)
    rows = ad.CellRows(np.flatnonzero(valid), valid.shape, staircase(valid))
    extents = staircase(halo(valid)), rows
    rng = np.random.default_rng(5)
    x = rng.normal(size=(B, rows.cells.size, Hp)).astype(np.float32)
    w = (rng.normal(size=(3, 3, Hp, Hp)) * 0.1).astype(np.float32)
    b = np.zeros(Hp, dtype=np.float32)
    gy = rng.normal(size=(B, D, T, Hp)).astype(np.float32)

    def backward_peak(conv):
        peaks = []
        for _ in range(2):  # the first pass finds the blocks' runs
            y, grads = conv()
            g = gy.copy()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = grads(g)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            del y, grads, result
        return peaks[-1]

    grid = B * D * T * Hp * 4
    new = backward_peak(lambda: ad._conv_grid(x, w, b, (1, 1), *extents, ("relu", None)))
    monkeypatch.setattr(ad, "_epilogue_grad", old_epilogue_grad)
    old = backward_peak(lambda: grid_then_gather(x, w, b, *extents, ("relu", None)))
    assert old - new >= grid, (old, new)
