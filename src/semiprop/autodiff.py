"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations needed by the proposal network are implemented. Tensors
wrap a numpy array; ops record a backward closure and the graph is walked in
reverse topological order. Constants (requires_grad=False with no grad
parents) carry no closure, so e.g. a teacher forward pass builds no graph.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def backward(self):
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None:
                node._backward()

    # operator sugar; scalars and ndarrays are treated as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division by a Tensor is not supported")
        return mul(self, 1.0 / np.asarray(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True) if g.dtype != t.data.dtype else g.copy()
    else:
        t.grad += g


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    out = Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd():
        _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out = Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)
    return out


def square(a):
    return mul(a, a)


def relu(a):
    a = as_tensor(a)

    def bwd():
        _accum(a, out.grad * (a.data > 0.0))

    out = Tensor(np.maximum(a.data, 0.0), _parents=(a,), _backward=bwd)
    return out


def sigmoid(a):
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def bwd():
        _accum(a, out.grad * s * (1.0 - s))

    out = Tensor(s, _parents=(a,), _backward=bwd)
    return out


def log(a, eps=0.0):
    """Natural log; with eps > 0 the argument is clamped below at eps
    (pass-through gradient inside the clamp, zero outside)."""
    a = as_tensor(a)
    x = np.maximum(a.data, eps) if eps else a.data

    def bwd():
        g = out.grad / x
        if eps:
            g = g * (a.data >= eps)
        _accum(a, g)

    out = Tensor(np.log(x), _parents=(a,), _backward=bwd)
    return out


def tsum(a, axis=None):
    a = as_tensor(a)

    def bwd():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    out = Tensor(np.sum(a.data, axis=axis), _parents=(a,), _backward=bwd)
    return out


def tmean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def mse(pred, target, weight=None):
    """Weighted mean square error sum(w * (pred - target)^2) / max(sum(w), 1);
    the plain mean when `weight` is None. `target` and `weight` are constants
    cast to pred's dtype, and `weight` broadcasts against pred."""
    pred = as_tensor(pred)
    dt = pred.data.dtype
    sq = square(pred - np.asarray(target, dtype=dt))
    if weight is None:
        return tmean(sq)
    w = np.asarray(weight, dtype=dt)
    return tsum(mul(sq, w)) / max(float(np.broadcast_to(w, sq.shape).sum()), 1.0)


def dot_vm(x, w):
    """(H,) vector times (H, M) matrix -> (M,)."""
    x, w = as_tensor(x), as_tensor(w)

    def bwd():
        _accum(x, w.data @ out.grad)
        _accum(w, np.outer(x.data, out.grad))

    out = Tensor(x.data @ w.data, _parents=(x, w), _backward=bwd)
    return out


def take_last(a, idx):
    """Select index `idx` of the trailing axis (a column of a 2-D tensor)."""
    a = as_tensor(a)

    def bwd():
        g = np.zeros_like(a.data)
        g[..., idx] = out.grad
        _accum(a, g)

    out = Tensor(np.ascontiguousarray(a.data[..., idx]), _parents=(a,), _backward=bwd)
    return out


def _block_taps(src, block, kd, kt):
    """The kd x kt shifted slices that output block (d0, d1, t1) reads from
    a padded (D', T', C) grid whose last row is a spare row of zeros, as one
    (kd, kt, (d1 - d0) * width, C) view of rows [d0, d1 + kd) and columns
    [0, width) of `src`, width = t1 + kt - 1; those are copied only when
    they do not span the whole row. Row r * width + t of every slice belongs
    to output cell (d0 + r, t); the rows with t >= t1 are computed and
    dropped, and only they reach into the spare row."""
    d0, d1, t1 = block
    width = t1 + kt - 1
    strip = np.ascontiguousarray(src[d0:d1 + kd, :width])
    row, ch = strip.strides[1:]
    return np.lib.stride_tricks.as_strided(
        strip, shape=(kd, kt, (d1 - d0) * width, src.shape[2]),
        strides=(width * row, row, row, ch), writeable=False)


def _conv2d_taps(src, w, shape, extent, bias=None):
    """Stride-1 convolution over a padded (D', T', Cin) grid `src` (with a
    spare zero row) and a (kd, kt, Cin, Cout) kernel: the sum over taps of
    shifted slices times the tap's (Cin, Cout) matrix, plus `bias`, giving a
    (*shape, Cout) grid that is computed inside the row blocks of `extent`
    and zero elsewhere. Each block runs its kd * kt products as one batched
    matmul."""
    kd, kt, _, cout = w.shape
    out = np.zeros((*shape, cout), dtype=src.dtype)
    for d0, d1, t1 in extent:
        acc = np.matmul(_block_taps(src, (d0, d1, t1), kd, kt), w).sum(axis=(0, 1))
        if bias is not None:
            acc += bias
        out[d0:d1, :t1] = acc.reshape(d1 - d0, -1, cout)[:, :t1]
    return out


def _conv_grid(x, w, b, pad, out_extent=None, grad_extent=None):
    """Stride-1 convolution of a (D, T, Cin) array with a (kd, kt, Cin, Cout)
    kernel, zero-padded by pad = (pd, pt) with 0 <= pd <= kd-1 and
    0 <= pt <= kt-1.

    Returns the (d_out, t_out, Cout) output and a function from its gradient
    to the gradients of x, w and b. The input gradient is the same tap loop
    over the output gradient, padded by k-1-pad on each axis, with the kernel
    flipped in both spatial axes and its in/out axes swapped; the weight
    gradient is one (cells, Cin)^T (cells, Cout) product per tap and block,
    with the output gradient zero on the dropped cells of `_block_taps`.

    An extent is a staircase of row blocks (d0, d1, t1), each covering rows
    [d0, d1) and columns [0, t1). The output is computed only inside
    `out_extent` and the input gradient only inside `grad_extent`; cells
    outside them are zero, and the output gradient is read only inside
    `out_extent`. Both default to one block over the whole grid.
    """
    D, T, cin = x.shape
    kd, kt, _, cout = w.shape
    for p, k in zip(pad, (kd, kt)):
        if not 0 <= p <= k - 1:
            raise ValueError(f"convolution needs 0 <= pad <= k-1, got pad={p}, k={k}")
    pd, pt = pad
    xp = np.zeros((D + 2 * pd + 1, T + 2 * pt, cin), dtype=x.dtype)  # + spare row
    xp[pd:pd + D, pt:pt + T] = x
    d_out = D + 2 * pd - kd + 1
    t_out = T + 2 * pt - kt + 1
    out_extent = out_extent or ((0, d_out, t_out),)
    grad_extent = grad_extent or ((0, D, T),)
    y = _conv2d_taps(xp, w, (d_out, t_out), out_extent, b)

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
            taps = _block_taps(xp, (d0, d1, t1), kd, kt)
            gw += np.matmul(taps.swapaxes(2, 3), rows.reshape(-1, cout))
        w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        return _conv2d_taps(gyp, w_flip, (D, T), grad_extent), gw, gb

    return y, grads


def conv1d(x, w, b, pad):
    """1-D convolution over a (T, Cin) sequence.

    w has shape (k, Cin, Cout), b shape (Cout,). Stride 1 and
    0 <= pad <= k-1; output length T + 2*pad - k + 1. Runs the 2-D kernel
    on a one-row grid.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y, grads = _conv_grid(x.data[None], w.data[None], b.data, (0, pad))

    def bwd():
        for t, g in zip((x, w, b), grads(out.grad[None])):
            _accum(t, g.reshape(t.data.shape))

    out = Tensor(y[0], _parents=(x, w, b), _backward=bwd)
    return out


def conv2d(x, w, b, pad, out_extent=None, grad_extent=None):
    """2-D convolution over a (D, T, Cin) grid with a (k, k, Cin, Cout) kernel.

    Stride 1 and 0 <= pad <= k-1 on both axes. `out_extent` and
    `grad_extent` are staircases of row blocks (d0, d1, t1) that bound the
    cells computed in the output and in the input gradient (`_conv_grid`);
    the default is the whole grid.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y, grads = _conv_grid(x.data, w.data, b.data, (pad, pad), out_extent, grad_extent)

    def bwd():
        for t, g in zip((x, w, b), grads(out.grad)):
            _accum(t, g)

    out = Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out


def sparse_sample(x, W, w, b, entries):
    """Boundary-matching sampling fused with its weighted N-reduction.

    `W` is a scipy CSR matrix of shape (T, N*J) whose column n*J + j holds
    the interpolation weights of sample point n of candidate j; `entries` is
    the (n, j, row*J + j) index triple of each stored entry of W, in storage
    order (`model.sample_entries`). For a (T, C) sequence x the result is

        y[j, c] = sum_n w[n] * (x.T @ W)[c, n*J + j] + b[c],  shape (J, C),

    computed as W_comb.T @ x + b with W_comb = sum_n w[n] * W_n, a (T, J) CSR
    matrix that reuses W's row pointers; its duplicate entries are summed by
    the sparse product, so the (C, N*J) samples are never formed.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, j, flat = entries
    T, NJ = W.shape
    N = w.data.shape[0]
    Wc = sparse.csr_matrix((W.data * w.data[n], j, W.indptr), shape=(T, NJ // N))

    def bwd():
        gy = out.grad
        _accum(x, np.asarray(Wc @ gy))
        per_entry = W.data * (x.data @ gy.T).ravel().take(flat)
        _accum(w, np.bincount(n, per_entry, minlength=N).astype(w.data.dtype))
        _accum(b, gy.sum(axis=0))

    out = Tensor(np.asarray(Wc.T @ x.data) + b.data, _parents=(x, w, b), _backward=bwd)
    return out


def scatter_grid(x, d_idx, i_idx, grid_shape):
    """Scatter per-candidate features (J, C) into a dense (D, T, C) grid,
    zero outside the candidate index lists."""
    x = as_tensor(x)
    D, T = grid_shape
    y = np.zeros((D, T, x.data.shape[1]), dtype=x.data.dtype)
    y[d_idx, i_idx] = x.data

    def bwd():
        _accum(x, out.grad[d_idx, i_idx])

    out = Tensor(y, _parents=(x,), _backward=bwd)
    return out


def cross_entropy_logits(logits, label):
    """Cross entropy -log softmax(logits)[label], numerically stable."""
    logits = as_tensor(logits)
    z = logits.data
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())

    def bwd():
        p = np.exp(z - lse)
        p[label] -= 1.0
        _accum(logits, out.grad * p)

    out = Tensor(np.asarray(lse - z[label], dtype=z.dtype), _parents=(logits,), _backward=bwd)
    return out
