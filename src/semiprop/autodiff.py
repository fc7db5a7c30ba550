"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations needed by the proposal network are implemented. Tensors
wrap a numpy array; ops record a backward closure and the graph is walked in
reverse topological order. Constants (requires_grad=False with no grad
parents) carry no closure, so e.g. a teacher forward pass builds no graph.
Ops take optional leading axes, numpy style: a (B, T, C) stack is one call.

A closure refers to the tensor it belongs to, so every op node is a
reference cycle until `backward()` breaks it: the walk is one-shot and frees
the graph as it goes, dropping each node's closure and parents as soon as
the closure has run. A released node has `_parents` None, and a second
`backward()` that reaches one raises `RuntimeError`.
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
        """Accumulate d(self)/d(leaf) into the `grad` of every leaf that
        requires it. One-shot: each op node is released (its closure and
        parents dropped) as soon as its backward has run, so the graph is
        freed during the walk; a second backward() through it raises."""
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
                node._backward, node._parents = None, None

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
    """The nodes that need a gradient, each after all of its parents."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise RuntimeError("backward() through a graph that an earlier "
                               "backward() has released")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _accum(t, g):
    """Add `g` to t's gradient. The first gradient is kept as it is (cast
    to t's dtype), so `g` must be an array that nothing else holds or
    writes to; every op's backward passes one it has just made."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
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
        for t in (a, b):
            if t.requires_grad:
                g = _unbroadcast(out.grad, t.data.shape)
                _accum(t, g.copy() if g is out.grad else g)

    out = Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bwd():
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
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
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives s = 0, as it should
        e = np.exp(-a.data)
    s = 1.0 / (1.0 + e)

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
    """(..., H) vectors times an (H, M) matrix -> (..., M)."""
    x, w = as_tensor(x), as_tensor(w)

    def bwd():
        _accum(x, out.grad @ w.data.T)
        _accum(w, x.data.reshape(-1, w.shape[0]).T @ out.grad.reshape(-1, w.shape[1]))

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


def _strip(src, extent, rows, cols):
    """A zeroed (r1 - r0, c1 - c0, C) copy of rows [r0, r1) and columns
    [c0, c1) of a (D, T, C) grid `src`, holding its cells inside the
    staircase `extent` only; the ranges may reach past the grid's edges,
    which reads as zero padding."""
    (r0, r1), (c0, c1) = rows, cols
    strip = np.zeros((*src.shape[:-3], r1 - r0, c1 - c0, src.shape[-1]), dtype=src.dtype)
    for e0, e1, u1 in extent:
        a0, a1, b0, b1 = max(e0, r0), min(e1, r1), max(c0, 0), min(u1, c1)
        if a0 < a1 and b0 < b1:
            strip[..., a0 - r0:a1 - r0, b0 - c0:b1 - c0, :] = src[..., a0:a1, b0:b1, :]
    return strip


def _block_taps(src, extent, block, kernel, pad):
    """The kd x kt shifted slices that output block (d0, d1, t1) of a
    stride-1 convolution reads from `src` (inside `extent`) zero-padded by
    pad = (pd, pt), as one (kd, kt, (d1 - d0) * width, C) view of a strip of
    padded rows [d0, d1 + kd) and columns [0, width), width = t1 + kt - 1.
    Row r * width + t of every slice belongs to output cell (d0 + r, t);
    the rows with t >= t1 are computed and dropped, and only they reach into
    the strip's last row."""
    d0, d1, t1 = block
    (kd, kt), (pd, pt) = kernel, pad
    width = t1 + kt - 1
    strip = _strip(src, extent, (d0 - pd, d1 + kd - pd), (-pt, width - pt))
    *lead, row, ch = strip.strides[:-3] + strip.strides[-2:]
    # a strided view over the strip's buffer (what as_strided builds, without
    # its per-call overhead); each strip's last row covers its overrun
    return np.ndarray((*strip.shape[:-3], kd, kt, (d1 - d0) * width, src.shape[-1]),
                      strip.dtype, strip, 0, (*lead, width * row, row, row, ch))


def _conv2d_taps(src, extent, w, pad, shape, out_extent, bias=None):
    """Stride-1 convolution of a (D, T, Cin) grid `src`, read inside
    `extent` and zero-padded by `pad`, with a (kd, kt, Cin, Cout) kernel:
    the sum over taps of shifted slices times the tap's (Cin, Cout) matrix,
    plus `bias`, giving a (*shape, Cout) grid that is computed inside the
    row blocks of `out_extent` and zero elsewhere. Each block runs its
    kd * kt products as one batched matmul."""
    kd, kt, _, cout = w.shape
    out = np.zeros((*src.shape[:-3], *shape, cout), dtype=src.dtype)
    for d0, d1, t1 in out_extent:
        taps = _block_taps(src, extent, (d0, d1, t1), (kd, kt), pad)
        acc = np.matmul(taps, w).sum(axis=(-4, -3))
        if bias is not None:
            acc += bias
        out[..., d0:d1, :t1, :] = acc.reshape(*acc.shape[:-2], d1 - d0, -1, cout)[..., :t1, :]
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
    Padding exists only in the per-block strips, so neither direction keeps
    or makes a padded copy of a whole grid.

    An extent is a staircase of row blocks (d0, d1, t1), each covering rows
    [d0, d1) and columns [0, t1). The output is computed only inside
    `out_extent` and the input gradient only inside `grad_extent`; cells
    outside them are zero, and the output gradient is read only inside
    `out_extent`. Both default to one block over the whole grid.
    """
    D, T, cin = x.shape[-3:]
    kd, kt, _, cout = w.shape
    for p, k in zip(pad, (kd, kt)):
        if not 0 <= p <= k - 1:
            raise ValueError(f"convolution needs 0 <= pad <= k-1, got pad={p}, k={k}")
    pd, pt = pad
    d_out = D + 2 * pd - kd + 1
    t_out = T + 2 * pt - kt + 1
    whole = ((0, D, T),)
    out_extent = out_extent or ((0, d_out, t_out),)
    grad_extent = grad_extent or whole
    y = _conv2d_taps(x, whole, w, pad, (d_out, t_out), out_extent, b)

    def grads(gy):
        gw = np.zeros_like(w)
        gb = np.zeros(cout, dtype=gy.dtype)
        for d0, d1, t1 in out_extent:
            g = _strip(gy, out_extent, (d0, d1), (0, t1 + kt - 1))
            gb += g.reshape(-1, cout).sum(axis=0)
            taps = _block_taps(x, whole, (d0, d1, t1), (kd, kt), pad).swapaxes(-2, -1)
            gw += (taps @ g.reshape(*g.shape[:-3], 1, 1, -1, cout)).reshape(-1, *w.shape).sum(0)
        w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        gx = _conv2d_taps(gy, out_extent, w_flip, (kd - 1 - pd, kt - 1 - pt), (D, T),
                          grad_extent)
        return gx, gw, gb

    return y, grads


def conv1d(x, w, b, pad):
    """1-D convolution over a (T, Cin) sequence.

    w has shape (k, Cin, Cout), b shape (Cout,). Stride 1 and
    0 <= pad <= k-1; output length T + 2*pad - k + 1. Runs the 2-D kernel
    on a (..., 1, T, Cin) grid.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y, grads = _conv_grid(x.data[..., None, :, :], w.data[None], b.data, (0, pad))

    def bwd():
        for t, g in zip((x, w, b), grads(out.grad[..., None, :, :])):
            _accum(t, g.reshape(t.data.shape))

    out = Tensor(y[..., 0, :, :], _parents=(x, w, b), _backward=bwd)
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
    the sparse product, so the (C, N*J) samples are never formed. Leading
    axes ride along the columns: the product runs once, on x as (T, ...*C).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, j, flat = entries
    T, NJ = W.shape
    N = w.data.shape[0]
    Wc = sparse.csr_matrix((W.data * w.data[n], j, W.indptr), shape=(T, NJ // N))
    columns = lambda a: np.moveaxis(a, -2, 0).reshape(a.shape[-2], -1)  # (T or J, ...*C)
    stacked = lambda a: np.moveaxis(a.reshape(a.shape[0], *x.data.shape[:-2], -1), 0, -2)

    def bwd():
        gy = columns(out.grad)
        _accum(x, stacked(Wc @ gy))
        per_entry = W.data * (columns(x.data) @ gy.T).ravel().take(flat)
        _accum(w, np.bincount(n, per_entry, minlength=N).astype(w.data.dtype))
        _accum(b, gy.reshape(-1, b.data.shape[0]).sum(axis=0))

    y = stacked(Wc.T @ columns(x.data))
    y += b.data
    out = Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out


def scatter_grid(x, d_idx, i_idx, grid_shape):
    """Scatter per-candidate features (J, C) into a dense (D, T, C) grid,
    zero outside the candidate index lists."""
    x = as_tensor(x)
    y = np.zeros((*x.data.shape[:-2], *grid_shape, x.data.shape[-1]), dtype=x.data.dtype)
    y[..., d_idx, i_idx, :] = x.data

    def bwd():
        _accum(x, out.grad[..., d_idx, i_idx, :])

    out = Tensor(y, _parents=(x,), _backward=bwd)
    return out


def cross_entropy_logits(logits, labels):
    """Cross entropy -log softmax(logits)[label], numerically stable, and its
    mean over an array of labels."""
    logits, labels = as_tensor(logits), np.asarray(labels)[..., None]
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))

    def bwd():
        p = np.exp(z - lse)
        p -= labels == np.arange(z.shape[-1])
        _accum(logits, out.grad * p / labels.size)

    out = Tensor(np.asarray((lse - np.take_along_axis(z, labels, -1)).mean(), dtype=z.dtype),
                 _parents=(logits,), _backward=bwd)
    return out
