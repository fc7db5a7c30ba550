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


def _pad2d(x, pad):
    """Zero-pad the two leading axes of a (D, T, C) array by pad = (pd, pt)
    on each side."""
    D, T, C = x.shape
    pd, pt = pad
    xp = np.zeros((D + 2 * pd, T + 2 * pt, C), dtype=x.dtype)
    xp[pd:pd + D, pt:pt + T] = x
    return xp


def _conv2d_taps(xp, w, d_out, t_out):
    """Sum over the kd x kt taps of shifted slices of a padded (D', T', Cin)
    grid times the tap's (Cin, Cout) matrix, giving (d_out, t_out, Cout)."""
    kd, kt = w.shape[:2]
    y = np.zeros((d_out, t_out, w.shape[3]), dtype=xp.dtype)
    for a in range(kd):
        for c in range(kt):
            y += xp[a:a + d_out, c:c + t_out] @ w[a, c]
    return y


def _conv_grid(x, w, b, pad):
    """Stride-1 convolution of a (D, T, Cin) array with a (kd, kt, Cin, Cout)
    kernel, zero-padded by pad = (pd, pt) with 0 <= pd <= kd-1 and
    0 <= pt <= kt-1.

    Returns the (d_out, t_out, Cout) output and a function from its gradient
    to the gradients of x, w and b. The input gradient is the same tap loop
    over the output gradient, padded by k-1-pad on each axis, with the kernel
    flipped in both spatial axes and its in/out axes swapped; the weight
    gradient is one (d_out*t_out, Cin)^T (d_out*t_out, Cout) product per tap.
    """
    D, T, cin = x.shape
    kd, kt, _, cout = w.shape
    for p, k in zip(pad, (kd, kt)):
        if not 0 <= p <= k - 1:
            raise ValueError(f"convolution needs 0 <= pad <= k-1, got pad={p}, k={k}")
    pd, pt = pad
    xp = _pad2d(x, pad)
    d_out = D + 2 * pd - kd + 1
    t_out = T + 2 * pt - kt + 1
    y = _conv2d_taps(xp, w, d_out, t_out)
    y += b

    def grads(gy):
        w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        gx = _conv2d_taps(_pad2d(gy, (kd - 1 - pd, kt - 1 - pt)), w_flip, D, T)
        gy_rows = gy.reshape(-1, cout)
        gw = np.empty_like(w)
        for a in range(kd):
            for c in range(kt):
                patch = np.ascontiguousarray(xp[a:a + d_out, c:c + t_out])
                gw[a, c] = patch.reshape(-1, cin).T @ gy_rows
        return gx, gw, gy.sum(axis=(0, 1))

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


def conv2d(x, w, b, pad):
    """2-D convolution over a (D, T, Cin) grid with a (k, k, Cin, Cout) kernel.

    Stride 1 and 0 <= pad <= k-1 on both axes.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y, grads = _conv_grid(x.data, w.data, b.data, (pad, pad))

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
