"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations needed by the proposal network are implemented. Tensors
wrap a numpy array; ops record a backward closure and the graph is walked in
reverse topological order. Constants (requires_grad=False with no grad
parents) carry no closure, so e.g. a teacher forward pass builds no graph.
Ops take optional leading axes, numpy style: a (B, T, C) stack is one call.
Activations are no ops of their own: conv1d, conv2d and sparse_sample run a
ReLU or a sigmoid, then a 0/1 mask, on their output as an `epilogue`
(act, mask). conv1d, a tap loop over its input padded once along T, and
sparse_sample run it on their output in place; conv2d's block kernels
(`_conv_grid`) run it as `_write` stores each block. Each of the three
backwards takes its derivative, read off the output, with one
`_activate_grad` call in place over the whole output gradient it owns.

A closure refers to the tensor it belongs to, so every op node is a
reference cycle until `backward()` breaks it: the walk is one-shot and frees
the graph as it goes, dropping each node's closure and parents as soon as
the closure has run. A released node has `_parents` None, and a second
`backward()` that reaches one raises `RuntimeError`.
"""

from __future__ import annotations

import numpy as np


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


def _sigmoid(x, out):
    """1 / (1 + exp(-x)), written into `out` (which may be x)."""
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives 0, as it should
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _activate(y, act, mask, out=None):
    """Run an epilogue (act, mask) on `y`, into `out` (y's shape; by default
    y itself, in place): act None, "relu" or "sigmoid", then the product
    with the 0/1 `mask` (None, or y's shape)."""
    if out is None:
        out = y
    if act == "relu":
        np.maximum(y, 0.0, out=out)
    elif act == "sigmoid":
        _sigmoid(y, out)
    elif out is not y:
        out[...] = y
    if mask is not None:
        out *= mask


def _activate_grad(gy, y, act, mask):
    """The gradient before `_activate` from the gradient `gy` of its
    output `y`, written into `gy` (the node's own, `_accum`) and returned.
    With a 0/1 mask the derivative of either act reads off y alone: y > 0
    for the ReLU, y * (1 - y) for the sigmoid, both zero where the mask is;
    with no act it is the mask."""
    if act == "relu":
        gy *= y > 0.0
    elif act == "sigmoid":
        np.multiply(gy * y, 1.0 - y, out=gy)
    else:
        gy *= mask
    return gy


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
        # a C-order copy: the broadcast's own order would put axis innermost
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, order="C"))

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


class CellRows:
    """A (D, T) grid held as the rows of some of its cells: row j of a
    (..., J, C) array is the cell with flat index `cells[j]` = d * T + i
    (ascending), and every other cell is zero. As a convolution's input
    extent it yields `blocks`, a staircase covering the cells, and is read,
    and the input gradient written back, a block at a time as runs of rows
    found on the block's first use and kept."""

    def __init__(self, cells, shape, blocks):
        self.cells, self.shape, self.blocks, self._runs = cells, tuple(shape), tuple(blocks), {}

    def __iter__(self):
        return iter(self.blocks)

    def _find(self, rows, cols, width):
        """The runs (p, j, n) of the cells in rows [r0, r1) and columns [c0, c1): rows
        [j, j + n) are [p, p + n) of a block with cell (d, i) at (d - r0) * width + i - c0."""
        if (rows, cols, width) not in self._runs:
            (r0, r1), (c0, c1) = rows, cols
            d, i = np.divmod(self.cells, self.shape[1])
            j = np.flatnonzero((d >= r0) & (d < r1) & (i >= c0) & (i < c1))
            pos = (d[j] - r0) * width + i[j] - c0
            # a run goes on while both the block cell and the row advance by one
            first = np.flatnonzero((np.diff(pos, prepend=-2) != 1) | (np.diff(j, prepend=-2) != 1))
            self._runs[rows, cols, width] = list(zip(pos[first].tolist(), j[first].tolist(),
                                                     np.diff(first, append=j.size).tolist()))
        return self._runs[rows, cols, width]

    def strip(self, x, rows, cols):
        """Rows [r0, r1) and columns [c0, c1) of the grid whose cells `x`
        holds, as `_strip` cuts them."""
        (r0, r1), (c0, c1) = rows, cols
        strip = np.zeros((*x.shape[:-2], (r1 - r0) * (c1 - c0), x.shape[-1]), dtype=x.dtype)
        for p, s, n in self._find(rows, cols, c1 - c0):
            strip[..., p:p + n, :] = x[..., s:s + n, :]
        return strip.reshape(*x.shape[:-2], r1 - r0, c1 - c0, x.shape[-1])

    def put(self, out, block, rows, cols):
        """Into the (..., J, C) rows `out`, the cells in rows [r0, r1), columns [c0, c1)
        of a (..., r1 - r0, width, C) `block` with cell (d, i) at [d - r0, i - c0]."""
        flat = block.reshape(*block.shape[:-3], -1, block.shape[-1])
        for p, s, n in self._find(rows, cols, block.shape[-2]):
            out[..., s:s + n, :] = flat[..., p:p + n, :]


def _strip(src, extent, rows, cols):
    """A zeroed (r1 - r0, c1 - c0, C) copy of rows [r0, r1) and columns
    [c0, c1) of a (D, T, C) grid `src`, holding its cells inside the
    staircase `extent` only; the ranges may reach past the grid's edges,
    which reads as zero padding. With a `CellRows` extent, `src` is the
    (J, C) rows of the grid's cells."""
    if isinstance(extent, CellRows):
        return extent.strip(src, rows, cols)
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


def _cells(a, block, channels_first):
    """The cells of row block (d0, d1, t1) of a (..., D, T, C) grid, or of a
    (..., C, D, T) one when `channels_first`."""
    d0, d1, t1 = block
    return a[..., d0:d1, :t1] if channels_first else a[..., d0:d1, :t1, :]


def _write(out, extent, block, acc, epilogue=None, channels_first=False):
    """Store block (d0, d1, t1)'s computed cells, the first t1 columns of
    `acc`, in `out`: the rows of a `CellRows` extent (`CellRows.put`), or a
    grid, running the epilogue (act, mask) as it stores them: one pass
    reads the accumulator and writes the activated cells (`_activate`, the
    mask given in the output's layout)."""
    if isinstance(extent, CellRows):
        return extent.put(out, acc, block[:2], (0, block[2]))
    act, mask = epilogue or (None, None)
    _activate(_cells(acc, (0, block[1] - block[0], block[2]), channels_first), act,
              None if mask is None else _cells(mask, block, channels_first),
              _cells(out, block, channels_first))


def _conv2d_taps(src, extent, w, pad, shape, out_extent, bias=None, epilogue=None,
                 channels_first=False):
    """Stride-1 convolution of a (D, T, Cin) grid `src`, read inside
    `extent` and zero-padded by `pad`, with a (kd, kt, Cin, Cout) kernel:
    the sum over taps of shifted slices times the tap's (Cin, Cout) matrix,
    plus `bias`, giving an output of the full `shape` that is computed
    inside the row blocks of `out_extent` (where `epilogue` runs) and zero
    elsewhere, or the rows of a `CellRows` `out_extent`. Each block adds
    its kd * kt tap products into one accumulator, in tap order, which
    `_write` stores."""
    kd, kt, _, cout = w.shape
    out = np.zeros(shape, dtype=src.dtype)
    for d0, d1, t1 in out_extent:
        taps = _block_taps(src, extent, (d0, d1, t1), (kd, kt), pad)
        acc = taps[..., 0, 0, :, :] @ w[0, 0]
        for i, j in np.ndindex(kd, kt):
            if i or j:
                acc += taps[..., i, j, :, :] @ w[i, j]
        if bias is not None:
            acc += bias
        acc = acc.reshape(*acc.shape[:-2], d1 - d0, -1, cout)
        _write(out, out_extent, (d0, d1, t1), np.moveaxis(acc, -1, -3) if channels_first else acc,
               epilogue, channels_first)
    return out


def _conv2d_planes(src, extent, w, pad, shape, out_extent, bias=None, epilogue=None,
                   channels_first=False):
    """`_conv2d_taps` in the output-side order, for a kernel narrower at its
    output: each block's strip meets all kd * kt taps in one product, stored
    tap-major as one contiguous plane of the strip's cells per (tap, output
    channel), and then the planes, each shifted by its tap's offset into the
    strip, are added in tap order."""
    kd, kt, cin, cout = w.shape
    pd, pt = pad
    w_all = w.transpose(0, 1, 3, 2).reshape(kd * kt * cout, cin)
    out = np.zeros(shape, dtype=src.dtype)
    for d0, d1, t1 in out_extent:
        width = t1 + kt - 1
        n = (d1 - d0) * width
        strip = _strip(src, extent, (d0 - pd, d1 + kd - pd), (-pt, width - pt))
        planes = w_all @ strip.reshape(*strip.shape[:-3], -1, cin).swapaxes(-2, -1)
        planes = planes.reshape(*planes.shape[:-2], kd * kt, cout, -1)
        acc = planes[..., 0, :, :n].copy()
        for i, j in np.ndindex(kd, kt):
            if i or j:
                acc += planes[..., i * kt + j, :, i * width + j:i * width + j + n]
        if bias is not None:
            acc += bias[:, None]
        acc = acc.reshape(*acc.shape[:-1], d1 - d0, width)
        _write(out, out_extent, (d0, d1, t1), acc if channels_first else np.moveaxis(acc, -3, -1),
               epilogue, channels_first)
    return out


def _grid_shape(x, extent):
    """The (..., D, T, C) shape of the grid that `x` is, or whose cells it
    holds, one row each, when `extent` is a `CellRows`."""
    if not isinstance(extent, CellRows):
        return x.shape
    if x.shape[-2] != extent.cells.size:
        raise ValueError(f"x has {x.shape[-2]} rows for the {extent.cells.size} cells it holds")
    return (*x.shape[:-2], *extent.shape, x.shape[-1])


def _narrow_grads(x, extent, w, pad, out_extent, in_extent, gy, channels_first):
    """The gradients of x, w and b for `_conv2d_planes`, as the adjoint of
    its order. The output gradient is copied once, channel first and
    zero-padded by k-1-pad, from inside `out_extent`. The input rows that
    extent reads are cut into bands, one per output block; each band's
    im2col G holds the kd * kt * Cout gradient planes that meet its input
    cells, and gives the input gradient as G^T times the flipped kernel
    (its cells inside `in_extent` stored by `_write`, in x's layout) and
    the weight gradient as G times the band's input, one product each."""
    *lead, D, T, cin = _grid_shape(x, extent)
    kd, kt, _, cout = w.shape
    pd, pt = pad
    qd, qt = kd - 1 - pd, kt - 1 - pt
    gyp = np.zeros((*lead, cout, D + kd - 1, T + kt - 1), dtype=gy.dtype)
    gb = np.zeros(cout, dtype=gy.dtype)
    reach = np.zeros(D, dtype=np.int64)  # columns of each input row the output reads
    for d0, d1, t1 in out_extent:
        block = np.moveaxis(_cells(gy, (d0, d1, t1), channels_first),
                            -3 if channels_first else -1, 0)
        gyp[..., qd + d0:qd + d1, qt:qt + t1] = np.moveaxis(block, 0, -3)
        # cell by cell, the order of the tap loop's per-block sum
        gb += np.cumsum(block.reshape(cout, -1), axis=1)[:, -1]
        r0, r1 = max(d0 - pd, 0), min(d1 - pd + kd - 1, D)
        np.maximum(reach[r0:r1], min(t1 - pt + kt - 1, T), out=reach[r0:r1])
    w_flip = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kd * kt * cout, cin)
    gx = np.zeros(x.shape, dtype=gy.dtype)
    gw = np.zeros((kd * kt * cout, cin), dtype=w.dtype)
    start = 0
    for d0, d1, _ in out_extent:
        r0, r1 = max(start, d0 - pd, 0), min(d1 - pd + kd - 1, D)
        if r0 >= r1:
            continue
        start, width = r1, int(reach[r0:r1].max())
        # (flipped tap, output channel, *lead, band cell): the planes of gyp
        # that meet input cell (r, c) at tap (kd-1-i, kt-1-j) start at (r+i, c+j)
        *ls, sc, sr, st = gyp.strides
        view = np.ndarray((kd, kt, cout, *lead, r1 - r0, width), gyp.dtype, gyp,
                          r0 * sr, (sr, st, sc, *ls, sr, st))
        g = view.reshape(kd * kt * cout, -1)
        band = (g.T @ w_flip).reshape(*lead, r1 - r0, width, cin)
        for e0, e1, u1 in in_extent:
            a0, a1, c1 = max(e0, r0), min(e1, r1), min(u1, width)
            if a0 < a1 and c1 > 0:
                _write(gx, in_extent, (a0, a1, c1), band[..., a0 - r0:a1 - r0, :, :])
        gw += g @ _strip(x, extent, (r0, r1), (0, width)).reshape(-1, cin)
    gw = gw.reshape(kd, kt, cout, cin)[::-1, ::-1].transpose(0, 1, 3, 2)
    return gx, np.ascontiguousarray(gw), gb


def _conv_grid(x, w, b, pad, out_extent=None, in_extent=None, epilogue=None,
               channels_first=False):
    """Stride-1 convolution of a (D, T, Cin) array with a (kd, kt, Cin, Cout)
    kernel, zero-padded by pad = (pd, pt) with 0 <= pd <= kd-1 and
    0 <= pt <= kt-1.

    Returns the (d_out, t_out, Cout) output and a function from its gradient
    to the gradients of x, w and b. Two evaluation orders, picked from the
    shapes alone:
    - the tap loop (`_conv2d_taps`), for Cout >= Cin and for every 1-row
      kernel (a sequence has a kernel of its own, `conv1d`). The input
      gradient is the same tap loop over the output gradient, padded by
      k-1-pad on each axis, with the kernel flipped in both spatial axes
      and its in/out axes swapped; the weight gradient is one
      (cells, Cin)^T (cells, Cout) product per tap and block, with the
      output gradient zero on the dropped cells of `_block_taps`. Padding
      exists only in the per-block strips.
    - the output-side order (`_conv2d_planes`, `_narrow_grads`), for
      Cout < Cin and kd > 1. Per output cell the tap loop reads the Cin
      input channels kd * kt times; this order reads them once and writes
      kd * kt * Cout values, which is less when the output is narrow.

    Each side has one extent, a staircase of row blocks (d0, d1, t1)
    covering rows [d0, d1) and columns [0, t1): the output is computed only
    inside `out_extent` and the input gradient only inside `in_extent`
    (cells outside them are zero); both default to the whole grid. A dense
    x is read whole. A `CellRows` `in_extent` holds x as its cells'
    (..., J, Cin) rows, read through its runs and, in either order, given
    the input gradient block by block. `_write` stores every block, running
    an `epilogue` (act, mask) on the output's. Its derivative is taken by
    one `_activate_grad` call in place over the whole output gradient; the
    kernels then read that gradient only inside `out_extent`, so what the
    call leaves in the cells outside it reaches nothing. `channels_first`
    writes the output, and reads its gradient, as (..., Cout, d_out, t_out).
    """
    *lead, D, T, cin = _grid_shape(x, in_extent)
    kd, kt, _, cout = w.shape
    for p, k in zip(pad, (kd, kt)):
        if not 0 <= p <= k - 1:
            raise ValueError(f"convolution needs 0 <= pad <= k-1, got pad={p}, k={k}")
    pd, pt = pad
    d_out = D + 2 * pd - kd + 1
    t_out = T + 2 * pt - kt + 1
    source = in_extent if isinstance(in_extent, CellRows) else ((0, D, T),)
    out_extent = out_extent or ((0, d_out, t_out),)
    in_extent = in_extent or source
    shape = (*lead, cout, d_out, t_out) if channels_first else (*lead, d_out, t_out, cout)
    narrow = cout < cin and kd > 1
    y = (_conv2d_planes if narrow else _conv2d_taps)(
        x, source, w, pad, shape, out_extent, b, epilogue, channels_first)

    def grads(gy):
        if epilogue is not None:
            gy = _activate_grad(gy, y, *epilogue)
        if narrow:
            return _narrow_grads(x, source, w, pad, out_extent, in_extent, gy, channels_first)
        if channels_first:
            gy = np.moveaxis(gy, -3, -1)
        gw = np.zeros_like(w)
        gb = np.zeros(cout, dtype=gy.dtype)
        for d0, d1, t1 in out_extent:
            g = _strip(gy, out_extent, (d0, d1), (0, t1 + kt - 1))
            # row after row, as sum(axis=0) adds them, but in one pass over g
            gb += np.einsum("ij->j", g.reshape(-1, cout))
            taps = _block_taps(x, source, (d0, d1, t1), (kd, kt), pad).swapaxes(-2, -1)
            gw += (taps @ g.reshape(*g.shape[:-3], 1, 1, -1, cout)).reshape(-1, *w.shape).sum(0)
        w_flip = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        gx = _conv2d_taps(gy, out_extent, w_flip, (kd - 1 - pd, kt - 1 - pt), x.shape, in_extent)
        return gx, gw, gb

    return y, grads


def _pad_rows(a, n):
    """`a` zero-padded by `n` rows at both ends of its axis -2, as a new
    C-contiguous array (`a` itself when n = 0 and it is one already)."""
    if n == 0:
        return np.ascontiguousarray(a)
    p = np.zeros((*a.shape[:-2], a.shape[-2] + 2 * n, a.shape[-1]), dtype=a.dtype)
    p[..., n:-n, :] = a
    return p


def _tap_loop(xp, w, n):
    """The sum over taps j of xp[..., j:j + n, :] @ w[j], added in tap order
    into the product of tap 0."""
    y = xp[..., :n, :] @ w[0]
    for j in range(1, len(w)):
        y += xp[..., j:j + n, :] @ w[j]
    return y


def conv1d(x, w, b, pad, epilogue=None):
    """1-D convolution over a (..., T, Cin) sequence.

    w has shape (k, Cin, Cout), b shape (Cout,). Stride 1 and
    0 <= pad <= k-1; output length T_out = T + 2*pad - k + 1. The input is
    padded once along T; the k tap products xp[..., j:j + T_out, :] @ w[j]
    are added in tap order straight into the output, then the bias, and
    then `epilogue` (act, mask) runs on it in place (`_activate`, the mask
    in the output's (..., T_out, Cout) layout).

    The backward takes the epilogue's gradient in place in the output
    gradient, the weight gradient as one product per tap summed over the
    leading axes, and the input gradient, only when x needs one, as the
    same tap loop over the output gradient padded by k-1-pad, with the
    kernel flipped and its in/out axes swapped.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    k, cin, cout = w.data.shape
    if not 0 <= pad <= k - 1:
        raise ValueError(f"convolution needs 0 <= pad <= k-1, got pad={pad}, k={k}")
    xp = _pad_rows(x.data, pad)
    *lead, t_padded, _ = xp.shape
    t_out = t_padded - k + 1
    y = _tap_loop(xp, w.data, t_out)
    y += b.data
    if epilogue is not None:
        _activate(y, *epilogue)

    def bwd():
        gy = out.grad
        if epilogue is not None:
            gy = _activate_grad(gy, y, *epilogue)
        # C order (a copy only for the strided gradient that sparse_sample
        # gives a stack), so that the bias gradient adds the rows one after
        # another
        gy = np.ascontiguousarray(gy)
        gb = np.zeros(cout, dtype=gy.dtype)
        gb += np.einsum("ij->j", gy.reshape(-1, cout))
        # tap j's (Cin, T_out) slice of xp, transposed, for every tap: a strided view
        *ls, row, ch = xp.strides
        taps = np.ndarray((*lead, k, cin, t_out), xp.dtype, xp, 0, (*ls, row, ch, row))
        gw = np.zeros_like(w.data)
        gw += (taps @ gy[..., None, :, :]).reshape(-1, k, cin, cout).sum(0)
        if x.requires_grad:
            w_flip = np.ascontiguousarray(w.data[::-1].swapaxes(1, 2))
            _accum(x, _tap_loop(_pad_rows(gy, k - 1 - pad), w_flip, x.data.shape[-2]))
        _accum(w, gw)
        _accum(b, gb)

    out = Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out


def conv2d(x, w, b, pad, out_extent=None, in_extent=None, epilogue=None, channels_first=False):
    """2-D convolution over a (D, T, Cin) grid with a (k, k, Cin, Cout) kernel.

    Stride 1 and 0 <= pad <= k-1 on both axes. `out_extent` and
    `in_extent`, one per side, are staircases of row blocks (d0, d1, t1)
    bounding the cells computed in the output and in the input gradient
    (`_conv_grid`), by default the whole grid. A `CellRows` `in_extent`
    holds x as the (..., J, Cin) rows of its cells (ValueError for another
    row count) and takes its gradient in rows of that shape. `epilogue`
    (act, mask) and `channels_first` are `_conv_grid`'s: an activation
    (None, "relu" or "sigmoid") and a 0/1 mask run on the output in place,
    and its layout.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    y, grads = _conv_grid(x.data, w.data, b.data, (pad, pad), out_extent, in_extent, epilogue,
                          channels_first)

    def bwd():
        for t, g in zip((x, w, b), grads(out.grad)):
            _accum(t, g)

    out = Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out


def plane(a, k, axis=-3):
    """Slice k of `a` along a negative `axis` (a plane of a (..., C, D, T)
    tensor for -3, a column of a (..., T, C) one for -1) as a tensor of its
    own, a view of a's data; the gradients of a's slices add into one."""
    a = as_tensor(a)
    cut = (..., k) + (slice(None),) * (-1 - axis)

    def bwd():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[cut] += out.grad

    out = Tensor(a.data[cut], _parents=(a,), _backward=bwd)
    return out


class Sampler:
    """A point-stacked (N*T, J) sampling matrix S, built from its (row,
    column, value) entries, each (row, column) at most once: row n*T + t,
    column j holds the weight of snippet t in sample point n of candidate j
    (`model.build_bm_mask`).

    S is held as the U distinct (j, t) cells that any point of a candidate
    reads, as flat indices j*T + t of a (J, T) array in ascending order, so
    that the cells of a run of candidates are one run of cells, and an
    (N, U) `table` of each cell's weight in each point, allocated in
    `dtype` and filled by assignment, so a float32 table is never a cast of
    a float64 one. For weights w over the points, A = sum_n w[n] * S_n is
    the dense (T, J) matrix holding `w @ table` at the cells and zero
    elsewhere. `nnz` counts S's nonzero entries."""

    # candidate blocks of the weight gradient, each of which forms one
    # (J/8, T) block of the dense gradient of A^T and no more
    BLOCKS = 8

    def __init__(self, rows, cols, vals, shape, n_points, dtype=np.float64):
        (nt, J), N = shape, n_points
        T = nt // N
        n, t = np.divmod(np.asarray(rows), T)
        key = np.asarray(cols) * T + t
        seen = np.zeros(J * T, dtype=bool)
        seen[key] = True
        self.cells = np.flatnonzero(seen)
        self.table = np.zeros((N, self.cells.size), dtype=dtype)
        self.table[n, np.searchsorted(self.cells, key)] = vals
        self.shape, self.n_points = (nt, J), N
        self.nnz = int(np.count_nonzero(self.table))
        # each block's candidates [j0, j1) and their cells [u0, u1), and each
        # cell's index j*T + t - j0*T in its block's (j1 - j0, T) gradient
        starts = [int(c[0]) for c in np.array_split(np.arange(J), self.BLOCKS) if c.size]
        runs = np.searchsorted(self.cells, np.array(starts + [J]) * T).tolist()
        self._blocks = list(zip(starts, starts[1:] + [J], runs, runs[1:]))
        self._in_block = self.cells - np.repeat(np.array(starts) * T, np.diff(runs))
        self._fold = None

    def fold(self, w):
        """A^T, the (J, T) C-order matrix sum_n w[n] * S_n transposed, kept
        while w's dtype and bytes stay the same. Each build makes a new
        array and never writes the one it replaces: a pending backward may
        hold it."""
        key = (w.dtype, w.tobytes())
        if self._fold is None or self._fold[0] != key:
            J, T = self.shape[1], self.shape[0] // self.n_points
            at = np.zeros(J * T, dtype=np.result_type(self.table, w))
            at[self.cells] = w @ self.table
            self._fold = key, at.reshape(J, T)
        return self._fold[1]

    def weight_grad(self, gy, xs):
        """The gradient of the weights w, `table` times M at the cells, for
        the (J, K) output gradient `gy` of y = fold(w) @ xs and the (T, K)
        input `xs`: M = gy @ xs^T, the (J, T) gradient of fold(w), is
        formed a block of candidates at a time and never held whole."""
        g = np.zeros(self.n_points, dtype=np.result_type(self.table, gy))
        for j0, j1, u0, u1 in self._blocks:
            m = (gy[j0:j1] @ xs.T).reshape(-1)
            g += self.table[:, u0:u1] @ m.take(self._in_block[u0:u1])
        return g


def sparse_sample(x, S, w, b, epilogue=None):
    """Boundary-matching sampling fused with its weighted N-reduction.

    `S` is a `Sampler` of shape (N*T, J): row n*T + t, column j holds the
    weight of snippet t in sample point n of candidate j. For a (T, C)
    sequence x the result, shape (J, C), is

        y = S.T @ (w ⊗ x) + b = A.T @ x + b,  A = sum_n w[n] * S_n,

    with w ⊗ x the N copies w[n] * x as (N*T, C) and A the dense (T, J)
    matrix that `S.fold(w)` builds, inside this call, and keeps while w is
    unchanged. So the forward is one product, and the backward gives
    gx = A @ gy, g_w = table @ (gy x^T at the cells), a block of candidates
    at a time (`Sampler.weight_grad`), and the bias gradient as a sum over
    the rows of gy. Leading axes ride along the columns: each product
    runs once, on x as (T, ...*C). `epilogue` (act, mask) runs on y in
    place, as on a convolution's output (`_activate`), its mask of y's
    shape.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    N, T = w.data.shape[0], x.data.shape[-2]
    if (S.n_points, S.shape[0]) != (N, N * T):
        raise ValueError(f"sampling matrix of shape {S.shape} does not fit x of shape "
                         f"{x.data.shape} with N={N} sample points: need ({N * T}, J)")
    columns = lambda a: np.moveaxis(a, -2, 0).reshape(a.shape[-2], -1)  # (T or J, ...*C)
    stacked = lambda a: np.moveaxis(a.reshape(a.shape[0], *x.data.shape[:-2], -1), 0, -2)
    xs = columns(x.data)
    at = S.fold(w.data)

    def bwd():
        gy = columns(_activate_grad(out.grad, y, *epilogue) if epilogue else out.grad)
        _accum(x, stacked(at.T @ gy))
        _accum(w, S.weight_grad(gy, xs))
        _accum(b, np.einsum("ij->j", gy.reshape(-1, b.data.shape[0])))

    y = stacked(at @ xs)
    y += b.data
    if epilogue is not None:
        _activate(y, *epilogue)
    out = Tensor(y, _parents=(x, w, b), _backward=bwd)
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
