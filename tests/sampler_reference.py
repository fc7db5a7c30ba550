"""Scipy references for the boundary-matching sampler: the CSC builder of
the sampling matrix S and the sparse point-stacked op that the folded
`autodiff.sparse_sample` replaced, with helpers that move a matrix between
the two forms."""

import numpy as np
from scipy import sparse

from semiprop import autodiff as ad
from semiprop.data import candidate_mask


def csc_bm_mask(T: int, D: int, N: int) -> sparse.csc_matrix:
    """`model.build_bm_mask`'s matrix S as a (N*T, J) CSC matrix, written in
    canonical order with no sort: point n of column j holds row n*T + base
    and, when frac > 0, row n*T + base + 1, so taken point by point the rows
    ascend."""
    if D > T or N < 2:
        raise ValueError(f"need D <= T and N >= 2, got T={T}, D={D}, N={N}")
    d_idx, i_idx = np.nonzero(candidate_mask(T, D))

    dur = (d_idx + 1).astype(np.float64)
    lo = i_idx - 0.25 * dur
    hi = i_idx + 1.25 * dur
    steps = np.arange(N) / (N - 1)
    locs = lo[:, None] + (hi - lo)[:, None] * steps[None, :]  # (J, N)
    locs = np.clip(locs, 0.0, T - 1.0)

    base = np.floor(locs).astype(np.int64)
    frac = (locs - base).ravel()  # entry j*N + n
    rows = (base + T * np.arange(N)).ravel()
    up = frac > 0
    starts = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(1 + up, out=starts[1:])
    indices = np.empty(starts[-1], dtype=np.int64)
    data = np.empty(starts[-1])
    first, second = starts[:-1], starts[:-1][up] + 1
    indices[first], data[first] = rows, 1.0 - frac
    indices[second], data[second] = rows[up] + 1, frac[up]
    return sparse.csc_matrix((data, indices, starts[::N]), shape=(N * T, d_idx.size))


def sampler_of(S, N: int) -> ad.Sampler:
    """The package sampler holding the entries of a scipy matrix S, in S's dtype."""
    coo = S.tocoo()
    return ad.Sampler(coo.row, coo.col, coo.data, S.shape, N).astype(S.dtype)


def sampler_entries(sampler: ad.Sampler):
    """A sampler's nonzero (rows, cols, vals), in CSC order: by column, then
    row; cell u = (j, t) holds table[n, u] at row n*T + t, column j."""
    T = sampler.shape[0] // sampler.n_points
    n, u = np.nonzero(sampler.table)
    j, t = np.divmod(sampler.cells[u], T)
    order = np.lexsort((n * T + t, j))
    return (n * T + t)[order], j[order], sampler.table[n, u][order]


def csc_of(sampler: ad.Sampler) -> sparse.csc_matrix:
    """A sampler's entries as a scipy CSC matrix, in its table's dtype."""
    rows, cols, vals = sampler_entries(sampler)
    return sparse.csc_matrix((vals, (rows, cols)), shape=sampler.shape)


def assert_same_entries(sampler: ad.Sampler, S) -> None:
    """The sampler holds exactly the (row, column, value) entries of the
    scipy matrix S, values bit for bit."""
    coo = S.tocsc().tocoo()
    rows, cols, vals = sampler_entries(sampler)
    assert sampler.shape == S.shape and sampler.nnz == S.nnz
    assert np.array_equal(rows, coo.row) and np.array_equal(cols, coo.col)
    assert vals.dtype == coo.data.dtype and vals.tobytes() == coo.data.tobytes()


def point_stacked_sample(x, S, w, b, epilogue=None):
    """The sparse op before the fold, on a scipy (N*T, J) matrix S:
    y = S.T @ (w ⊗ x) + b, the N copies w[n] * x stacked as (N*T, C); the
    backward's one product Z = S @ gy gives gx = sum_n w[n] * Z_n and
    g_w[n] = <Z_n, x>."""
    x, w, b = ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)
    N, T = w.data.shape[0], x.data.shape[-2]
    columns = lambda a: np.moveaxis(a, -2, 0).reshape(a.shape[-2], -1)  # (T or J, ...*C)
    stacked = lambda a: np.moveaxis(a.reshape(a.shape[0], *x.data.shape[:-2], -1), 0, -2)
    xs = columns(x.data)

    def bwd():
        gy = columns(ad._activate_grad(out.grad, y, *epilogue, out.grad) if epilogue
                     else out.grad)
        z = (S @ gy).reshape(N, -1)
        ad._accum(x, stacked((w.data @ z).reshape(T, -1)))
        ad._accum(w, z @ xs.ravel())
        ad._accum(b, gy.reshape(-1, b.data.shape[0]).sum(axis=0))

    y = stacked(S.T @ (w.data[:, None, None] * xs).reshape(N * T, -1))
    y += b.data
    if epilogue is not None:
        ad._activate(y, *epilogue)
    out = ad.Tensor(y, _parents=(x, w, b), _backward=bwd)
    return out
