import numpy as np
import pytest

from semiprop import autodiff as ad


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
    "conv2d": (lambda x, w, b: ad.tsum(ad.square(ad.conv2d(x, w, b, pad=1))),
               [(5, 6, 3), (3, 3, 3, 2), (2,)]),
    "reduce": (lambda x, w, b: ad.tsum(ad.square(ad.reduce_axis1(x, w, b))),
               [(3, 4, 7), (4,), (3,)]),
    "sigmoid": (lambda x: ad.tmean(ad.sigmoid(x)), [(6, 4)]),
    "dot_vm": (lambda x, w: ad.tsum(ad.square(ad.dot_vm(x, w))), [(5,), (5, 3)]),
    "take_last_2d": (lambda x: ad.tsum(ad.square(ad.take_last(x, 1))), [(6, 3)]),
    "take_last_3d": (lambda x: ad.tsum(ad.square(ad.take_last(x, 1))), [(4, 5, 2)]),
    "cross_entropy": (lambda x: ad.cross_entropy_logits(x, 1), [(4,)]),
    "log": (lambda x: ad.tsum(ad.log(ad.sigmoid(x), eps=1e-12)), [(7,)]),
    "mean_axis": (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=0))), [(6, 4)]),
    "transpose": (lambda x: ad.tsum(ad.square(ad.transpose(x, (2, 0, 1)))), [(3, 4, 2)]),
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


def test_sparse_sample_matches_dense():
    from scipy import sparse

    rng = np.random.default_rng(0)
    W = sparse.random(6, 10, density=0.4, random_state=1, format="csr")
    x = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    out = ad.sparse_sample(x, W)
    assert np.allclose(out.data, x.data.T @ W.toarray())
    ad.tsum(ad.square(out)).backward()
    fd = numeric_grad(lambda t: ad.tsum(ad.square(ad.sparse_sample(t, W))), [x.data], 0)
    assert np.abs(x.grad - fd).max() < 1e-6


def test_scatter_grid_roundtrip_gradient():
    d_idx = np.array([0, 0, 1])
    i_idx = np.array([0, 2, 1])
    x = ad.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    g = ad.scatter_grid(x, d_idx, i_idx, (2, 4))
    assert g.data.shape == (2, 2, 4)
    assert g.data[1, 0, 2] == x.data[1, 1]
    assert g.data[:, 1, 3].sum() == 0.0
    ad.tsum(ad.square(g)).backward()
    assert np.allclose(x.grad, 2 * x.data)
