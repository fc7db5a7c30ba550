"""The differentiable proposal network.

Three heads share a two-layer temporal-conv base:
  * boundary head: per-snippet start/end probabilities,
  * confidence head: dense D x T candidate maps produced through a
    precomputed sparse boundary-matching sampler (one sparse matmul, with
    the weighted reduction over sample points folded into the matrix),
  * auxiliary heads: feature reconstruction and clip-order logits.

Forward passes build an autodiff graph; `backward` extracts parameter
gradients from it. A 64-bit path is used for gradient checking, 32-bit for
training speed (same code, parameterized by dtype).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .data import FormatError, candidate_mask, read_framed, write_framed
from .perturb import Predictions

CHECKPOINT_MAGIC = b"SPCHKPT1"
# row blocks per staircase extent of the 2-D convolutions: fewer blocks
# compute more cells outside the candidate triangle, more blocks make more
# and smaller matrix products
CONV_BLOCKS = 4


@dataclass(frozen=True)
class HyperShape:
    T: int = 100
    C: int = 16
    H: int = 32
    Hp: int = 16
    D: int = 100
    N: int = 8
    K: int = 2

    def validate(self) -> None:
        if self.D > self.T:
            raise ValueError(f"D={self.D} must not exceed T={self.T}")
        if self.N < 2:
            raise ValueError("need N >= 2 sample points")
        if min(self.T, self.C, self.H, self.Hp, self.D) < 1 or self.K < 2:
            raise ValueError(f"bad hyper shape: {self}")

    @property
    def n_orders(self) -> int:
        return math.factorial(self.K)


class ParamStore(dict):
    """Named parameter tensors; insertion order is declaration order."""

    def copy_store(self) -> "ParamStore":
        out = ParamStore()
        out.update({k: v.copy() for k, v in self.items()})
        return out


@dataclass
class BMSamplingMask:
    """Sparse interpolation weights for boundary-matching feature sampling.

    Conceptually a (T, N*D*T) matrix; only the columns of valid candidates
    are stored. Column n*n_valid + j holds the two linear-interpolation
    weights of sample point n of candidate j, and sums to 1.
    """

    W: sparse.csr_matrix  # (T, N * n_valid)
    d_idx: np.ndarray  # (n_valid,)
    i_idx: np.ndarray  # (n_valid,)
    T: int
    D: int
    N: int

    @property
    def n_valid(self) -> int:
        return self.d_idx.shape[0]


def build_bm_mask(T: int, D: int, N: int) -> BMSamplingMask:
    """Precompute the sampling matrix: candidate (d, i) covers [i, i+d+1],
    expanded by 0.25*(d+1) on each side, with N uniform sample locations
    interpolated linearly between neighboring snippets."""
    if D > T or N < 2:
        raise ValueError(f"need D <= T and N >= 2, got T={T}, D={D}, N={N}")
    d_idx, i_idx = np.nonzero(candidate_mask(T, D))
    n_valid = d_idx.shape[0]

    dur = (d_idx + 1).astype(np.float64)
    lo = i_idx - 0.25 * dur
    hi = i_idx + 1.25 * dur
    steps = np.arange(N) / (N - 1)
    locs = lo[None, :] + (hi - lo)[None, :] * steps[:, None]  # (N, n_valid)
    locs = np.clip(locs, 0.0, T - 1.0)

    base = np.floor(locs).astype(np.int64)
    frac = locs - base
    cols = np.arange(N)[:, None] * n_valid + np.arange(n_valid)[None, :]

    up = frac > 0
    rows = np.concatenate([base.ravel(), (base[up] + 1).ravel()])
    ccols = np.concatenate([cols.ravel(), cols[up].ravel()])
    vals = np.concatenate([(1.0 - frac).ravel(), frac[up].ravel()])
    W = sparse.coo_matrix((vals, (rows, ccols)), shape=(T, N * n_valid)).tocsr()
    return BMSamplingMask(W=W, d_idx=d_idx, i_idx=i_idx, T=T, D=D, N=N)


def sample_entries(W: sparse.csr_matrix, n_valid: int):
    """(n, j, row * n_valid + j) of each stored entry of a (T, N * n_valid)
    sampling matrix in storage order: its sample point, its candidate, and
    its position in a row-major (T, n_valid) array."""
    row = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    n, j = np.divmod(W.indices, n_valid)
    return n, j, row * n_valid + j


def halo(mask: np.ndarray) -> np.ndarray:
    """The cells of a (D, T) mask grown by one cell in every direction: the
    cells a 3 x 3 convolution reads to give the mask's cells."""
    D, T = mask.shape
    p = np.pad(mask > 0, 1)
    return np.logical_or.reduce([p[a:a + D, c:c + T] for a in range(3) for c in range(3)])


def staircase(mask: np.ndarray, n_blocks: int = CONV_BLOCKS) -> tuple:
    """A convolution extent covering the nonzero cells of a (D, T) mask:
    `n_blocks` near-equal row blocks (d0, d1, t1), each spanning rows
    [d0, d1) and columns [0, t1) up to the last nonzero column in its rows.
    Blocks without a nonzero cell are left out."""
    nz = mask > 0
    ends = np.where(nz.any(axis=1), nz.shape[1] - np.argmax(nz[:, ::-1], axis=1), 0)
    return tuple((int(rows[0]), int(rows[-1]) + 1, int(ends[rows].max()))
                 for rows in np.array_split(np.arange(nz.shape[0]), n_blocks)
                 if rows.size and ends[rows].max() > 0)


def param_shapes(hyper: HyperShape) -> dict[str, tuple[int, ...]]:
    h = hyper
    return {
        "base.conv1.w": (3, h.C, h.H), "base.conv1.b": (h.H,),
        "base.conv2.w": (3, h.H, h.H), "base.conv2.b": (h.H,),
        "tem.conv1.w": (3, h.H, h.H), "tem.conv1.b": (h.H,),
        "tem.conv2.w": (1, h.H, 2), "tem.conv2.b": (2,),
        "pem.conv1.w": (3, h.H, h.Hp), "pem.conv1.b": (h.Hp,),
        "pem.reduce.w": (h.N,), "pem.reduce.b": (h.Hp,),
        "pem.conv2a.w": (3, 3, h.Hp, h.Hp), "pem.conv2a.b": (h.Hp,),
        "pem.conv2b.w": (3, 3, h.Hp, 2), "pem.conv2b.b": (2,),
        "recon.conv.w": (3, h.H, h.C), "recon.conv.b": (h.C,),
        "order.conv.w": (3, h.H, h.H), "order.conv.b": (h.H,),
        "order.fc.w": (h.H, h.n_orders), "order.fc.b": (h.n_orders,),
    }


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if len(shape) == 3:  # conv1d (k, Cin, Cout)
        return shape[0] * shape[1]
    if len(shape) == 4:  # conv2d (k, k, Cin, Cout)
        return shape[0] * shape[1] * shape[2]
    return shape[0]  # linear (in, out) or the N-reduction weight


def init_params(hyper: HyperShape, seed: int, dtype=np.float64) -> ParamStore:
    """Uniform(-s, s) kernels with s = sqrt(1/fan_in); zero biases."""
    hyper.validate()
    rng = np.random.Generator(np.random.PCG64(seed))
    store = ParamStore()
    for name, shape in param_shapes(hyper).items():
        if name.endswith(".b"):
            store[name] = np.zeros(shape, dtype=dtype)
        else:
            s = math.sqrt(1.0 / _fan_in(name, shape))
            store[name] = rng.uniform(-s, s, size=shape).astype(dtype)
    return store


def wrap_params(params: ParamStore, requires_grad: bool = True) -> dict[str, ad.Tensor]:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


class GateTape:
    """Records ReLU activation masks on a reference forward pass so a replay
    evaluates the same smooth branch of the piecewise-linear network.

    Finite differences across a ReLU kink measure the average of two slopes,
    not a derivative; the gradient check replays the recorded gates (like the
    frozen dropout noise) so both FD evaluations sample the branch whose
    derivative the analytic backward pass reports. The recording pass runs
    `ad.relu` itself, so the check covers the activation's own backward.
    """

    def __init__(self):
        self.masks: list[np.ndarray] = []
        self._replay = None  # an iterator over `masks` once rewound

    def rewind(self):
        self._replay = iter(self.masks)

    def gate(self, x: ad.Tensor) -> ad.Tensor:
        if self._replay is None:
            self.masks.append((x.data > 0.0).astype(x.data.dtype))
            return ad.relu(x)
        return ad.mul(x, next(self._replay))


@dataclass
class ModelOutputs:
    """Head outputs of one pass; heads that were not requested stay None."""

    valid_mask: np.ndarray
    p_s: ad.Tensor | None = None
    p_e: ad.Tensor | None = None
    m_cc: ad.Tensor | None = None
    m_cr: ad.Tensor | None = None
    recon: ad.Tensor | None = None
    order_logits: ad.Tensor | None = None

    def detach(self) -> Predictions:
        return Predictions(
            p_s=self.p_s.data.copy(), p_e=self.p_e.data.copy(),
            m_cc=self.m_cc.data.copy(), m_cr=self.m_cr.data.copy(),
            valid_mask=self.valid_mask.copy(),
        )


class ProposalNetwork:
    """Owns the hyper shape and the cached sampling mask; stateless otherwise."""

    def __init__(self, hyper: HyperShape):
        hyper.validate()
        self.hyper = hyper
        self.bm = build_bm_mask(hyper.T, hyper.D, hyper.N)
        self.valid_mask = candidate_mask(hyper.T, hyper.D)
        # conv2b's output is masked to the candidates, so it is needed there
        # only; those cells read conv2a's output on the one-cell halo, and
        # scatter_grid reads conv2a's input gradient on the candidates only
        valid, grown = staircase(self.valid_mask), staircase(halo(self.valid_mask))
        self.extents = {"pem.conv2a": (grown, valid), "pem.conv2b": (valid, grown)}
        self._W_cache: dict[str, tuple[sparse.csr_matrix, tuple]] = {}

    def init_params(self, seed: int, dtype=np.float64) -> ParamStore:
        return init_params(self.hyper, seed, dtype=dtype)

    def _W(self, dtype) -> tuple[sparse.csr_matrix, tuple]:
        """The sampling matrix in `dtype` and its per-entry indices, built on
        first use (not at construction, which sits on the set-up path)."""
        key = np.dtype(dtype).name
        if key not in self._W_cache:
            W = self.bm.W.astype(dtype)
            self._W_cache[key] = (W, sample_entries(W, self.bm.n_valid))
        return self._W_cache[key]

    def forward(
        self,
        params: ParamStore | dict[str, ad.Tensor],
        f: np.ndarray,
        heads=frozenset({"proposal"}),
        train_mode: bool = False,
        rng: np.random.Generator | None = None,
        p_drop: float = 0.0,
        requires_grad: bool = True,
        gate_tape: GateTape | None = None,
    ) -> ModelOutputs:
        """Evaluate the network on one (T, C) sequence, or in one pass on a
        (..., T, C) stack of them, whose outputs carry the same leading axes.

        `params` may be a ParamStore of arrays (wrapped internally) or a dict
        of already-wrapped tensors shared across passes so their gradients
        accumulate. Dropout runs on the base output in train_mode only, with
        a mask drawn from `rng` (a copy of one generator state replays a pass).
        """
        h = self.hyper
        first = next(iter(params.values()))
        wrapped = params if isinstance(first, ad.Tensor) else wrap_params(params, requires_grad)
        dtype = next(iter(wrapped.values())).data.dtype
        if f.shape[-2:] != (h.T, h.C):
            raise ValueError(f"input shape {f.shape} does not end in {(h.T, h.C)}")

        P = wrapped.__getitem__
        act = gate_tape.gate if gate_tape is not None else ad.relu
        x = ad.Tensor(np.ascontiguousarray(f, dtype=dtype))
        z = act(ad.conv1d(x, P("base.conv1.w"), P("base.conv1.b"), pad=1))
        base_feat = act(ad.conv1d(z, P("base.conv2.w"), P("base.conv2.b"), pad=1))
        if train_mode and p_drop > 0.0:
            if rng is None:
                raise ValueError("train_mode dropout needs an rng")
            keep = rng.random(base_feat.shape) >= p_drop
            base_feat = ad.mul(base_feat, (keep / (1.0 - p_drop)).astype(dtype))
        out = ModelOutputs(valid_mask=self.valid_mask)

        if "proposal" in heads:
            t = act(ad.conv1d(base_feat, P("tem.conv1.w"), P("tem.conv1.b"), pad=1))
            t = ad.sigmoid(ad.conv1d(t, P("tem.conv2.w"), P("tem.conv2.b"), pad=0))
            out.p_s = ad.take_last(t, 0)
            out.p_e = ad.take_last(t, 1)

            q = act(ad.conv1d(base_feat, P("pem.conv1.w"), P("pem.conv1.b"), pad=1))
            W, entries = self._W(dtype)
            red = act(ad.sparse_sample(q, W, P("pem.reduce.w"), P("pem.reduce.b"), entries))
            g = ad.scatter_grid(red, self.bm.d_idx, self.bm.i_idx, (h.D, h.T))
            ext_a, ext_b = self.extents["pem.conv2a"], self.extents["pem.conv2b"]
            g = act(ad.conv2d(g, P("pem.conv2a.w"), P("pem.conv2a.b"), 1, *ext_a))
            g = ad.sigmoid(ad.conv2d(g, P("pem.conv2b.w"), P("pem.conv2b.b"), 1, *ext_b))
            g = ad.mul(g, self.valid_mask.astype(dtype)[:, :, None])
            out.m_cc = ad.take_last(g, 0)
            out.m_cr = ad.take_last(g, 1)
            _check_finite(out.m_cc.data, "pem")

        if "recon" in heads:
            out.recon = ad.conv1d(base_feat, P("recon.conv.w"), P("recon.conv.b"), pad=1)
            _check_finite(out.recon.data, "recon")
        if "order" in heads:
            o = act(ad.conv1d(base_feat, P("order.conv.w"), P("order.conv.b"), pad=1))
            pooled = ad.tmean(o, axis=-2)
            out.order_logits = ad.add(ad.dot_vm(pooled, P("order.fc.w")), P("order.fc.b"))
            _check_finite(out.order_logits.data, "order")
        return out

    def pad_to_length(self, f: np.ndarray) -> np.ndarray:
        """Zero-pad truncated (..., T', C) order-task clips back to T rows."""
        if f.shape[-2] == self.hyper.T:
            return f
        fpad = np.zeros((*f.shape[:-2], self.hyper.T, f.shape[-1]), dtype=f.dtype)
        fpad[..., : f.shape[-2], :] = f
        return fpad


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite activation in layer '{layer}'")


def backward(loss: ad.Tensor, param_tensors: dict[str, ad.Tensor]) -> ParamStore:
    """Run reverse mode from a scalar loss and collect per-parameter grads."""
    loss.backward()
    grads = ParamStore()
    for name, t in param_tensors.items():
        grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return grads


# ---------------------------------------------------------------------------
# gradient checking

# central-difference step, dropout rate and per-tensor relative-error bound
# of the gradient check
GRAD_CHECK_STEP = 1e-3
GRAD_CHECK_P_DROP = 0.1
GRAD_CHECK_TOLERANCE = 1e-4


def composite_loss(net: ProposalNetwork, wrapped: dict[str, ad.Tensor],
                   f: np.ndarray, targets: dict, rng: np.random.Generator,
                   gate_tape: GateTape | None = None) -> ad.Tensor:
    """A scalar loss touching every head, for finite-difference checks; a
    training pass whose dropout mask is drawn from `rng`."""
    from . import pretext
    from .trainer import consistency_loss

    out = net.forward(wrapped, f, heads={"proposal", "recon", "order"},
                      train_mode=True, rng=rng, p_drop=GRAD_CHECK_P_DROP,
                      gate_tape=gate_tape)
    maps = Predictions(targets["p_s"], targets["p_e"], targets["m_cc"], targets["m_cr"],
                       net.valid_mask)
    return (consistency_loss(out, maps)
            + pretext.recon_loss(out.recon, targets["recon"])
            + pretext.order_loss(out.order_logits, targets["order_label"]))


def grad_check(hyper: HyperShape, seed: int) -> dict:
    """Compare analytic gradients with central finite differences for every
    parameter tensor, on a composite loss exercising all heads (64-bit).

    Every pass draws its dropout mask from a copy of one generator state, so
    all of them see the same noise. Per-tensor relative error is
    max|analytic - fd| normalized by the largest gradient magnitude in that
    tensor (floored at 1e-8).
    """
    net = ProposalNetwork(hyper)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = net.init_params(seed, dtype=np.float64)
    # jitter to a generic point: zero-initialized biases put ReLU
    # pre-activations exactly on the kink, where finite differences are
    # meaningless regardless of step size
    for v in params.values():
        v += rng.uniform(-0.1, 0.1, size=v.shape)
    f = rng.normal(size=(hyper.T, hyper.C))
    targets = {
        "p_s": rng.random(hyper.T), "p_e": rng.random(hyper.T),
        "m_cc": rng.random((hyper.D, hyper.T)) * net.valid_mask,
        "m_cr": rng.random((hyper.D, hyper.T)) * net.valid_mask,
        "recon": rng.normal(size=(hyper.T, hyper.C)),
        "order_label": int(rng.integers(hyper.n_orders)),
    }

    tape = GateTape()
    wrapped = wrap_params(params)
    grads = backward(composite_loss(net, wrapped, f, targets, copy.deepcopy(rng),
                                    gate_tape=tape), wrapped)

    def value_at():
        w = wrap_params(params, requires_grad=False)
        tape.rewind()
        return composite_loss(net, w, f, targets, copy.deepcopy(rng), gate_tape=tape).item()

    report = {"tensors": {}, "tolerance": GRAD_CHECK_TOLERANCE}
    for name in params:
        g = grads[name]
        fd = np.zeros_like(g)
        flat = params[name].ravel()
        fd_flat = fd.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRAD_CHECK_STEP
            up = value_at()
            flat[j] = orig - GRAD_CHECK_STEP
            dn = value_at()
            flat[j] = orig
            fd_flat[j] = (up - dn) / (2.0 * GRAD_CHECK_STEP)
        scale = max(np.abs(g).max(), np.abs(fd).max(), 1e-8)
        report["tensors"][name] = float(np.abs(g - fd).max() / scale)
    report["max_rel_error"] = max(report["tensors"].values())
    report["passed"] = all(rel <= GRAD_CHECK_TOLERANCE for rel in report["tensors"].values())
    return report


# ---------------------------------------------------------------------------
# checkpoint I/O

# Checkpoint tensors are named "<store>.<param>"; a training checkpoint holds
# these stores in this order.
CHECKPOINT_STORES = ("student", "teacher", "adam.m", "adam.v")


def prefixed(*stores: ParamStore) -> dict[str, np.ndarray]:
    """Name the tensors of stores given in CHECKPOINT_STORES order."""
    return {f"{name}.{k}": v for name, params in zip(CHECKPOINT_STORES, stores, strict=True)
            for k, v in params.items()}


def save_checkpoint(path, hyper: HyperShape, seed: int, step: int,
                    precision: str, tensors: dict[str, np.ndarray],
                    extra: dict | None = None) -> None:
    directory = [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                 for k, v in tensors.items()]
    header = {
        "hyper": hyper.__dict__, "seed": seed, "step": step,
        "precision": precision, "tensors": directory, "extra": extra or {},
    }
    write_framed(path, CHECKPOINT_MAGIC, b"", header,
                 [np.ascontiguousarray(v, dtype=v.dtype.newbyteorder("<"))
                  for v in tensors.values()])


def _payload_bytes(header: dict):
    """Payload size a checkpoint header declares, checking each entry."""
    n = 0
    for entry in header["tensors"]:
        name, shape = str(entry["name"]), [int(s) for s in entry["shape"]]
        if min(shape, default=0) < 0:
            raise ValueError(f"tensor {name} has a negative dimension")
        dt = np.dtype(entry["dtype"])
        if dt.kind not in "fiu":
            raise ValueError(f"tensor {name} has non-numeric dtype {dt}")
        n += math.prod(shape) * dt.itemsize
    return n, np.dtype(np.uint8)


def load_checkpoint(path):
    header, payload = read_framed(path, CHECKPOINT_MAGIC, b"", "checkpoint",
                                  _payload_bytes)
    tensors, offset = {}, 0
    for entry in header["tensors"]:
        dt = np.dtype(entry["dtype"]).newbyteorder("<")
        shape = tuple(int(s) for s in entry["shape"])
        n = math.prod(shape) * dt.itemsize
        arr = np.frombuffer(payload[offset:offset + n], dtype=dt)
        tensors[entry["name"]] = arr.reshape(shape).astype(entry["dtype"])
        if not np.isfinite(tensors[entry["name"]]).all():
            raise FormatError(f"{path}: tensor {entry['name']} holds a non-finite value")
        offset += n
    try:
        hyper = HyperShape(**header["hyper"])
        hyper.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad hyper shape: {exc}") from exc
    if header.get("precision") not in ("float32", "float64"):
        raise FormatError(f"{path}: bad precision {header.get('precision')!r}")
    for name, shape in param_shapes(hyper).items():
        for key in (f"{store}.{name}" for store in CHECKPOINT_STORES):
            if key in tensors and tensors[key].shape != shape:
                raise FormatError(f"{path}: tensor {key} has shape "
                                  f"{tensors[key].shape}, expected {shape}")
    return header, tensors


def load_stores(path, stores: tuple[str, ...], kind: str):
    """Read a checkpoint as (header, hyper shape, one ParamStore per named
    store). A store lacking a tensor raises `FormatError` naming it, as not
    a `kind` checkpoint."""
    header, tensors = load_checkpoint(path)
    hyper = HyperShape(**header["hyper"])
    try:
        params = [ParamStore({k: tensors[f"{store}.{k}"] for k in param_shapes(hyper)})
                  for store in stores]
    except KeyError as exc:
        raise FormatError(f"{path}: not a {kind} checkpoint; it lacks {exc.args[0]}") from None
    return header, hyper, params
