"""The differentiable proposal network.

Three heads share a two-layer temporal-conv base:
  * boundary head: per-snippet start/end probabilities, the two columns of
    one convolution's output,
  * confidence head: dense D x T candidate maps produced through a
    precomputed boundary-matching sampler (one fixed point-stacked matrix,
    `autodiff.Sampler`, folded with the learned weights over its sample
    points into one dense (T, J) matrix that is rebuilt only when those
    weights change: one dense product forward, two backward), then two
    3 x 3 convolutions with one extent per side: the first's input extent
    is the sampler's candidate rows, the second applies the candidate mask
    and writes both maps as the planes of one channel-first array,
  * auxiliary heads: feature reconstruction and clip-order logits.

Every ReLU and sigmoid runs in the epilogue of the op before it.

Forward passes build an autodiff graph; `backward` runs it and packs the
parameter gradients into one store (`leaf_grads`). A 64-bit path is used for
gradient checking, 32-bit for training speed (same code, parameterized by
dtype).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import FormatError, candidate_mask, read_framed, write_framed
from .perturb import Predictions

CHECKPOINT_MAGIC = b"SPCHKPT1"
# the epilogue (act, mask) of an op followed by a ReLU
RELU = ("relu", None)
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

    def __post_init__(self):
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
    """Named parameter tensors, each a view of one contiguous 1-D buffer `flat`
    in declaration order. Update them in place: assigning a new array detaches it."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.flat, self.shapes, offset = flat, shapes, 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    @classmethod
    def pack(cls, tensors: dict[str, np.ndarray]) -> "ParamStore":
        """A store holding a copy of each tensor, in the order given."""
        return cls(np.concatenate([v.ravel() for v in tensors.values()]),
                   {k: v.shape for k, v in tensors.items()})

    def copy_store(self) -> "ParamStore":
        return ParamStore(self.flat.copy(), self.shapes)


def build_bm_mask(T: int, D: int, N: int) -> ad.Sampler:
    """The boundary-matching sampling matrix S, (N*T, J) over the J
    candidates of `candidate_mask(T, D)`, as an `autodiff.Sampler`:
    candidate (d, i) covers [i, i+d+1], expanded by 0.25*(d+1) on each side,
    with N uniform sample locations interpolated linearly between
    neighboring snippets. Row n*T + t, column j holds the weight of snippet
    t in sample point n of candidate j."""
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
    cols = np.repeat(np.arange(d_idx.size), N)
    # point n of column j holds row n*T + base and, when frac > 0, row
    # n*T + base + 1
    up = frac > 0
    return ad.Sampler(np.concatenate([rows, rows[up] + 1]), np.concatenate([cols, cols[up]]),
                      np.concatenate([1.0 - frac, frac[up]]), (N * T, d_idx.size), N)


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
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = param_shapes(hyper)
    store = ParamStore(np.zeros(sum(map(math.prod, shapes.values())), dtype=dtype), shapes)
    for name, view in store.items():
        if not name.endswith(".b"):
            s = math.sqrt(1.0 / _fan_in(name, view.shape))
            view[...] = rng.uniform(-s, s, size=view.shape)
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
    the ReLUs themselves, in their ops' epilogues, so the check covers the
    activation's own backward.
    """

    def __init__(self):
        self.masks: list[np.ndarray] = []
        self._replay = None  # an iterator over `masks` once rewound

    def rewind(self):
        self._replay = iter(self.masks)

    def relu(self, op) -> ad.Tensor:
        """`op(epilogue)`, an op whose ReLU runs in its epilogue: the ReLU
        on the recording pass, whose mask (output > 0) is recorded; a
        product with that mask, in the same epilogue, on a replay."""
        if self._replay is not None:
            return op((None, next(self._replay)))
        y = op(RELU)
        self.masks.append((y.data > 0.0).astype(y.data.dtype))
        return y


@dataclass
class ModelOutputs:
    """Head outputs of one pass; heads that were not requested stay None.
    `valid_mask` is the network's own (D, T) candidate mask, held by
    reference and shared by every pass: the one copy the losses read."""

    valid_mask: np.ndarray
    p_s: ad.Tensor | None = None
    p_e: ad.Tensor | None = None
    m_cc: ad.Tensor | None = None
    m_cr: ad.Tensor | None = None
    recon: ad.Tensor | None = None
    order_logits: ad.Tensor | None = None

    def detach(self) -> Predictions:
        return Predictions(p_s=self.p_s.data.copy(), p_e=self.p_e.data.copy(),
                           m_cc=self.m_cc.data.copy(), m_cr=self.m_cr.data.copy())


class ProposalNetwork:
    """Owns the hyper shape, the candidate mask and the cached sampling
    matrices; stateless otherwise."""

    def __init__(self, hyper: HyperShape):
        self.hyper = hyper
        self.valid_mask = candidate_mask(hyper.T, hyper.D)
        self.cells = np.flatnonzero(self.valid_mask)  # candidate j's cell d*T + i
        # each 2-D convolution's (output, input) extents: conv2b's output is
        # masked to the candidates, which read conv2a's output on the one-cell
        # halo; conv2a's input is the candidate rows, whose runs it finds on
        # first use (in the first pass), not here
        valid, grown = staircase(self.valid_mask), staircase(halo(self.valid_mask))
        rows = ad.CellRows(self.cells, self.valid_mask.shape, valid)
        self.extents = {"pem.conv2a": (grown, rows), "pem.conv2b": (valid, grown)}
        self._W_cache: dict[str, ad.Sampler] = {}

    def init_params(self, seed: int, dtype=np.float64) -> ParamStore:
        return init_params(self.hyper, seed, dtype=dtype)

    def _W(self, dtype) -> ad.Sampler:
        """The sampling matrix S with its table in `dtype`, built on first
        use (not at construction, which sits on the set-up path)."""
        key, h = np.dtype(dtype).name, self.hyper
        if key not in self._W_cache:
            self._W_cache[key] = build_bm_mask(h.T, h.D, h.N).astype(dtype)
        return self._W_cache[key]

    def _maps(self, red: ad.Tensor, P, relu) -> ad.Tensor:
        """The (..., 2, D, T) m_cc and m_cr planes from the (..., J, Hp)
        candidate rows `red`: `pem.conv2a` reads the rows, with its ReLU
        run by `relu`, and `pem.conv2b`'s epilogue applies the sigmoid and
        then the candidate mask, writing channel first."""
        ext_a, ext_b = self.extents["pem.conv2a"], self.extents["pem.conv2b"]
        g = relu(lambda ep: ad.conv2d(red, P("pem.conv2a.w"), P("pem.conv2a.b"), 1, *ext_a, ep))
        return ad.conv2d(g, P("pem.conv2b.w"), P("pem.conv2b.b"), 1, *ext_b,
                         epilogue=("sigmoid", self.valid_mask.astype(red.dtype)),
                         channels_first=True)

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
        # every ReLU runs in its op's epilogue, recorded or replayed by a tape
        relu = gate_tape.relu if gate_tape is not None else lambda op: op(RELU)

        def conv_relu(x, layer):
            return relu(lambda ep: ad.conv1d(x, P(f"{layer}.w"), P(f"{layer}.b"), 1, ep))

        x = ad.Tensor(np.ascontiguousarray(f, dtype=dtype))
        base_feat = conv_relu(conv_relu(x, "base.conv1"), "base.conv2")
        if train_mode and p_drop > 0.0:
            if rng is None:
                raise ValueError("train_mode dropout needs an rng")
            keep = rng.random(base_feat.shape) >= p_drop
            base_feat = ad.mul(base_feat, (keep / (1.0 - p_drop)).astype(dtype))
        out = ModelOutputs(valid_mask=self.valid_mask)

        if "proposal" in heads:
            t = ad.conv1d(conv_relu(base_feat, "tem.conv1"), P("tem.conv2.w"),
                          P("tem.conv2.b"), 0, ("sigmoid", None))
            _check_finite(t.data, "tem")
            out.p_s, out.p_e = ad.plane(t, 0, axis=-1), ad.plane(t, 1, axis=-1)

            q = conv_relu(base_feat, "pem.conv1")
            red = relu(lambda ep: ad.sparse_sample(q, self._W(dtype), P("pem.reduce.w"),
                                                   P("pem.reduce.b"), ep))
            maps = self._maps(red, P, relu)
            _check_finite(maps.data, "pem")
            out.m_cc, out.m_cr = ad.plane(maps, 0), ad.plane(maps, 1)

        if "recon" in heads:
            out.recon = ad.conv1d(base_feat, P("recon.conv.w"), P("recon.conv.b"), pad=1)
            _check_finite(out.recon.data, "recon")
        if "order" in heads:
            pooled = ad.tmean(conv_relu(base_feat, "order.conv"), axis=-2)
            out.order_logits = ad.add(ad.dot_vm(pooled, P("order.fc.w")), P("order.fc.b"))
            _check_finite(out.order_logits.data, "order")
        return out


def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite activation in layer '{layer}'")


def leaf_grads(param_tensors: dict[str, ad.Tensor]) -> ParamStore:
    """The gradients that backward passes have accumulated into the wrapped
    parameters, packed into one store (zeros for a parameter none reached)."""
    return ParamStore.pack({name: t.grad if t.grad is not None else np.zeros_like(t.data)
                            for name, t in param_tensors.items()})


def backward(loss: ad.Tensor, param_tensors: dict[str, ad.Tensor]) -> ParamStore:
    """Run reverse mode from a scalar loss and pack the parameters' gradients
    into one store (`leaf_grads`). A trainer that runs one backward per loss
    term into the same wrapped parameters calls `leaf_grads` once after them."""
    loss.backward()
    return leaf_grads(param_tensors)


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
    maps = Predictions(targets["p_s"], targets["p_e"], targets["m_cc"], targets["m_cr"])
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
    params.flat += rng.uniform(-0.1, 0.1, size=params.flat.size)
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

    fd = ParamStore(np.zeros_like(params.flat), params.shapes)
    flat = params.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + GRAD_CHECK_STEP
        up = value_at()
        flat[j] = orig - GRAD_CHECK_STEP
        dn = value_at()
        flat[j] = orig
        fd.flat[j] = (up - dn) / (2.0 * GRAD_CHECK_STEP)

    def rel_error(g, d):
        return float(np.abs(g - d).max() / max(np.abs(g).max(), np.abs(d).max(), 1e-8))

    report = {"tensors": {name: rel_error(grads[name], fd[name]) for name in params},
              "tolerance": GRAD_CHECK_TOLERANCE}
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
    store, in the header's precision). A store lacking a tensor raises
    `FormatError` naming it, as not a `kind` checkpoint, and so does a store
    tensor of another dtype."""
    header, tensors = load_checkpoint(path)
    hyper = HyperShape(**header["hyper"])
    shapes = param_shapes(hyper)
    for key in (f"{store}.{k}" for store in stores for k in shapes):
        if key not in tensors:
            raise FormatError(f"{path}: not a {kind} checkpoint; it lacks {key}")
        if tensors[key].dtype != header["precision"]:
            raise FormatError(f"{path}: tensor {key} is {tensors[key].dtype}, not the "
                              f"header's precision {header['precision']}")
    return header, hyper, [ParamStore.pack({k: tensors[f"{store}.{k}"] for k in shapes})
                           for store in stores]
