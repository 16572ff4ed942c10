"""Minimal dense network used as the task head.

Everything is plain numpy: rectifier hidden layers, identity output,
inverted dropout, numerically stabilized losses, and bias-corrected
Adam.  Gradients are exact (verified against finite differences in the
test suite), and every stochastic choice flows from an explicit
generator, so training is bit-reproducible per seed.
Inside a head run (`_head_threads`) the wide products run in fixed row
panels (`_matmul`) on one worker per core, with the bits of one call.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .core import _index_vector, _positive_integers, _worker_pool
from .errors import DimensionError, DomainError

__all__ = [
    "MlpParams",
    "TrainConfig",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
    "softmax_cross_entropy",
    "sigmoid_bce",
    "adam_step",
]

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_MASK_BLOCK = 8192  # values per `_row_blocks` block (64 KB): the head's one scratch budget

# Row panels of the head's wide products (see `_matmul`).  At one BLAS
# thread, panels that start at multiples of the SkylakeX dgemm kernel's
# 16-row tile gave the bits of one call for outputs of 32 to 192 columns.
# That was measured on that kernel only; other OpenBLAS cores (Haswell,
# Zen, generic, ARM) tile differently and are unchecked.
# Wider outputs changed bits unless the panels followed OpenBLAS's
# 192-row blocks, narrower ones (2, 6, 8, 12, 20 columns) at any step, and
# so did panels of under about 10^6 multiply-adds, where OpenBLAS takes
# its small-matrix path; all of these run as one call.  The floor
# _SPLIT_MNK keeps every panel far above that size, and below it
# panels gain nothing: the hyperlink head's 12 000 x 64 x 64 ran no faster
# on two workers.  Equal panels balance one, two or four workers; more
# of them would each pack the weights again.
_ROW_TILE = 16
_PANELS = 4
_SPLIT_WIDTHS = range(32, 193)
_SPLIT_MNK = 1 << 26


@dataclass
class MlpParams:
    """Weight/bias lists; layer i is weights[i], shaped (d_in, d_out), and biases[i]."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for a task head."""

    learning_rate: float
    epochs: int
    dropout: float = 0.0
    hidden_dims: tuple[int, ...] = (64,)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            rule = "positive" if self.learning_rate < np.inf else "finite"
            raise DomainError(f"learning rate must be {rule}, got {self.learning_rate}")
        if not _positive_integers([self.epochs]):
            raise DomainError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not _positive_integers(self.hidden_dims):
            widths = list(self.hidden_dims)
            raise DomainError(f"hidden widths must be positive integers, got {widths}")
        if not _positive_integers([self.seed], 0):
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter in
    ``params.weights + params.biases`` order, plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def like(cls, params: MlpParams) -> "AdamState":
        order = params.weights + params.biases
        return cls(m=[np.zeros_like(p) for p in order], v=[np.zeros_like(p) for p in order])


def init_mlp(dims, rng: np.random.Generator) -> MlpParams:
    """Uniform(-a, a) weights with a = sqrt(6 / (d_in + d_out)); zero biases."""
    dims = list(dims)
    if len(dims) < 2 or not _positive_integers(dims):
        raise DomainError(f"need at least in/out dims, all positive integers; got {dims}")
    dims = [int(d) for d in dims]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpParams(weights=weights, biases=biases)


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS,
    or None when numpy links no such library.  Looked up on first use,
    so importing the package loads nothing."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The pool `_matmul` runs its panels on: set inside `_head_threads` only.
_PANEL_POOL: ContextVar[ThreadPoolExecutor | None] = ContextVar("_PANEL_POOL", default=None)


@contextmanager
def _head_threads():
    """Run the body with OpenBLAS on one thread and `_matmul`'s panels on
    one worker per core; then join the workers and restore the count.

    A head's bits then do not depend on the BLAS thread count or the
    core count, and the panels have the cores to themselves.  The BLAS
    thread count is process-wide; the pool is bound in a context
    variable (as ``np.errstate`` binds its state), so only products on
    the calling thread use it.  Without the library nothing is pinned,
    no pool is bound, and every product is one ``np.matmul``.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        with _worker_pool() as pool:
            token = _PANEL_POOL.set(pool)
            try:
                yield
            finally:
                _PANEL_POOL.reset(token)
    finally:
        set_(before)


def _row_panels(m: int, k: int, n: int) -> list[int]:
    """Row bounds of the panels `_matmul` runs an (m, k) @ (k, n)
    product in; ``[0, m]`` is one call.  They depend on the shape alone:
    _PANELS near-equal panels, each starting on a multiple of _ROW_TILE."""
    if n not in _SPLIT_WIDTHS or m < _PANELS * _ROW_TILE or m * k * n < _SPLIT_MNK:
        return [0, m]
    tiles = m / (_PANELS * _ROW_TILE)
    return [_ROW_TILE * round(i * tiles) for i in range(_PANELS)] + [m]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` of 2-d operands, with its bits.

    Inside `_head_threads`, a product that `_row_panels` splits runs in
    those panels on its workers, each written into its rows of ``out``
    (a new array when None); a panel of the transposed ``a`` is a
    strided view, not a copy.  Only ``np.matmul`` runs on a worker.
    Outside a head run every product is one call.
    """
    pool = _PANEL_POOL.get()
    m, (k, n) = len(a), np.shape(b)
    bounds = _row_panels(m, k, n)
    if pool is None or len(bounds) == 2:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    panels = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def fill(rows: slice) -> None:
        np.matmul(a[rows], b, out=out[rows])

    for _ in pool.map(fill, panels):
        pass  # each panel's result, so that a failed one raises
    return out


def _row_blocks(a: np.ndarray):
    """Views of ``a``'s consecutive row blocks, made one at a time: each one
    row, or as many as fit in _MASK_BLOCK values (a 1-d row is one value)."""
    rows = max(1, _MASK_BLOCK // (a.shape[1] if a.ndim == 2 else 1))
    return (a[i : i + rows] for i in range(0, len(a), rows))


@dataclass
class _ForwardCache:
    # layer inputs a_{i-1} (dropped units 0) and 1/(1-p); the backward writes over them
    inputs: list[np.ndarray] = field(default_factory=list)
    scale: float = 1.0


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    cache: bool = False,
    buffers: list[np.ndarray] | None = None,
):
    """Batch forward pass; returns logits, plus the cache when asked.

    A positive ``dropout`` p (on hidden activations only) makes this a
    training pass, which needs a generator so masks are reproducible.
    Each layer's output is one array that takes the bias, the rectifier,
    a boolean keep mask (drawn in 64 KB row blocks, the draws of one
    call) and the scalar 1/(1-p) in place: h = max(a @ w + b, 0) * keep
    / (1-p).  A hidden h is cached as the next layer's input, and the
    cache keeps no mask.  Without ``buffers`` each output is a new
    array.  ``buffers`` holds one float64 array per layer, of that
    layer's width and at least ``len(x)`` rows; layer i then writes
    into the leading rows of ``buffers[i]``, so the logits and the
    cache are views of them, valid until the next call that writes
    those buffers.  The bits are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[0].shape[0]:
        raise DimensionError(f"input must be (batch, {params.weights[0].shape[0]}), got {x.shape}")
    if dropout > 0.0 and rng is None:
        raise DomainError("dropout needs a random generator")
    if buffers is None:
        outs = [None] * len(params.weights)
    elif [(b.dtype, b.shape[1:]) for b in buffers] == [
        (np.float64, w.shape[1:]) for w in params.weights
    ] and min(len(b) for b in buffers) >= len(x):
        outs = [b[: len(x)] for b in buffers]
    else:
        raise DimensionError(
            f"buffers must be one float64 array per layer, each (>= {len(x)}, width)"
        )
    fwd = _ForwardCache(scale=1.0 / (1.0 - dropout))  # inverted: eval is identity
    a = x
    for w, b, out in zip(params.weights[:-1], params.biases[:-1], outs):
        fwd.inputs.append(a)
        a = _matmul(a, w, out)
        a += b
        np.maximum(a, 0.0, out=a)
        if dropout > 0.0:
            for block in _row_blocks(a):
                block *= rng.random(block.shape) >= dropout
            a *= fwd.scale
    fwd.inputs.append(a)
    logits = _matmul(a, params.weights[-1], outs[-1])
    logits += params.biases[-1]
    return (logits, fwd) if cache else logits


def mlp_backward(params: MlpParams, fwd: _ForwardCache, grad_logits: np.ndarray):
    """Parameter gradients from the cached forward pass, which this
    consumes.

    Returns (weight grads, bias grads) aligned with ``params``.  The
    rectifier's mask is read off the cached activation h: max(z, 0) > 0
    exactly where z > 0, for every z (NaN, signed zeros and infinities
    included), and a dropped unit is not positive, so it is the dropout
    mask too.  Each hidden h is then overwritten by its layer's delta,
    masked and scaled by 1/(1-p) in place, so a step holds one
    batch-sized array per hidden layer and the cache is gone afterwards.
    This order differs from scaling first only where |delta| / (1-p)
    overflows.  ``grad_logits`` and the input ``x`` are not written.
    """
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = grad_logits
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = _matmul(fwd.inputs[i].T, delta)
        grads_b[i] = delta.sum(axis=0)
        if i == 0:
            break
        positive = fwd.inputs[i] > 0.0
        delta = np.matmul(delta, params.weights[i].T, out=fwd.inputs[i])
        delta *= positive
        if fwd.scale != 1.0:
            delta *= fwd.scale
    return grads_w, grads_b


def _require_writable(logits) -> None:
    """Refuse logits that a loss cannot overwrite with its gradient."""
    if getattr(logits, "dtype", None) != np.float64 or not logits.flags.writeable:
        raise DomainError("logits must be a writable float64 array: the gradient overwrites them")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean NLL over every row; also the gradient w.r.t. logits.

    The softmax is stabilized by row-max subtraction, in place: the
    shifted logits become the returned gradient, so ``logits`` must be
    a writable float64 array, which this consumes.  The normalizer's
    ``exp`` is summed over `_row_blocks` into one value per row, so no
    batch-sized array is made; the gradient's ``exp`` is a second pass.
    """
    _require_writable(logits)
    y = _index_vector(labels, "labels")
    if logits.ndim != 2 or y.shape != logits.shape[:1]:
        raise DimensionError(f"logits {logits.shape} vs labels {y.shape}")
    if y.size == 0:
        raise DomainError("loss over an empty batch is undefined")
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise DomainError("labels must be valid class indices")
    logits -= logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.concatenate([np.exp(b).sum(axis=1) for b in _row_blocks(logits)]))
    rows = np.arange(len(y))
    loss = float(np.mean(log_norm - logits[rows, y]))
    logits -= log_norm[:, None]
    np.exp(logits, out=logits)
    logits[rows, y] -= 1.0
    logits /= len(y)
    return loss, logits


def sigmoid_bce(logits: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy on raw logits, overflow-safe; also the
    gradient w.r.t. logits.

    Uses max(z, 0) - z*t + log(1 + exp(-|z|)), and at an infinite logit
    that term's limit (0 for t = 1 at +inf or t = 0 at -inf, else +inf,
    worked out only in a block that holds one); the gradient is
    (sigmoid(z) - t) / k, written over ``logits`` (a writable float64
    array, which this consumes) and returned.  Each `_row_blocks` block
    takes one ``exp(-|z|)`` for its loss terms and its sigmoid, through
    one pair of block buffers, so the only batch-sized array is the
    vector of per-logit terms that the loss is the mean of.
    """
    _require_writable(logits)
    t = np.asarray(targets, dtype=np.float64)
    if logits.ndim == 0 or t.size != logits.size:
        raise DimensionError(f"logits {logits.shape} vs targets {t.shape}")
    if logits.size == 0:
        raise DomainError("loss over an empty batch is undefined")
    terms = np.empty(logits.size)
    pair = np.empty((2, next(_row_blocks(logits)).size))
    blocks = (_row_blocks(a.reshape(logits.shape)) for a in (t, terms))
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 at an infinite logit
        for z, t_block, term in zip(_row_blocks(logits), *blocks):
            e, work = (buf[: z.size].reshape(z.shape) for buf in pair)
            np.abs(z, out=e)
            infinite = e.max() == np.inf
            np.exp(np.negative(e, out=e), out=e)  # exp of a nonpositive number: never overflows
            np.maximum(z, 0.0, out=term)
            term -= np.multiply(z, t_block, out=work)
            term += np.log1p(e, out=work)
            if infinite:  # the exact term: 0 for t = 1 at +inf or t = 0 at -inf, else +inf
                np.copyto(term, np.where(t_block == (z > 0), 0.0, np.inf), where=np.isinf(z))
            np.add(e, 1.0, out=work)
            np.copyto(e, 1.0, where=z >= 0)  # sigmoid(z) = where(z >= 0, 1, e) / (1 + e)
            np.divide(e, work, out=z)
            z -= t_block
            z /= logits.size
    return float(np.mean(terms)), logits


def adam_step(params: MlpParams, grads_w, grads_b, state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update of every weight and bias.

    Mutates params/state in place and returns them.  Each parameter is
    updated in `_row_blocks` through one pair of block buffers, in the order of

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        p -= lr (m / corr1) / (sqrt(v / corr2) + eps)

    so the result is bit-identical to evaluating those expressions.
    """
    state.step += 1
    corr1, corr2 = 1.0 - ADAM_BETA1**state.step, 1.0 - ADAM_BETA2**state.step
    pair = np.empty((2, max(next(_row_blocks(m)).size for m in state.m)))
    for four in zip(params.weights + params.biases, [*grads_w, *grads_b], state.m, state.v):
        for p, g, m, v in zip(*map(_row_blocks, four)):
            update, denom = (buf[: g.size].reshape(g.shape) for buf in pair)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=update)
            v += np.multiply(update, g, out=update)
            np.sqrt(np.divide(v, corr2, out=denom), out=denom)
            denom += ADAM_EPS
            np.divide(m, corr1, out=update)
            update /= denom
            update *= cfg.learning_rate
            p -= update
    return params, state
