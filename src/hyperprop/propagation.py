"""One-shot feature propagation and its analysis helpers.

The propagation operator is the degree-weighted polynomial

    S = (1 - alpha)^L A~^L + alpha * sum_{l=0}^{L-1} (1 - alpha)^l A~^l

applied to the raw features once, before any training.  ``propagate``
never materializes S: the recurrence Z^l = (1-alpha) A~ Z^{l-1} +
alpha X produces exactly S @ X in L sparse products.  The dense path
(`materialize_operator`) exists for verification and small-n analysis.
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .core import (
    _BLOCK_BYTES,
    _feature_matrix,
    _index_vector,
    _positive_integers,
    _worker_pool,
)
from .errors import (
    BoundsError,
    ContractViolation,
    DimensionError,
    DomainError,
    ParseError,
    ResourceLimitError,
)
from .expansion import SparseAdjacency

__all__ = [
    "PropagationConfig",
    "PropagatedFeatures",
    "propagate",
    "materialize_operator",
    "operator_support",
    "energy",
    "closed_form_limit",
    "adjacency_fingerprint",
    "save_propagated",
    "load_propagated",
]

DENSE_CAP = 2000

_MAGIC = b"TFH2"
_HEADER_BYTES = 4 + 16  # magic, u64 rows, u64 cols
_FOOTER_BYTES = 32 + 32 + 16  # provenance, structure digest, u64 layers + f64 alpha


@dataclass(frozen=True)
class PropagationConfig:
    """Depth and teleport weight of the propagation polynomial.

    ``layers`` >= 0; ``alpha`` in [0, 1).  alpha=0 degenerates to the
    plain power A~^L (no residual connection to the raw features).
    """

    layers: int
    alpha: float

    def __post_init__(self):
        if not _positive_integers([self.layers], 0):
            raise DomainError(f"layers must be a nonnegative integer, got {self.layers!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {self.alpha}")


@dataclass(frozen=True)
class PropagatedFeatures:
    """Propagated feature matrix plus the config and two digests.

    ``structure`` is the operator's digest: the structure digest of the
    hypergraph it was built from (see `SparseAdjacency`), which names
    the fixed operator.  ``provenance`` digests the raw features, that
    digest and the config, so identical inputs always reproduce it.  The
    hyperlink pipeline reads ``structure`` to prove its operator saw
    only train+val structure; both are saved in the `.tfhn` footer.
    """

    matrix: np.ndarray
    config: PropagationConfig
    provenance: str
    structure: str


def _require_normalized(atilde: SparseAdjacency) -> None:
    if not atilde.normalized:
        raise ContractViolation(
            "propagation operator requires a normalize_with_self_loops output"
        )


def adjacency_fingerprint(a: SparseAdjacency) -> str:
    """The operator's digest: the structure digest of the hypergraph it
    was built from, which names it, since the operator depends on that
    hypergraph alone.  An untagged operator is a ContractViolation."""
    if a.structure is None:
        raise ContractViolation("propagation operator carries no structure digest")
    return a.structure


def _provenance(x: np.ndarray, structure: str, cfg: PropagationConfig) -> str:
    """sha256 of the shape and raw bytes of the C-ordered float64 ``x``,
    the 32 bytes of the operator's digest, then the layers and alpha."""
    hasher = hashlib.sha256(struct.pack("<QQ", *x.shape))
    hasher.update(x)
    hasher.update(bytes.fromhex(structure))
    hasher.update(struct.pack("<Qd", cfg.layers, cfg.alpha))
    return hasher.hexdigest()


def _panel_width(n: int, nnz: int) -> int:
    """Columns per panel of `propagate` over an n-node operator with
    ``nnz`` stored entries: the wider of two widths, and at least 1.

    - The widest panel whose three arrays (the anchor alpha * X, Z^{l-1}
      and Z^l, 8n bytes per column each) fit in `_BLOCK_BYTES`.
    - Each step of a panel streams all of A~, 12 bytes per entry (a
      float64 value and an int32 column index) however narrow the
      panel, while its three arrays move 24n bytes per column, so the
      operator's traffic dominates below nnz / 2n columns.  The width is
      1.2 times that balance: 11 columns at n = 172 000 and nnz = 3.4M,
      where one column per panel took 2.5 s and 10 to 14 columns 1.5 to
      1.8 s.  Wider panels ran no faster there, and each column more
      holds another 24n bytes per worker.
    """
    n = max(1, n)
    return max(1, _BLOCK_BYTES // (24 * n), 3 * nnz // (5 * n))


def _panel(a, x: np.ndarray, cols: slice, cfg: PropagationConfig) -> np.ndarray:
    """Z^L of the columns ``cols`` of ``x``, as a new C-ordered array.

    The panel is copied out of ``x`` and checked for non-finite entries
    before the L steps run, in the operation order of `propagate`.  It
    holds three panel-sized arrays at most: the anchor alpha * X, Z^{l-1}
    and Z^l (the copied columns are Z^0).  It is the package's one
    evaluation of the recurrence: `reference.run_linearized` runs it
    whole-width over a model's base W.
    """
    z = x[:, cols].copy()
    if not np.isfinite(z).all():
        raise DomainError("features contain non-finite entries")
    anchor = cfg.alpha * z
    for _ in range(cfg.layers):
        z = a @ z
        z *= 1.0 - cfg.alpha
        z += anchor
    return z


def propagate(
    atilde: SparseAdjacency, x: np.ndarray, cfg: PropagationConfig, *, out: np.ndarray | None = None
) -> PropagatedFeatures:
    """Apply the propagation polynomial to ``x`` via the L-step recurrence.

    Z^0 = X,  Z^l = (1 - alpha) A~ Z^{l-1} + alpha X;  the result Z^L
    equals S @ X exactly (same polynomial, Horner-style evaluation).
    Cost is L sparse-dense products; S itself is never formed.

    The columns of S X are independent, and the sparse product does the
    same operations in the same order per column at any width, so the
    recurrence runs on column panels `_panel_width` columns wide, all L
    steps on one panel before the next, and the result is bit-identical
    to the expression above.  An operator without a structure digest
    is refused before ``x`` is read, and the provenance is taken before
    any panel starts.  Each panel is then copied out of ``x``, run
    through its steps and written into the output, on one worker thread
    per available core; the sparse product releases the GIL.  The first
    panel that fails cancels the panels still queued.

    ``out`` is None or ``x`` itself, which must then be a writable
    C-ordered float64 array.  With None the result's ``matrix`` is a new
    array, so the call holds ``x``, the output and three panel arrays
    per worker.  With ``out=x`` it holds ``x`` and the panels alone: on
    return ``x`` holds Z^L, bit-identical to the default, and
    is the result's ``matrix``.  A call that fails part-way (a panel
    with a non-finite entry) leaves ``x`` partly overwritten.
    """
    _require_normalized(atilde)
    structure = adjacency_fingerprint(atilde)
    if out is not None:
        _check_in_place(out, x)
    x = _feature_matrix(x, atilde.n)
    width = _panel_width(atilde.n, atilde.matrix.nnz)
    z = np.empty_like(x) if out is None else x
    provenance = _provenance(x, structure, cfg)  # before any panel can overwrite x

    def fill(cols: slice) -> None:
        z[:, cols] = _panel(atilde.matrix, x, cols, cfg)

    with _worker_pool() as pool:
        # the first failed panel raises and cancels the ones still queued
        for _ in pool.map(fill, [slice(lo, lo + width) for lo in range(0, x.shape[1], width)]):
            pass
    return PropagatedFeatures(matrix=z, config=cfg, provenance=provenance, structure=structure)


def _check_in_place(out, x) -> None:
    """Refuse an ``out`` that `propagate` cannot write Z^L into."""
    if out is not x:
        raise ContractViolation("out must be None or the features themselves")
    usable = isinstance(x, np.ndarray) and x.dtype == np.float64
    if not (usable and x.flags.c_contiguous and x.flags.writeable):
        raise ContractViolation("out=x needs x to be a writable C-ordered float64 array")


def materialize_operator(atilde: SparseAdjacency, cfg: PropagationConfig) -> np.ndarray:
    """Dense S for analysis; refuses n > DENSE_CAP to avoid O(n^2) surprises."""
    _require_normalized(atilde)
    _require_dense_size(atilde.n, "dense operator")
    depths = _dense_polynomial(atilde.matrix.toarray(), cfg.alpha, cfg.layers)
    return next(islice(depths, cfg.layers, None))  # S_L; each S_l before it is dropped at once


def _require_dense_size(n: int, what: str) -> None:
    if n > DENSE_CAP:
        raise ResourceLimitError(f"{what} for n={n} exceeds cap {DENSE_CAP}")


def _dense_polynomial(w: np.ndarray, alpha: float, layers: int):
    """Yield S_0 ... S_L for any dense square W, where
    S_l = (1-a)^l W^l + a * sum_{k<l} (1-a)^k W^k, evaluated term by term
    in increasing powers: one pass gives every depth up to ``layers``."""
    n = w.shape[0]
    s = np.zeros((n, n))
    power = np.eye(n)
    for l in range(layers):
        yield s + (1.0 - alpha) ** l * power
        s += alpha * (1.0 - alpha) ** l * power
        power = power @ w
    yield s + (1.0 - alpha) ** layers * power


def operator_support(s: np.ndarray) -> set[tuple[int, int]]:
    """Off-diagonal index pairs where the operator is nonzero (NaN
    entries excluded)."""
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"operator must be square, got {s.shape}")
    mask = np.abs(s) > 0.0
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return set(zip(rows.tolist(), cols.tolist()))


def energy(atilde: SparseAdjacency, x: np.ndarray, x0: np.ndarray, alpha: float) -> float:
    """Value of the propagation objective at ``x``.

    F(X) = tr(X^T L X) + alpha/(1-alpha) * ||X - X0||_F^2 with
    L = I - A~: a smoothness term over the expansion plus the anchor to
    the raw features X0.  The infinite-depth propagation minimizes F,
    which requires alpha > 0 for the anchor to exist.
    """
    _require_normalized(atilde)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"energy requires alpha in (0, 1), got {alpha}")
    x, x0 = _feature_matrix(x, atilde.n), _feature_matrix(x0, atilde.n)
    if x.shape != x0.shape:
        raise DimensionError(f"shape mismatch: x {x.shape}, x0 {x0.shape}")
    lap_x = x - atilde.matrix @ x
    smooth = float(np.sum(x * lap_x))
    anchor = float(np.sum((x - x0) ** 2))
    return smooth + alpha / (1.0 - alpha) * anchor


def closed_form_limit(atilde: SparseAdjacency, x0: np.ndarray, alpha: float) -> np.ndarray:
    """Unique minimizer of the propagation objective.

    X* = alpha (I - (1-alpha) A~)^-1 X0; the system matrix is positive
    definite because A~ has unit spectral radius and alpha > 0.  Solved
    densely; refuses n > DENSE_CAP.
    """
    _require_normalized(atilde)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"closed-form limit requires alpha in (0, 1), got {alpha}")
    x0 = _feature_matrix(x0, atilde.n)
    _require_dense_size(atilde.n, "closed-form limit")
    system = np.eye(atilde.n) - (1.0 - alpha) * atilde.matrix.toarray()
    return np.linalg.solve(system, alpha * x0)


@contextmanager
def _replacing(path: str | Path):
    """Binary file handle on a temporary file beside ``path``.  When the
    block ends normally the file replaces ``path`` in one rename; when it
    raises, the file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_propagated(path: str | Path, pf: PropagatedFeatures) -> None:
    """Binary layout: magic "TFH2", u64 rows, u64 cols, row-major f64
    payload, then a footer with the provenance and structure digests
    (32 bytes each) and the config.  The
    file is written beside ``path`` and renamed into place, so ``path``
    never holds a partial file."""
    mat = np.ascontiguousarray(pf.matrix, dtype=np.float64)
    with _replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", mat.shape[0], mat.shape[1]))
        fh.write(mat)  # buffer protocol: the row-major bytes, no copy
        fh.write(bytes.fromhex(pf.provenance))
        fh.write(bytes.fromhex(pf.structure))
        fh.write(struct.pack("<Qd", pf.config.layers, pf.config.alpha))


def load_propagated(path: str | Path, rows: np.ndarray | None = None) -> PropagatedFeatures:
    """Inverse of `save_propagated`.  The file size is checked against
    the header's shape before the matrix is allocated.

    The matrix holds the rows ``rows`` (distinct row indices, any order;
    every row when None), in that order.  The payload is read once,
    front to back, in chunks of half `_BLOCK_BYTES`, and each chunk's
    selected rows are scattered into place, so loading holds the
    selected rows plus at most about `_BLOCK_BYTES` more.  A row outside
    the stored matrix is a BoundsError and a repeated row a DomainError,
    both raised before the matrix is allocated.
    """
    path = Path(path)
    with path.open("rb") as fh:
        stored, cols, config, digests = _read_header(fh, path)
        mat = _read_rows(fh, path, stored, cols, np.arange(stored) if rows is None else rows)
    return PropagatedFeatures(
        matrix=mat, config=config, provenance=digests[:32].hex(), structure=digests[32:].hex()
    )


def _read_header(fh, path: Path) -> tuple[int, int, PropagationConfig, bytes]:
    """Rows, cols, config and the footer's 64 digest bytes of an open
    `.tfhn` file, once its magic and its size (header, payload and
    footer) check out.  ``fh`` is left at the start of the payload."""
    header = fh.read(_HEADER_BYTES)
    if header[:4] != _MAGIC:
        raise ParseError(f"{path.name}: bad magic {header[:4]!r}")
    size = os.fstat(fh.fileno()).st_size
    if len(header) != _HEADER_BYTES:
        raise ParseError(
            f"{path.name}: file is {size} bytes, shorter than the {_HEADER_BYTES}-byte header"
        )
    rows, cols = struct.unpack_from("<QQ", header, 4)
    expected = _HEADER_BYTES + rows * cols * 8 + _FOOTER_BYTES
    if size != expected:
        raise ParseError(f"{path.name}: file is {size} bytes, expected {expected}")
    fh.seek(-_FOOTER_BYTES, os.SEEK_END)
    footer = fh.read(_FOOTER_BYTES)
    layers, alpha = struct.unpack_from("<Qd", footer, 64)
    fh.seek(_HEADER_BYTES)
    return rows, cols, PropagationConfig(layers=layers, alpha=alpha), footer[:64]


def _read_rows(fh, path: Path, stored: int, cols: int, rows) -> np.ndarray:
    """The payload rows ``rows`` of ``fh``, in that order; see
    `load_propagated`."""
    rows = _index_vector(rows, "rows")
    if rows.size and (rows.min() < 0 or rows.max() >= stored):
        raise BoundsError(f"{path.name}: rows must lie in [0, {stored})")
    order = np.argsort(rows, kind="stable")
    ascending = rows[order]
    if np.any(ascending[1:] == ascending[:-1]):
        raise DomainError(f"{path.name}: rows must be distinct")
    mat = np.empty((rows.size, cols), dtype="<f8")
    step = max(1, _BLOCK_BYTES // (16 * max(1, cols)))
    chunk = np.empty((min(step, stored), cols), dtype="<f8")
    for lo in range(0, stored, step):
        block = chunk[: min(step, stored - lo)]
        if (got := fh.readinto(block)) != block.nbytes:  # a buffered file fills it or is at EOF
            raise ParseError(f"{path.name}: file ended {block.nbytes - got} bytes early")
        first, last = np.searchsorted(ascending, (lo, lo + len(block)))
        mat[order[first:last]] = block[ascending[first:last] - lo]
    return mat
