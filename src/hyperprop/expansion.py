"""Hypergraph-to-graph expansions and symmetric normalization.

Every expansion reduces the incidence structure to an n-by-n sparse
matrix whose entry (i, j) aggregates the shared hyperedges of nodes i
and j, with degree-based weights.  The symmetric ones are built as
B @ B.T so symmetry holds exactly (bitwise), not just up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Hypergraph, _structure_digest, degrees, incidence_matrix
from .errors import ContractViolation, DimensionError, DomainError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "SparseAdjacency",
    "weighted_clique_expansion",
    "normalize_with_self_loops",
]


@dataclass(frozen=True)
class SparseAdjacency:
    """An n-by-n nonnegative sparse matrix plus structural flags.

    ``normalized`` marks the output of :func:`normalize_with_self_loops`
    (unit spectral radius, self-loops present), which the propagation
    module requires.  ``structure`` is the structure digest of the
    hypergraph a clique expansion was built from, kept through
    normalization; None for any other matrix.  The wrapped CSR matrix is
    treated as immutable.
    """

    matrix: sp.csr_matrix
    normalized: bool = False
    structure: str | None = None

    def __post_init__(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(self.matrix)
        mat.sort_indices()
        object.__setattr__(self, "matrix", mat)
        rows, cols = mat.shape
        if rows != cols:
            raise DimensionError(f"adjacency must be square, got {rows}x{cols}")
        if mat.nnz and (not np.all(np.isfinite(mat.data)) or mat.data.min() < 0.0):
            raise DomainError("adjacency entries must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _scaled_incidence(b: sp.spmatrix, row_scale: np.ndarray, col_scale: np.ndarray) -> sp.csr_matrix:
    """diag(row_scale) @ B @ diag(col_scale) without forming diagonals,
    for a sparse matrix B the caller has already built (an incidence
    matrix, or the self-looped adjacency in normalization)."""
    import scipy.sparse as sp

    b = b.tocoo()
    data = b.data * (row_scale[b.row] * col_scale[b.col])
    return sp.csr_matrix((data, (b.row, b.col)), shape=b.shape)


def weighted_clique_expansion(h: Hypergraph) -> SparseAdjacency:
    """Clique expansion weighted by inverse hyperedge degree.

    W[i][j] = sum over hyperedges containing both i and j of
    1 / D_E[k], for i != j; the diagonal is fixed to zero so the
    normalization step owns the (single) self-loop.  The result is
    tagged with the structure digest of ``h``.
    """
    _, edge = degrees(h)
    b = _scaled_incidence(incidence_matrix(h), np.ones(h.n), 1.0 / np.sqrt(edge))
    w = (b @ b.T).tocsr()
    w.setdiag(0.0)
    w.eliminate_zeros()
    return SparseAdjacency(matrix=w, structure=_structure_digest(h))


def _unignn_base(h: Hypergraph) -> sp.csr_matrix:
    # D_V^-1/2 H Dtilde_E^-1/2 D_E^-1 H^T where Dtilde_E[k] is the mean
    # node degree inside hyperedge k.  Only the left side carries
    # D_V^-1/2, so the result is not symmetric in general.
    node, edge = degrees(h)
    b = incidence_matrix(h)
    deg_sums = np.asarray(b.T @ node).ravel()  # sum of node degrees per edge
    dtilde = deg_sums / edge
    dtilde[dtilde == 0.0] = 1.0  # empty hyperedge: keep the factor finite
    left = _scaled_incidence(b, 1.0 / np.sqrt(node), 1.0 / (np.sqrt(dtilde) * edge))
    return (left @ b.T).tocsr()


def _deephgnn_base(h: Hypergraph) -> sp.csr_matrix:
    # D_V^-1/2 H D_E^-1 H^T D_V^-1/2, symmetric by construction.
    node, edge = degrees(h)
    b = _scaled_incidence(incidence_matrix(h), 1.0 / np.sqrt(node), 1.0 / np.sqrt(edge))
    return (b @ b.T).tocsr()


def _star_base(h: Hypergraph) -> sp.csr_matrix:
    # Row-stochastic two-step walk D_V^-1 H D_E^-1 H^T, shared by
    # AllDeepSets and ED-HNN: average within each hyperedge, then over a
    # node's hyperedges.  Rows of nodes with nonzero degree sum to one.
    node, edge = degrees(h)
    b = incidence_matrix(h)
    left = _scaled_incidence(b, 1.0 / node, 1.0 / edge)
    return (left @ b.T).tocsr()


def normalize_with_self_loops(w: SparseAdjacency) -> SparseAdjacency:
    """Self-loop plus symmetric degree normalization.

    Given W with zero diagonal that equals its transpose exactly (both
    are checked), form W~ = W + I and return A~ = D~^-1/2 W~ D~^-1/2
    where D~ holds the row sums of W~.  The scale factors are paired per
    entry so the output stays bitwise symmetric; its spectrum lies in
    [-1, 1] with D~^1/2 1 an eigenvector for eigenvalue 1.  The structure
    tag of ``w`` is kept.
    """
    import scipy.sparse as sp

    if (w.matrix != w.matrix.T).nnz:
        raise ContractViolation("normalization requires a symmetric adjacency")
    if w.matrix.diagonal().any():
        raise ContractViolation("normalization requires a zero diagonal")
    wtilde = (w.matrix + sp.identity(w.n, format="csr")).tocoo()
    dtilde = np.asarray(wtilde.sum(axis=1)).ravel()
    s = 1.0 / np.sqrt(dtilde)
    atilde = _scaled_incidence(wtilde, s, s)
    return SparseAdjacency(matrix=atilde, normalized=True, structure=w.structure)
