"""Linearized reference hypergraph networks and their unified form.

Four published message-passing schemes, stripped of nonlinearities and
learned weights, reduce to the same template

    X^L = (1 - g)^L W^L X + g * sum_{l=0}^{L-1} (1 - g)^l W^l X

for a model-specific expansion W and residual weight g.
``run_linearized`` steps each model's layer recursion, which is
`propagation`'s recurrence over the model's own W and g;
``unified_equivalent`` returns the (W, g) pair whose closed polynomial
reproduces it, so the two routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import Hypergraph, _feature_matrix, _positive_integers
from .errors import DomainError
from .expansion import SparseAdjacency, _deephgnn_base, _star_base, _unignn_base
from .propagation import PropagationConfig, _panel

__all__ = ["ModelKind", "LinearizedModelSpec", "run_linearized", "unified_equivalent"]


class ModelKind(str, Enum):
    UNIGCNII = "unigcnii"
    DEEPHGNN = "deephgnn"
    ALLDEEPSETS = "alldeepsets"
    EDHNN = "edhnn"


@dataclass(frozen=True)
class LinearizedModelSpec:
    """Which reference model to emulate, at what depth and residual weight.

    ``kind`` may be given by its string value; it is stored as a
    ``ModelKind``.  ``gamma`` lives in [0, 1); AllDeepSets has no
    residual term, so its gamma must be 0.
    """

    kind: ModelKind
    layers: int
    gamma: float = 0.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ModelKind(self.kind))
        except ValueError:
            raise DomainError(f"unknown model kind {self.kind!r}") from None
        if not _positive_integers([self.layers], 0):
            raise DomainError(f"layers must be a nonnegative integer, got {self.layers!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.kind is ModelKind.ALLDEEPSETS and self.gamma != 0.0:
            raise DomainError("AllDeepSets has no residual connection; gamma must be 0")


_BASES = {
    ModelKind.UNIGCNII: _unignn_base,
    ModelKind.DEEPHGNN: _deephgnn_base,
    ModelKind.ALLDEEPSETS: _star_base,  # AllDeepSets and ED-HNN share it
    ModelKind.EDHNN: _star_base,
}


@lru_cache(maxsize=len(set(_BASES.values())))
def _base_matrix(build, h: Hypergraph) -> SparseAdjacency:
    """``build(h)`` for a builder of `_BASES`: a model's expansion with
    the (1 - gamma) prefactor divided out.

    It depends on neither depth nor gamma, so the last builds are
    memoised by (builder, hypergraph) and shared by every spec of every
    model with that builder.
    Its arrays are read-only: a caller that writes to one gets a
    ValueError instead of changing later results.
    """
    w = SparseAdjacency(matrix=build(h))
    for array in (w.matrix.data, w.matrix.indices, w.matrix.indptr):
        array.flags.writeable = False
    return w


def run_linearized(spec: LinearizedModelSpec, h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Run the model's layer recursion for ``spec.layers`` steps.

    UniGCNII / DeepHGNN / ED-HNN:  X^l = (1-g) W X^{l-1} + g X^0
    AllDeepSets:                   X^l = W X^{l-1}

    where W is the model's unscaled expansion; the (1-g) factor the
    papers fold into W is applied exactly once per layer.  This is
    `propagate`'s recurrence with W for A~ and g for alpha, so it runs
    as one whole-width `propagation._panel`: a non-finite feature is
    propagate's DomainError.
    """
    w = _base_matrix(_BASES[spec.kind], h).matrix
    cfg = PropagationConfig(layers=spec.layers, alpha=spec.gamma)
    return _panel(w, _feature_matrix(x, h.n), slice(None), cfg)


def unified_equivalent(spec: LinearizedModelSpec, h: Hypergraph) -> tuple[SparseAdjacency, float]:
    """The (W, alpha) pair whose unified polynomial matches the model.

    All residual weight is carried by alpha (the returned matrix has
    the (1 - gamma) prefactor divided out); AllDeepSets maps to
    alpha = 0.  The matrix is the shared, read-only base operator.
    """
    return _base_matrix(_BASES[spec.kind], h), spec.gamma
