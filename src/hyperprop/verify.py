"""Randomized self-checks of the package's three structural claims.

Each suite draws seeded random hypergraphs and compares two
independently implemented routes:

* unification -- every linearized reference model, stepped by
  `propagate`'s recurrence (``propagation._panel``) over the model's
  own base W, equals the unified polynomial evaluated densely;
* receptive field -- the dense operator's support equals breadth-first
  k-hop neighbourhoods on the incidence structure;
* oversmoothing -- deep propagation converges to the closed-form
  energy minimizer instead of collapsing, and that limit beats random
  probes on the energy objective.

The CLI exposes these as ``verify``; the acceptance tests call them
directly with the documented grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, khop_neighbours
from .expansion import normalize_with_self_loops, weighted_clique_expansion
from .propagation import (
    PropagationConfig,
    _dense_polynomial,
    closed_form_limit,
    energy,
    materialize_operator,
    operator_support,
    propagate,
)
from .reference import LinearizedModelSpec, ModelKind, run_linearized, unified_equivalent

__all__ = [
    "PropertyReport",
    "random_hypergraph",
    "check_unification",
    "check_receptive_field",
    "check_oversmoothing",
    "run_all",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one suite: how many cases ran, failed, and the worst error."""

    name: str
    cases: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} cases={self.cases} "
            f"failures={self.failures} worst={self.worst:.3e}"
        )


def random_hypergraph(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (4, 30),
    m_range: tuple[int, int] = (1, 20),
) -> Hypergraph:
    """A random incidence structure; hyperedge sizes are 2 to 6, clipped to n."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    hi = min(6, n)
    edges = (rng.choice(n, size=int(rng.integers(2, hi + 1)), replace=False) for _ in range(m))
    return Hypergraph.from_edges(edges, n=n)


def _rel_frobenius(got: np.ndarray, want: np.ndarray) -> float:
    denom = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / max(denom, 1e-300)


def check_unification(
    cases: int = 50,
    seed: int = 0,
    depths=(1, 2, 3, 4, 5),
    gammas=(0.1, 0.3, 0.5),
    tol: float = 1e-9,
) -> PropertyReport:
    """Each model's recurrence, stepped by ``propagation._panel`` over its
    base W, against the dense unified polynomial."""
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(cases):
        h = random_hypergraph(rng)
        x = rng.standard_normal((h.n, 5))
        for kind in ModelKind:
            dense = None  # a model's base W is shared by all its depths and gammas
            # AllDeepSets has no residual weight, so it is checked once per depth
            for gamma in (0.0,) if kind is ModelKind.ALLDEEPSETS else gammas:
                w, alpha = unified_equivalent(LinearizedModelSpec(kind, 0, gamma), h)
                dense = w.matrix.toarray() if dense is None else dense
                polynomial = list(_dense_polynomial(dense, alpha, max(depths, default=0)))
                for layers in depths:
                    got = run_linearized(LinearizedModelSpec(kind, layers, gamma), h, x)
                    err = _rel_frobenius(got, polynomial[layers] @ x)
                    worst = max(worst, err)
                    if err > tol:
                        failures += 1
    return PropertyReport("unification", cases, failures, worst)


def check_receptive_field(
    cases: int = 50, seed: int = 0, depths=(1, 2, 3), alpha: float = 0.3
) -> PropertyReport:
    """Operator support against breadth-first k-hop neighbourhoods."""
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(cases):
        h = random_hypergraph(rng)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        for layers in depths:
            s = materialize_operator(atilde, PropagationConfig(layers=layers, alpha=alpha))
            support = operator_support(s)
            expected = {
                (i, j) for i in range(h.n) for j in khop_neighbours(h, i, layers)
            }
            mismatch = len(support ^ expected)
            worst = max(worst, float(mismatch))
            if mismatch:
                failures += 1
    return PropertyReport("receptive-field", cases, failures, worst)


def check_oversmoothing(
    cases: int = 10,
    seed: int = 0,
    alpha: float = 0.3,
    layers: int = 500,
    probes: int = 100,
    tol: float = 1e-6,
) -> PropertyReport:
    """Deep propagation against the closed-form energy minimizer."""
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(cases):
        h = random_hypergraph(rng, n_range=(5, 50), m_range=(2, 25))
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        x = rng.standard_normal((h.n, 8))
        limit = closed_form_limit(atilde, x, alpha)
        deep = propagate(atilde, x, PropagationConfig(layers=layers, alpha=alpha)).matrix
        err = _rel_frobenius(deep, limit)
        worst = max(worst, err)
        bad = err > tol
        f_star = energy(atilde, limit, x, alpha)
        for _ in range(probes):
            probe = rng.standard_normal(x.shape)
            if energy(atilde, probe, x, alpha) < f_star - 1e-9:
                bad = True
        if bad:
            failures += 1
    return PropertyReport("oversmoothing", cases, failures, worst)


def run_all(cases: int = 50, seed: int = 0) -> list[PropertyReport]:
    """The three suites with their default grids; oversmoothing uses
    fewer cases since each one solves a linear system."""
    return [
        check_unification(cases=cases, seed=seed),
        check_receptive_field(cases=cases, seed=seed),
        check_oversmoothing(cases=max(1, cases // 5), seed=seed),
    ]
