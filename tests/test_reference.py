"""Tests for the linearized reference models and their unified form.

The heart of the package's claim: each published scheme's own layer
recursion is reproduced exactly by the shared polynomial once the
right (W, alpha) pair is plugged in.
"""

import collections
import re

import numpy as np
import pytest
import scipy.sparse as sp

import hyperprop.reference as reference
import hyperprop.verify as verify
from hyperprop.core import Hypergraph
from hyperprop.errors import DomainError
from hyperprop.expansion import SparseAdjacency, _deephgnn_base, _star_base, _unignn_base
from hyperprop.reference import (
    LinearizedModelSpec,
    ModelKind,
    run_linearized,
    unified_equivalent,
)
from hyperprop.verify import PropertyReport, check_unification, random_hypergraph

from oracles import (
    deephgnn_entrywise,
    random_hypergraph_edges,
    reference_recursion,
    star_entrywise,
    unignn_entrywise,
)

TWO_EDGES = Hypergraph.from_edges([(0, 1, 2), (0, 1)])


def random_h(rng):
    n, edges = random_hypergraph_edges(rng)
    return Hypergraph.from_edges(edges, n=n)


def entrywise_matrix(kind: ModelKind, h, gamma: float) -> np.ndarray:
    """The model's published propagation matrix, built by loops."""
    if kind is ModelKind.UNIGCNII:
        return unignn_entrywise(h, gamma)
    if kind is ModelKind.DEEPHGNN:
        return deephgnn_entrywise(h, gamma)
    return star_entrywise(h)


def fresh_base(kind: ModelKind, h):
    """The model's base operator, built anew on every call."""
    if kind is ModelKind.UNIGCNII:
        return SparseAdjacency(matrix=_unignn_base(h)).matrix
    if kind is ModelKind.DEEPHGNN:
        return SparseAdjacency(matrix=_deephgnn_base(h)).matrix
    return SparseAdjacency(matrix=_star_base(h)).matrix


def uncached_unification(cases, seed, depths=(1, 2, 3, 4, 5), gammas=(0.1, 0.3, 0.5), tol=1e-9):
    """check_unification as it ran before the memo: the base operator is
    rebuilt for every (kind, depth, gamma), and the recursion and the
    dense polynomial are spelled out here."""
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(cases):
        h = random_hypergraph(rng)
        x = rng.standard_normal((h.n, 5))
        for kind in ModelKind:
            for layers in depths:
                for gamma in gammas:
                    g = 0.0 if kind is ModelKind.ALLDEEPSETS else gamma
                    w = fresh_base(kind, h)
                    got = x.copy()
                    for _ in range(layers):
                        got = (1.0 - g) * (w @ got) + g * x
                    wd = fresh_base(kind, h).toarray()
                    s = np.zeros(wd.shape)
                    power = np.eye(h.n)
                    for l in range(layers):
                        s += g * (1.0 - g) ** l * power
                        power = power @ wd
                    want = (s + (1.0 - g) ** layers * power) @ x
                    err = float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)
                    worst = max(worst, err)
                    if err > tol:
                        failures += 1
    return PropertyReport("unification", cases, failures, worst)


class TestModelSpec:
    def test_kind_given_as_string_is_coerced(self):
        spec = LinearizedModelSpec(kind="unigcnii", layers=1, gamma=0.2)
        assert spec.kind is ModelKind.UNIGCNII
        with pytest.raises(DomainError):
            LinearizedModelSpec(kind="gcn", layers=1)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            LinearizedModelSpec(kind=ModelKind.EDHNN, layers=2, gamma=1.0)
        with pytest.raises(DomainError):
            LinearizedModelSpec(kind=ModelKind.UNIGCNII, layers=-1, gamma=0.2)
        for layers in (True, 1.5):  # both were accepted
            message = f"layers must be a nonnegative integer, got {layers!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                LinearizedModelSpec(kind=ModelKind.UNIGCNII, layers=layers, gamma=0.2)

    def test_alldeepsets_has_no_residual(self):
        with pytest.raises(DomainError):
            LinearizedModelSpec(kind=ModelKind.ALLDEEPSETS, layers=2, gamma=0.3)
        LinearizedModelSpec(kind=ModelKind.ALLDEEPSETS, layers=2, gamma=0.0)


class TestRunLinearized:
    def test_zero_layers_returns_input(self):
        x = np.random.default_rng(0).standard_normal((3, 2))
        spec = LinearizedModelSpec(kind=ModelKind.EDHNN, layers=0, gamma=0.4)
        np.testing.assert_array_equal(run_linearized(spec, TWO_EDGES, x), x)

    def test_non_finite_features_are_refused_as_in_propagate(self):
        """The models run `propagate`'s recurrence, and its check: a NaN
        feature is a DomainError, not a NaN in the output."""
        for value in (np.nan, np.inf):
            x = np.ones((3, 2))
            x[1, 0] = value
            for kind in ModelKind:
                spec = LinearizedModelSpec(kind=kind, layers=1)
                with pytest.raises(DomainError, match="features contain non-finite entries"):
                    run_linearized(spec, TWO_EDGES, x)

    def test_each_model_matches_its_published_recursion(self):
        """Every kind, run through the library, equals a dense loop
        implementation of that model's own layer equation."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = random_h(rng)
            x = rng.standard_normal((h.n, 4))
            for kind in ModelKind:
                for gamma in (0.0, 0.25, 0.6):
                    g = 0.0 if kind is ModelKind.ALLDEEPSETS else gamma
                    spec = LinearizedModelSpec(kind=kind, layers=3, gamma=g)
                    got = run_linearized(spec, h, x)
                    # the entrywise matrices absorb (1-g); divide it out so
                    # the dense recursion applies the factor itself
                    w = entrywise_matrix(kind, h, g)
                    if kind in (ModelKind.UNIGCNII, ModelKind.DEEPHGNN):
                        w = w / (1.0 - g)
                    want = reference_recursion(w, x, g, 3)
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_alldeepsets_is_pure_power_iteration(self):
        rng = np.random.default_rng(2)
        h = random_h(rng)
        x = rng.standard_normal((h.n, 3))
        spec = LinearizedModelSpec(kind=ModelKind.ALLDEEPSETS, layers=4, gamma=0.0)
        w = star_entrywise(h)
        want = np.linalg.matrix_power(w, 4) @ x
        np.testing.assert_allclose(run_linearized(spec, h, x), want, rtol=1e-9, atol=1e-12)

    def test_gamma_zero_degenerates_every_kind(self):
        rng = np.random.default_rng(3)
        h = random_h(rng)
        x = rng.standard_normal((h.n, 3))
        for kind in ModelKind:
            spec = LinearizedModelSpec(kind=kind, layers=3, gamma=0.0)
            w, alpha = unified_equivalent(spec, h)
            assert alpha == 0.0
            want = np.linalg.matrix_power(w.matrix.toarray(), 3) @ x
            np.testing.assert_allclose(run_linearized(spec, h, x), want, rtol=1e-9, atol=1e-12)


class TestUnifiedEquivalent:
    def test_returned_matrix_drops_the_gamma_prefactor(self):
        spec = LinearizedModelSpec(kind=ModelKind.UNIGCNII, layers=2, gamma=0.2)
        w, alpha = unified_equivalent(spec, TWO_EDGES)
        assert alpha == 0.2
        np.testing.assert_allclose(
            w.matrix.toarray(), unignn_entrywise(TWO_EDGES, 0.2) / 0.8, atol=1e-12
        )

    def test_single_edge_unignn_value(self):
        h = Hypergraph.from_edges([(0, 1)])
        spec = LinearizedModelSpec(kind=ModelKind.UNIGCNII, layers=1, gamma=0.2)
        w, _ = unified_equivalent(spec, h)
        np.testing.assert_allclose(w.matrix[0, 1], 0.5, rtol=1e-12)

    def test_alldeepsets_and_edhnn_share_the_expansion(self):
        h = TWO_EDGES
        w_ads, a_ads = unified_equivalent(
            LinearizedModelSpec(kind=ModelKind.ALLDEEPSETS, layers=2), h
        )
        w_ed, a_ed = unified_equivalent(
            LinearizedModelSpec(kind=ModelKind.EDHNN, layers=2, gamma=0.5), h
        )
        np.testing.assert_array_equal(w_ads.matrix.toarray(), w_ed.matrix.toarray())
        assert (a_ads, a_ed) == (0.0, 0.5)

    def test_recursion_equals_unified_polynomial(self):
        """run_linearized == the unified polynomial with the returned
        (W, alpha), across all kinds, depths, and residual weights."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = random_h(rng)
            x = rng.standard_normal((h.n, 5))
            for kind in ModelKind:
                for layers in (1, 2, 4):
                    for gamma in (0.1, 0.5):
                        g = 0.0 if kind is ModelKind.ALLDEEPSETS else gamma
                        spec = LinearizedModelSpec(kind=kind, layers=layers, gamma=g)
                        w, alpha = unified_equivalent(spec, h)
                        wd = w.matrix.toarray()
                        s = (1 - alpha) ** layers * np.linalg.matrix_power(wd, layers)
                        for l in range(layers):
                            s += alpha * (1 - alpha) ** l * np.linalg.matrix_power(wd, l)
                        got = run_linearized(spec, h, x)
                        rel = np.linalg.norm(got - s @ x) / max(np.linalg.norm(s @ x), 1e-300)
                        assert rel <= 1e-9


class TestBaseOperatorMemo:
    """Each base operator is built once per (kind, hypergraph) and shared
    by every depth and gamma; sharing must change no result."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_check_unification_equals_uncached_loop(self, seed):
        report = check_unification(cases=5, seed=seed)
        assert report == uncached_unification(cases=5, seed=seed)
        assert report.passed and report.worst > 0.0

    def test_each_dense_reference_is_built_once(self, monkeypatch):
        """At 50 cases, each of the four models' bases is densified once
        per case (200 in all), and each (model, gamma) takes every depth
        from one pass of the dense polynomial (10 per case, 500)."""
        counts = collections.Counter()
        real_toarray, real_polynomial = sp.csr_matrix.toarray, verify._dense_polynomial

        def counted_toarray(self, *args, **kwargs):
            counts["densified"] += 1
            return real_toarray(self, *args, **kwargs)

        def counted_polynomial(*args):
            counts["passes"] += 1
            return real_polynomial(*args)

        monkeypatch.setattr(sp.csr_matrix, "toarray", counted_toarray)
        monkeypatch.setattr(verify, "_dense_polynomial", counted_polynomial)
        assert check_unification(cases=50).passed
        assert counts == {"densified": 200, "passes": 500}

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_returned_operator_is_read_only(self, kind):
        h = Hypergraph.from_edges([(0, 1, 2), (1, 3), (2, 3, 4)])
        spec = LinearizedModelSpec(kind=kind, layers=2)
        w, _ = unified_equivalent(spec, h)
        for name in ("data", "indices", "indptr"):
            with pytest.raises(ValueError):
                getattr(w.matrix, name)[0] = 5
        with pytest.raises(ValueError):
            w.matrix[0, 0] = 5.0
        again, _ = unified_equivalent(spec, h)
        assert np.array_equal(again.matrix.toarray(), fresh_base(kind, h).toarray())
        x = np.arange(10.0).reshape(5, 2)
        assert np.array_equal(run_linearized(spec, h, x), fresh_base(kind, h) @ (fresh_base(kind, h) @ x))

    def test_shared_star_base_is_built_once_per_hypergraph(self, monkeypatch):
        """AllDeepSets and ED-HNN read one memoised star base, so three
        hypergraphs cost three star builds, not six."""
        builds = []

        def counted_star(h):
            builds.append(h)
            return _star_base(h)

        for kind in (ModelKind.ALLDEEPSETS, ModelKind.EDHNN):
            monkeypatch.setitem(reference._BASES, kind, counted_star)
        reference._base_matrix.cache_clear()
        try:
            assert check_unification(cases=3).passed
        finally:
            reference._base_matrix.cache_clear()
        assert len(builds) == len(set(map(id, builds))) == 3

    def test_each_hypergraph_gets_its_own_operator(self):
        """Hypergraphs that share their edges but not n, or that come in
        alternation, never see each other's operator."""
        edges = [(0, 1, 2), (1, 2), (2, 3)]
        rng = np.random.default_rng(5)
        family = [Hypergraph.from_edges(edges, n=n) for n in (4, 5, 7)]
        family += [random_hypergraph(rng) for _ in range(3)]
        for _ in range(2):
            for h in family + family[::-1]:
                for kind in ModelKind:
                    w, _ = unified_equivalent(LinearizedModelSpec(kind=kind, layers=1), h)
                    want = fresh_base(kind, h)
                    assert w.matrix.shape == (h.n, h.n)
                    assert np.array_equal(w.matrix.toarray(), want.toarray())
                    x = np.ones((h.n, 1))
                    spec = LinearizedModelSpec(kind=kind, layers=1)
                    assert np.array_equal(run_linearized(spec, h, x), want @ x)
