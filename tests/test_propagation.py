"""Tests for the propagation operator, its recurrence, and its limits."""

import dataclasses
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hyperprop.propagation as propagation
from hyperprop.core import Hypergraph, _structure_digest, khop_neighbours
from hyperprop.errors import (
    BoundsError,
    ContractViolation,
    DimensionError,
    DomainError,
    ParseError,
    ResourceLimitError,
)
from hyperprop.expansion import (
    SparseAdjacency,
    normalize_with_self_loops,
    weighted_clique_expansion,
)
from hyperprop.propagation import (
    DENSE_CAP,
    PropagatedFeatures,
    PropagationConfig,
    _dense_polynomial,
    closed_form_limit,
    energy,
    load_propagated,
    materialize_operator,
    operator_support,
    propagate,
    save_propagated,
)
from hyperprop.reference import LinearizedModelSpec, ModelKind, unified_equivalent

from oracles import propagation_polynomial, random_hypergraph_edges


def random_atilde(rng, **kw):
    n, edges = random_hypergraph_edges(rng, **kw)
    h = Hypergraph.from_edges(edges, n=n)
    return h, normalize_with_self_loops(weighted_clique_expansion(h))


def over_cap_atilde():
    """A normalized operator one node past the dense size cap."""
    h = Hypergraph.from_edges([(0, 1)], n=DENSE_CAP + 1)
    return normalize_with_self_loops(weighted_clique_expansion(h))


def literal_recurrence(atilde, x, layers, alpha):
    z = x
    for _ in range(layers):
        z = (1.0 - alpha) * (atilde.matrix @ z) + alpha * x
    return z


# the normalized clique expansion of the one hyperedge {0, 1}, with its tag
TWO_NODE = SparseAdjacency(
    sp.csr_matrix(np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])),
    normalized=True,
    structure=_structure_digest(Hypergraph.from_edges([(0, 1)])),
)


class TestPropagationConfig:
    def test_domains(self):
        PropagationConfig(layers=0, alpha=0.0)  # both boundaries are legal
        with pytest.raises(DomainError):
            PropagationConfig(layers=-1, alpha=0.3)
        for layers in (True, 1.5):  # True was one layer, 1.5 a bare TypeError in propagate
            message = f"layers must be a nonnegative integer, got {layers!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                PropagationConfig(layers=layers, alpha=0.3)
        with pytest.raises(DomainError):
            PropagationConfig(layers=2, alpha=1.0)
        with pytest.raises(DomainError):
            PropagationConfig(layers=2, alpha=-0.1)


class TestPropagateRecurrence:
    def test_zero_layers_is_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3))
        out = propagate(TWO_NODE, x, PropagationConfig(layers=0, alpha=0.5))
        np.testing.assert_array_equal(out.matrix, x)

    def test_single_layer_hand_value(self):
        # S = 0.3 I + 0.7 A~ on the two-node operator
        x = np.eye(2)
        out = propagate(TWO_NODE, x, PropagationConfig(layers=1, alpha=0.3)).matrix
        want = 0.3 * np.eye(2) + 0.7 * TWO_NODE.matrix.toarray()
        np.testing.assert_allclose(out, want, rtol=1e-15)

    def test_alpha_zero_is_pure_power(self):
        rng = np.random.default_rng(1)
        _, atilde = random_atilde(rng)
        x = rng.standard_normal((atilde.n, 4))
        out = propagate(atilde, x, PropagationConfig(layers=3, alpha=0.0)).matrix
        a = atilde.matrix.toarray()
        np.testing.assert_allclose(out, a @ (a @ (a @ x)), rtol=1e-12, atol=1e-14)

    def test_recurrence_equals_materialized_polynomial(self):
        """The cheap recurrence and the explicit operator polynomial are
        the same function, to near machine precision."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            _, atilde = random_atilde(rng, n_range=(4, 50))
            x = rng.standard_normal((atilde.n, 6))
            for alpha in (0.0, 0.3, 0.7):
                for layers in (0, 1, 2, 5, 10):
                    cfg = PropagationConfig(layers=layers, alpha=alpha)
                    via_recurrence = propagate(atilde, x, cfg).matrix
                    via_operator = materialize_operator(atilde, cfg) @ x
                    denom = max(np.linalg.norm(via_operator), 1e-300)
                    rel = np.linalg.norm(via_recurrence - via_operator) / denom
                    assert rel <= 1e-12

    def test_matches_independent_polynomial_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, atilde = random_atilde(rng)
            x = rng.standard_normal((atilde.n, 3))
            cfg = PropagationConfig(layers=4, alpha=0.4)
            want = propagation_polynomial(atilde.matrix.toarray(), 0.4, 4) @ x
            np.testing.assert_allclose(propagate(atilde, x, cfg).matrix, want, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        _, atilde = random_atilde(rng)
        cfg = PropagationConfig(layers=3, alpha=0.3)
        x = rng.standard_normal((atilde.n, 3))
        y = rng.standard_normal((atilde.n, 3))
        combo = propagate(atilde, 2.0 * x - 0.5 * y, cfg).matrix
        parts = 2.0 * propagate(atilde, x, cfg).matrix - 0.5 * propagate(atilde, y, cfg).matrix
        np.testing.assert_allclose(combo, parts, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("width", ["one", "rule", "all"])
    def test_bit_identical_to_the_literal_recurrence(self, monkeypatch, width):
        """Panels of one column, of `_panel_width`'s width (neither 1 nor
        d here) and of all d columns give the literal recurrence's bits."""
        rng = np.random.default_rng(7)
        n, d = 1500, 1000
        edges = {tuple(sorted(rng.choice(n, size=int(rng.integers(2, 6)), replace=False)))
                 for _ in range(900)}
        atilde = normalize_with_self_loops(
            weighted_clique_expansion(Hypergraph.from_edges(sorted(edges), n=n))
        )
        rule = propagation._panel_width(n, atilde.matrix.nnz)
        assert 1 < rule < d and d % rule != 0
        cols = {"one": 1, "rule": rule, "all": d}[width]
        monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: cols)
        x = rng.standard_normal((n, d))
        for layers, alpha in ((1, 0.3), (3, 0.15)):
            z = x
            for _ in range(layers):
                z = (1.0 - alpha) * (atilde.matrix @ z) + alpha * x
            got = propagate(atilde, x, PropagationConfig(layers=layers, alpha=alpha)).matrix
            assert np.array_equal(got, z)

    @pytest.mark.parametrize(
        "operator",
        [
            weighted_clique_expansion(Hypergraph.from_edges([(0, 1)])),  # not normalized
            dataclasses.replace(TWO_NODE, structure=None),  # normalized, but untagged
        ],
        ids=["unnormalized", "untagged"],
    )
    def test_requires_normalized_operator(self, operator):
        """Either operator is refused before ``x`` is read or written,
        so under ``out=x`` the features stay as they were."""
        x = np.arange(6.0).reshape(2, 3)
        before = x.copy()
        with pytest.raises(ContractViolation):
            propagate(operator, x, PropagationConfig(layers=1, alpha=0.3), out=x)
        assert np.array_equal(x, before)

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(DimensionError):
            propagate(TWO_NODE, np.zeros((3, 1)), PropagationConfig(layers=1, alpha=0.3))
        with pytest.raises(DomainError):
            propagate(
                TWO_NODE, np.array([[np.nan], [0.0]]), PropagationConfig(layers=1, alpha=0.3)
            )


class TestColumnPanels:
    """`propagate` runs the recurrence one column panel at a time.  The
    panel width is fixed here so that a 40-node operator gets panels of
    WIDTH columns."""

    WIDTH = 3

    @pytest.fixture()
    def atilde(self, monkeypatch):
        _, atilde = random_atilde(np.random.default_rng(20), n_range=(40, 40), m_range=(30, 30))
        monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: self.WIDTH)
        return atilde

    @pytest.mark.parametrize("d", [0, 1, WIDTH - 1, WIDTH, WIDTH + 1, 3 * WIDTH + 2])
    def test_bit_identical_to_the_literal_recurrence_at_any_width(self, atilde, d):
        x = np.random.default_rng(d).standard_normal((atilde.n, d))
        for layers in range(4):
            got = propagate(atilde, x, PropagationConfig(layers=layers, alpha=0.3)).matrix
            assert got.shape == x.shape
            assert np.array_equal(got, literal_recurrence(atilde, x, layers, 0.3))

    def test_width_rule(self):
        """The wider of the three-arrays-in-_BLOCK_BYTES width and
        0.6 nnz / n, and at least one column."""
        assert propagation._panel_width(3312, 14_406) == 26  # cocite-wide: the budget's
        assert propagation._panel_width(172_000, 3_407_396) == 11  # Trivago shape: the stream's
        assert propagation._panel_width(10**7, 10**7) == 1
        assert propagation._panel_width(1, 1) == propagation._BLOCK_BYTES // 24

    def test_single_node(self, monkeypatch):
        atilde = normalize_with_self_loops(weighted_clique_expansion(Hypergraph.from_edges([], n=1)))
        monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: 2)
        x = np.random.default_rng(21).standard_normal((1, 5))
        for layers in range(4):
            got = propagate(atilde, x, PropagationConfig(layers=layers, alpha=0.4)).matrix
            assert np.array_equal(got, literal_recurrence(atilde, x, layers, 0.4))

    def test_output_does_not_alias_the_features(self, atilde):
        x = np.ones((atilde.n, 2))
        out = propagate(atilde, x, PropagationConfig(layers=0, alpha=0.3)).matrix
        out[0, 0] = 5.0
        assert x[0, 0] == 1.0

    def test_worker_count_changes_no_byte(self, atilde, monkeypatch):
        x = np.random.default_rng(22).standard_normal((atilde.n, 4 * self.WIDTH + 1))
        cfg = PropagationConfig(layers=3, alpha=0.2)
        results = []
        for workers in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=workers: set(range(k)))
            pf = propagate(atilde, x, cfg)
            results.append((pf.matrix.tobytes(), pf.provenance))
        assert results[0] == results[1]
        assert results[0][0] == literal_recurrence(atilde, x, 3, 0.2).tobytes()

    @pytest.mark.parametrize("layers", [0, 2])
    def test_nan_in_the_last_column_is_a_domain_error(self, atilde, layers):
        x = np.zeros((atilde.n, 3 * self.WIDTH + 1))
        x[-1, -1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            propagate(atilde, x, PropagationConfig(layers=layers, alpha=0.3))

    def test_no_thread_outlives_the_call(self, atilde):
        before = threading.active_count()
        x = np.ones((atilde.n, 4 * self.WIDTH))
        propagate(atilde, x, PropagationConfig(layers=2, alpha=0.3))
        assert threading.active_count() == before
        x[0, 0] = np.inf
        with pytest.raises(DomainError):
            propagate(atilde, x, PropagationConfig(layers=2, alpha=0.3))
        assert threading.active_count() == before


    def test_a_failing_panel_cancels_the_queued_ones(self, atilde, monkeypatch):
        """A NaN in the first of 16 panels raises without running the
        panels still queued, and every worker thread is joined."""
        panels = 16
        x = np.ones((atilde.n, panels * self.WIDTH))
        x[0, 0] = np.nan
        calls = []
        real_panel = propagation._panel

        def slow_panel(*args):
            calls.append(args[2])
            time.sleep(0.02)
            return real_panel(*args)

        monkeypatch.setattr(propagation, "_panel", slow_panel)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        before = threading.active_count()
        with pytest.raises(DomainError, match="non-finite"):
            propagate(atilde, x, PropagationConfig(layers=2, alpha=0.3))
        assert len(calls) < panels
        assert threading.active_count() == before


class TestInPlace:
    """`propagate(..., out=x)` writes Z^L over the features themselves."""

    @pytest.fixture()
    def atilde(self):
        _, atilde = random_atilde(np.random.default_rng(23), n_range=(40, 40), m_range=(30, 30))
        return atilde

    @pytest.mark.parametrize("width", [None, 3])  # one panel; panels of 3 columns
    @pytest.mark.parametrize("layers", [0, 3])
    def test_equals_the_default(self, atilde, monkeypatch, width, layers):
        if width:
            monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: width)
        x = np.random.default_rng(24).standard_normal((atilde.n, 11))
        cfg = PropagationConfig(layers=layers, alpha=0.3)
        want = propagate(atilde, x, cfg)
        got = propagate(atilde, x, cfg, out=x)
        assert got.matrix is x
        assert x.tobytes() == want.matrix.tobytes()
        assert (got.provenance, got.structure) == (want.provenance, want.structure)

    def test_hash_reads_the_features_before_any_panel_writes(self, atilde, monkeypatch):
        """A slow feature hash on four workers: the panels wait for it
        before writing, so the provenance is that of the raw features."""
        monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        real_provenance = propagation._provenance

        def slow_provenance(x, structure, cfg):
            time.sleep(0.05)
            return real_provenance(x, structure, cfg)

        monkeypatch.setattr(propagation, "_provenance", slow_provenance)
        x = np.random.default_rng(25).standard_normal((atilde.n, 12))
        cfg = PropagationConfig(layers=2, alpha=0.3)
        want = propagate(atilde, x, cfg)
        got = propagate(atilde, x, cfg, out=x)
        assert got.provenance == want.provenance
        assert np.array_equal(x, want.matrix)

    @pytest.mark.parametrize("width", [None, 3])
    def test_non_finite_entry_is_a_domain_error(self, atilde, monkeypatch, width):
        if width:
            monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: width)
        x = np.zeros((atilde.n, 10))
        x[-1, -1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            propagate(atilde, x, PropagationConfig(layers=2, alpha=0.3), out=x)

    def test_unusable_output_is_refused(self, atilde):
        """``out`` is the features themselves or nothing: a separate
        array, even an equal one, is refused, and so are features that
        ``propagate`` would first have to convert or could not write."""
        cfg = PropagationConfig(layers=1, alpha=0.3)
        x = np.ones((atilde.n, 4))
        read_only = np.ones_like(x)
        read_only.flags.writeable = False
        for out in (np.ones_like(x), np.empty_like(x), x[:]):
            with pytest.raises(ContractViolation):
                propagate(atilde, x, cfg, out=out)
        for features in (
            np.ones_like(x, dtype=np.float32),
            np.asfortranarray(np.ones_like(x)),
            read_only,
            np.ones((atilde.n, 4), dtype=np.int64),
        ):
            with pytest.raises(ContractViolation):
                propagate(atilde, features, cfg, out=features)
        assert np.array_equal(x, np.ones_like(x))

    def test_peak_memory_is_a_quarter_of_the_features(self, monkeypatch):
        """With 64 panels on two workers, `propagate(..., out=x)`
        allocates at most 0.25x the bytes of x at its peak: the panels in
        flight and the adjacency hash's index copies, no second matrix.
        The default, which allocates its output, needs more than x."""
        rng = np.random.default_rng(27)
        n, d = 2000, 512
        edges = [
            tuple(rng.choice(n, size=int(rng.integers(2, 5)), replace=False)) for _ in range(1000)
        ]
        h = Hypergraph.from_edges(edges, n=n)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        monkeypatch.setattr(propagation, "_panel_width", lambda n, nnz: d // 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = PropagationConfig(layers=2, alpha=0.3)
        peaks = []
        for in_place in (False, True):
            x = rng.standard_normal((n, d))
            tracemalloc.start()
            try:
                propagate(atilde, x, cfg, out=x if in_place else None)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[0] >= x.nbytes, peaks[0] / x.nbytes
        assert peaks[1] <= 0.25 * x.nbytes, peaks[1] / x.nbytes


def test_importing_the_cli_starts_no_thread():
    code = "import threading, hyperprop.cli; print(threading.active_count())"
    paths = [str(Path(propagation.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


class TestProvenance:
    def test_deterministic_and_input_sensitive(self):
        rng = np.random.default_rng(5)
        _, atilde = random_atilde(rng)
        x = rng.standard_normal((atilde.n, 3))
        cfg = PropagationConfig(layers=2, alpha=0.3)
        a = propagate(atilde, x, cfg)
        b = propagate(atilde, x, cfg)
        assert a.provenance == b.provenance
        assert a.structure == b.structure
        c = propagate(atilde, x, PropagationConfig(layers=2, alpha=0.4))
        assert c.provenance != a.provenance
        d = propagate(atilde, x + 1.0, cfg)
        assert d.provenance != a.provenance

    def test_digests_follow_the_documented_byte_layout(self):
        # sha256 over the shape, the raw bytes of x (a transposed view, so
        # the digest sees its C-order copy), the operator's digest and the
        # config; the operator's digest is the structure digest of the
        # hypergraph it was built from.
        import hashlib
        import struct

        rng = np.random.default_rng(8)
        h, atilde = random_atilde(rng)
        x = rng.standard_normal((4, atilde.n)).T
        cfg = PropagationConfig(layers=2, alpha=0.3)
        pf = propagate(atilde, x, cfg)
        adj = _structure_digest(h)
        assert pf.structure == adj
        prov = hashlib.sha256(
            struct.pack("<QQ", *x.shape)
            + np.ascontiguousarray(x).tobytes()
            + bytes.fromhex(adj)
            + struct.pack("<Qd", 2, 0.3)
        ).hexdigest()
        assert pf.provenance == prov


class TestMaterializeOperator:
    def test_row_sums_behave_like_convex_mix(self):
        # S applied to scaled degree vector: each polynomial term fixes it
        rng = np.random.default_rng(6)
        h, atilde = random_atilde(rng)
        w = weighted_clique_expansion(h)
        v = np.sqrt(np.asarray(w.matrix.sum(axis=1)).ravel() + 1.0)
        s = materialize_operator(atilde, PropagationConfig(layers=4, alpha=0.25))
        np.testing.assert_allclose(s @ v, v, rtol=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            materialize_operator(over_cap_atilde(), PropagationConfig(layers=1, alpha=0.3))

    def test_support_equals_khop_neighbourhoods(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n, edges = random_hypergraph_edges(rng)
            h = Hypergraph.from_edges(edges, n=n)
            atilde = normalize_with_self_loops(weighted_clique_expansion(h))
            for layers in (1, 2, 3):
                s = materialize_operator(atilde, PropagationConfig(layers=layers, alpha=0.3))
                got = operator_support(s)
                want = {(i, j) for i in range(h.n) for j in khop_neighbours(h, i, layers)}
                assert got == want

    def test_bit_identical_to_both_former_evaluators(self):
        """The one dense evaluator equals, bit for bit, the loop that
        materialize_operator ran before and the one verify ran on a raw
        reference base."""

        def former_materialize(a, alpha, layers):
            n = a.shape[0]
            power = np.eye(n)
            s = alpha * np.eye(n) if layers > 0 else np.eye(n)
            for l in range(1, layers):
                power = power @ a
                s = s + alpha * (1.0 - alpha) ** l * power
            if layers > 0:
                power = power @ a
                s = s + (1.0 - alpha) ** layers * power
            return s

        def former_unified(w, alpha, layers):
            n = w.shape[0]
            s = np.zeros((n, n))
            power = np.eye(n)
            for l in range(layers):
                s += alpha * (1.0 - alpha) ** l * power
                power = power @ w
            return s + (1.0 - alpha) ** layers * power

        rng = np.random.default_rng(9)
        for _ in range(40):
            h, atilde = random_atilde(rng)
            a = atilde.matrix.toarray()
            star, _ = unified_equivalent(LinearizedModelSpec(ModelKind.ALLDEEPSETS, 1), h)
            raw = star.matrix.toarray()
            for alpha in (0.0, 0.1, 0.3, 0.7):
                every_depth = list(_dense_polynomial(raw, alpha, 5))  # one pass, S_0 ... S_5
                for layers in range(6):
                    got = materialize_operator(atilde, PropagationConfig(layers, alpha))
                    assert np.array_equal(got, former_materialize(a, alpha, layers))
                    assert np.array_equal(every_depth[layers], former_unified(raw, alpha, layers))

    def test_peak_is_four_dense_matrices_at_any_depth(self):
        """The dense W, the running sum, the power and one product or
        term: the depths before the last are dropped as they are made."""
        n = 300
        rng = np.random.default_rng(10)
        h = Hypergraph.from_edges((rng.choice(n, size=4, replace=False) for _ in range(200)), n=n)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        for layers in (1, 5):
            tracemalloc.start()
            try:
                materialize_operator(atilde, PropagationConfig(layers=layers, alpha=0.3))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4.1 * n * n * 8, peak / (n * n * 8)

    def test_operator_support_validation(self):
        with pytest.raises(DimensionError):
            operator_support(np.zeros((2, 3)))


class TestEnergyAndLimit:
    def test_closed_form_hand_value(self):
        # alpha=0.5 on the two-node operator: (I - 0.5 A~)^-1 has rows
        # [1.6, 0.4] / [0.4, 1.6]; X* for X0 = e0 is (0.8, 0.2)
        x0 = np.array([[1.0], [0.0]])
        want = np.array([[0.8], [0.2]])
        np.testing.assert_allclose(closed_form_limit(TWO_NODE, x0, 0.5), want, rtol=1e-12)

    def test_limit_solves_fixed_point(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            _, atilde = random_atilde(rng, n_range=(5, 50))
            x0 = rng.standard_normal((atilde.n, 8))
            for alpha in (0.1, 0.3, 0.9):
                star = closed_form_limit(atilde, x0, alpha)
                lhs = star - (1.0 - alpha) * (atilde.matrix @ star)
                np.testing.assert_allclose(lhs, alpha * x0, rtol=1e-9, atol=1e-12)

    def test_deep_propagation_converges_to_limit_geometrically(self):
        rng = np.random.default_rng(9)
        _, atilde = random_atilde(rng, n_range=(10, 40))
        x0 = rng.standard_normal((atilde.n, 8))
        alpha = 0.3
        star = closed_form_limit(atilde, x0, alpha)
        errs = []
        for layers in (5, 10, 20):
            deep = propagate(atilde, x0, PropagationConfig(layers=layers, alpha=alpha)).matrix
            errs.append(np.linalg.norm(deep - star) / np.linalg.norm(star))
        # each extra 5 layers shrinks the error by at least (1-alpha)^5
        assert errs[1] <= errs[0] * (1 - alpha) ** 5 * 1.01
        assert errs[2] <= errs[1] * (1 - alpha) ** 10 * 1.01
        deep = propagate(atilde, x0, PropagationConfig(layers=500, alpha=alpha)).matrix
        assert np.linalg.norm(deep - star) / np.linalg.norm(star) <= 1e-6

    def test_limit_minimizes_energy(self):
        rng = np.random.default_rng(10)
        _, atilde = random_atilde(rng, n_range=(5, 30))
        x0 = rng.standard_normal((atilde.n, 4))
        star = closed_form_limit(atilde, x0, 0.3)
        f_star = energy(atilde, star, x0, 0.3)
        for _ in range(50):
            probe = star + rng.standard_normal(star.shape) * rng.uniform(0.01, 10.0)
            assert energy(atilde, probe, x0, 0.3) >= f_star - 1e-9

    def test_energy_matches_dense_formula(self):
        rng = np.random.default_rng(11)
        _, atilde = random_atilde(rng)
        x = rng.standard_normal((atilde.n, 3))
        x0 = rng.standard_normal((atilde.n, 3))
        lap = np.eye(atilde.n) - atilde.matrix.toarray()
        want = np.trace(x.T @ lap @ x) + 0.25 / 0.75 * np.sum((x - x0) ** 2)
        np.testing.assert_allclose(energy(atilde, x, x0, 0.25), want, rtol=1e-10)

    def test_energy_refuses_features_that_are_not_a_matrix(self):
        """1-d features once gave a number, and 3-d ones a scipy ValueError."""
        x = np.zeros((2, 1))
        for bad in (np.zeros(2), np.zeros((2, 1, 1)), np.zeros((3, 1))):
            for args in ((bad, x), (x, bad)):
                with pytest.raises(DimensionError, match=r"features must be \(2, d\), got"):
                    energy(TWO_NODE, *args, 0.3)
        with pytest.raises(DimensionError, match="shape mismatch"):
            energy(TWO_NODE, x, np.zeros((2, 2)), 0.3)

    def test_alpha_zero_has_no_anchor(self):
        x = np.zeros((2, 1))
        with pytest.raises(DomainError):
            energy(TWO_NODE, x, x, 0.0)
        with pytest.raises(DomainError):
            closed_form_limit(TWO_NODE, x, 0.0)

    def test_cap_enforced(self):
        atilde = over_cap_atilde()
        with pytest.raises(ResourceLimitError):
            closed_form_limit(atilde, np.ones((atilde.n, 2)), 0.3)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        _, atilde = random_atilde(rng)
        x = rng.standard_normal((atilde.n, 5))
        pf = propagate(atilde, x, PropagationConfig(layers=3, alpha=0.6))
        path = tmp_path / "propagated.tfhn"
        from hyperprop.propagation import save_propagated

        save_propagated(path, pf)
        again = load_propagated(path)
        np.testing.assert_array_equal(again.matrix, pf.matrix)
        assert again.config == pf.config
        assert again.provenance == pf.provenance
        assert again.structure == pf.structure

    def test_structure_tag_is_carried_and_saved(self, tmp_path):
        from hyperprop.propagation import save_propagated

        h = Hypergraph.from_edges([(0, 1, 2), (2, 3)], n=4)
        pf = propagate(
            normalize_with_self_loops(weighted_clique_expansion(h)),
            np.ones((4, 2)),
            PropagationConfig(layers=1, alpha=0.3),
        )
        assert pf.structure == _structure_digest(h)
        path = tmp_path / "tagged.tfhn"
        save_propagated(path, pf)
        assert load_propagated(path).structure == _structure_digest(h)
        assert load_propagated(path, rows=[2]).structure == _structure_digest(h)
        assert path.read_bytes()[-48:-16] == bytes.fromhex(_structure_digest(h))

    def test_round_trip_of_zero_width_features(self, tmp_path):
        from hyperprop.propagation import save_propagated

        pf = propagate(TWO_NODE, np.ones((2, 0)), PropagationConfig(layers=1, alpha=0.3))
        path = tmp_path / "f.tfhn"
        save_propagated(path, pf)
        again = load_propagated(path)
        assert again.matrix.shape == (2, 0)
        assert again.provenance == pf.provenance

    def test_failed_save_leaves_no_file(self, tmp_path):
        pf = propagate(TWO_NODE, np.ones((2, 3)), PropagationConfig(layers=1, alpha=0.3))
        broken = dataclasses.replace(pf, provenance="not hex")  # fails after the payload
        with pytest.raises(ValueError):
            save_propagated(tmp_path / "f.tfhn", broken)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        pf = propagate(TWO_NODE, np.ones((2, 3)), PropagationConfig(layers=1, alpha=0.3))
        path = tmp_path / "f.tfhn"
        save_propagated(path, pf)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_propagated(path, dataclasses.replace(pf, provenance="not hex"))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_header_layout(self, tmp_path):
        pf = propagate(TWO_NODE, np.ones((2, 3)), PropagationConfig(layers=1, alpha=0.3))
        path = tmp_path / "f.tfhn"
        from hyperprop.propagation import save_propagated

        save_propagated(path, pf)
        blob = path.read_bytes()
        assert blob[:4] == b"TFH2"
        assert int.from_bytes(blob[4:12], "little") == 2
        assert int.from_bytes(blob[12:20], "little") == 3

    @pytest.mark.parametrize("magic", [b"NOPE", b"TFHN"], ids=["garbage", "old-format"])
    def test_bad_magic_and_truncation(self, tmp_path, magic):
        """A file with a foreign magic, or with the magic of the format
        whose footer held a CSR hash of the operator, is refused whole."""
        path = tmp_path / "f.tfhn"
        pf = propagate(TWO_NODE, np.ones((2, 1)), PropagationConfig(layers=1, alpha=0.3))
        from hyperprop.propagation import save_propagated

        save_propagated(path, pf)
        blob = path.read_bytes()
        for damaged in (magic + b"\x00" * 32, magic + blob[4:]):
            path.write_bytes(damaged)
            with pytest.raises(ParseError, match=re.escape(f"bad magic {magic!r}")):
                load_propagated(path)
        path.write_bytes(blob[:-4])
        with pytest.raises(ParseError, match="expected"):
            load_propagated(path)
        path.write_bytes(blob + b"\x00")  # trailing bytes
        with pytest.raises(ParseError, match="expected"):
            load_propagated(path)
        path.write_bytes(blob[:12])  # magic, then half a header
        with pytest.raises(ParseError, match="header"):
            load_propagated(path)

    def test_huge_claimed_shape_is_a_parse_error_not_an_allocation(self, tmp_path):
        """The size check runs before the matrix is allocated, so a
        corrupt header cannot ask for 2**40 rows."""
        path = tmp_path / "f.tfhn"
        path.write_bytes(b"TFH2" + struct.pack("<QQ", 2**40, 3703) + b"\x00" * 80)
        with pytest.raises(ParseError, match="expected"):
            load_propagated(path)

    def test_short_read_is_a_parse_error(self, tmp_path, monkeypatch):
        """A payload that ends before its chunk is full is a ParseError,
        even when the file's reported size passes the size check, as for
        a file cut after that check.  The file loses 83 payload bytes
        while `os.fstat` reports its full size; the footer's 80 bytes take
        the payload's place, so the one chunk comes up 3 bytes short."""
        from hyperprop.propagation import save_propagated

        path = tmp_path / "cut.tfhn"
        pf = PropagatedFeatures(
            matrix=np.arange(12.0).reshape(4, 3),
            config=PropagationConfig(layers=1, alpha=0.5),
            provenance="ab" * 32,
            structure="cd" * 32,
        )
        save_propagated(path, pf)
        blob = path.read_bytes()
        full = len(blob)
        path.write_bytes(blob[: 4 + 16 + 96 - 83] + blob[-80:])
        real = os.fstat
        monkeypatch.setattr(
            propagation.os, "fstat", lambda fd: os.stat_result((*real(fd)[:6], full, *real(fd)[7:]))
        )
        with pytest.raises(ParseError, match=re.escape("cut.tfhn: file ended 3 bytes early")):
            load_propagated(path)
        path.write_bytes(blob)  # the whole file, under the same patch, loads
        assert load_propagated(path).matrix.tobytes() == pf.matrix.tobytes()


class TestLoadRows:
    """`load_propagated(path, rows=r)` reads the payload once, in chunks,
    and keeps only the rows ``r``, in that order."""

    @pytest.fixture()
    def saved(self, tmp_path, monkeypatch):
        monkeypatch.setattr(propagation, "_BLOCK_BYTES", 16 * 5 * 7)  # chunks of 7 rows
        pf = PropagatedFeatures(
            matrix=np.random.default_rng(28).standard_normal((40, 5)),
            config=PropagationConfig(layers=2, alpha=0.3),
            provenance="ab" * 32,
            structure="cd" * 32,
        )
        path = tmp_path / "f.tfhn"
        save_propagated(path, pf)
        return path, pf

    @pytest.mark.parametrize(
        "rows",
        [
            list(range(40)),
            [39, 0, 7, 6, 13, 14, 21],  # both ends and every chunk boundary
            np.random.default_rng(29).permutation(40)[:17],
            np.array([3], dtype=np.int32),
            np.arange(34, 40, dtype=np.uint16),
            np.array([], dtype=np.int64),
        ],
    )
    def test_equals_the_whole_matrix_indexed(self, saved, rows):
        path, pf = saved
        got = load_propagated(path, rows=rows)
        assert got.matrix.flags.c_contiguous
        want = load_propagated(path).matrix[np.asarray(rows, dtype=int)]
        assert got.matrix.tobytes() == want.tobytes()
        assert (got.config, got.provenance, got.structure) == (
            pf.config,
            pf.provenance,
            pf.structure,
        )

    def test_zero_width_rows(self, tmp_path):
        pf = propagate(TWO_NODE, np.ones((2, 0)), PropagationConfig(layers=1, alpha=0.3))
        save_propagated(tmp_path / "f.tfhn", pf)
        assert load_propagated(tmp_path / "f.tfhn", rows=[1]).matrix.shape == (1, 0)

    def test_bad_rows(self, saved):
        path, _ = saved
        for rows in ([40], [-1], [0, 40]):
            with pytest.raises(BoundsError):
                load_propagated(path, rows=rows)
        with pytest.raises(BoundsError, match=f"rows must fit in int64, got {2**64 - 1}"):
            load_propagated(path, rows=np.array([0, 2**64 - 1], np.uint64))
        with pytest.raises(DomainError, match="distinct"):
            load_propagated(path, rows=[5, 2, 5])
        with pytest.raises(DimensionError, match=re.escape("rows must be 1-d, got shape (1, 2)")):
            load_propagated(path, rows=[[0, 1]])
        for rows, dtype in (([0.0, 1.0], "float64"), ([True], "bool")):
            with pytest.raises(DomainError, match=f"rows must hold integers, got dtype {dtype}"):
                load_propagated(path, rows=rows)

    def test_damaged_file_is_a_parse_error(self, saved):
        path, _ = saved
        blob = path.read_bytes()
        for damaged in (blob[:-4], blob + b"\x00", b"NOPE" + blob[4:], blob[:12]):
            path.write_bytes(damaged)
            with pytest.raises(ParseError):
                load_propagated(path, rows=[0, 1])

    def test_peak_memory_is_the_rows_and_one_chunk(self, tmp_path):
        """Half the rows of a 12 MB matrix, in random order, allocate at
        most the selected rows plus one `_BLOCK_BYTES` chunk plus 24
        bytes of index per selected row and 64 KiB: no copy of the
        whole payload."""
        rng = np.random.default_rng(30)
        pf = PropagatedFeatures(
            matrix=rng.standard_normal((3000, 512)),
            config=PropagationConfig(layers=2, alpha=0.3),
            provenance="ab" * 32,
            structure="cd" * 32,
        )
        path = tmp_path / "f.tfhn"
        save_propagated(path, pf)
        rows = rng.permutation(3000)[:1500]
        selected = rows.size * 512 * 8
        tracemalloc.start()
        try:
            got = load_propagated(path, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.matrix, pf.matrix[rows])
        allowance = 24 * rows.size + (64 << 10)
        chunk = propagation._BLOCK_BYTES
        assert peak <= selected + chunk + allowance, (peak - selected) / chunk
