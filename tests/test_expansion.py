"""Tests for the expansions and the self-loop normalization.

Expected values are either worked out by hand on two-hyperedge
instances or recomputed by the entrywise loop oracles; the library's
sparse-algebra route must agree with both.
"""

import hashlib
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from hyperprop.core import Hypergraph, _structure_digest, degrees, incidence_matrix
from hyperprop.errors import ContractViolation, DomainError
from hyperprop.expansion import (
    SparseAdjacency,
    _deephgnn_base,
    _star_base,
    _unignn_base,
    normalize_with_self_loops,
    weighted_clique_expansion,
)
from hyperprop.reference import LinearizedModelSpec, ModelKind, unified_equivalent

from oracles import (
    clique_expansion_entrywise,
    deephgnn_entrywise,
    normalize_entrywise,
    random_hypergraph_edges,
    star_entrywise,
    unignn_entrywise,
)

TWO_EDGES = Hypergraph.from_edges([(0, 1, 2), (0, 1)])


def random_h(rng):
    n, edges = random_hypergraph_edges(rng)
    return Hypergraph.from_edges(edges, n=n)


def star_expansion(h):
    """The AllDeepSets / ED-HNN base operator, as `unified_equivalent`
    returns it."""
    w, _ = unified_equivalent(LinearizedModelSpec(kind=ModelKind.ALLDEEPSETS, layers=1), h)
    return w


def scaled_expansion(kind, h, gamma):
    """The model's propagation matrix with its (1 - gamma) prefactor, as
    the papers write it: the unified base operator times (1 - gamma)."""
    w, _ = unified_equivalent(LinearizedModelSpec(kind=kind, layers=1, gamma=gamma), h)
    return (1.0 - gamma) * w.matrix


class TestWeightedCliqueExpansion:
    def test_hand_computed_entries(self):
        # nodes 0,1 share both hyperedges: 1/3 + 1/2; node 2 only the triple
        w = weighted_clique_expansion(TWO_EDGES).matrix.toarray()
        np.testing.assert_allclose(w[0, 1], 5.0 / 6.0, rtol=1e-12)
        np.testing.assert_allclose(w[0, 2], 1.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(w[1, 2], 1.0 / 3.0, rtol=1e-12)

    def test_diagonal_is_zero(self):
        w = weighted_clique_expansion(TWO_EDGES).matrix
        assert w.diagonal().sum() == 0.0

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = random_h(rng)
            got = weighted_clique_expansion(h).matrix.toarray()
            np.testing.assert_allclose(got, clique_expansion_entrywise(h), atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = weighted_clique_expansion(random_h(rng)).matrix
            assert (w != w.T).nnz == 0
            assert w.shape[0] == w.shape[1]

    def test_support_is_shared_hyperedge_relation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = random_h(rng)
            w = weighted_clique_expansion(h).matrix.toarray()
            for i in range(h.n):
                for j in range(h.n):
                    if i == j:
                        continue
                    shares = any(i in e and j in e for e in h.edges)
                    assert (w[i, j] > 0.0) == shares

    def test_adding_a_hyperedge_never_decreases_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            h = random_h(rng)
            size = int(rng.integers(2, min(6, h.n) + 1))
            extra = tuple(sorted(rng.choice(h.n, size=size, replace=False).tolist()))
            h_plus = Hypergraph.from_edges(list(h.edges) + [extra], n=h.n)
            before = weighted_clique_expansion(h).matrix.toarray()
            after = weighted_clique_expansion(h_plus).matrix.toarray()
            assert np.all(after - before >= -1e-15)


class TestUniGnnExpansion:
    def test_single_edge_example(self):
        h = Hypergraph.from_edges([(0, 1)])
        w = scaled_expansion(ModelKind.UNIGCNII, h, 0.5).toarray()
        np.testing.assert_allclose(w[0, 1], 0.25, rtol=1e-12)

    def test_hand_computed_two_edge_entry(self):
        # row 0: degree-2 node; shares the size-3 edge (mean member degree
        # 5/3) and the size-2 edge (mean member degree 2) with node 1
        w = scaled_expansion(ModelKind.UNIGCNII, TWO_EDGES, 0.3).toarray()
        want = 0.7 * (1.0 / (np.sqrt(2.0) * np.sqrt(5.0 / 3.0) * 3.0) + 0.25)
        np.testing.assert_allclose(w[0, 1], want, rtol=1e-12)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(9)
        for gamma in (0.1, 0.5, 0.9):
            h = random_h(rng)
            got = scaled_expansion(ModelKind.UNIGCNII, h, gamma).toarray()
            np.testing.assert_allclose(got, unignn_entrywise(h, gamma), atol=1e-12)

    def test_asymmetric_in_general(self):
        w = scaled_expansion(ModelKind.UNIGCNII, TWO_EDGES, 0.3).toarray()
        assert abs(w[0, 2] - w[2, 0]) > 1e-3


class TestDeepHgnnExpansion:
    def test_hand_computed_entry(self):
        # (1-g) * (1/(sqrt(2)sqrt(2)*3) + 1/(sqrt(2)sqrt(2)*2)) = 0.8 * 5/12
        w = scaled_expansion(ModelKind.DEEPHGNN, TWO_EDGES, 0.2).toarray()
        np.testing.assert_allclose(w[0, 1], 0.8 * 5.0 / 12.0, rtol=1e-12)
        np.testing.assert_allclose(w[2, 2], 0.8 / 3.0, rtol=1e-12)  # diagonal kept

    def test_matches_entrywise_oracle_and_symmetry(self):
        rng = np.random.default_rng(17)
        for gamma in (0.2, 0.6):
            h = random_h(rng)
            got = scaled_expansion(ModelKind.DEEPHGNN, h, gamma)
            np.testing.assert_allclose(got.toarray(), deephgnn_entrywise(h, gamma), atol=1e-12)
            assert (got != got.T).nnz == 0


class TestStarNormExpansion:
    def test_hand_computed_entries(self):
        w = star_expansion(TWO_EDGES).matrix.toarray()
        np.testing.assert_allclose(w[0, 1], 5.0 / 12.0, rtol=1e-12)
        np.testing.assert_allclose(w[2, 0], 1.0 / 3.0, rtol=1e-12)
        np.testing.assert_allclose(w[0, 2], 1.0 / 6.0, rtol=1e-12)

    def test_rows_sum_to_one(self):
        # Rows of covered nodes are stochastic; isolated nodes have no
        # incident hyperedge to average over and stay identically zero.
        rng = np.random.default_rng(23)
        for _ in range(20):
            h = random_h(rng)
            covered = np.bincount(h.indices, minlength=h.n) > 0
            sums = np.asarray(star_expansion(h).matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums[covered], 1.0, atol=1e-12)
            np.testing.assert_allclose(sums[~covered], 0.0, atol=0.0)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            h = random_h(rng)
            np.testing.assert_allclose(
                star_expansion(h).matrix.toarray(), star_entrywise(h), atol=1e-12
            )


class TestNormalizeWithSelfLoops:
    def test_two_node_example(self):
        w = SparseAdjacency(sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]])))
        atilde = normalize_with_self_loops(w).matrix.toarray()
        want = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        np.testing.assert_allclose(atilde, want, rtol=1e-12)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = random_h(rng)
            w = weighted_clique_expansion(h)
            got = normalize_with_self_loops(w)
            assert got.normalized and (got.matrix != got.matrix.T).nnz == 0
            np.testing.assert_allclose(
                got.matrix.toarray(), normalize_entrywise(w.matrix.toarray()), atol=1e-12
            )

    def test_scaled_degree_vector_is_fixed(self):
        """A~ (D~^1/2 1) = D~^1/2 1: the normalized operator preserves the
        square-root degree direction exactly (eigenvalue one)."""
        rng = np.random.default_rng(37)
        for _ in range(20):
            h = random_h(rng)
            w = weighted_clique_expansion(h)
            dtilde = np.asarray(w.matrix.sum(axis=1)).ravel() + 1.0
            v = np.sqrt(dtilde)
            atilde = normalize_with_self_loops(w).matrix
            np.testing.assert_allclose(atilde @ v, v, rtol=1e-12, atol=1e-12)

    def test_spectrum_within_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            h = random_h(rng)
            atilde = normalize_with_self_loops(weighted_clique_expansion(h))
            eigs = np.linalg.eigvalsh(atilde.matrix.toarray())
            assert eigs.min() >= -1.0 - 1e-10
            assert eigs.max() <= 1.0 + 1e-10

    def test_output_is_bitwise_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            h = random_h(rng)
            atilde = normalize_with_self_loops(weighted_clique_expansion(h)).matrix
            assert (atilde != atilde.T).nnz == 0

    def test_rejects_asymmetric_input(self):
        w = star_expansion(TWO_EDGES)  # row-stochastic, not symmetric
        with pytest.raises(ContractViolation):
            normalize_with_self_loops(w)

    def test_rejects_a_matrix_that_is_not_its_transpose(self):
        """Symmetry is read off the matrix: a zero-diagonal W with no
        mirrored entries is refused, as is one whose mirrored entries
        differ in the last bit."""
        w = SparseAdjacency(sp.csr_matrix([[0, 1, 0], [0, 0, 2], [0.5, 0, 0]]))
        with pytest.raises(ContractViolation, match="symmetric adjacency"):
            normalize_with_self_loops(w)
        near = np.array([[0.0, 0.1], [np.nextafter(0.1, 1.0), 0.0]])
        with pytest.raises(ContractViolation, match="symmetric adjacency"):
            normalize_with_self_loops(SparseAdjacency(sp.csr_matrix(near)))

    def test_rejects_nonzero_diagonal(self):
        w = SparseAdjacency(sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.0]])))
        with pytest.raises(ContractViolation):
            normalize_with_self_loops(w)


class TestSparseAdjacency:
    def test_rejects_nonsquare(self):
        from hyperprop.errors import DimensionError

        with pytest.raises(DimensionError):
            SparseAdjacency(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(DomainError):
            SparseAdjacency(sp.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])))
        with pytest.raises(DomainError):
            SparseAdjacency(sp.csr_matrix(np.array([[0.0, np.inf], [1.0, 0.0]])))


class TestStructureTag:
    def test_clique_expansion_carries_the_digest_through_normalization(self):
        h = Hypergraph.from_edges([(0, 1, 2), (2, 3)], n=5)
        w = weighted_clique_expansion(h)
        assert w.structure == _structure_digest(h)
        assert normalize_with_self_loops(w).structure == w.structure
        assert star_expansion(h).structure is None

    def test_digest_follows_the_documented_byte_layout(self):
        h = Hypergraph.from_edges([(3, 1), (), (0, 2, 4)], n=6)
        want = hashlib.sha256(
            struct.pack("<QQ", 6, 3)
            + np.array([2, 0, 3], dtype=np.int64).tobytes()
            + np.array([1, 3, 0, 2, 4], dtype=np.int64).tobytes()
        ).hexdigest()
        assert _structure_digest(h) == want

    def test_digest_separates_structures(self):
        variants = [
            [(0, 1, 2), (2, 3)],
            [(2, 3), (0, 1, 2)],  # edge order
            [(0, 1), (2, 3)],  # a member dropped
            [(0, 1), (2,), (3,)],  # same members, other cuts
            [(0, 1, 2), (2, 3), ()],  # an empty edge
        ]
        digests = {_structure_digest(Hypergraph.from_edges(e, n=5)) for e in variants}
        digests.add(_structure_digest(Hypergraph.from_edges(variants[0], n=6)))  # isolated node
        assert len(digests) == len(variants) + 1
        again = Hypergraph.from_edges([[2, 1, 0], [3, 2]], n=5)
        assert _structure_digest(again) == _structure_digest(Hypergraph.from_edges(variants[0], n=5))


def _scaled_incidence_rebuilt(h, row_scale, col_scale):
    """The former helper, which built the incidence again from ``h``."""
    b = incidence_matrix(h).tocoo()
    data = b.data * (row_scale[b.row] * col_scale[b.col])
    return sp.csr_matrix((data, (b.row, b.col)), shape=b.shape)


def clique_rebuilt(h):
    _, edge = degrees(h)
    b = _scaled_incidence_rebuilt(h, np.ones(h.n), 1.0 / np.sqrt(edge))
    w = (b @ b.T).tocsr()
    w.setdiag(0.0)
    w.eliminate_zeros()
    return SparseAdjacency(matrix=w).matrix


def unignn_rebuilt(h):
    node, edge = degrees(h)
    b = incidence_matrix(h)
    dtilde = np.asarray(b.T @ node).ravel() / edge
    dtilde[dtilde == 0.0] = 1.0
    left = _scaled_incidence_rebuilt(h, 1.0 / np.sqrt(node), 1.0 / (np.sqrt(dtilde) * edge))
    return (left @ b.T).tocsr()


def deephgnn_rebuilt(h):
    node, edge = degrees(h)
    b = _scaled_incidence_rebuilt(h, 1.0 / np.sqrt(node), 1.0 / np.sqrt(edge))
    return (b @ b.T).tocsr()


def star_rebuilt(h):
    node, edge = degrees(h)
    left = _scaled_incidence_rebuilt(h, 1.0 / node, 1.0 / edge)
    return (left @ incidence_matrix(h).T).tocsr()


class TestOneIncidenceBuild:
    """Each builder builds the incidence once and hands it to the scaling
    step; the CSR arrays equal those of the former route, which built it
    a second time, bit for bit."""

    BUILDERS = [
        (lambda h: weighted_clique_expansion(h).matrix, clique_rebuilt),
        (_unignn_base, unignn_rebuilt),
        (_deephgnn_base, deephgnn_rebuilt),
        (_star_base, star_rebuilt),
    ]

    @pytest.mark.parametrize("index", range(4))
    def test_csr_arrays_unchanged(self, index):
        build, rebuilt = self.BUILDERS[index]
        rng = np.random.default_rng(40 + index)
        cases = [TWO_EDGES, Hypergraph.from_edges([(0, 1), (), (1, 2, 3)], n=6)]
        cases += [random_h(rng) for _ in range(25)]
        for h in cases:
            got, want = build(h), rebuilt(h)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
