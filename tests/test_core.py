"""Tests for the hypergraph container, degrees, distances, and loaders."""

import numpy as np
import pytest

from hyperprop.core import (
    Hypergraph,
    LabelVector,
    degrees,
    incidence_matrix,
    khop_neighbours,
    load_features,
    load_hypergraph,
    load_labels,
    save_features,
    save_hypergraph,
    save_labels,
)
from hyperprop.errors import BoundsError, DimensionError, DomainError, ParseError

from oracles import bfs_khop, random_hypergraph_edges


class TestHypergraph:
    def test_two_edge_example(self):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 1)])
        assert h.n == 3 and h.m == 2
        assert h.edges == ((0, 1, 2), (0, 1))
        assert h.memberships == ((0, 1), (0, 1), (0,))

    def test_edges_are_sorted_and_canonical(self):
        h = Hypergraph.from_edges([(2, 0, 1), [5, 3]])
        assert h.edges == ((0, 1, 2), (3, 5))

    def test_declared_n_allows_isolated_nodes(self):
        h = Hypergraph.from_edges([(0, 1)], n=4)
        assert h.n == 4
        assert h.memberships[3] == ()

    def test_node_id_beyond_declared_n(self):
        with pytest.raises(BoundsError):
            Hypergraph.from_edges([(0, 5)], n=3)

    def test_duplicate_member_rejected(self):
        with pytest.raises(DomainError):
            Hypergraph.from_edges([(1, 1, 2)])

    def test_negative_node_id_rejected(self):
        with pytest.raises(BoundsError):
            Hypergraph.from_edges([(-1, 2)])

    def test_incidence_matrix(self):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 1)])
        want = np.array([[1, 1], [1, 1], [1, 0]], dtype=float)
        np.testing.assert_array_equal(incidence_matrix(h).toarray(), want)


class TestDegrees:
    def test_two_edge_example(self):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 1)])
        deg = degrees(h)
        np.testing.assert_array_equal(deg.node, [2.0, 2.0, 1.0])
        np.testing.assert_array_equal(deg.edge, [3.0, 2.0])

    def test_degenerate_degrees_become_one(self):
        # isolated node 2 and an empty hyperedge both get degree 1.0
        h = Hypergraph.from_edges([(0, 1), ()], n=3)
        deg = degrees(h)
        np.testing.assert_array_equal(deg.node, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(deg.edge, [2.0, 1.0])


class TestKhopNeighbours:
    def test_path_of_hyperedges(self):
        h = Hypergraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert khop_neighbours(h, 0, 0) == set()
        assert khop_neighbours(h, 0, 1) == {1}
        assert khop_neighbours(h, 0, 2) == {1, 2}
        assert khop_neighbours(h, 0, 3) == {1, 2, 3}
        assert khop_neighbours(h, 0, 10) == {1, 2, 3}

    def test_one_hyperedge_is_one_hop(self):
        h = Hypergraph.from_edges([(0, 1, 2, 3)])
        assert khop_neighbours(h, 0, 1) == {1, 2, 3}

    def test_one_hop_is_union_of_own_hyperedges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, edges = random_hypergraph_edges(rng)
            h = Hypergraph.from_edges(edges, n=n)
            v = int(rng.integers(n))
            union = set().union(*(h.edges[e] for e in h.memberships[v]), set())
            assert khop_neighbours(h, v, 1) == union - {v}

    def test_matches_reference_bfs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, edges = random_hypergraph_edges(rng)
            h = Hypergraph.from_edges(edges, n=n)
            v = int(rng.integers(n))
            for k in (1, 2, 3):
                assert khop_neighbours(h, v, k) == bfs_khop(h, v, k)

    def test_neighbourhoods_grow_with_k(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, edges = random_hypergraph_edges(rng)
            h = Hypergraph.from_edges(edges, n=n)
            v = int(rng.integers(n))
            prev = set()
            for k in range(5):
                cur = khop_neighbours(h, v, k)
                assert prev <= cur
                prev = cur

    def test_bad_source_and_hops(self):
        h = Hypergraph.from_edges([(0, 1)])
        with pytest.raises(BoundsError):
            khop_neighbours(h, 5, 1)
        with pytest.raises(DomainError):
            khop_neighbours(h, 0, -1)


class TestEdgeListLoader:
    def test_round_trip(self, tmp_path):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 3), (2, 4)], n=6)
        path = tmp_path / "edges.txt"
        save_hypergraph(path, h)
        again = load_hypergraph(path)
        assert again == h

    def test_plain_file_without_header(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2\n\n0 1\n")
        h = load_hypergraph(path)
        assert h.n == 3 and h.m == 2

    def test_header_declares_isolated_nodes(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("#n=10 m=1\n0 1\n")
        assert load_hypergraph(path).n == 10

    def test_header_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("#n=3 m=2\n0 1\n")
        with pytest.raises(ParseError):
            load_hypergraph(path)

    def test_malformed_token_reports_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n0 x 2\n")
        with pytest.raises(ParseError, match=":2"):
            load_hypergraph(path)

    def test_node_id_beyond_header(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("#n=2 m=1\n0 5\n")
        with pytest.raises(BoundsError):
            load_hypergraph(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("")
        h = load_hypergraph(path)
        assert h.n == 0 and h.m == 0


class TestFeatureAndLabelFiles:
    def test_features_round_trip(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((5, 3))
        save_features(tmp_path / "x.npy", x)
        np.testing.assert_array_equal(load_features(tmp_path / "x.npy"), x)

    def test_features_must_be_finite_2d(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.array([1.0, np.inf]))
        with pytest.raises(DimensionError):
            load_features(tmp_path / "bad.npy")
        np.save(tmp_path / "bad2.npy", np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            load_features(tmp_path / "bad2.npy")

    def test_labels_round_trip_with_sentinel(self, tmp_path):
        y = LabelVector(labels=np.array([0, 2, -1, 1]), num_classes=3)
        save_labels(tmp_path / "y.txt", y)
        again = load_labels(tmp_path / "y.txt")
        np.testing.assert_array_equal(again.labels, y.labels)
        assert again.num_classes == 3
        np.testing.assert_array_equal(again.labeled_indices, [0, 1, 3])

    def test_malformed_label_reports_line(self, tmp_path):
        (tmp_path / "y.txt").write_text("0\nfoo\n")
        with pytest.raises(ParseError, match=":2"):
            load_labels(tmp_path / "y.txt")

    def test_label_out_of_range(self):
        with pytest.raises(BoundsError):
            LabelVector(labels=np.array([0, 7]), num_classes=3)
