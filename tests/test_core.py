"""Tests for the hypergraph container, degrees, distances, and loaders."""

import collections
import dataclasses
import hashlib
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import hyperprop.core as core
from hyperprop.core import (
    Hypergraph,
    _structure_digest,
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
from hyperprop.expansion import (
    SparseAdjacency,
    normalize_with_self_loops,
    weighted_clique_expansion,
)

from oracles import bfs_khop, random_hypergraph_edges


def memberships(h):
    """Hyperedges containing each node, as sorted tuples: the rows of the
    incidence matrix."""
    b = incidence_matrix(h)
    return tuple(tuple(b.indices[b.indptr[i] : b.indptr[i + 1]].tolist()) for i in range(h.n))


class TestHypergraph:
    def test_two_edge_example(self):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 1)])
        assert h.n == 3 and h.m == 2
        assert h.edges == ((0, 1, 2), (0, 1))
        assert memberships(h) == ((0, 1), (0, 1), (0,))

    def test_edges_are_sorted_and_canonical(self):
        h = Hypergraph.from_edges([(2, 0, 1), [5, 3]])
        assert h.edges == ((0, 1, 2), (3, 5))

    def test_declared_n_allows_isolated_nodes(self):
        h = Hypergraph.from_edges([(0, 1)], n=4)
        assert h.n == 4
        assert memberships(h)[3] == ()

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


    def test_non_integer_node_id_names_its_hyperedge(self):
        with pytest.raises(DomainError, match="hyperedge 0"):
            Hypergraph.from_edges([(0, 1.7), (2.9, 3)])
        with pytest.raises(DomainError, match="hyperedge 1"):
            Hypergraph.from_edges([(0, 1), (2, "3")])
        assert Hypergraph.from_edges([np.array([2, 0]), (np.int32(1),)]).edges == ((0, 2), (1,))

    def test_node_id_beyond_int64_names_its_hyperedge_and_id(self, tmp_path):
        with pytest.raises(BoundsError, match=f"hyperedge 1 contains node id {2**63} beyond"):
            Hypergraph.from_edges([(0, 1), (2**63,)])
        with pytest.raises(BoundsError, match=f"hyperedge 2 contains node id {-(2**70)} beyond"):
            Hypergraph.from_edges([(0,), (), (2**70, 5, -(2**70)), (2**64,)])
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n\n2 3 18446744073709551616\n")
        with pytest.raises(BoundsError, match="edges.txt: hyperedge 1 contains node id 18446"):
            load_hypergraph(path)
        h = Hypergraph.from_edges([(2**63 - 1, 0)], n=2**63)
        assert h.edges == ((0, 2**63 - 1),)

    def test_unsigned_node_id_beyond_int64_is_named_unwrapped(self):
        """An unsigned id the int64 cast would wrap negative is reported
        as the caller passed it, with its hyperedge."""
        with pytest.raises(BoundsError, match=f"hyperedge 0 contains node id {2**63} beyond"):
            Hypergraph(n=5, indptr=[0, 1], indices=np.array([2**63], dtype=np.uint64))
        indices = np.array([1, 2, 3, 2**63, 2**64 - 1], dtype=np.uint64)
        with pytest.raises(BoundsError, match=f"hyperedge 1 contains node id {2**63} beyond"):
            Hypergraph(n=5, indptr=[0, 2, 5], indices=indices)
        small = np.array([0, 2], dtype=np.uint64), np.array([1, 4], dtype=np.uint64)
        h = Hypergraph(n=5, indptr=small[0], indices=small[1])
        assert h.edges == ((1, 4),) and h.indices.dtype == np.int64


# The tuple-of-tuples storage the CSR arrays replaced, kept as the
# reference the arrays must reproduce.

def tuple_hypergraph(edges, n=None):
    """(n, edges, memberships) as sorted tuples, built by plain loops."""
    canon = tuple(tuple(sorted(int(v) for v in e)) for e in edges)
    if n is None:
        n = max((e[-1] for e in canon if e), default=-1) + 1
    member_lists = [[] for _ in range(n)]
    for k, members in enumerate(canon):
        for v in members:
            member_lists[v].append(k)
    return n, canon, tuple(tuple(ms) for ms in member_lists)


def tuple_degrees(n, edges):
    node = np.array([sum(v in e for e in edges) for v in range(n)], dtype=np.float64)
    edge = np.array([len(e) for e in edges], dtype=np.float64)
    node[node == 0.0] = 1.0
    edge[edge == 0.0] = 1.0
    return node, edge


def tuple_incidence(n, edges):
    rows, cols = [], []
    for k, members in enumerate(edges):
        rows.extend(members)
        cols.extend([k] * len(members))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, len(edges)))


def tuple_digest(n, edges):
    hasher = hashlib.sha256(struct.pack("<QQ", n, len(edges)))
    hasher.update(np.array([len(e) for e in edges], dtype=np.int64))
    hasher.update(np.array([v for e in edges for v in e], dtype=np.int64))
    return hasher.hexdigest()


def tuple_clique(n, edges):
    _, edge = tuple_degrees(n, edges)
    b = tuple_incidence(n, edges).tocoo()
    scaled = b.data * (np.ones(n)[b.row] * (1.0 / np.sqrt(edge))[b.col])
    b = sp.csr_matrix((scaled, (b.row, b.col)), shape=b.shape)
    w = (b @ b.T).tocsr()
    w.setdiag(0.0)
    w.eliminate_zeros()
    return SparseAdjacency(matrix=w)


def random_raw_edges(rng):
    """Unsorted edges over n in [0, 12], some empty, plus a declared n
    that may add isolated nodes (None: inferred)."""
    n = int(rng.integers(0, 13))
    edges = []
    for _ in range(int(rng.integers(0, 9))):
        size = int(rng.integers(0, min(n, 5) + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    declared = None if rng.random() < 0.3 else n + int(rng.integers(0, 3))
    return edges, declared


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestCsrStorage:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_view_equals_the_tuple_implementation(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            edges, declared = random_raw_edges(rng)
            h = Hypergraph.from_edges(edges, n=declared)
            n, canon, member_tuples = tuple_hypergraph(edges, declared)
            assert h.n == n and h.m == len(canon)
            assert h.edges == canon
            assert memberships(h) == member_tuples
            got_node, got_edge = degrees(h)
            node, edge = tuple_degrees(n, canon)
            assert np.array_equal(got_node, node) and np.array_equal(got_edge, edge)
            assert_same_csr(incidence_matrix(h), tuple_incidence(n, canon))
            assert _structure_digest(h) == tuple_digest(n, canon)
            w = weighted_clique_expansion(h)
            want = tuple_clique(n, canon)
            assert_same_csr(w.matrix, want.matrix)
            assert_same_csr(normalize_with_self_loops(w).matrix, normalize_with_self_loops(want).matrix)

    def test_the_instances_cover_the_corner_cases(self):
        hits = collections.Counter()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                edges, declared = random_raw_edges(rng)
                n, canon, member_tuples = tuple_hypergraph(edges, declared)
                hits.update({
                    "n=0": n == 0,
                    "empty edge": any(not e for e in canon),
                    "isolated node": any(not ms for ms in member_tuples),
                    "unsorted": any(e != sorted(e) for e in edges),
                })
        assert all(hits[case] for case in ("n=0", "empty edge", "isolated node", "unsorted"))

    def test_fields_are_n_and_the_two_arrays(self):
        h = Hypergraph.from_edges([(2, 0), (), (1,)], n=4)
        assert [f.name for f in dataclasses.fields(h)] == ["n", "indptr", "indices"]
        assert h.indptr.dtype == h.indices.dtype == np.int64
        assert h.indptr.tolist() == [0, 2, 2, 3] and h.indices.tolist() == [0, 2, 1]

    def test_direct_construction_equals_from_edges(self):
        h = Hypergraph(n=5, indptr=[0, 3, 3, 5], indices=[0, 2, 4, 1, 3])
        assert h.edges == ((0, 2, 4), (), (1, 3))
        assert memberships(h) == ((0,), (2,), (0,), (2,), (0,))

    @pytest.mark.parametrize(
        "indptr, indices",
        [([], []), ([1, 2], [0, 1]), ([0, 2, 1, 3], [0, 1, 2]), ([0, 1], [0, 1]), ([0, 3], [0, 1])],
        ids=["empty", "nonzero start", "decreasing", "short end", "long end"],
    )
    def test_bad_indptr_rejected(self, indptr, indices):
        with pytest.raises(DomainError, match="indptr"):
            Hypergraph(n=4, indptr=indptr, indices=indices)

    def test_bad_members_rejected(self):
        with pytest.raises(DomainError, match="hyperedge 1 is not sorted"):
            Hypergraph(n=4, indptr=[0, 1, 3], indices=[0, 2, 1])
        with pytest.raises(DomainError, match="hyperedge 1 contains a duplicate node id"):
            Hypergraph(n=4, indptr=[0, 1, 3], indices=[0, 2, 2])
        with pytest.raises(BoundsError, match="hyperedge 0 contains negative node id -1"):
            Hypergraph(n=4, indptr=[0, 2], indices=[-1, 2])
        with pytest.raises(BoundsError, match="node id 4 out of range for declared n=4"):
            Hypergraph(n=4, indptr=[0, 2], indices=[1, 4])
        with pytest.raises(BoundsError, match="node count must be nonnegative, got n=-1"):
            Hypergraph(n=-1, indptr=[0], indices=[])
        with pytest.raises(BoundsError, match="node count must be nonnegative, got n=-2"):
            Hypergraph.from_edges([], n=-2)
        with pytest.raises(DomainError, match="integer"):
            Hypergraph(n=4, indptr=[0, 2], indices=[0.0, 1.5])
        with pytest.raises(DimensionError, match=re.escape("indptr must be 1-d, got shape (1, 2)")):
            Hypergraph(n=4, indptr=[[0, 2]], indices=[0, 1])

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ([[0, 1]], DimensionError, "must be 1-d, got shape (1, 2)"),
            ([0.0, 1.0], DomainError, "must hold integers, got dtype float64"),
            ([False, True], DomainError, "must hold integers, got dtype bool"),
        ],
        ids=["2-d", "float", "bool"],
    )
    def test_index_arrays_follow_the_index_rule(self, bad, error, message):
        """indptr and indices are refused by name, by the rule every index array follows."""
        with pytest.raises(error, match=re.escape(f"indptr {message}")):
            Hypergraph(n=2, indptr=bad, indices=[0])
        with pytest.raises(error, match=re.escape(f"indices {message}")):
            Hypergraph(n=2, indptr=[0, 2], indices=bad)

    @pytest.mark.parametrize("n", [True, 2.5, "3", None], ids=["bool", "float", "string", "none"])
    def test_node_count_must_be_an_integer(self, n):
        """True is not 1 node, and 2.5 is refused by name, not by a bare TypeError."""
        message = f"node count must be an integer, got n={n!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            Hypergraph(n=n, indptr=[0], indices=[])
        if n is not None:  # from_edges reads None as "one past the largest id"
            with pytest.raises(DomainError, match=re.escape(message)):
                Hypergraph.from_edges([(0,)], n=n)
        assert Hypergraph(n=np.int64(3), indptr=[0], indices=[]).n == 3

    def test_earliest_faulty_hyperedge_is_reported(self):
        with pytest.raises(BoundsError, match="hyperedge 0 contains negative"):
            Hypergraph.from_edges([(-1, 2), (3, 3)])
        with pytest.raises(DomainError, match="hyperedge 0 contains a duplicate"):
            Hypergraph.from_edges([(-1, -1), (-2,)])

    def test_arrays_are_read_only_copies(self):
        indptr, indices = np.array([0, 2, 3]), np.array([0, 1, 1])
        h = Hypergraph(n=2, indptr=indptr, indices=indices)
        for array in (h.indptr, h.indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
        indices[0] = 1
        assert indptr.flags.writeable and h.edges == ((0, 1), (1,))

    def test_views_are_cached_and_cannot_be_replaced(self):
        h = Hypergraph.from_edges([(0, 1), (1, 2)])
        assert h.edges is h.edges
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.edges = ((0,),)

    def test_equality_and_hash_are_by_identity(self):
        a, b = Hypergraph.from_edges([(0, 1)]), Hypergraph.from_edges([(0, 1)])
        assert a == a and a != b
        assert len({a, b}) == 2


class TestDegrees:
    def test_two_edge_example(self):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 1)])
        node, edge = degrees(h)
        np.testing.assert_array_equal(node, [2.0, 2.0, 1.0])
        np.testing.assert_array_equal(edge, [3.0, 2.0])

    def test_degenerate_degrees_become_one(self):
        # isolated node 2 and an empty hyperedge both get degree 1.0
        h = Hypergraph.from_edges([(0, 1), ()], n=3)
        node, edge = degrees(h)
        np.testing.assert_array_equal(node, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(edge, [2.0, 1.0])


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
            union = set().union(*(h.edges[e] for e in memberships(h)[v]), set())
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
        for value in (True, 1.5):  # True was node 1 or one hop, 1.5 hops a bare TypeError
            hops = f"hop count must be a nonnegative integer, got {value!r}"
            with pytest.raises(DomainError, match=re.escape(hops)):
                khop_neighbours(h, 0, value)
            source = f"source node must be an integer, got {value!r}"
            with pytest.raises(DomainError, match=re.escape(source)):
                khop_neighbours(h, value, 1)
        assert khop_neighbours(h, np.int64(1), np.uint8(1)) == {0}


class TestEdgeListLoader:
    def test_round_trip(self, tmp_path):
        h = Hypergraph.from_edges([(0, 1, 2), (0, 3), (2, 4)], n=6)
        path = tmp_path / "edges.txt"
        save_hypergraph(path, h)
        again = load_hypergraph(path)
        assert again.n == h.n and again.edges == h.edges

    def test_empty_hyperedge_is_refused_before_the_file_is_written(self, tmp_path):
        """An empty hyperedge would be a blank line, which the loader
        skips; the saved file would then miscount its hyperedges."""
        h = Hypergraph(n=3, indptr=np.array([0, 2, 2, 2]), indices=np.array([0, 1]))
        path = tmp_path / "edges.txt"
        with pytest.raises(DomainError, match=re.escape("hyperedge 1 is empty")):
            save_hypergraph(path, h)
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "text, token",
        [("0 1\n0 1_0\n", "1_0"), ("0 1\n\u0663 0\n", "\u0663"), ("0 1\n2 \uff11\n", "\uff11")],
        ids=["underscore", "arabic-indic", "fullwidth"],
    )
    def test_node_id_must_be_ascii_decimal(self, tmp_path, text, token):
        """`int` reads "1_0" as 10 and non-ASCII digits as their values;
        the edge list takes ASCII decimal ids only."""
        path = tmp_path / "edges.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f":2: malformed node id {token!r}"):
            load_hypergraph(path)

    @pytest.mark.parametrize("space", [" ", "\u00a0"], ids=["ascii", "no-break-space"])
    def test_an_id_past_the_digit_limit_is_named(self, tmp_path, space):
        """`int` refuses a decimal id of more digits than
        ``sys.get_int_max_str_digits()``; the pattern accepts it, so it
        is a well-formed id past int64, shown by its first 20 digits."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter's int has no digit limit")
        token = "9" * (limit + 1)
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n0{space}{token}\n", encoding="utf-8")
        shown = rf"{'9' * 20}\.\.\. \({limit + 1} digits\)"
        message = rf"^edges.txt: hyperedge 1 contains node id {shown} beyond the int64 range"
        with pytest.raises(BoundsError, match=message + r" \(line 2\)$"):
            load_hypergraph(path)

    @pytest.mark.parametrize("digits", [300, 4301])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_long_id_is_out_of_range_in_a_short_message(self, tmp_path, digits, sign):
        """On either side of `int`'s digit limit, an id past int64 is a
        BoundsError naming its file, hyperedge and line (blank and
        comment lines counted), not an echo of every digit."""
        path = tmp_path / "edges.txt"
        path.write_text(f"# ids\n0 1\n\n2 {sign}{'7' * digits} 3\n")
        shown = rf"{sign}{'7' * 20}\.\.\. \({digits} digits\)"
        message = rf"^edges.txt: hyperedge 1 contains node id {shown} beyond the int64 range"
        with pytest.raises(BoundsError, match=message + r" \(line 4\)$") as info:
            load_hypergraph(path)
        assert len(str(info.value)) < 200

    def test_leading_zeros_past_the_digit_limit_keep_the_value(self, tmp_path):
        """The digit limit counts leading zeros; an id they pad is read
        as its value, like any other zero-padded id."""
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n2 +{'0' * 5000}3 0004\n")
        assert load_hypergraph(path).edges == ((0, 1), (2, 3, 4))

    @pytest.mark.parametrize("header", ["#n=1_0 m=1", "#n=5 1"])
    def test_header_must_be_ascii_decimal(self, tmp_path, header):
        """Each dimension is an ASCII decimal after its own `n=` or `m=`."""
        path = tmp_path / "edges.txt"
        path.write_text(f"{header}\n0 1\n")
        with pytest.raises(ParseError, match=f"^edges.txt:1: malformed header '{header}'$"):
            load_hypergraph(path)

    def test_header_dimensions_must_be_nonnegative(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("#n=-1 m=1\n0 1\n")
        with pytest.raises(ParseError, match="^edges.txt:1: header dimensions must be nonneg"):
            load_hypergraph(path)

    def test_non_ascii_text_outside_the_ids_is_kept(self, tmp_path):
        """Comments may hold any UTF-8 text, and a non-ASCII space still
        separates ids."""
        path = tmp_path / "edges.txt"
        path.write_text("# k\u00f6ln_1\n0\u00a01\n1 2\n", encoding="utf-8")
        assert load_hypergraph(path).edges == ((0, 1), (1, 2))

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

    @pytest.mark.parametrize(
        "old, new",
        [(b"'<f8'", b"',f8'"), (b"'shape': (", b"'shape': #n=(")],
        ids=["dtype-syntax", "unclosed-header"],
    )
    def test_a_header_python_cannot_parse_is_a_parse_error(self, tmp_path, old, new):
        """numpy lets these headers through as SyntaxError and
        tokenize.TokenError, not ValueError."""
        save_features(tmp_path / "x.npy", np.zeros((2, 3)))
        data = (tmp_path / "x.npy").read_bytes()
        (tmp_path / "x.npy").write_bytes(data.replace(old, new, 1))
        with pytest.raises(ParseError, match="^x.npy: not a readable .npy file"):
            load_features(tmp_path / "x.npy")

    def test_bytes_after_the_array_are_a_parse_error(self, tmp_path):
        """Bytes inserted into the data shift every later value; numpy
        reads the declared shape and would leave the rest unread."""
        save_features(tmp_path / "x.npy", np.zeros((2, 3)))
        with open(tmp_path / "x.npy", "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ParseError, match="^x.npy: not a readable .npy file: bytes follow"):
            load_features(tmp_path / "x.npy")

    def test_features_must_be_finite_2d(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.array([1.0, np.inf]))
        with pytest.raises(DimensionError):
            load_features(tmp_path / "bad.npy")
        np.save(tmp_path / "bad2.npy", np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            load_features(tmp_path / "bad2.npy")

    def test_finiteness_is_checked_in_row_blocks(self, tmp_path, monkeypatch):
        """With 64 KiB of flags per block, loading a 2000 x 512 matrix
        allocates the matrix plus at most one block and 64 KiB for the
        header, where one `isfinite` over the whole matrix takes 1 MB
        more.  An infinity in the last entry, inside the last, partial
        block, is still found."""
        block = 1 << 16
        monkeypatch.setattr(core, "_BLOCK_BYTES", block)
        x = np.random.default_rng(1).standard_normal((2000, 512))
        assert x.size > block and x.shape[0] % (block // x.shape[1]) != 0
        np.save(tmp_path / "x.npy", x)
        tracemalloc.start()
        try:
            got = load_features(tmp_path / "x.npy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == x.tobytes()
        assert peak <= x.nbytes + block + (1 << 16), (peak - x.nbytes) / block
        x[-1, -1] = np.inf
        np.save(tmp_path / "x.npy", x)
        with pytest.raises(DomainError, match="non-finite"):
            load_features(tmp_path / "x.npy")

    def test_labels_round_trip_with_sentinel(self, tmp_path):
        y = LabelVector(labels=np.array([0, 2, -1, 1]), num_classes=3)
        save_labels(tmp_path / "y.txt", y)
        again = load_labels(tmp_path / "y.txt")
        np.testing.assert_array_equal(again.labels, y.labels)
        assert again.num_classes == 3
        np.testing.assert_array_equal(again.labeled_indices, [0, 1, 3])

    def test_comment_lines_are_skipped_but_counted(self, tmp_path):
        """A `#` line holds no label, and a later error still names the
        file's own line number."""
        (tmp_path / "y.txt").write_text("# labels\n0\n-1\n# more\n1\n")
        y = load_labels(tmp_path / "y.txt")
        np.testing.assert_array_equal(y.labels, [0, -1, 1])
        assert y.num_classes == 2
        (tmp_path / "y.txt").write_text("# labels\n0\n# more\nfoo\n")
        with pytest.raises(ParseError, match="^y.txt:4: malformed label 'foo'$"):
            load_labels(tmp_path / "y.txt")

    def test_malformed_label_reports_line(self, tmp_path):
        (tmp_path / "y.txt").write_text("0\nfoo\n")
        with pytest.raises(ParseError, match=":2"):
            load_labels(tmp_path / "y.txt")

    @pytest.mark.parametrize("label", [2**63, 99999999999999999999, -(2**63) - 1])
    def test_label_beyond_int64_names_its_line(self, tmp_path, label):
        """Such a line was a bare OverflowError from the int64 array."""
        (tmp_path / "labels.txt").write_text(f"0\n{label}\n1\n")
        message = f"^labels.txt:2: label {label} is beyond the int64 range$"
        with pytest.raises(BoundsError, match=message):
            load_labels(tmp_path / "labels.txt")

    @pytest.mark.parametrize("digits", [300, 4301])
    @pytest.mark.parametrize("sign", ["", "-", "+000"])
    def test_a_long_label_is_out_of_range_in_a_short_message(self, tmp_path, digits, sign):
        """On either side of `int`'s digit limit, a label past int64 is a
        BoundsError naming its line, with its first 20 digits and its
        digit count, not every digit."""
        (tmp_path / "labels.txt").write_text(f"0\n{sign}{'7' * digits}\n1\n")
        shown = rf"{sign.strip('+0')}{'7' * 20}\.\.\. \({digits} digits\)"
        message = rf"^labels.txt:2: label {shown} is beyond the int64 range$"
        with pytest.raises(BoundsError, match=message) as info:
            load_labels(tmp_path / "labels.txt")
        assert len(str(info.value)) < 200

    def test_a_zero_padded_label_past_the_digit_limit_keeps_its_value(self, tmp_path):
        (tmp_path / "labels.txt").write_text(f"-{'0' * 5000}1\n{'0' * 5000}2\n")
        np.testing.assert_array_equal(load_labels(tmp_path / "labels.txt").labels, [-1, 2])

    @pytest.mark.parametrize("label", ["1_0", "\u0663", "-\uff11"])
    def test_label_must_be_ascii_decimal(self, tmp_path, label):
        (tmp_path / "y.txt").write_text(f"0\n{label}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f":2: malformed label {label!r}"):
            load_labels(tmp_path / "y.txt")

    @pytest.mark.parametrize("num_classes", [True, 2.5, "2", 0, -1])
    def test_class_count_must_be_a_positive_integer(self, num_classes):
        """True is not 1 class, and 2.5 is no class count."""
        message = f"num_classes must be a positive integer, got {num_classes!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            LabelVector(labels=np.array([0, 1]), num_classes=num_classes)
        assert LabelVector(labels=np.array([0, 1]), num_classes=np.int64(2)).num_classes == 2

    def test_label_out_of_range(self):
        with pytest.raises(BoundsError):
            LabelVector(labels=np.array([0, 7]), num_classes=3)

    def test_unsigned_label_past_int64_is_refused_unwrapped(self):
        """2**64 - 1 was cast to -1, the unlabeled sentinel."""
        with pytest.raises(BoundsError, match=f"^labels must fit in int64, got {2**64 - 1}$"):
            LabelVector(labels=np.array([0, 2**64 - 1], np.uint64), num_classes=2)

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.7, -1.0], [0.0, 1.0], ["0", "1"], [True, False], np.array([1], np.float32)],
    )
    def test_labels_must_be_integers(self, labels):
        """Floats were truncated, strings parsed and bools read as 0/1."""
        with pytest.raises(DomainError, match="labels must hold integers, got dtype"):
            LabelVector(labels=labels, num_classes=2)

    def test_labels_must_be_1d(self):
        with pytest.raises(DimensionError, match=re.escape("labels must be 1-d, got shape (1, 2)")):
            LabelVector(labels=[[0, 1]], num_classes=2)

    @pytest.mark.parametrize(
        "labels", [[], np.array([], dtype=np.float64), np.array([], dtype=np.uint8), [0, 1, -1]]
    )
    def test_empty_labels_of_any_dtype_and_integer_labels_are_kept(self, labels):
        y = LabelVector(labels=labels, num_classes=2)
        assert y.labels.dtype == np.int64 and y.labels.tolist() == list(np.asarray(labels))
