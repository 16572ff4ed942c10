"""Tests for splits, negative sampling, pooling, AUC, and the trainers."""

import collections
import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hyperprop.tasks as tasks
from hyperprop.core import Hypergraph, LabelVector
from hyperprop.errors import (
    BoundsError,
    ContractViolation,
    DimensionError,
    DomainError,
    NumericalError,
    SamplingError,
)
from hyperprop.expansion import normalize_with_self_loops, weighted_clique_expansion
from hyperprop.nn import (
    AdamState,
    TrainConfig,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    sigmoid_bce,
)
from hyperprop.propagation import PropagationConfig, load_propagated, propagate, save_propagated
from hyperprop.synthetic import PlantedConfig, generate
from hyperprop.tasks import (
    HyperlinkDataset,
    Split,
    _corrupt,
    _rows,
    _split_candidates,
    _take_rows,
    _trainval_hypergraph,
    auc,
    make_split,
    negative_sample,
    pool_candidates,
    train_hyperlink_predictor,
    train_node_classifier,
)

from oracles import auc_bruteforce, masked_softmax_cross_entropy


class TestMakeSplit:
    def test_small_sizes_floor_val_test(self):
        for size, want in ((3, (3, 0, 0)), (4, (2, 1, 1)), (7, (5, 1, 1)), (10, (6, 2, 2))):
            s = make_split(size, seed=0)
            assert (len(s.train), len(s.val), len(s.test)) == want

    def test_partition_covers_universe_disjointly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            size = int(rng.integers(4, 200))
            s = make_split(size, seed=int(rng.integers(1 << 30)))
            combined = np.concatenate([s.train, s.val, s.test])
            assert sorted(combined.tolist()) == list(range(size))

    def test_seed_determinism_and_sensitivity(self):
        a, b = make_split(50, seed=5), make_split(50, seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        c = make_split(50, seed=6)
        assert not np.array_equal(a.train, c.train)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_split(0, seed=0)
        for size in (True, 1.5, 4.0):  # True split one index, and 4.0 raised numpy's AxisError
            message = f"split size must be a positive integer, got {size!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                make_split(size, seed=0)

    @pytest.mark.parametrize("seed", [True, -1, 1.5], ids=["bool", "negative", "float"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """True split as seed 1; -1 and 1.5 failed inside numpy's generator."""
        message = f"split seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            make_split(10, seed)

    def test_split_rejects_overlap(self):
        with pytest.raises(DomainError):
            Split(train=np.array([0, 1]), val=np.array([1]), test=np.array([2]))

    @pytest.mark.parametrize(
        "part",
        [[0.7, 3.9], [2.0], ["0"], np.array(["4"], object), [True], np.array([1.5], np.float32)],
    )
    def test_split_rejects_a_part_that_is_not_integers(self, part):
        """Floats were truncated, strings parsed and bools read as 0/1."""
        for name in ("train", "val", "test"):
            parts = {"train": [10], "val": [11], "test": [12], name: part}
            with pytest.raises(DomainError, match=f"split part {name} must hold integers"):
                Split(**parts)

    @pytest.mark.parametrize("part", [np.array(5), np.array([[1, 2]])], ids=["0-d", "2-d"])
    def test_split_rejects_a_part_that_is_not_1d(self, part):
        """A 0-d part raised numpy's AxisError and a 2-d one a bare
        ValueError from the disjointness check."""
        for name in ("train", "val", "test"):
            parts = {"train": [10], "val": [11], "test": [12], name: part}
            with pytest.raises(DimensionError, match=f"split part {name} must be 1-d, got shape"):
                Split(**parts)

    def test_split_rejects_a_part_past_int64(self):
        """An unsigned index of 2**64 - 1 was stored as -1."""
        wide = np.array([2**64 - 1], np.uint64)
        for name in ("train", "val", "test"):
            parts = {"train": [10], "val": [11], "test": [12], name: wide}
            with pytest.raises(BoundsError, match=f"split part {name} must fit in int64, got"):
                Split(**parts)

    def test_split_takes_empty_parts_of_any_dtype_and_unsigned_ids(self):
        s = Split(train=np.array([3, 1], np.uint8), val=[], test=np.array([], np.float64))
        assert s.train.tolist() == [1, 3] and s.val.size == s.test.size == 0
        assert s.train.dtype == s.val.dtype == s.test.dtype == np.int64

    @pytest.mark.parametrize("parts", [([0], [1], [5, 0]), ([3], [4, 4], [5]), ([7, 2, 7], [], [])])
    def test_split_rejects_any_repeated_index(self, parts):
        train, val, test = (np.array(p, dtype=np.int64) for p in parts)
        with pytest.raises(DomainError, match="disjoint"):
            Split(train=train, val=val, test=test)


# 0.999 quantiles of the chi-square distribution, by degrees of freedom
CHI2_999 = {2: 13.816, 5: 20.515, 8: 26.124}


def valid_corruptions(h, edge, alpha):
    """Every candidate with round(alpha |e|) members of ``edge`` and the
    rest outside it, minus the real hyperedges."""
    keep = round(alpha * len(edge))
    outside = sorted(set(range(h.n)) - set(edge))
    support = set()
    for kept in itertools.combinations(edge, keep):
        for drawn in itertools.combinations(outside, len(edge) - keep):
            support.add(tuple(sorted(kept + drawn)))
    return sorted(support - set(h.edges))


def node_sets(sets, x):
    """The candidate ``sets`` (each sorted) as a hypergraph over the rows of ``x``."""
    return Hypergraph.from_edges(sets, n=len(x))


def negatives_of(data):
    """(nodes, source) per negative, read off the CSR arrays; also checks
    the arrays' shape: one source per set, each set sorted."""
    ptr, ind = data.negatives.indptr, data.negatives.indices
    assert ptr[0] == 0 and ptr[-1] == len(ind) and np.all(np.diff(ptr) >= 0)
    assert len(data.source) == len(data.negatives) == len(ptr) - 1
    out = []
    for i in range(len(data.negatives)):
        nodes = tuple(ind[ptr[i] : ptr[i + 1]].tolist())
        assert list(nodes) == sorted(set(nodes))
        out.append((nodes, int(data.source[i])))
    return out


def reference_negative_sample(h, alpha, beta, seed):
    """The sampler written out, with a set of member tuples as the
    collision test: hyperedges of one size are corrupted together by
    `_corrupt`, the rows equal to a real hyperedge are redrawn up to 99
    more times, a size whose every member is kept is refused undrawn,
    and the lowest failing hyperedge is named.  Returns the
    negatives' (indptr, indices, source)."""
    rng = np.random.default_rng(seed)
    sizes = np.diff(h.indptr)
    source = np.repeat(np.arange(h.m, dtype=np.int64), beta)
    negatives = [h.edges[k] for k in source]
    failures = {}
    for size in sorted(set(sizes.tolist())):
        ids = [k for k in range(h.m) if sizes[k] == size]
        keep = int(round(alpha * size))
        if keep == size:
            failures[ids[0]] = f"hyperedge {ids[0]}: alpha {alpha} keeps all {size} members"
            continue
        if h.n - size < size - keep:
            failures[ids[0]] = (
                f"hyperedge {ids[0]}: only {h.n - size} replacement nodes for {size - keep} slots"
            )
            continue
        real = {h.edges[k] for k in ids}
        rows = np.array([h.edges[k] for k in ids for _ in range(beta)], dtype=np.int64)
        rows = rows.reshape(len(ids) * beta, size)
        cands = _corrupt(rows, keep, h.n, rng)
        pending = [i for i in range(len(cands)) if tuple(cands[i].tolist()) in real]
        for _ in range(99):
            if not pending:
                break
            cands[pending] = _corrupt(rows[pending], keep, h.n, rng)
            pending = [i for i in pending if tuple(cands[i].tolist()) in real]
        if pending:
            edge = ids[pending[0] // beta]
            failures[edge] = f"hyperedge {edge}: no collision-free corruption in 100 tries"
            continue
        for i, cand in enumerate(cands.tolist()):
            negatives[ids[i // beta] * beta + i % beta] = tuple(cand)
    if failures:
        raise SamplingError(failures[min(failures)])
    indptr = np.cumsum([0, *map(len, negatives)], dtype=np.int64)
    indices = np.array([v for c in negatives for v in c], dtype=np.int64)
    return indptr, indices, source


class TestNegativeSample:
    def test_half_corruption_of_four_node_edge(self):
        # the only replacement pool is {4, 5}: every fake keeps exactly two
        # originals and contains both outside nodes
        h = Hypergraph.from_edges([(0, 1, 2, 3)], n=6)
        data = negative_sample(h, alpha=0.5, beta=5, seed=0)
        assert len(data.negatives) == 5
        for nodes, source in negatives_of(data):
            kept = set(nodes) & set(h.edges[source])
            assert len(nodes) == 4
            assert len(kept) == 2
            assert kept <= {0, 1, 2, 3}
            assert {4, 5} <= set(nodes)
            assert source == 0

    def test_composition_property(self):
        """Every fake has round(alpha |e|) members of its source edge and
        the rest strictly outside it, and never equals any real edge."""
        rng = np.random.default_rng(1)
        for alpha in (0.0, 0.25, 0.5, 0.75):
            edges = []
            n = 40
            for _ in range(12):
                # sizes >= 4 so round(alpha*size) < size for every alpha here;
                # a kept-count equal to the size makes collisions unavoidable
                size = int(rng.integers(4, 7))
                edges.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            h = Hypergraph.from_edges(edges, n=n)
            data = negative_sample(h, alpha=alpha, beta=3, seed=7)
            assert len(data.negatives) == 3 * h.m
            positives = set(h.edges)
            for nodes, source_id in negatives_of(data):
                source = set(h.edges[source_id])
                keep = round(alpha * len(source))
                assert len(set(nodes) & source) == keep
                assert len(nodes) == len(source)
                assert nodes not in positives

    def test_round_half_to_even(self):
        h = Hypergraph.from_edges([(0, 1, 2, 3, 4)], n=20)  # 0.5*5 = 2.5 -> 2
        data = negative_sample(h, alpha=0.5, beta=2, seed=0)
        assert all(len(set(nodes) & set(h.edges[0])) == 2 for nodes, _ in negatives_of(data))

    def test_seed_determinism(self):
        h = Hypergraph.from_edges([(0, 1, 2), (2, 3, 4)], n=10)
        a = negative_sample(h, 0.5, 4, seed=3)
        b = negative_sample(h, 0.5, 4, seed=3)
        assert a.positives == b.positives
        assert np.array_equal(a.negatives.indptr, b.negatives.indptr)
        assert np.array_equal(a.negatives.indices, b.negatives.indices)
        assert np.array_equal(a.source, b.source)

    def test_full_alpha_always_collides(self):
        h = Hypergraph.from_edges([(0, 1, 2)], n=5)
        with pytest.raises(SamplingError, match="hyperedge 0: alpha 1.0 keeps all 3 members"):
            negative_sample(h, alpha=1.0, beta=1, seed=0)

    def test_alpha_that_keeps_a_whole_edge_is_refused_before_any_draw(self, monkeypatch):
        """0.75 * 2 = 1.5 rounds to 2, so every corruption of the 2-node
        edge is the edge itself: the sampler says so instead of drawing
        it 100 times.  The 4-node edge, which keeps 3, is still drawn."""
        h = Hypergraph.from_edges([(0, 1, 2, 3), (4, 5)], n=12)
        widths = []
        real = tasks._corrupt

        def spy(rows, *args):
            widths.append(rows.shape[1])
            return real(rows, *args)

        monkeypatch.setattr(tasks, "_corrupt", spy)
        with pytest.raises(SamplingError) as exc:
            negative_sample(h, alpha=0.75, beta=3, seed=0)
        assert str(exc.value) == "hyperedge 1: alpha 0.75 keeps all 2 members"
        assert widths == [4]

    def test_impossible_replacement_pool(self):
        h = Hypergraph.from_edges([(0, 1, 2, 3)], n=5)  # pool {4}, need 2
        with pytest.raises(SamplingError, match="hyperedge 0"):
            negative_sample(h, alpha=0.5, beta=1, seed=0)

    @pytest.mark.parametrize(
        "edges, n, alpha",
        [
            ([(0, 1, 2), (2, 3)], 5, 0.5),  # one kept subset and one draw each
            ([(0, 1), (0, 2), (1, 2, 3)], 4, 0.5),  # a third of the outcomes collide
            ([(1, 3), (2, 5)], 7, 0.0),  # two draws without replacement
        ],
    )
    def test_uniform_over_valid_corruptions(self, edges, n, alpha):
        """Each source's fakes are uniform over every corruption that is
        not a real hyperedge, enumerated exhaustively."""
        h = Hypergraph.from_edges(edges, n=n)
        beta = 3000
        data = negative_sample(h, alpha, beta, seed=11)
        negatives = negatives_of(data)
        assert [source for _, source in negatives] == np.repeat(np.arange(h.m), beta).tolist()
        for source, edge in enumerate(h.edges):
            support = valid_corruptions(h, edge, alpha)
            counts = collections.Counter(nodes for nodes, s in negatives if s == source)
            assert set(counts) <= set(support)
            observed = np.array([counts[c] for c in support], dtype=float)
            expected = beta / len(support)
            statistic = float(((observed - expected) ** 2 / expected).sum())
            assert statistic < CHI2_999[len(support) - 1], (source, statistic)

    def test_lowest_failing_hyperedge_is_named(self):
        # every corruption of a 3-node edge of K4 is another real edge, and
        # the 4-node edge lacks replacement nodes; size 3 is sampled first
        triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        h = Hypergraph.from_edges([(0, 1), *triangles, (0, 1, 2, 3)], n=4)
        with pytest.raises(SamplingError, match="hyperedge 1: no collision-free"):
            negative_sample(h, alpha=0.5, beta=2, seed=0)
        h = Hypergraph.from_edges([(0, 1, 2, 3), *triangles], n=4)
        with pytest.raises(SamplingError, match="hyperedge 0: only 0 replacement nodes for 2"):
            negative_sample(h, alpha=0.5, beta=2, seed=0)

    def test_parameter_domains(self):
        h = Hypergraph.from_edges([(0, 1)], n=4)
        with pytest.raises(DomainError):
            negative_sample(h, alpha=1.5, beta=1, seed=0)
        with pytest.raises(DomainError):
            negative_sample(h, alpha=0.5, beta=0, seed=0)
        for beta in (True, 1.5):  # True drew one negative per edge, 1.5 raised an IndexError
            message = f"negatives per positive must be a positive integer, got {beta!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                negative_sample(h, 0.5, beta, 0)

    @pytest.mark.parametrize("seed", [True, -1, 1.5], ids=["bool", "negative", "float"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """True sampled as seed 1; -1 and 1.5 failed inside numpy's
        generator."""
        h = Hypergraph.from_edges([(0, 1), (1, 2, 3)], n=6)
        message = f"sampling seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            negative_sample(h, 0.5, 5, seed)

    def test_empty_hyperedge_has_no_corruption(self):
        # the only set of size 0 is the empty hyperedge itself
        h = Hypergraph.from_edges([(0, 1), (), (2, 3, 4)], n=8)
        with pytest.raises(SamplingError, match="hyperedge 1: alpha 0.5 keeps all 0 members"):
            negative_sample(h, 0.5, 2, 0)

    def test_matches_the_reference_sampler(self):
        """Bit-equal negatives and sources, or the same SamplingError, on
        tiny hypergraphs with mixed sizes, forced collisions (every pair of
        a few nodes is a hyperedge), sizes that alpha keeps whole (alpha =
        1, or 0.75 on 2-node edges) and empty hyperedges."""
        rng = np.random.default_rng(5)
        outcomes = collections.Counter()
        for case in range(300):
            n = int(rng.integers(2, 9))
            sizes = rng.integers(1, min(n, 5) + 1, size=int(rng.integers(1, 7)))
            edges = [tuple(rng.choice(n, size=int(s), replace=False).tolist()) for s in sizes]
            if case % 4 == 0:
                edges += list(itertools.combinations(range(min(n, 4)), 2))
            if case % 10 == 0:
                edges.insert(int(rng.integers(len(edges) + 1)), ())
            h = Hypergraph.from_edges(edges, n=n)
            alpha = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], p=[0.3, 0.2, 0.3, 0.15, 0.05])
            alpha = float(alpha)
            beta, seed = int(rng.integers(1, 5)), int(rng.integers(1 << 30))
            try:
                want = reference_negative_sample(h, alpha, beta, seed)
            except SamplingError as exc:
                with pytest.raises(SamplingError) as got:
                    negative_sample(h, alpha, beta, seed)
                assert str(got.value) == str(exc)
                outcomes[str(exc).split(": ")[1].split()[0]] += 1
                continue
            data = negative_sample(h, alpha, beta, seed)
            for got_array, want_array in zip(
                (data.negatives.indptr, data.negatives.indices, data.source), want
            ):
                assert got_array.dtype == want_array.dtype
                np.testing.assert_array_equal(got_array, want_array)
            outcomes["sampled"] += 1
        assert min(outcomes[k] for k in ("sampled", "no", "only", "alpha")) >= 20, outcomes


class TestHyperlinkDataset:
    @pytest.fixture()
    def data(self):
        h = Hypergraph.from_edges([(0, 1), (1, 2, 3), (3, 4)], n=6)
        return negative_sample(h, alpha=0.5, beta=2, seed=0)

    def test_sampler_output_builds(self, data):
        again = HyperlinkDataset(data.positives, data.negatives, data.source.astype(np.int32))
        assert again.source.dtype == np.int64
        np.testing.assert_array_equal(again.source, data.source)
        empty = Hypergraph(n=6, indptr=[0], indices=[])
        assert HyperlinkDataset(data.positives, empty, np.array([])).source.dtype == np.int64

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ([0.0, 0, 1, 1, 2, 2], DomainError, "source must hold integers, got dtype float64"),
            ([[0, 0, 1, 1, 2, 2]], DimensionError, r"source must be 1-d, got shape \(1, 6\)"),
            ([True] * 6, DomainError, "source must hold integers, got dtype bool"),
            ([0, 0, 1, 1, 2, 2, 0, 1], DimensionError, "8 source entries for 6 negatives"),
            ([0, 0, 1, 1, 2], DimensionError, "5 source entries for 6 negatives"),
            ([0, 0, 1, 1, 2, 3], BoundsError, r"source ids must lie in \[0, 3\)"),
            ([0, 0, 1, 1, 2, -1], BoundsError, r"source ids must lie in \[0, 3\)"),
            (np.array([0, 0, 1, 1, 2, 2**64 - 1], np.uint64), BoundsError, "source must fit in int64"),
        ],
        ids=[
            "float", "2-d", "bool", "longer", "shorter", "past-the-positives", "negative",
            "past-int64",
        ],
    )
    def test_refuses_a_source_that_does_not_fit(self, data, source, error, message):
        with pytest.raises(error, match=message):
            HyperlinkDataset(data.positives, data.negatives, np.array(source))

    def test_refuses_negatives_over_other_nodes(self, data):
        wider = Hypergraph(n=7, indptr=data.negatives.indptr, indices=data.negatives.indices)
        with pytest.raises(DimensionError, match="negatives over 7 nodes, positives over 6"):
            HyperlinkDataset(data.positives, wider, data.source)


def pool_reference(features, candidates):
    """Per-candidate loop: mean of the member rows in ascending node order."""
    pooled = np.empty((len(candidates), features.shape[1]))
    for i, members in enumerate(candidates):
        pooled[i] = features[np.sort(np.array(members, dtype=np.int64))].mean(axis=0)
    return pooled


class TestPoolCandidates:
    def test_equals_per_candidate_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 5))
        cands = [
            tuple(rng.choice(30, size=int(rng.integers(1, 12)), replace=False).tolist())
            for _ in range(200)
        ]
        assert np.array_equal(pool_candidates(x, node_sets(cands, x)), pool_reference(x, cands))
        assert pool_candidates(x, node_sets([], x)).shape == (0, 5)

    def test_invariant_to_member_order(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        pooled = pool_candidates(x, node_sets([(2, 5, 9, 0), (0, 9, 5, 2)], x))
        assert np.array_equal(pooled[0], pooled[1])

    def test_split_candidates_equal_the_tuple_loop(self):
        """Positives of the part in part order, then the negatives whose
        source is in the part in sampling order: the CSR rows, targets
        and pooled features equal the loop over tuples."""
        h, x, _ = planted_case(3, n=120, noise=0.3)
        data = negative_sample(h, 0.5, 4, seed=3)
        split = make_split(h.m, 3)
        negatives = negatives_of(data)
        for part in (split.train, split.val, split.test):
            members = set(part.tolist())
            want = [h.edges[i] for i in part] + [
                nodes for nodes, source in negatives if source in members
            ]
            cands, targets = _split_candidates(data, part)
            got = [
                tuple(cands.indices[cands.indptr[i] : cands.indptr[i + 1]].tolist())
                for i in range(len(cands))
            ]
            assert got == want
            assert targets.tolist() == [1.0] * len(part) + [0.0] * (len(want) - len(part))
            assert np.array_equal(pool_candidates(x, cands), pool_reference(x, want))

    def test_equals_the_product_with_an_inline_candidate_csr(self):
        """The transposed incidence matrix pools bit for bit as the
        candidate-by-node CSR of ones that `pool_candidates` used to
        build itself, on each part of an hp split."""
        h, x, _ = planted_case(3, n=120, noise=0.3)
        data = negative_sample(h, 0.5, 4, seed=3)
        split = make_split(h.m, 3)
        for part in (split.train, split.val, split.test):
            cands, _ = _split_candidates(data, part)
            ones = sp.csr_matrix(
                (np.ones(cands.indices.size), cands.indices, cands.indptr),
                shape=(cands.m, cands.n),
            )
            want = ones @ x
            want /= np.diff(cands.indptr)[:, None]
            assert np.array_equal(pool_candidates(x, cands), want)

    def test_row_selection_equals_a_list_comprehension(self):
        """New, writable arrays of the selected hyperedges, in order."""
        rng = np.random.default_rng(4)
        h = Hypergraph.from_edges([(0, 3), (), (1, 2, 4), (4,), (0, 1, 2, 3)], n=6)
        for rows in ([], [2], [3, 0, 0, 1], rng.integers(0, h.m, size=9)):
            rows = np.asarray(rows, dtype=np.int64)
            indptr, indices = _rows(h, rows)
            want = [h.edges[i] for i in rows.tolist()]
            assert np.array_equal(indptr, np.cumsum([0, *map(len, want)]))
            assert indices.tolist() == [v for c in want for v in c]
            for got, stored in ((indptr, h.indptr), (indices, h.indices)):
                assert got.flags.writeable and not np.shares_memory(got, stored)

    def test_trainval_hypergraph_is_the_visible_rows(self):
        h, _, _ = planted_case(5, n=80, noise=0.3)
        data = negative_sample(h, 0.5, 2, seed=5)
        split = make_split(h.m, 5)
        sub = _trainval_hypergraph(data, split)
        visible = sorted(set(split.train.tolist()) | set(split.val.tolist()))
        assert sub.n == h.n and sub.edges == tuple(h.edges[i] for i in visible)

    def test_pool_candidates_validation(self):
        x = np.zeros((3, 2))
        with pytest.raises(DomainError, match="candidate 0 is empty"):
            pool_candidates(x, node_sets([()], x))
        with pytest.raises(DomainError, match="candidate 1 is empty"):
            pool_candidates(x, node_sets([(0, 1), (), (0, 2)], x))
        # the candidates' node count must be the feature rows'
        for rows in (2, 6):
            with pytest.raises(DimensionError, match=r"features must be \(3, d\), got"):
                pool_candidates(np.zeros((rows, 2)), node_sets([(0, 1)], x))

    def test_refuses_features_that_are_not_a_matrix(self):
        """1-d features of length n once pooled to a (k, k) matrix."""
        sets = Hypergraph.from_edges([(0, 1), (1, 2), (0, 2)], n=3)
        for features in (np.arange(3.0), np.zeros((3, 2, 1)), np.float64(1.0)):
            with pytest.raises(DimensionError, match=r"features must be \(3, d\)"):
                pool_candidates(features, sets)


class TestAuc:
    def test_known_values(self):
        assert auc([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert auc([0.0], [1.0]) == 0.0
        assert auc([1.0], [1.0]) == 0.5
        # tied pairs count one half
        assert auc([1.0, 2.0], [1.0, 2.0]) == 0.5
        assert auc([-0.0], [0.0]) == 0.5
        assert auc([np.inf], [np.inf, -np.inf]) == 0.75

    def test_matches_bruteforce_on_fuzzed_inputs(self):
        rng = np.random.default_rng(4)
        special = np.array([np.inf, -np.inf, 0.0, -0.0])
        for _ in range(200):
            n_pos = int(rng.integers(1, 30))
            n_neg = int(rng.integers(1, 30))
            # quantized scores force heavy ties; +-inf and signed zeros tie too
            pos = np.round(rng.standard_normal(n_pos), 1)
            neg = np.round(rng.standard_normal(n_neg), 1)
            for side in (pos, neg):
                hit = rng.random(side.size) < 0.2
                side[hit] = rng.choice(special, size=int(hit.sum()))
            assert auc(pos, neg) == auc_bruteforce(pos, neg)

    def test_random_scores_hover_at_half(self):
        rng = np.random.default_rng(5)
        vals = [auc(rng.standard_normal(200), rng.standard_normal(200)) for _ in range(20)]
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_empty_side_rejected(self):
        with pytest.raises(DomainError):
            auc([], [1.0])

    def test_nan_scores_rejected(self):
        with pytest.raises(NumericalError):
            auc([0.5, np.nan], [0.1])
        with pytest.raises(NumericalError):
            auc([0.5], [0.1, np.nan])


def planted_case(seed=0, n=200, noise=0.4):
    cfg = PlantedConfig(
        n=n, m=150, classes=4, size_range=(3, 5), p_in=0.95,
        feature_dim=12, feature_noise=noise, seed=seed,
    )
    return generate(cfg)


def reference_node_classifier(x, labels, split, cfg, all_rows):
    """The classification head's training loop, written out.

    With ``all_rows`` the forward and backward passes run over every row
    and the loss is masked to the train rows; otherwise they run over
    the gathered train rows.  Selection and the test metric are as in
    `train_node_classifier`.
    """
    y = labels.labels
    rng = np.random.default_rng(cfg.seed)
    params = init_mlp([x.shape[1], *cfg.hidden_dims, labels.num_classes], rng)
    state = AdamState.like(params)
    if all_rows:
        inputs, targets, loss_rows = x, y, split.train
    else:
        inputs, targets, loss_rows = x[split.train], y[split.train], np.arange(len(split.train))
    best_val, best = -1.0, params.copy()
    for _ in range(cfg.epochs):
        logits, fwd = mlp_forward(params, inputs, dropout=cfg.dropout, rng=rng, cache=True)
        _, grad = masked_softmax_cross_entropy(logits, targets, loss_rows)
        grads_w, grads_b = mlp_backward(params, fwd, grad)
        adam_step(params, grads_w, grads_b, state, cfg)
        val_acc = float(np.mean(mlp_forward(params, x[split.val]).argmax(axis=1) == y[split.val]))
        if val_acc > best_val:
            best_val, best = val_acc, params.copy()
    test_logits = mlp_forward(best, x[split.test])
    return best, float(np.mean(test_logits.argmax(axis=1) == y[split.test]))


def reference_hyperlink_predictor(pf, data, split, cfg):
    """The hyperlink head's training loop, written out: pool the train
    and val candidates, start the output bias at the train targets'
    log-odds, train full-batch on the BCE loss, select by validation AUC
    (earliest on ties), and score the test candidates once with the
    selected snapshot."""
    x = pf.matrix
    train_cands, train_t = _split_candidates(data, split.train)
    pooled_train = pool_candidates(x, train_cands)
    val_cands, val_t = _split_candidates(data, split.val)
    pooled_val = pool_candidates(x, val_cands)
    rng = np.random.default_rng(cfg.seed)
    params = init_mlp([x.shape[1], *cfg.hidden_dims, 1], rng)
    n_pos = int(np.count_nonzero(train_t == 1.0))
    params.biases[-1][:] = np.log(n_pos / (len(train_t) - n_pos))
    state = AdamState.like(params)
    best_val, best = -1.0, params.copy()
    for _ in range(cfg.epochs):
        logits, fwd = mlp_forward(params, pooled_train, dropout=cfg.dropout, rng=rng, cache=True)
        _, grad = sigmoid_bce(logits, train_t)
        grads_w, grads_b = mlp_backward(params, fwd, grad)
        adam_step(params, grads_w, grads_b, state, cfg)
        val_scores = mlp_forward(params, pooled_val).ravel()
        val_auc = auc(val_scores[val_t == 1.0], val_scores[val_t == 0.0])
        if val_auc > best_val:
            best_val, best = val_auc, params.copy()
    test_cands, test_t = _split_candidates(data, split.test)
    test_scores = mlp_forward(best, pool_candidates(x, test_cands)).ravel()
    return best, auc(test_scores[test_t == 1.0], test_scores[test_t == 0.0])


class TestTrainNodeClassifier:
    def make_inputs(self, seed=0):
        h, x, y = planted_case(seed)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        px = propagate(atilde, x, PropagationConfig(layers=2, alpha=0.3)).matrix
        split = make_split(len(y.labels), seed)
        return px, y, split

    def test_learns_clean_planted_classes(self):
        px, y, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=100, hidden_dims=(32,), seed=0)
        _, metrics = train_node_classifier(px, y, split, cfg)
        assert metrics.accuracy is not None and metrics.accuracy >= 0.9
        assert metrics.auc is None
        assert metrics.train_seconds >= 0.0

    def test_blas_thread_count_changes_no_byte(self):
        """Child processes with OPENBLAS_NUM_THREADS at 1, at 2 and unset
        train the same head to the same bytes.  The first layer's train
        forward (1000 x 1100 x 64) splits into row panels, and each
        product is large enough that OpenBLAS would run it on two
        threads, which changed the bits before the head pinned one."""
        code = (
            "import hashlib, numpy as np\n"
            "from hyperprop.core import LabelVector\n"
            "from hyperprop.nn import TrainConfig\n"
            "from hyperprop.tasks import make_split, train_node_classifier\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.standard_normal((2000, 1100))\n"
            "y = LabelVector(labels=rng.integers(0, 6, 2000), num_classes=6)\n"
            "cfg = TrainConfig(learning_rate=0.01, epochs=3, dropout=0.3)\n"
            "params, _ = train_node_classifier(x, y, make_split(2000, 0), cfg)\n"
            "print(hashlib.sha256(b''.join(p.tobytes() for p in params.weights + params.biases))"
            ".hexdigest())\n"
        )
        paths = [str(Path(tasks.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        digests = []
        for threads in ("1", "2", None):
            env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1] == digests[2]

    def test_seed_determinism(self):
        px, y, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=30, dropout=0.3, hidden_dims=(16,), seed=4)
        params_a, metrics_a = train_node_classifier(px, y, split, cfg)
        params_b, metrics_b = train_node_classifier(px, y, split, cfg)
        assert metrics_a.accuracy == metrics_b.accuracy
        for wa, wb in zip(params_a.weights, params_b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_test_labels_do_not_influence_training(self):
        """Scrambling the test-set labels must leave the selected model
        bit-identical; only the final reported number may move."""
        px, y, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=30, hidden_dims=(16,), seed=1)
        params_a, _ = train_node_classifier(px, y, split, cfg)
        scrambled = y.labels.copy()
        scrambled[split.test] = (scrambled[split.test] + 1) % y.num_classes
        params_b, _ = train_node_classifier(
            px, LabelVector(labels=scrambled, num_classes=y.num_classes), split, cfg
        )
        for wa, wb in zip(params_a.weights, params_b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_matches_full_row_reference_without_dropout(self):
        """Training on the gathered train rows is the full-row, masked-loss
        loop up to the grouping of the first-layer gradient sum."""
        px, y, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=40, hidden_dims=(16,), seed=3)
        params, metrics = train_node_classifier(px, y, split, cfg)
        want, want_acc = reference_node_classifier(px, y, split, cfg, all_rows=True)
        assert metrics.accuracy == want_acc
        for got, ref in zip(params.weights + params.biases, want.weights + want.biases):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)

    def test_dropout_masks_cover_train_rows_and_are_seed_determined(self):
        px, y, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=30, dropout=0.4, hidden_dims=(16,), seed=5)
        params_a, metrics_a = train_node_classifier(px, y, split, cfg)
        params_b, metrics_b = train_node_classifier(px, y, split, cfg)
        want, want_acc = reference_node_classifier(px, y, split, cfg, all_rows=False)
        assert metrics_a.accuracy == metrics_b.accuracy == want_acc
        for a, b, ref in zip(
            params_a.weights + params_a.biases,
            params_b.weights + params_b.biases,
            want.weights + want.biases,
        ):
            assert np.array_equal(a, b) and np.array_equal(a, ref)
        other, _ = train_node_classifier(px, y, split, dataclasses.replace(cfg, seed=6))
        assert not np.array_equal(other.weights[0], params_a.weights[0])

    def test_test_and_unlabeled_features_do_not_influence_training(self):
        """The twin of the label check above: scrambling the feature rows
        of the test part (finite noise, since test logits are checked)
        and of unlabeled nodes (NaN, never read) leaves the selected
        model bit-identical."""
        px, y, _ = self.make_inputs()
        labels = y.labels.copy()
        unlabeled = np.arange(0, len(labels), 7)
        labels[unlabeled] = -1
        y = LabelVector(labels=labels, num_classes=y.num_classes)
        labeled = np.flatnonzero(labels != -1)
        idx = make_split(len(labeled), 2)
        split = Split(train=labeled[idx.train], val=labeled[idx.val], test=labeled[idx.test])
        cfg = TrainConfig(learning_rate=0.01, epochs=30, hidden_dims=(16,), seed=2)
        params_a, _ = train_node_classifier(px, y, split, cfg)
        scrambled = px.copy()
        rng = np.random.default_rng(9)
        scrambled[split.test] = 1e3 * rng.standard_normal((len(split.test), px.shape[1]))
        scrambled[unlabeled] = np.nan
        params_b, _ = train_node_classifier(scrambled, y, split, cfg)
        for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_split_ordered_rows_train_like_the_gathered_route(self, dropout):
        """The labeled rows laid out in train|val|test order, with a split
        of those contiguous local ranges (what the CLI reads from a
        .tfhn), give the gathered route's parameters and metrics bit for
        bit, and the train and val rows are views, not copies."""
        px, y, _ = self.make_inputs()
        labels = y.labels.copy()
        labels[::5] = -1
        y = LabelVector(labels=labels, num_classes=y.num_classes)
        labeled = np.flatnonzero(labels != -1)
        idx = make_split(len(labeled), 3)
        split = Split(train=labeled[idx.train], val=labeled[idx.val], test=labeled[idx.test])
        order = np.concatenate([split.train, split.val, split.test])
        a, b = len(split.train), len(split.train) + len(split.val)
        local = Split(train=np.arange(a), val=np.arange(a, b), test=np.arange(b, len(order)))
        cfg = TrainConfig(
            learning_rate=0.01, epochs=30, dropout=dropout, hidden_dims=(16,), seed=3
        )
        params_a, metrics_a = train_node_classifier(px, y, split, cfg)
        laid_out = px[order]
        params_b, metrics_b = train_node_classifier(
            laid_out, LabelVector(labels=labels[order], num_classes=y.num_classes), local, cfg
        )
        assert metrics_a.accuracy == metrics_b.accuracy
        for got, want in zip(
            params_b.weights + params_b.biases, params_a.weights + params_a.biases
        ):
            assert got.tobytes() == want.tobytes()
        assert np.shares_memory(_take_rows(laid_out, local.val), laid_out)
        assert not np.shares_memory(_take_rows(px, split.val), px)

    def test_chance_level_on_permuted_labels(self):
        """With labels shuffled independently of features, test accuracy
        sits at chance for a two-class balanced problem."""
        rng = np.random.default_rng(6)
        accs = []
        for seed in range(20):
            x = rng.standard_normal((80, 6))
            labels = np.array([0, 1] * 40)
            rng.shuffle(labels)
            y = LabelVector(labels=labels, num_classes=2)
            split = make_split(80, seed)
            cfg = TrainConfig(learning_rate=0.01, epochs=25, hidden_dims=(8,), seed=seed)
            _, metrics = train_node_classifier(x, y, split, cfg)
            accs.append(metrics.accuracy)
        assert abs(np.mean(accs) - 0.5) <= 0.1

    def test_overflowing_features_raise_numerical_error(self):
        px, y, split = self.make_inputs()
        huge = np.full_like(px, 1e308)
        cfg = TrainConfig(learning_rate=0.01, epochs=5, hidden_dims=(16,), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="non-finite"
        ):
            train_node_classifier(huge, y, split, cfg)

    def test_rejects_unlabeled_and_empty_parts(self):
        px, y, split = self.make_inputs()
        masked = y.labels.copy()
        masked[split.train[0]] = -1
        with pytest.raises(DomainError):
            train_node_classifier(
                px, LabelVector(labels=masked, num_classes=y.num_classes), split,
                TrainConfig(learning_rate=0.01, epochs=5),
            )
        bad = Split(train=np.arange(10), val=np.array([], dtype=int), test=np.array([11]))
        with pytest.raises(DomainError):
            train_node_classifier(px, y, bad, TrainConfig(learning_rate=0.01, epochs=5))

    def test_more_classes_than_labeled_nodes_is_refused_before_any_allocation(self):
        """One stray label of 10**12 on 8 rows named 10**12 + 1 classes,
        and the loss's (train rows x classes) scratch raised MemoryError;
        now the count is refused, naming both numbers, before any array
        of the head is allocated."""
        labels = np.array([0, 1, 0, 1, 0, 1, -1, 10**12])
        y = LabelVector(labels=labels, num_classes=10**12 + 1)
        cfg = TrainConfig(learning_rate=0.01, epochs=1)
        tracemalloc.start()
        try:
            with pytest.raises(
                DomainError, match="labels name 1000000000001 classes but only 7 nodes are labeled"
            ):
                train_node_classifier(np.zeros((8, 3)), y, make_split(8, 0), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        few = LabelVector(labels=np.array([0, 1, 2, -1]), num_classes=3)  # as many as labeled
        tasks._check_class_count(few)

    def test_refuses_features_that_are_not_a_matrix(self):
        """1-d features raised a bare IndexError in init_mlp."""
        _, y, split = self.make_inputs()
        n = len(y.labels)
        for features in (np.zeros(n), np.zeros((n, 2, 1)), np.zeros((n - 1, 2))):
            with pytest.raises(DimensionError, match=rf"features must be \({n}, d\), got"):
                train_node_classifier(features, y, split, TrainConfig(learning_rate=0.01, epochs=1))


class TestTrainHyperlinkPredictor:
    def make_inputs(self, seed=0):
        h, x, _ = planted_case(seed, n=150, noise=0.3)
        split = make_split(h.m, seed)
        data = negative_sample(h, 0.5, 5, seed)
        visible = sorted(set(split.train.tolist()) | set(split.val.tolist()))
        sub = Hypergraph.from_edges([h.edges[i] for i in visible], n=h.n)
        atilde = normalize_with_self_loops(weighted_clique_expansion(sub))
        pf = propagate(atilde, x, PropagationConfig(layers=2, alpha=0.5))
        return h, x, pf, data, split

    def test_separates_real_from_fake(self):
        _, _, pf, data, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=80, hidden_dims=(32,), seed=0)
        _, metrics = train_hyperlink_predictor(pf, data, split, cfg)
        assert metrics.auc is not None and metrics.auc >= 0.7
        assert metrics.accuracy is None

    def test_rejects_features_propagated_over_test_edges(self):
        """Leakage guard: propagating over the full hypergraph (test
        positives included) must be refused."""
        h, x, _, data, split = self.make_inputs()
        atilde_full = normalize_with_self_loops(weighted_clique_expansion(h))
        pf_full = propagate(atilde_full, x, PropagationConfig(layers=2, alpha=0.5))
        with pytest.raises(ContractViolation):
            train_hyperlink_predictor(
                pf_full, data, split, TrainConfig(learning_rate=0.01, epochs=5)
            )

    def test_seed_determinism(self):
        _, _, pf, data, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.01, epochs=20, hidden_dims=(16,), seed=2)
        _, a = train_hyperlink_predictor(pf, data, split, cfg)
        _, b = train_hyperlink_predictor(pf, data, split, cfg)
        assert a.auc == b.auc

    def test_matches_the_reference_loop_bit_for_bit(self):
        """With dropout and two hidden layers; the best validation epoch
        (27 of 60 here) is not the last one."""
        _, _, pf, data, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=0.1, epochs=60, dropout=0.3, hidden_dims=(16, 8), seed=3)
        params, metrics = train_hyperlink_predictor(pf, data, split, cfg)
        want, want_auc = reference_hyperlink_predictor(pf, data, split, cfg)
        assert metrics.auc == want_auc
        for got, ref in zip(params.weights + params.biases, want.weights + want.biases):
            assert np.array_equal(got, ref)

    def test_output_bias_starts_at_the_prior_log_odds(self):
        """One step of a tiny learning rate leaves the output bias at
        log(P/N), which is log(1/beta) for sampled negatives."""
        _, _, pf, data, split = self.make_inputs()
        cfg = TrainConfig(learning_rate=1e-12, epochs=1, hidden_dims=(8,), seed=0)
        params, _ = train_hyperlink_predictor(pf, data, split, cfg)
        assert params.biases[-1] == pytest.approx([np.log(1 / 5)], abs=1e-9)

    def test_refuses_a_train_part_without_negatives(self):
        """Only a hand-built dataset gets here: log(P/N) has no value."""
        _, _, pf, data, split = self.make_inputs()
        keep = np.flatnonzero(~np.isin(data.source, split.train))
        indptr, indices = _rows(data.negatives, keep)
        negatives = Hypergraph(n=data.positives.n, indptr=indptr, indices=indices)
        bare = HyperlinkDataset(data.positives, negatives, data.source[keep])
        with pytest.raises(DomainError, match="train part has no negatives"):
            train_hyperlink_predictor(pf, bare, split, TrainConfig(learning_rate=0.01, epochs=5))

    def test_overflowing_features_raise_numerical_error(self):
        _, _, pf, data, split = self.make_inputs()
        huge = dataclasses.replace(pf, matrix=np.full_like(pf.matrix, 1e308))
        cfg = TrainConfig(learning_rate=0.01, epochs=5, hidden_dims=(16,), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="non-finite"
        ):
            train_hyperlink_predictor(huge, data, split, cfg)

    def test_rejects_features_without_a_structure_digest(self):
        """No digest is no operator of the train+val positives: the one
        comparison refuses it."""
        _, _, pf, data, split = self.make_inputs()
        untagged = dataclasses.replace(pf, structure=None)
        with pytest.raises(ContractViolation, match=r"not the train\+val positives"):
            train_hyperlink_predictor(
                untagged, data, split, TrainConfig(learning_rate=0.01, epochs=5)
            )

    def test_saved_and_loaded_features_train_as_the_in_memory_ones(self, tmp_path):
        """The `.tfhn` footer keeps the operator's digest, so features of
        the train+val operator read back from disk pass the leakage check
        and give the in-memory run's metric and best parameters, byte
        for byte."""
        _, _, pf, data, split = self.make_inputs()
        save_propagated(tmp_path / "trainval.tfhn", pf)
        loaded = load_propagated(tmp_path / "trainval.tfhn")
        cfg = TrainConfig(learning_rate=0.05, epochs=15, dropout=0.2, hidden_dims=(16,), seed=1)
        want_params, want = train_hyperlink_predictor(pf, data, split, cfg)
        got_params, got = train_hyperlink_predictor(loaded, data, split, cfg)
        assert (got.auc, got.accuracy) == (want.auc, want.accuracy)
        got_arrays = got_params.weights + got_params.biases
        want_arrays = want_params.weights + want_params.biases
        assert [a.tobytes() for a in got_arrays] == [b.tobytes() for b in want_arrays]

    def test_rejects_negative_split_indices(self):
        """-1 would wrap to the last positive: the split is refused, as
        the classification trainer refuses it."""
        h, x, _ = planted_case(0, n=60, noise=0.3)
        h = Hypergraph.from_edges(h.edges[:40], n=h.n)
        data = negative_sample(h, 0.5, 2, 0)
        split = Split(
            train=np.arange(20), val=np.arange(20, 30), test=np.array([-1, -2, -3, 30, 31])
        )
        sub = Hypergraph.from_edges([h.edges[i] for i in range(30)], n=h.n)
        pf = propagate(
            normalize_with_self_loops(weighted_clique_expansion(sub)), x,
            PropagationConfig(layers=2, alpha=0.5),
        )
        with pytest.raises(BoundsError, match="outside the dataset"):
            train_hyperlink_predictor(
                pf, data, split, TrainConfig(learning_rate=0.01, epochs=5, hidden_dims=(8,))
            )

    def test_no_candidate_set_is_alive_when_training_starts(self, monkeypatch):
        """Only the pooled rows are read, so the train and val candidate
        sets are freed once pooled, before the epoch loop."""
        _, _, pf, data, split = self.make_inputs()
        real_split, real_fit = tasks._split_candidates, tasks._fit
        made, alive = [], []

        def split_spy(data, part):
            cands, targets = real_split(data, part)
            made.append(weakref.ref(cands))
            return cands, targets

        def fit_spy(*args, **kwargs):
            alive.append([ref() is not None for ref in made])
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tasks, "_split_candidates", split_spy)
        monkeypatch.setattr(tasks, "_fit", fit_spy)
        cfg = TrainConfig(learning_rate=0.01, epochs=3, hidden_dims=(8,))
        train_hyperlink_predictor(pf, data, split, cfg)
        assert alive == [[False, False]]

    def test_negatives_follow_their_source_split(self):
        h, _, pf, data, split = self.make_inputs()
        cands, targets = _split_candidates(data, split.test)
        n_pos = int(targets.sum())
        assert n_pos == len(split.test)
        assert len(cands) - n_pos == 5 * n_pos  # beta = 5 in make_inputs


class TestEpochWorkspace:
    """Both heads train in one run-long workspace: after the first
    epoch, no epoch allocates a batch-sized array."""

    @staticmethod
    def nc_run():
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4000, 8))
        labels = LabelVector(labels=rng.integers(0, 64, size=4000), num_classes=64)
        split = make_split(4000, 0)
        return len(split.train), lambda cfg: train_node_classifier(x, labels, split, cfg)

    @staticmethod
    def hp_run():
        h, x, _ = generate(PlantedConfig(
            n=600, m=1500, classes=4, size_range=(3, 5), p_in=0.95,
            feature_dim=8, feature_noise=0.3, seed=0,
        ))
        split = make_split(h.m, 0)
        data = negative_sample(h, 0.5, 5, 0)
        visible = _trainval_hypergraph(data, split)
        atilde = normalize_with_self_loops(weighted_clique_expansion(visible))
        pf = propagate(atilde, x, PropagationConfig(layers=2, alpha=0.5))
        rows = len(_split_candidates(data, split.train)[1])
        return rows, lambda cfg: train_hyperlink_predictor(pf, data, split, cfg)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("head", ["nc", "hp"])
    def test_no_epoch_after_the_first_allocates_a_batch_array(self, head, dropout, monkeypatch):
        """At the default head (hidden [64]), every batch array is at
        least rows x 64 float64: the hidden layer, its delta, and for nc
        (64 classes here) the logits, which the loss turns into its
        gradient in place.  The spy marks each Adam step, so one interval
        holds an epoch's validation pass and the next epoch's training
        pass, loss and backward.  What each allocates beyond what it
        began with stays under half such an array: the rectifier mask
        (an eighth), vectors of one value per row and 64 KB blocks (the
        keep mask under dropout, the loss's exp, Adam's pair)."""
        rows, run = self.nc_run() if head == "nc" else self.hp_run()
        marks = []

        def spy(*args):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return adam_step(*args)

        monkeypatch.setattr(tasks, "adam_step", spy)
        tracemalloc.start()
        try:
            run(TrainConfig(learning_rate=0.01, epochs=6, dropout=dropout))
        finally:
            tracemalloc.stop()
        assert len(marks) == 6
        batch = rows * 64 * 8
        grown = [(peak - held) / batch for (held, _), (_, peak) in zip(marks, marks[1:])]
        assert max(grown) < 0.5, grown

    def test_nc_peak_is_its_row_copies_and_buffers(self):
        """At 20 000 nodes, 160 features and 160 classes, with a shuffled
        split, node classification peaks at the gathered train and val
        rows and the run-long buffers (hidden and logits, train rows
        each), plus under a quarter of the logits buffer: the loss keeps
        no (train rows x classes) scratch, which was 12.8 MB more."""
        rng = np.random.default_rng(0)
        n, width = 20_000, 160
        x = rng.standard_normal((n, width))
        labels = LabelVector(labels=rng.integers(0, width, size=n), num_classes=width)
        split = make_split(n, 0)
        tracemalloc.start()
        try:
            train_node_classifier(x, labels, split, TrainConfig(learning_rate=0.01, epochs=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        logits = len(split.train) * width * 8
        held = (len(split.train) + len(split.val)) * width * 8 + len(split.train) * (64 + width) * 8
        assert peak <= held + 0.25 * logits, (peak - held) / logits
