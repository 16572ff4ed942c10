"""Tests for the planted-partition generator."""

import re

import numpy as np
import pytest

from hyperprop.core import load_features, load_hypergraph, load_labels
from hyperprop.errors import ConfigError
from hyperprop.synthetic import PlantedConfig, emit_dataset, generate


def base_cfg(**overrides):
    kw = dict(
        n=60, m=40, classes=3, size_range=(2, 4), p_in=0.9,
        feature_dim=8, feature_noise=0.5, seed=0,
    )
    kw.update(overrides)
    return PlantedConfig(**kw)


class TestConfigValidation:
    def test_size_range_must_fit_smallest_class(self):
        # 60 nodes over 3 classes leaves 20 per class
        with pytest.raises(ConfigError):
            base_cfg(size_range=(2, 21))

    def test_feature_dim_must_host_orthogonal_means(self):
        with pytest.raises(ConfigError):
            base_cfg(feature_dim=2)

    def test_other_domains(self):
        with pytest.raises(ConfigError):
            base_cfg(size_range=(1, 3))
        with pytest.raises(ConfigError):
            base_cfg(p_in=1.5)
        with pytest.raises(ConfigError):
            base_cfg(classes=0)
        with pytest.raises(ConfigError):
            base_cfg(feature_noise=-1.0)

    @pytest.mark.parametrize("value", [True, 2.5], ids=["bool", "float"])
    @pytest.mark.parametrize("field", ["n", "m", "classes", "feature_dim", "size_range"])
    def test_counts_must_be_integers(self, field, value):
        """m=True built one hyperedge, and a float count ended in a bare
        TypeError or ValueError inside `generate`."""
        with pytest.raises(ConfigError, match="integer"):
            base_cfg(**{field: (2, value) if field == "size_range" else value})

    @pytest.mark.parametrize("seed", [True, -1, 1.5], ids=["bool", "negative", "float"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        """True generated seed 1's instance; -1 and 1.5 failed inside
        numpy's generator, in `generate`."""
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            base_cfg(seed=seed)

    def test_infinite_feature_noise_is_refused(self):
        """It was accepted, and `generate` returned non-finite features,
        which `save_features` wrote and `load_features` later refused."""
        with pytest.raises(ConfigError, match="feature noise must be finite and >= 0, got inf"):
            base_cfg(feature_noise=float("inf"))

    def test_nan_feature_noise_is_refused(self):
        """NaN fails every comparison, so the check is written to fail on
        it; otherwise `generate` writes all-NaN features."""
        with pytest.raises(ConfigError):
            base_cfg(feature_noise=float("nan"))


class TestGenerate:
    def test_shapes_and_round_robin_labels(self):
        h, x, y = generate(base_cfg())
        assert h.n == 60 and h.m == 40
        assert x.shape == (60, 8)
        np.testing.assert_array_equal(y.labels, np.arange(60) % 3)
        assert y.num_classes == 3

    def test_seed_determinism_and_sensitivity(self):
        h1, x1, _ = generate(base_cfg())
        h2, x2, _ = generate(base_cfg())
        assert h1.n == h2.n and h1.edges == h2.edges
        np.testing.assert_array_equal(x1, x2)
        h3, x3, _ = generate(base_cfg(seed=1))
        assert h1.edges != h3.edges or not np.array_equal(x1, x3)

    def test_pure_homophily_yields_single_class_hyperedges(self):
        h, _, y = generate(base_cfg(p_in=1.0, m=100))
        for edge in h.edges:
            classes = {int(y.labels[v]) for v in edge}
            assert len(classes) == 1

    def test_hyperedge_sizes_respect_range(self):
        h, _, _ = generate(base_cfg(size_range=(3, 5), m=200))
        sizes = {len(e) for e in h.edges}
        assert sizes <= {3, 4, 5}
        assert len(sizes) > 1  # range is actually sampled

    def test_noiseless_features_are_exact_class_means(self):
        _, x, y = generate(base_cfg(feature_noise=0.0))
        for i in range(60):
            want = np.zeros(8)
            want[y.labels[i]] = 1.0
            np.testing.assert_array_equal(x[i], want)

    def test_class_means_recoverable_under_noise(self):
        cfg = base_cfg(n=300, classes=3, feature_noise=0.5, m=10)
        _, x, y = generate(cfg)
        for c in range(3):
            mean = x[y.labels == c].mean(axis=0)
            want = np.zeros(8)
            want[c] = 1.0
            np.testing.assert_allclose(mean, want, atol=0.2)


class TestEmitDataset:
    def test_files_round_trip_and_echo_seed(self, tmp_path):
        cfg = base_cfg(seed=42)
        paths = emit_dataset(tmp_path, cfg)
        assert all("seed42" in p.name for p in paths.values())
        h, x, y = generate(cfg)
        again = load_hypergraph(paths["edges"])
        assert again.n == h.n and again.edges == h.edges
        np.testing.assert_array_equal(load_features(paths["features"]), x)
        np.testing.assert_array_equal(load_labels(paths["labels"]).labels, y.labels)

    def test_isolated_nodes_survive_the_round_trip(self, tmp_path):
        # tiny m leaves some nodes out of every hyperedge; the header keeps n
        cfg = base_cfg(m=1, seed=3)
        paths = emit_dataset(tmp_path, cfg)
        assert load_hypergraph(paths["edges"]).n == 60
