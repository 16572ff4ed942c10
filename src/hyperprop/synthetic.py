"""Planted-partition hypergraph generator for self-contained benchmarks.

Nodes get classes round-robin; each hyperedge is class-pure with
probability ``p_in`` (members drawn from one class) and drawn from all
nodes otherwise.  Features are noisy copies of orthogonal unit-norm
class means, so classification difficulty is controlled by the noise
scale alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Hypergraph, LabelVector, _positive_integers
from .core import save_features, save_hypergraph, save_labels
from .errors import ConfigError

__all__ = ["PlantedConfig", "generate", "emit_dataset"]


@dataclass(frozen=True)
class PlantedConfig:
    """Shape and difficulty knobs of a planted-partition instance."""

    n: int
    m: int
    classes: int
    size_range: tuple[int, int] = (2, 4)
    p_in: float = 0.9
    feature_dim: int = 16
    feature_noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.size_range
        if not (_positive_integers([self.n]) and _positive_integers([self.m], 0)):
            raise ConfigError(f"need integers n > 0 and m >= 0, got n={self.n!r}, m={self.m!r}")
        if not _positive_integers([self.classes]) or self.classes > self.n:
            raise ConfigError(f"classes must be an integer in [1, n], got {self.classes!r}")
        if not _positive_integers([lo, hi], 2) or hi < lo:
            raise ConfigError(f"size range must be integers 2 <= lo <= hi, got ({lo!r}, {hi!r})")
        if not 0.0 <= self.p_in <= 1.0:
            raise ConfigError(f"p_in must lie in [0, 1], got {self.p_in}")
        if not _positive_integers([self.feature_dim], self.classes):
            raise ConfigError(
                f"feature_dim must be an integer >= {self.classes}, one orthogonal mean per class,"
                f" got {self.feature_dim!r}"
            )
        if not 0.0 <= self.feature_noise < np.inf:
            raise ConfigError(f"feature noise must be finite and >= 0, got {self.feature_noise}")
        if not _positive_integers([self.seed], 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        # every class must be able to host a pure hyperedge of max size
        smallest_class = self.n // self.classes
        if hi > smallest_class:
            raise ConfigError(
                f"max hyperedge size {hi} exceeds smallest class size {smallest_class}"
            )


def generate(cfg: PlantedConfig) -> tuple[Hypergraph, np.ndarray, LabelVector]:
    """Deterministic instance for ``cfg``: (hypergraph, features, labels)."""
    rng = np.random.default_rng(cfg.seed)
    labels = np.arange(cfg.n, dtype=np.int64) % cfg.classes
    class_members = [np.flatnonzero(labels == c) for c in range(cfg.classes)]
    lo, hi = cfg.size_range
    edges = []
    for _ in range(cfg.m):
        size = int(rng.integers(lo, hi + 1))
        if rng.random() < cfg.p_in:
            cls = int(rng.integers(cfg.classes))
            members = rng.choice(class_members[cls], size=size, replace=False)
        else:
            members = rng.choice(cfg.n, size=size, replace=False)
        edges.append(members)
    h = Hypergraph.from_edges(edges, n=cfg.n)
    means = np.zeros((cfg.classes, cfg.feature_dim))
    means[np.arange(cfg.classes), np.arange(cfg.classes)] = 1.0
    x = means[labels] + cfg.feature_noise * rng.standard_normal((cfg.n, cfg.feature_dim))
    return h, x, LabelVector(labels=labels, num_classes=cfg.classes)


def emit_dataset(out_dir: str | Path, cfg: PlantedConfig) -> dict[str, Path]:
    """Write edges/features/labels files (seed echoed in the names)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    h, x, y = generate(cfg)
    paths = {
        "edges": out_dir / f"edges_seed{cfg.seed}.txt",
        "features": out_dir / f"features_seed{cfg.seed}.npy",
        "labels": out_dir / f"labels_seed{cfg.seed}.txt",
    }
    save_hypergraph(paths["edges"], h)
    save_features(paths["features"], x)
    save_labels(paths["labels"], y)
    return paths
