"""The benchmark's workloads, and the map from per-layer metrics to the
spans they come from and the workloads they act on.

Each workload is a planted-partition instance (see
``hyperprop.synthetic``) plus a CLI run config; the workload seed seeds
the generator (and ``verify``), while the head's training seeds stay
fixed so the same workload seed always yields the same payloads.  Why
each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    planted: dict | None  # PlantedConfig fields except the seed
    config: dict | None  # CLI run config except the dataset paths
    commands: tuple[str, ...]  # CLI commands, run in this order


_HEAD = {"hidden_dims": [64], "learning_rate": 0.01}
# The pipelines train one seed, so that a pass fits more than once in a
# run and the run reports a median (README.md, "Noise on a shared
# machine").

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cocite-wide",
            planted=dict(
                n=3312, m=1079, classes=6, size_range=(2, 5), p_in=0.9,
                feature_dim=3703, feature_noise=1.0,
            ),
            config={
                "propagation": {"layers": 2, "alpha": 0.3},
                "train": {**_HEAD, "epochs": 50},
                "task": "nc",
                "seeds": [0],
            },
            commands=("precompute", "train"),
        ),
        Workload(
            name="hyperlink",
            planted=dict(
                n=4000, m=4000, classes=6, size_range=(2, 6), p_in=0.9,
                feature_dim=64, feature_noise=0.3,
            ),
            config={
                "propagation": {"layers": 2, "alpha": 0.3},
                "negative": {"alpha": 0.5, "beta": 5},
                "train": {**_HEAD, "epochs": 50},
                "task": "hp",
                "seeds": [0],
            },
            commands=("train",),
        ),
        Workload(
            name="selfcheck",
            planted=None,
            config=None,
            commands=("verify",),
        ),
    )
}

VERIFY_CASES = 50

# Per-layer metric -> the spans whose summed self time it reports.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "core.load_hypergraph_s": ("core.load_hypergraph",),
    "core.from_edges_s": ("core.Hypergraph.from_edges",),
    "core.incidence_matrix_s": ("core.incidence_matrix",),
    "core.load_features_s": ("core.load_features",),
    "core.load_labels_s": ("core.load_labels",),
    "core.khop_s": ("core.khop_neighbours",),
    "expansion.clique_s": ("expansion.weighted_clique_expansion",),
    "expansion.normalize_s": ("expansion.normalize_with_self_loops",),
    "propagation.propagate_s": ("propagation.propagate",),
    "propagation.fingerprint_s": ("propagation.adjacency_fingerprint",),
    "propagation.save_s": ("propagation.save_propagated",),
    "propagation.load_s": ("propagation.load_propagated",),
    "propagation.materialize_s": ("propagation.materialize_operator",),
    "propagation.closed_form_s": ("propagation.closed_form_limit",),
    "tasks.negative_sample_s": ("tasks.negative_sample",),
    "tasks.pool_candidates_s": ("tasks.pool_candidates",),
    "tasks.trainval_hash_s": ("tasks.trainval_adjacency_hash",),
    "tasks.auc_s": ("tasks.auc",),
    "tasks.train_hp_s": ("tasks.train_hyperlink_predictor",),
    "tasks.train_nc_s": ("tasks.train_node_classifier",),
    "nn.forward_s": ("nn.mlp_forward",),
    "nn.backward_s": ("nn.mlp_backward",),
    "nn.loss_s": ("nn.softmax_cross_entropy", "nn.sigmoid_bce"),
    "nn.adam_s": ("nn.adam_step",),
    "verify.unification_s": ("verify.check_unification",),
    "verify.receptive_field_s": ("verify.check_receptive_field",),
    "verify.oversmoothing_s": ("verify.check_oversmoothing",),
    "reference.run_linearized_s": ("reference.run_linearized",),
}

# Per-layer metric -> module whose cumulative `python -X importtime` time
# it reports.  A shared dependency is charged to the module that imports
# it first (numpy and scipy.sparse to core, scipy.stats to tasks), which
# is where a lazier import would show; hyperprop.cli's covers the whole
# package.
IMPORTS = {
    "cli.import_s": "hyperprop.cli",
    "core.import_s": "hyperprop.core",
    "propagation.import_s": "hyperprop.propagation",
    "tasks.import_s": "hyperprop.tasks",
}

_ALL = frozenset(WORKLOADS)
_PIPELINES = frozenset({"cocite-wide", "hyperlink"})
_PRECOMPUTED = frozenset({"cocite-wide"})
_HP = frozenset({"hyperlink"})
_VERIFY = frozenset({"selfcheck"})

# Per-layer metric -> workloads on which it must be non-zero.  Everywhere
# else a time or count must read zero (the layer never ran); a peak-RSS
# growth may read either, since it depends on what ran before the call.
ACTS = {
    "cli.import_s": _ALL,
    "cli.self_s": _ALL,
    "core.import_s": _ALL,
    "core.load_hypergraph_s": _PIPELINES,
    "core.from_edges_s": _ALL,
    "core.incidence_matrix_s": _ALL,
    "core.load_features_s": _PIPELINES,
    "core.load_labels_s": _PRECOMPUTED,
    "core.khop_s": _VERIFY,
    "core.incidences_parsed": _PIPELINES,
    "expansion.clique_s": _ALL,
    "expansion.normalize_s": _ALL,
    "expansion.operator_builds": _ALL,
    "expansion.nnz": _ALL,
    "propagation.import_s": _ALL,
    "propagation.propagate_s": _ALL,
    "propagation.fingerprint_s": _ALL,
    "propagation.save_s": _PRECOMPUTED,
    "propagation.load_s": _PRECOMPUTED,
    "propagation.propagate_rss_mb": _PRECOMPUTED,
    "propagation.load_rss_mb": _PRECOMPUTED,
    "propagation.materialize_s": _VERIFY,
    "propagation.closed_form_s": _VERIFY,
    "propagation.spmm_flops": _ALL,
    "propagation.bytes_written": _PRECOMPUTED,
    "propagation.bytes_read": _PRECOMPUTED,
    "tasks.import_s": _ALL,
    "tasks.negative_sample_s": _HP,
    "tasks.pool_candidates_s": _HP,
    "tasks.trainval_hash_s": _HP,
    "tasks.auc_s": _HP,
    "tasks.train_hp_s": _HP,
    "tasks.train_nc_s": _PRECOMPUTED,
    "tasks.negatives_drawn": _HP,
    "tasks.candidates_pooled": _HP,
    "tasks.epochs": _PIPELINES,
    "nn.forward_s": _PIPELINES,
    "nn.backward_s": _PIPELINES,
    "nn.loss_s": _PIPELINES,
    "nn.adam_s": _PIPELINES,
    "nn.forward_rows": _PIPELINES,
    "nn.gemm_flops": _PIPELINES,
    "verify.unification_s": _VERIFY,
    "verify.receptive_field_s": _VERIFY,
    "verify.oversmoothing_s": _VERIFY,
    "reference.run_linearized_s": _VERIFY,
}
