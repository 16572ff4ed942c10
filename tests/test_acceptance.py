"""Acceptance suite: one test per shipping criterion.

Each test pins the advertised tolerance and, where stated, a wall-clock
budget.  A summary line per criterion is printed at the end of the
pytest run (see conftest).  Criterion 8 needs externally fetched
benchmark datasets and is skipped when they are absent; everything
else is self-contained.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import hyperprop.cli as cli
from hyperprop.core import Hypergraph, LabelVector, load_features, load_hypergraph, load_labels
from hyperprop.expansion import normalize_with_self_loops, weighted_clique_expansion
from hyperprop.nn import TrainConfig, init_mlp, mlp_backward, mlp_forward, sigmoid_bce, softmax_cross_entropy
from hyperprop.propagation import PropagationConfig, propagate
from hyperprop.synthetic import PlantedConfig, generate
from hyperprop.tasks import Split, auc, make_split, train_node_classifier
from hyperprop.verify import check_oversmoothing, check_receptive_field, check_unification

from oracles import auc_bruteforce, finite_difference_grads, propagation_polynomial, random_hypergraph_edges

DATA_ROOT = Path(os.environ.get("HYPERPROP_DATA", Path(__file__).resolve().parent.parent / "data"))


def test_criterion_01_unification_of_reference_models():
    """All four linearized models match the unified polynomial to 1e-9
    relative Frobenius over 50 random hypergraphs, within 10 seconds."""
    tic = time.perf_counter()
    report = check_unification(
        cases=50, seed=2024, depths=(1, 2, 3, 4, 5), gammas=(0.1, 0.3, 0.5), tol=1e-9
    )
    elapsed = time.perf_counter() - tic
    assert report.failures == 0, f"{report.failures} mismatches, worst {report.worst:.3e}"
    assert report.worst <= 1e-9
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_receptive_field_equals_khop():
    """Operator support equals breadth-first L-hop neighbourhoods exactly
    (tolerance 0) for L in {1,2,3} over 50 random hypergraphs, within 10 s."""
    tic = time.perf_counter()
    report = check_receptive_field(cases=50, seed=2024, depths=(1, 2, 3), alpha=0.3)
    elapsed = time.perf_counter() - tic
    assert report.failures == 0, f"{report.failures} support mismatches"
    assert report.worst == 0.0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_03_oversmoothing_resistance():
    """propagate(L=500, alpha=0.3) lands on the closed-form energy
    minimizer (1e-6 relative) and no random probe beats its energy;
    10 instances within 30 seconds."""
    tic = time.perf_counter()
    report = check_oversmoothing(
        cases=10, seed=2024, alpha=0.3, layers=500, probes=100, tol=1e-6
    )
    elapsed = time.perf_counter() - tic
    assert report.failures == 0, f"{report.failures} divergent instances"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_04_recurrence_equals_polynomial():
    """The production recurrence reproduces the explicit polynomial-sum
    operator to 1e-12 relative Frobenius for n<=50, L<=10, alpha in
    {0, 0.3, 0.7}."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(15):
        n, edges = random_hypergraph_edges(rng, n_range=(4, 50))
        h = Hypergraph.from_edges(edges, n=n)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        x = rng.standard_normal((n, 6))
        dense = atilde.matrix.toarray()
        for alpha in (0.0, 0.3, 0.7):
            for layers in (0, 1, 3, 7, 10):
                got = propagate(atilde, x, PropagationConfig(layers=layers, alpha=alpha)).matrix
                want = propagation_polynomial(dense, alpha, layers) @ x
                rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
                worst = max(worst, rel)
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"


def test_criterion_05_gradients_match_finite_differences():
    """Backprop through the head and both losses agrees with central
    differences (h=1e-5) to 1e-4 max relative error on 20 random nets."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for net in range(20):
        d_in = int(rng.integers(2, 6))
        d_hidden = int(rng.integers(2, 7))
        use_bce = net % 2 == 0
        d_out = 1 if use_bce else int(rng.integers(2, 5))
        params = init_mlp([d_in, d_hidden, d_out], rng)
        for b in params.biases:
            b += 0.1  # keep preactivations off the relu kink, where FD is invalid
        x = rng.standard_normal((6, d_in))
        if use_bce:
            targets = rng.integers(0, 2, size=6).astype(float)

            def loss_fn():
                return sigmoid_bce(mlp_forward(params, x), targets)[0]

            logits, fwd = mlp_forward(params, x, cache=True)
            _, grad = sigmoid_bce(logits, targets)
            grad = grad.reshape(logits.shape)
        else:
            labels = rng.integers(0, d_out, size=6)

            def loss_fn():
                return softmax_cross_entropy(mlp_forward(params, x), labels)[0]

            logits, fwd = mlp_forward(params, x, cache=True)
            _, grad = softmax_cross_entropy(logits, labels)
        analytic_w, analytic_b = mlp_backward(params, fwd, grad)
        numeric = finite_difference_grads(loss_fn, params.weights + params.biases, h=1e-5)
        for a, n_ in zip(analytic_w + analytic_b, numeric):
            rel = np.abs(a - n_) / np.maximum(np.maximum(np.abs(a), np.abs(n_)), 1e-4)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"


def test_criterion_06_propagation_beats_raw_features():
    """On planted partitions (n=500, p_in=0.9, feature noise 2.0) the
    head trained on propagated features beats the head trained on raw
    features by at least 10 accuracy points, averaged over 10 seeds,
    with both pipelines finishing inside 60 seconds."""
    tic = time.perf_counter()
    raw_accs, prop_accs = [], []
    for seed in range(10):
        cfg = PlantedConfig(
            n=500, m=600, classes=5, size_range=(3, 6), p_in=0.9,
            feature_dim=12, feature_noise=2.0, seed=seed,
        )
        h, x, y = generate(cfg)
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        px = propagate(atilde, x, PropagationConfig(layers=6, alpha=0.1)).matrix
        idx = make_split(h.n, seed)
        tc = TrainConfig(learning_rate=0.01, epochs=150, hidden_dims=(64,), seed=seed)
        _, on_raw = train_node_classifier(x, y, idx, tc)
        _, on_prop = train_node_classifier(px, y, idx, tc)
        raw_accs.append(on_raw.accuracy)
        prop_accs.append(on_prop.accuracy)
    elapsed = time.perf_counter() - tic
    gap = 100.0 * (float(np.mean(prop_accs)) - float(np.mean(raw_accs)))
    assert gap >= 10.0, f"gap only {gap:.1f} points"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_auc_equals_bruteforce():
    """Rank-based AUC equals the quadratic pairwise count to 1e-12 on
    100 fuzzed score sets, including heavily tied ones."""
    rng = np.random.default_rng(2024)
    for case in range(100):
        n_pos = int(rng.integers(1, 40))
        n_neg = int(rng.integers(1, 40))
        if case % 3 == 0:  # integer scores: many exact ties
            pos = rng.integers(0, 4, size=n_pos).astype(float)
            neg = rng.integers(0, 4, size=n_neg).astype(float)
        elif case % 3 == 1:
            pos = np.round(rng.standard_normal(n_pos), 1)
            neg = np.round(rng.standard_normal(n_neg), 1)
        else:
            pos = rng.standard_normal(n_pos)
            neg = rng.standard_normal(n_neg)
        assert abs(auc(pos, neg) - auc_bruteforce(pos, neg)) <= 1e-12


def _benchmark_dir(name: str) -> Path | None:
    d = DATA_ROOT / name
    if all((d / f).is_file() for f in ("edges.txt", "features.npy", "labels.txt")):
        return d
    return None


@pytest.mark.skipif(
    _benchmark_dir("cora_ca") is None or _benchmark_dir("citeseer") is None,
    reason="benchmark datasets not fetched (see scripts/prepare_dataset.py)",
)
def test_criterion_08_benchmark_reproduction():
    """Optional: published mean accuracies reproduced within 2.0 points
    on the co-authorship/co-citation benchmarks (10 seeds each)."""
    settings = {
        "cora_ca": dict(layers=2, alpha=0.3, lr=0.001, dropout=0.7, hidden=(1024, 1024), want=86.54),
        "citeseer": dict(layers=8, alpha=0.65, lr=0.001, dropout=0.9, hidden=(1024, 1024), want=74.82),
    }
    for name, s in settings.items():
        d = _benchmark_dir(name)
        h = load_hypergraph(d / "edges.txt")
        x = load_features(d / "features.npy")
        y = load_labels(d / "labels.txt")
        atilde = normalize_with_self_loops(weighted_clique_expansion(h))
        px = propagate(atilde, x, PropagationConfig(layers=s["layers"], alpha=s["alpha"])).matrix
        labeled = y.labeled_indices
        accs = []
        for seed in range(10):
            idx = make_split(len(labeled), seed)
            split = Split(train=labeled[idx.train], val=labeled[idx.val], test=labeled[idx.test])
            cfg = TrainConfig(
                learning_rate=s["lr"], epochs=200, dropout=s["dropout"],
                hidden_dims=s["hidden"], seed=seed,
            )
            _, metrics = train_node_classifier(px, y, split, cfg)
            accs.append(metrics.accuracy)
        mean = 100.0 * float(np.mean(accs))
        assert abs(mean - s["want"]) <= 2.0, f"{name}: got {mean:.2f}, want {s['want']}+-2.0"


def test_criterion_09_precompute_speed(tmp_path):
    """One-shot preprocessing of a co-citation-scale instance
    (n=3312, m=1079, d=3703) completes in under a second."""
    cfg = PlantedConfig(
        n=3312, m=1079, classes=6, size_range=(2, 5), p_in=0.9,
        feature_dim=3703, feature_noise=1.0, seed=0,
    )
    from hyperprop.core import save_features, save_hypergraph, save_labels

    h, x, y = generate(cfg)
    save_hypergraph(tmp_path / "edges.txt", h)
    save_features(tmp_path / "features.npy", x)
    save_labels(tmp_path / "labels.txt", y)
    config = {
        "dataset": {"edges": str(tmp_path / "edges.txt"), "features": str(tmp_path / "features.npy")},
        "propagation": {"layers": 2, "alpha": 0.3},
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    tic = time.perf_counter()
    code = cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")])
    elapsed = time.perf_counter() - tic
    assert code == 0
    assert elapsed < 1.0, f"precompute took {elapsed:.2f}s"
    meta = json.loads((tmp_path / "pre" / "precompute.json").read_text())
    assert meta["timing"]["preprocess_seconds"] < 1.0


def test_criterion_10_deterministic_metric_payloads(tmp_path):
    """Identical config and seeds give byte-identical metric records
    once timing fields are stripped."""
    data_dir = tmp_path / "data"
    config = {
        "dataset": {
            "name": "det",
            "edges": str(data_dir / "edges_seed5.txt"),
            "features": str(data_dir / "features_seed5.npy"),
            "labels": str(data_dir / "labels_seed5.txt"),
        },
        "synthetic": {
            "n": 80, "m": 60, "classes": 4, "size_min": 2, "size_max": 4,
            "p_in": 0.9, "feature_dim": 8, "feature_noise": 0.8, "seed": 5,
        },
        "propagation": {"layers": 2, "alpha": 0.3},
        "train": {"learning_rate": 0.01, "epochs": 30, "dropout": 0.4, "hidden_dims": [16]},
        "seeds": [0, 1, 2],
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    assert cli.main(["generate", "--config", str(cfg_file), "--out", str(data_dir)]) == 0
    outputs = []
    for task in ("nc", "hp"):
        task_outputs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{task}_{run}"
            code = cli.main([
                "train", "--config", str(cfg_file), "--task", task,
                "--inline-precompute", "--out", str(out),
            ])
            assert code == 0
            lines = (out / "metrics.jsonl").read_text().splitlines()
            payloads = [json.dumps(json.loads(l)["payload"], sort_keys=True) for l in lines]
            task_outputs.append("\n".join(payloads).encode())
        assert task_outputs[0] == task_outputs[1], f"{task} payloads differ between reruns"
        outputs.append(task_outputs[0])
    assert outputs[0] != outputs[1]  # the two tasks genuinely measured different things
