"""The benchmark's tracer (perfbench/tracer.py) wraps the package's
public functions and ``Hypergraph.from_edges``, counts the hyperedges
``load_hypergraph`` returns, and expects a fixed span order for the
clique expansion.  These checks run its fast checks, and trace a tiny
training of each head in-process, so a change to the package that
breaks the tracer fails here rather than in the benchmark."""

import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hyperprop import expansion, nn, propagation, synthetic, tasks

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_checks_pass():
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "perfbench/tests/check_tracer.py", "-k", "rebinds or nest or raising",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _children(spans: list[dict], trainer: str) -> collections.Counter:
    """Names of the direct children of the one span called ``trainer``."""
    (root,) = [i for i, s in enumerate(spans) if s["name"] == trainer]
    return collections.Counter(s["name"] for s in spans if s["parent"] == root)


def test_training_spans_sit_under_their_trainer():
    """Each epoch's loss, passes, Adam step and validation metric are
    called through the names the tracer rebinds, so a function captured
    before tracing starts (say, as a default argument) shows up here as
    a missing span."""
    epochs = 3
    h, x, y = synthetic.generate(
        synthetic.PlantedConfig(
            n=60, m=40, classes=3, size_range=(2, 4), p_in=0.9,
            feature_dim=6, feature_noise=0.5, seed=0,
        )
    )
    cfg = nn.TrainConfig(learning_rate=0.01, epochs=epochs, dropout=0.2, hidden_dims=(8,))
    prop = propagation.PropagationConfig(layers=2, alpha=0.3)
    data = tasks.negative_sample(h, 0.5, 2, 0)
    split = tasks.make_split(h.m, 0)
    visible = tasks._trainval_hypergraph(data, split)
    pf = propagation.propagate(
        expansion.normalize_with_self_loops(expansion.weighted_clique_expansion(visible)), x, prop
    )
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    with tracer.tracing(recorder):
        tasks.train_node_classifier(x, y, tasks.make_split(h.n, 0), cfg)
        tasks.train_hyperlink_predictor(pf, data, split, cfg)
    per_epoch = {"nn.mlp_backward": epochs, "nn.adam_step": epochs}
    nc = _children(recorder.spans, "tasks.train_node_classifier")
    assert nc == {
        **per_epoch, "nn.init_mlp": 1, "nn.softmax_cross_entropy": epochs,
        "nn.mlp_forward": 2 * epochs + 1,
    }
    hp = _children(recorder.spans, "tasks.train_hyperlink_predictor")
    assert hp == {
        **per_epoch, "nn.init_mlp": 1, "nn.sigmoid_bce": epochs,
        "nn.mlp_forward": 2 * epochs + 1, "tasks.auc": epochs + 1,
        "tasks.pool_candidates": 3, "tasks.trainval_adjacency_hash": 1,
    }
