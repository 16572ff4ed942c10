"""The benchmark's tracer (perfbench/tracer.py) wraps the package's
public functions and ``Hypergraph.from_edges``, counts the hyperedges
``load_hypergraph`` returns, and expects a fixed span order for the
clique expansion.  These checks run its fast checks, trace a tiny
training of each head in-process, and resolve every span and counted
argument that the benchmark's name map (perfbench/workloads.py) and
the tracer name, so a change to the package that breaks the tracer
fails here rather than in the benchmark."""

import ast
import collections
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hyperprop import core, expansion, nn, propagation, synthetic, tasks

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


def _load(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _resolve(span: str):
    """The function a span name stands for: ``module.function`` with the
    function in the module's ``__all__``, or ``core.Hypergraph.from_edges``."""
    if span == "core.Hypergraph.from_edges":
        return importlib.import_module("hyperprop.core").Hypergraph.__dict__["from_edges"].__func__
    module_name, _, attr = span.partition(".")
    module = importlib.import_module(f"hyperprop.{module_name}")
    assert attr in getattr(module, "__all__", ()), f"{span}: not in hyperprop.{module_name}.__all__"
    fn = getattr(module, attr)
    assert inspect.isfunction(fn), f"{span}: not a function"
    return fn


def _counted_arguments(tracer_source: str) -> dict[str, set[str]]:
    """Span name -> the keys each COUNTERS entry reads off its bound
    arguments, as ``a["key"]`` in the lambda or in a module function the
    lambda hands ``a`` to."""
    tree = ast.parse(tracer_source)
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (counters,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "COUNTERS"
    ]

    def keys(node, name: str) -> set[str]:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name):
                if sub.value.id == name and isinstance(sub.slice, ast.Constant):
                    found.add(sub.slice.value)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                helper = helpers.get(sub.func.id)
                for i, arg in enumerate(sub.args):
                    if helper and isinstance(arg, ast.Name) and arg.id == name:
                        found |= keys(helper, helper.args.args[i].arg)
        return found

    return {
        key.value: keys(fn.body, fn.args.args[0].arg)
        for key, fn in zip(counters.keys, counters.values)
    }


def test_name_map_resolves_to_public_functions_and_their_parameters():
    """Every span the benchmark times, counts or watches for RSS growth
    is a public function of its module, and every argument a counter
    reads is a parameter of that function; a rename shows up here."""
    workloads, tracer = _load("workloads"), _load("tracer")
    spans = {name for names in workloads.SELF_TIME.values() for name in names}
    spans |= set(tracer.COUNTERS) | set(tracer.RSS_GROWTH)
    functions = {span: _resolve(span) for span in sorted(spans)}
    counted = _counted_arguments((ROOT / "perfbench" / "tracer.py").read_text())
    assert set(counted) == set(tracer.COUNTERS)
    for span, keys in counted.items():
        parameters = inspect.signature(functions[span]).parameters
        assert keys <= set(parameters), f"{span}: reads {sorted(keys - set(parameters))}"
    assert counted["nn.mlp_backward"] == {"params", "grad_logits"}


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
    tracer = _load("tracer")
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


def test_counters_read_the_results_and_files_they_name(tmp_path):
    """The counters that read a result's fields (``r.edges``,
    ``len(r.negatives)``) or an argument's file (``a["path"]``) run on a
    tiny traced pipeline and count what they claim, so renaming a result
    field or dropping ``Hypergraph.edges`` fails here, not only in the
    traced benchmark."""
    h, x, _ = synthetic.generate(
        synthetic.PlantedConfig(n=30, m=20, classes=3, feature_dim=4, seed=1)
    )
    edges_file, tfhn = tmp_path / "edges.txt", tmp_path / "propagated.tfhn"
    core.save_hypergraph(edges_file, h)
    beta = 3
    tracer = _load("tracer")
    recorder = tracer.Recorder()
    with tracer.tracing(recorder):
        loaded = core.load_hypergraph(edges_file)
        tasks.negative_sample(loaded, 0.5, beta, 0)
        atilde = expansion.normalize_with_self_loops(expansion.weighted_clique_expansion(loaded))
        pf = propagation.propagate(atilde, x, propagation.PropagationConfig(layers=1, alpha=0.3))
        propagation.save_propagated(tfhn, pf)
        propagation.load_propagated(tfhn)

    def counts(name: str) -> dict:
        (span,) = [s for s in recorder.spans if s["name"] == name]
        return span["counts"]

    assert counts("core.load_hypergraph") == {"core.incidences_parsed": len(loaded.indices)}
    assert counts("tasks.negative_sample") == {"tasks.negatives_drawn": beta * loaded.m}
    size = tfhn.stat().st_size
    assert counts("propagation.save_propagated") == {"propagation.bytes_written": size}
    assert counts("propagation.load_propagated")["propagation.bytes_read"] == size


def test_candidate_counter_counts_every_candidate_pooled():
    """``tasks.candidates_pooled`` is ``len(a["candidates"])``, so it
    reads ``Hypergraph.__len__``: pooling one part's candidates counts
    each of them, positives and negatives alike."""
    h, x, _ = synthetic.generate(
        synthetic.PlantedConfig(n=30, m=20, classes=3, feature_dim=4, seed=1)
    )
    data = tasks.negative_sample(h, 0.5, 3, 0)
    cands, targets = tasks._split_candidates(data, tasks.make_split(h.m, 0).train)
    tracer = _load("tracer")
    recorder = tracer.Recorder()
    with tracer.tracing(recorder):
        tasks.pool_candidates(x, cands)
    (span,) = [s for s in recorder.spans if s["name"] == "tasks.pool_candidates"]
    assert span["counts"] == {"tasks.candidates_pooled": cands.m}
    assert cands.m == len(targets) == 4 * int(targets.sum())
