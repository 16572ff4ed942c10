"""Checks of the benchmark's tracer.  Run from the repository root:

    python3 -m pytest perfbench/tests/check_tracer.py

The file name keeps these checks out of the repository's default test
collection: the workload checks run the benchmark's traced mode once on
every workload, which takes about two minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hyperprop  # noqa: E402
from hyperprop import cli, core, expansion, nn, propagation, tasks, verify  # noqa: E402
from hyperprop.errors import DomainError  # noqa: E402
from tracer import Recorder, self_times, tracing  # noqa: E402
from workloads import ACTS, WORKLOADS  # noqa: E402


def _subtree_sums(spans: list[dict]) -> dict[int, float]:
    """Root index -> summed self time of every span under that root."""
    own = self_times(spans)
    sums: dict[int, float] = {}
    for i, span in enumerate(spans):
        root = i
        while spans[root]["parent"] >= 0:
            root = spans[root]["parent"]
        sums[root] = sums.get(root, 0.0) + own[i]
    return sums


def test_tracing_rebinds_every_namespace_and_restores_it():
    before = (
        tasks.mlp_forward,
        cli.propagate,
        verify.materialize_operator,
        hyperprop.propagate,
        core.Hypergraph.from_edges,
    )
    with tracing(Recorder()):
        assert tasks.mlp_forward is nn.mlp_forward is not before[0]
        assert cli.propagate is propagation.propagate is hyperprop.propagate is not before[1]
        assert verify.materialize_operator is propagation.materialize_operator
        assert core.Hypergraph.from_edges.__func__ is not before[4].__func__
        assert isinstance(cli.Hypergraph, type)  # classes stay unwrapped
    after = (
        tasks.mlp_forward,
        cli.propagate,
        verify.materialize_operator,
        hyperprop.propagate,
        core.Hypergraph.from_edges,
    )
    assert after[:4] == before[:4]
    assert after[4].__func__ is before[4].__func__


def test_spans_nest_count_and_add_up():
    x = np.arange(12.0).reshape(4, 3)
    cfg = propagation.PropagationConfig(layers=2, alpha=0.3)
    recorder = Recorder()
    with tracing(recorder):
        h = core.Hypergraph.from_edges([(0, 1, 2), (2, 3)])
        atilde = expansion.normalize_with_self_loops(expansion.weighted_clique_expansion(h))
        traced = propagation.propagate(atilde, x, cfg)
    plain = propagation.propagate(atilde, x, cfg)
    assert np.array_equal(traced.matrix, plain.matrix)
    assert traced.provenance == plain.provenance

    spans = recorder.spans
    names = [s["name"] for s in spans]
    assert names == [
        "core.Hypergraph.from_edges",
        "expansion.weighted_clique_expansion",
        "core.degrees",
        "core.incidence_matrix",
        "expansion.normalize_with_self_loops",
        "propagation.propagate",
        "propagation.adjacency_fingerprint",
    ]
    parents = [s["parent"] for s in spans]
    assert parents == [-1, -1, 1, 1, -1, -1, 5]
    assert spans[4]["counts"] == {"expansion.operator_builds": 1, "expansion.nnz": atilde.matrix.nnz}
    assert spans[5]["counts"]["propagation.spmm_flops"] == 2 * atilde.matrix.nnz * 3 * 2
    for root, total in _subtree_sums(spans).items():
        duration = spans[root]["end"] - spans[root]["start"]
        assert math.isclose(total, duration, rel_tol=1e-9, abs_tol=1e-12)


def test_a_raising_call_closes_its_span():
    h = core.Hypergraph.from_edges([(0, 1)])
    recorder = Recorder()
    with tracing(recorder):
        with pytest.raises(DomainError):
            core.khop_neighbours(h, 0, -1)
        core.degrees(h)
    assert [(s["name"], s["parent"]) for s in recorder.spans] == [
        ("core.khop_neighbours", -1),
        ("core.degrees", -1),
    ]
    assert recorder.spans[0]["end"] >= recorder.spans[0]["start"] > 0.0


_RUNS: dict[str, dict] = {}


def traced_run(name: str) -> dict:
    """The benchmark's traced mode on ``name`` at seed 0, run once per session."""
    if name not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0", "--trace", "1"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        work = BENCH / "_work"
        _RUNS[name] = {
            "last_line": json.loads(proc.stdout.splitlines()[-1]),
            "results": json.loads((work / "results" / f"{name}-seed0-trace1.json").read_text()),
            "spans": [json.loads(p.read_text()) for p in sorted((work / name).glob("spans-*.json"))],
        }
    return _RUNS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_are_pass_through(name):
    run = traced_run(name)
    untraced, traced = run["results"]["pass_digests"]
    assert all(untraced) and traced == untraced
    assert run["last_line"]["correct"] and run["last_line"]["failed"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_each_root(name):
    run = traced_run(name)
    assert len(run["spans"]) == len(WORKLOADS[name].commands)
    for spans in run["spans"]:
        roots = [s for s in spans if s["parent"] < 0]
        assert [s["name"] for s in roots] == ["cli.main"]
        for root, total in _subtree_sums(spans).items():
            duration = spans[root]["end"] - spans[root]["start"]
            assert math.isclose(total, duration, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_map(name):
    metrics = traced_run(name)["last_line"]["metrics"]
    for metric, acting in ACTS.items():
        value = metrics[metric]["value"]
        if name in acting:
            assert value > 0, metric
        elif not metric.endswith("_rss_mb"):
            assert value == 0, metric
