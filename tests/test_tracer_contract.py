"""The benchmark's tracer (perfbench/tracer.py) wraps the package's
public functions and ``Hypergraph.from_edges``, counts the hyperedges
``load_hypergraph`` returns, and expects a fixed span order for the
clique expansion.  This runs its fast checks, so a change to the package
that breaks the tracer fails here rather than in the benchmark."""

import os
import subprocess
import sys
from pathlib import Path

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
