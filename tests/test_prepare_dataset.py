"""scripts/prepare_dataset.py turns a JSON bundle or a directory of
pickles into the edges/features/labels files the package reads."""

import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hyperprop.core import Hypergraph, load_features, load_hypergraph, load_labels
from hyperprop.errors import DomainError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "prepare_dataset.py"
NOT_IDS = "hyperedge 5 is not a set of integer node ids"  # the edge a case appends
NOT_A_COUNT = "node count must be an integer, got n=True"


@pytest.fixture(scope="module")
def prepare():
    spec = importlib.util.spec_from_file_location("prepare_dataset", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def read_back(out: Path):
    return (
        load_hypergraph(out / "edges.txt"),
        load_features(out / "features.npy"),
        load_labels(out / "labels.txt"),
    )


def write_bundle(tmp_path: Path, labels, extra=()) -> Path:
    """A six-node bundle of five hyperedges, then the ``extra`` ones."""
    x = np.arange(12, dtype=np.float32).reshape(6, 2)
    np.save(tmp_path / "feats.npy", x)
    bundle = {
        "edges": [[2, 0, 1], [1, 2, 0], [], [3, 1], [4], *extra],
        "features": "feats.npy",
        "labels": labels,
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    return path


def test_json_bundle_drops_repeated_and_empty_hyperedges(tmp_path, prepare):
    bundle = write_bundle(tmp_path, [0, 1, -1, 1, 0, 2])
    assert prepare(["--name", "toy", "--json", str(bundle), "--out", str(tmp_path / "data")]) == 0
    h, x, y = read_back(tmp_path / "data" / "toy")
    assert h.n == 6 and h.edges == ((0, 1, 2), (1, 3), (4,))
    assert x.dtype == np.float64
    assert np.array_equal(x, np.arange(12.0).reshape(6, 2))
    assert y.labels.tolist() == [0, 1, -1, 1, 0, 2] and y.num_classes == 3


def test_pickle_directory_with_sparse_features(tmp_path, prepare):
    raw = tmp_path / "raw"
    raw.mkdir()
    x = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [3.0, 0.0]]))
    for name, obj in (
        ("hypergraph", {"a": [1, 0], "b": [2, 3, 1], "c": [0, 1]}),
        ("features", x),
        ("labels", [1, 0, 1, -1]),
    ):
        with open(raw / f"{name}.pickle", "wb") as fh:
            pickle.dump(obj, fh)
    assert prepare(["--name", "pk", "--pickle-dir", str(raw), "--out", str(tmp_path / "data")]) == 0
    h, features, y = read_back(tmp_path / "data" / "pk")
    assert h.n == 4 and h.edges == ((0, 1), (1, 2, 3))
    assert np.array_equal(features, x.toarray())
    assert y.labels.tolist() == [1, 0, 1, -1] and y.num_classes == 2


def test_bundle_without_any_label_has_one_class(tmp_path, prepare, capsys):
    bundle = write_bundle(tmp_path, [-1] * 6)
    assert prepare(["--name", "bare", "--json", str(bundle), "--out", str(tmp_path / "data")]) == 0
    assert "classes=1" in capsys.readouterr().out
    _, _, y = read_back(tmp_path / "data" / "bare")
    assert y.labels.tolist() == [-1] * 6 and y.num_classes == 1


@pytest.mark.parametrize(
    "labels, edge, message",
    [
        ([0, -2, 1, 1, 0, -1], None, "BoundsError: label -2 out of range"),
        ([0, 1, -1, 1, 0, 2], [1, 9], "BoundsError"),
        (3, None, "DimensionError: labels must be a list of 6 entries, got shape ()"),
        ([0, 1, -1], None, "DimensionError: labels must be a list of 6 entries, got shape (3,)"),
        ([0, [1], -1, 1, 0, 2], None, "ValueError: setting an array element with a sequence"),
        ([0, 1, -1, 1, 0, 2], [0, 1.7], f"DomainError: {NOT_IDS}"),
        ([0, 1, -1, 1, 0, 2], [2.0, 3], f"DomainError: {NOT_IDS}"),
        ([0, 1, -1, 1, 0, 2], ["2", 3], f"DomainError: {NOT_IDS}"),
        ([2**64 - 1] * 6, None, f"BoundsError: labels must fit in int64, got {2**64 - 1}"),
    ],
    ids=[
        "negative-label", "node-past-the-features", "scalar-labels", "short-labels",
        "ragged-labels", "float-id", "integral-float-id", "string-id", "label-past-int64",
    ],
)
def test_invalid_bundle_writes_nothing(tmp_path, prepare, labels, edge, message):
    """A bad label, labels that are not one list entry per node, or an
    edge naming a node past the features or a node id that is not an
    integer (which int() rewrote: 1.7 -> 1, "2" -> 2) ends in a one-line
    message, before the output directory is made."""
    bundle = write_bundle(tmp_path, labels, [edge] if edge else [])
    assert message in refusal(tmp_path, prepare, bundle)


def refusal(tmp_path, prepare, bundle) -> str:
    """The script's one-line exit message on ``bundle``, after checking
    that it wrote nothing."""
    with pytest.raises(SystemExit) as exc:
        prepare(["--name", "bad", "--json", str(bundle), "--out", str(tmp_path / "data")])
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert not (tmp_path / "data").exists()
    return exc.value.code


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda: Hypergraph.from_edges([[True, 2]]), "hyperedge 0 is not a set of integer node ids"),
        (lambda: Hypergraph.from_edges([[0, 1]], n=True), NOT_A_COUNT),
        (lambda: Hypergraph(n=True, indptr=[0], indices=[]), NOT_A_COUNT),
        ([[True, 2]], NOT_IDS),
        ([[1, 2], [True, 2]], "hyperedge 6 is not a set of integer node ids"),
    ],
    ids=[
        "from_edges-id", "from_edges-n", "constructor-n", "script-bool-id",
        "script-after-its-int-copy",
    ],
)
def test_a_bool_is_refused_at_every_entry(tmp_path, prepare, entry, message):
    """One id rule: `operator.index` reads True as 1, but no entry does.
    The script runs the raw edges through `from_edges` before it drops
    repeats, so [True, 2] after [1, 2] is refused, not merged into it."""
    if callable(entry):
        with pytest.raises(DomainError) as exc:
            entry()
        assert str(exc.value) == message
    else:
        bundle = write_bundle(tmp_path, [0, 1, -1, 1, 0, 2], entry)
        assert refusal(tmp_path, prepare, bundle) == f"bad: DomainError: {message}"


def test_numpy_integer_node_ids_are_taken(tmp_path, prepare):
    raw = tmp_path / "raw"
    raw.mkdir()
    edges = {"a": np.array([2, 0], np.uint8), "b": np.array([1, 2], np.int64), "c": (np.int32(3),)}
    for name, obj in (("hypergraph", edges), ("features", np.ones((4, 1))), ("labels", [0] * 4)):
        with open(raw / f"{name}.pickle", "wb") as fh:
            pickle.dump(obj, fh)
    assert prepare(["--name", "np", "--pickle-dir", str(raw), "--out", str(tmp_path / "data")]) == 0
    h, _, _ = read_back(tmp_path / "data" / "np")
    assert h.edges == ((0, 2), (1, 2), (3,))


@pytest.mark.parametrize(
    "features, message",
    [
        ("[0.5, 1.0, 2.0]", "DimensionError: features must be a (nodes, d) matrix, got (3,)"),
        ("[[0.5], [1.0, 2.0], [2.0]]", "ValueError: setting an array element with a sequence"),
    ],
    ids=["flat", "ragged"],
)
def test_features_that_are_not_a_matrix_write_nothing(tmp_path, prepare, features, message):
    """A flat or ragged feature list ends in the script's one-line
    message before the output directory is made, not in a traceback
    after the files are written."""
    bundle = tmp_path / "bundle.json"
    bundle.write_text(f'{{"edges": [[0, 1]], "features": {features}, "labels": [0, 1, 0]}}')
    with pytest.raises(SystemExit) as exc:
        prepare(["--name", "flat", "--json", str(bundle), "--out", str(tmp_path / "data")])
    assert isinstance(exc.value.code, str) and exc.value.code.startswith(f"flat: {message}")
    assert "\n" not in exc.value.code
    assert not (tmp_path / "data").exists()


def test_non_finite_feature_writes_nothing(tmp_path, prepare):
    """A NaN feature, which every later command refuses, ends in the
    script's one-line message before the output directory is made."""
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"edges": [[0, 1], [1, 2]], "features": [[0.5], [NaN], [1.0]], "labels": [0, 1, 0]}')
    with pytest.raises(SystemExit) as exc:
        prepare(["--name", "nan", "--json", str(bundle), "--out", str(tmp_path / "data")])
    assert exc.value.code == "nan: DomainError: features contain non-finite entries"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("shape", ["json", "pickle-dir"])
def test_labels_that_are_not_integers_write_nothing(tmp_path, prepare, shape):
    """Labels are handed to `LabelVector` as read, so 0.5 and 1.7 are
    refused instead of being truncated to 0 and 1."""
    labels = [0.5, 1.7, -1.0, 1.0, 0.0, 2.0]
    if shape == "json":
        source = ["--json", str(write_bundle(tmp_path, labels))]
    else:
        raw = tmp_path / "raw"
        raw.mkdir()
        for name, obj in (
            ("hypergraph", {"a": [0, 1], "b": [2, 3, 4]}),
            ("features", np.ones((6, 2))),
            ("labels", labels),
        ):
            with open(raw / f"{name}.pickle", "wb") as fh:
                pickle.dump(obj, fh)
        source = ["--pickle-dir", str(raw)]
    with pytest.raises(SystemExit) as exc:
        prepare(["--name", "frac", *source, "--out", str(tmp_path / "data")])
    assert exc.value.code == "frac: DomainError: labels must hold integers, got dtype float64"
    assert not (tmp_path / "data").exists()
