#!/usr/bin/env python3
"""Convert a downloaded hypergraph benchmark into the package's on-disk layout.

The benchmark suites commonly circulate in one of two shapes:

* a directory with ``hypergraph.pickle`` (dict: edge name -> node list),
  ``features.pickle`` (dense or scipy sparse matrix) and
  ``labels.pickle`` (list of ints), or
* a single JSON bundle with keys ``edges`` (list of node-id lists),
  ``features`` (nested list, or a path to a ``.npy`` file) and
  ``labels`` (list of ints).

Either way the output is the trio the library and the acceptance suite
read directly::

    <out>/<name>/edges.txt      # one hyperedge per line, "#n=... m=..." header
    <out>/<name>/features.npy   # float64 node-feature matrix
    <out>/<name>/labels.txt     # one integer label per node, -1 = unlabeled

Example:
    python3 scripts/prepare_dataset.py --name cora_ca --pickle-dir raw/coauthorship/cora --out data
    python3 scripts/prepare_dataset.py --name citeseer --json raw/citeseer.json --out data

No downloading happens here; fetch the raw archives however your mirror
provides them.  ``Hypergraph.from_edges`` reads the raw hyperedges, so
node ids follow the library's one rule; then repeated rows are collapsed
to their first copy and empty ones are dropped.  The class count is one
past the largest label, or 1 when no node is labeled, as ``load_labels``
reads it back.  The hypergraph, the features and the labels are checked
before anything is written: ragged or flat features, labels that are
not one list entry per feature row, a node id that is not an integer (a
bool, float or string is refused, not converted) or is past the
features, a bad label, or a non-finite feature end in a one-line
message and a nonzero exit before the output directory is made.
"""

import argparse
import json
import pickle
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperprop.core import Hypergraph, _label_vector, save_features, save_hypergraph, save_labels
from hyperprop.errors import DimensionError, DomainError, HyperpropError


def _densify(features):
    if hasattr(features, "toarray"):  # scipy sparse
        features = features.toarray()
    return np.asarray(features, dtype=np.float64)


def load_pickle_dir(raw: Path):
    with open(raw / "hypergraph.pickle", "rb") as fh:
        edges = list(pickle.load(fh).values())
    with open(raw / "features.pickle", "rb") as fh:
        features = _densify(pickle.load(fh))
    with open(raw / "labels.pickle", "rb") as fh:
        labels = np.asarray(pickle.load(fh))
    return edges, features, labels


def load_json_bundle(path: Path):
    bundle = json.loads(path.read_text())
    features = bundle["features"]
    if isinstance(features, str):
        features = np.load(Path(path).parent / features)
    return bundle["edges"], _densify(features), np.asarray(bundle["labels"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", required=True, help="dataset directory name, e.g. cora_ca")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--pickle-dir", type=Path, help="directory holding the three pickles")
    src.add_argument("--json", type=Path, help="single JSON bundle")
    ap.add_argument("--out", type=Path, default=Path("data"), help="output root (default: data)")
    args = ap.parse_args(argv)

    try:
        if args.pickle_dir:
            edges, features, labels = load_pickle_dir(args.pickle_dir)
        else:
            edges, features, labels = load_json_bundle(args.json)
    except ValueError as exc:  # a ragged array, or a bundle that is not JSON
        raise SystemExit(f"{args.name}: {type(exc).__name__}: {exc}") from None

    try:  # validate everything before the output directory exists
        if features.ndim != 2:
            raise DimensionError(f"features must be a (nodes, d) matrix, got {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,):
            raise DimensionError(f"labels must be a list of {n} entries, got shape {labels.shape}")
        if not np.isfinite(features).all():
            raise DomainError("features contain non-finite entries")
        h = Hypergraph.from_edges(edges, n=n)
        h = Hypergraph.from_edges(dict.fromkeys(e for e in h.edges if e), n=n)  # first copy of each
        y = _label_vector(labels)
    except HyperpropError as exc:
        raise SystemExit(f"{args.name}: {type(exc).__name__}: {exc}") from None

    out = args.out / args.name
    out.mkdir(parents=True, exist_ok=True)
    save_hypergraph(out / "edges.txt", h)
    save_features(out / "features.npy", features)
    save_labels(out / "labels.txt", y)
    print(f"{args.name}: n={h.n} m={h.m} d={features.shape[1]} classes={y.num_classes} -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
