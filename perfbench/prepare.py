"""Write one workload's inputs and report what the benchmark needs to know.

    PYTHONPATH=src python3 perfbench/prepare.py WORKLOAD SEED WORK_DIR

Generates the instance through the public ``hyperprop.synthetic.generate``
and ``core.save_*`` writers, writes the CLI run config beside it, and
prints one JSON object: the config and input paths, the instance's
shape, and the numpy, scipy and BLAS versions.  It runs as its own
process so that the benchmark driver stays small: a child started by
the driver inherits the driver's peak RSS as its own starting peak.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy
import scipy
from hyperprop.core import save_features, save_hypergraph, save_labels
from hyperprop.synthetic import PlantedConfig, generate

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    wl = WORKLOADS[name]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "versions": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
    }
    if wl.planted is not None:
        h, x, y = generate(PlantedConfig(seed=seed, **wl.planted))
        files = {"edges": work / "edges.txt", "features": work / "features.npy", "labels": work / "labels.txt"}
        save_hypergraph(files["edges"], h)
        save_features(files["features"], x)
        save_labels(files["labels"], y)
        dataset = {key: str(p) for key, p in files.items()}
        dataset.update(name=wl.name, propagated=str(work / "pre" / "propagated.tfhn"))
        config = work / "config.json"
        config.write_text(json.dumps({**wl.config, "dataset": dataset}, indent=2) + "\n")
        info.update(
            config=str(config),
            files={key: str(p) for key, p in files.items()},
            n=x.shape[0],
            d=x.shape[1],
            classes=y.num_classes,
        )
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
