"""Command-line front end.

Four commands: ``generate`` (synthetic dataset), ``precompute``
(propagate features once, to disk), ``train`` (task head over seeds,
JSONL metrics), and ``verify`` (randomized self-checks).  The first
three read their settings from a strict JSON config; flags win over the
file (``--out`` for all three, ``--seed`` for ``generate`` and ``train``,
``--task`` for ``train``).  ``verify`` takes only ``--cases`` and ``--seed``.

Exit codes: 0 success, 1 usage, 2 bad data or config (or a run too
large for the machine's memory), 3 verification failure.  A reader that
closes stdout early changes none of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    _DECIMAL,
    Hypergraph,
    LabelVector,
    _feature_matrix,
    load_features,
    load_hypergraph,
    load_labels,
)
from .errors import ConfigError, DimensionError, HyperpropError
from .expansion import SparseAdjacency, normalize_with_self_loops, weighted_clique_expansion
from .nn import TrainConfig
from .propagation import (
    PropagatedFeatures,
    PropagationConfig,
    _read_header,
    _replacing,
    load_propagated,
    propagate,
    save_propagated,
)
from .synthetic import PlantedConfig, emit_dataset
from .tasks import (
    Metrics,
    Split,
    _check_class_count,
    _check_corruption,
    _trainval_hypergraph,
    make_split,
    negative_sample,
    train_hyperlink_predictor,
    train_node_classifier,
)
from .verify import run_all

__all__ = ["main"]

# Allowed keys of each config section, with the type each value must have:
# float accepts any JSON number, list means a list of integers, and a
# JSON boolean is never a number.
_SECTION_KEYS = {
    "dataset": dict.fromkeys(("name", "edges", "features", "labels", "propagated"), str),
    "synthetic": {
        "n": int, "m": int, "classes": int, "size_min": int, "size_max": int,
        "p_in": float, "feature_dim": int, "feature_noise": float, "seed": int,
    },
    "propagation": {"layers": int, "alpha": float},
    "train": {"learning_rate": float, "epochs": int, "dropout": float, "hidden_dims": list},
    "negative": {"alpha": float, "beta": int},
}
# What an omitted key of a section resolves to (the README's defaults).
_SECTION_DEFAULTS = {
    "propagation": {"layers": 2, "alpha": 0.3},
    "train": {"learning_rate": 0.01, "epochs": 100, "dropout": 0.0, "hidden_dims": [64]},
    "negative": {"alpha": 0.5, "beta": 5},
}
_TOP_KEYS = {**dict.fromkeys(_SECTION_KEYS, dict), "task": str, "seeds": list, "out_dir": str}

_DEFAULT_SEEDS = {"nc": list(range(10)), "hp": list(range(5))}
_METRIC = {"nc": "accuracy", "hp": "auc"}
_KINDS = {
    dict: "an object", str: "a string", int: "an integer", float: "a number",
    list: "a list of integers",
}


@dataclass
class RunConfig:
    """Validated union of config file, defaults, and flag overrides."""

    dataset: dict[str, str]
    synthetic: dict[str, Any]
    propagation: PropagationConfig
    train: TrainConfig  # seed 0; each run replaces it with its own seed
    negative: dict[str, Any]
    task: str
    seeds: list[int]
    out_dir: Path
    inline_precompute: bool = False

    def hash(self) -> str:
        """Digest of everything that affects results (not where they go)."""
        payload = {
            "dataset": self.dataset,
            "synthetic": self.synthetic,
            "propagation": {"layers": self.propagation.layers, "alpha": self.propagation.alpha},
            "train": {k: v for k, v in asdict(self.train).items() if k != "seed"},
            "negative": self.negative,
            "task": self.task,
            "seeds": self.seeds,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _has_type(value: Any, want: type) -> bool:
    if isinstance(value, bool):
        return False
    if want is float:
        return isinstance(value, (int, float))
    if want is list:
        return isinstance(value, list) and all(_has_type(v, int) for v in value)
    return isinstance(value, want)


def _check_keys(section: str, mapping: dict, allowed: dict[str, type]) -> None:
    """Refuse unknown keys, mistyped values and non-finite numbers (JSON
    ``NaN``, ``Infinity``, ``1e400``), and store each float-typed value as
    a float in place, so that a config hashes the same whether it spells
    a number 0 or 0.0."""
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")
    for key, value in list(mapping.items()):
        if not _has_type(value, allowed[key]):
            raise ConfigError(f"{section}.{key} must be {_KINDS[allowed[key]]}, got {value!r}")
        if allowed[key] is float:
            try:
                mapping[key] = float(value)
            except OverflowError:
                raise ConfigError(f"{section}.{key} is too large for a float") from None
            if not math.isfinite(mapping[key]):
                raise ConfigError(f"{section}.{key} must be a finite number, got {value!r}")


def load_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    raw: dict[str, Any] = {}
    if path is not None:
        cfg_path = Path(path)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            raw = json.loads(cfg_path.read_text())
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    _check_keys("config", raw, _TOP_KEYS)
    sections = {}
    for name, keys in _SECTION_KEYS.items():
        sections[name] = {**_SECTION_DEFAULTS.get(name, {}), **raw.get(name, {})}
        _check_keys(name, sections[name], keys)
    synthetic, train = sections["synthetic"], sections["train"]
    _check_corruption(**sections["negative"])
    if synthetic.get("seed", 0) < 0:
        raise ConfigError(f"synthetic.seed must be nonnegative, got {synthetic['seed']}")
    if any(seed < 0 for seed in raw.get("seeds", ())):
        raise ConfigError(f"config.seeds must be nonnegative integers, got {raw['seeds']!r}")
    if getattr(args, "command", None) == "generate" and args.seed is not None and synthetic:
        synthetic["seed"] = args.seed

    task = raw.get("task", "nc")
    if getattr(args, "task", None):
        task = args.task
    if task not in ("nc", "hp"):
        raise ConfigError(f"task must be 'nc' or 'hp', got {task!r}")
    seeds = raw.get("seeds", _DEFAULT_SEEDS[task])
    if getattr(args, "seed", None) is not None:
        seeds = [args.seed]
    if not seeds:
        raise ConfigError("seeds must be a nonempty list of integers, got []")
    out_dir = Path(raw.get("out_dir", "runs"))
    if getattr(args, "out", None):
        out_dir = Path(args.out)
    return RunConfig(
        dataset=sections["dataset"],
        synthetic=synthetic,
        propagation=PropagationConfig(**sections["propagation"]),
        train=TrainConfig(**{**train, "hidden_dims": tuple(train["hidden_dims"])}),
        negative=sections["negative"],
        task=task,
        seeds=list(seeds),
        out_dir=out_dir,
        inline_precompute=bool(getattr(args, "inline_precompute", False)),
    )


def _require_paths(cfg: RunConfig, *keys: str) -> dict[str, Path]:
    paths = {}
    for key in keys:
        value = cfg.dataset.get(key)
        if value is None:
            raise ConfigError(f"dataset.{key} is required for this command")
        p = Path(value)
        if not p.is_file():
            raise ConfigError(f"dataset.{key} does not exist: {p}")
        paths[key] = p
    return paths


def _dataset_name(cfg: RunConfig) -> str:
    """Callers run after `_require_paths` has accepted ``dataset.edges``."""
    return cfg.dataset.get("name") or Path(cfg.dataset["edges"]).stem


def cmd_generate(cfg: RunConfig) -> int:
    syn = dict(cfg.synthetic)
    if not syn:
        raise ConfigError("generate needs a 'synthetic' config section")
    seed = syn.pop("seed", cfg.seeds[0])
    lo, hi = PlantedConfig.size_range
    size_range = (syn.pop("size_min", lo), syn.pop("size_max", hi))
    try:
        planted = PlantedConfig(size_range=size_range, seed=seed, **syn)
    except TypeError as exc:
        raise ConfigError(f"synthetic section is incomplete: {exc}") from None
    paths = emit_dataset(cfg.out_dir, planted)
    manifest = {key: str(p) for key, p in paths.items()}
    (cfg.out_dir / f"dataset_seed{seed}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for key, p in paths.items():
        _say(f"{key}: {p}")
    return 0


def _operator(h: Hypergraph) -> tuple[SparseAdjacency, float]:
    """The normalized clique expansion of ``h`` and the seconds its build
    took.  scipy is imported before the clock starts, so its one-time
    import is not counted."""
    import scipy.sparse  # noqa: F401

    tic = time.perf_counter()
    return normalize_with_self_loops(weighted_clique_expansion(h)), time.perf_counter() - tic


def _load_inputs(paths: dict[str, Path]) -> tuple[np.ndarray, SparseAdjacency, float]:
    """The features, refused with `propagate`'s error unless they have
    the hypergraph's ``n`` rows, then its `_operator` and build seconds.
    The hypergraph dies on return: nothing holds it during propagation."""
    h = load_hypergraph(paths["edges"])
    return _feature_matrix(load_features(paths["features"]), h.n), *_operator(h)


def _propagate(
    x: np.ndarray, atilde: SparseAdjacency, build_seconds: float, cfg: PropagationConfig
) -> tuple[PropagatedFeatures, float]:
    """Propagate ``x`` in place over ``atilde`` (see `propagate`); also
    returns the seconds the build and the propagation took."""
    tic = time.perf_counter()
    pf = propagate(atilde, x, cfg, out=x)
    return pf, build_seconds + time.perf_counter() - tic


def _seed_record(cfg: RunConfig, seed: int, metrics: Metrics, preprocess_seconds: float) -> dict:
    name = _METRIC[cfg.task]
    return {
        "payload": {
            "dataset": _dataset_name(cfg),
            "task": cfg.task,
            "seed": seed,
            "config_hash": cfg.hash(),
            "metric": {name: getattr(metrics, name)},
        },
        "timing": {
            "train_seconds": metrics.train_seconds,
            "preprocess_seconds": preprocess_seconds,
        },
    }


def cmd_precompute(cfg: RunConfig) -> float:
    """Write ``propagated.tfhn`` and ``precompute.json``; return the propagation's seconds."""
    paths = _require_paths(cfg, "edges", "features")
    pf, preprocess_seconds = _propagate(*_load_inputs(paths), cfg.propagation)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_file = cfg.out_dir / "propagated.tfhn"
    save_propagated(out_file, pf)
    meta = {
        "payload": {
            "dataset": _dataset_name(cfg),
            "provenance": pf.provenance,
            "structure": pf.structure,
            "layers": cfg.propagation.layers,
            "alpha": cfg.propagation.alpha,
            "rows": int(pf.matrix.shape[0]),
            "cols": int(pf.matrix.shape[1]),
        },
        "timing": {"preprocess_seconds": preprocess_seconds},
    }
    with _replacing(cfg.out_dir / "precompute.json") as fh:
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode())
    _say(f"propagated {pf.matrix.shape[0]}x{pf.matrix.shape[1]} -> {out_file}")
    _say(f"provenance {pf.provenance}")
    _say(f"preprocess_seconds {preprocess_seconds:.4f}")
    return preprocess_seconds


def _train_nc(cfg: RunConfig) -> list[dict]:
    """One record per seed, from a `.tfhn` whose rows and layers/alpha are
    checked once: ``dataset.propagated``, or the one `cmd_precompute`
    writes into the output directory when inline.  Each seed reads only
    its labeled rows, in train|val|test order, so the head trains on
    views of one matrix, freed before the next seed reads."""
    y = load_labels(_require_paths(cfg, "edges", "features", "labels")["labels"])
    _check_class_count(y)
    if cfg.inline_precompute:
        preprocess_seconds = cmd_precompute(cfg)
        propagated = cfg.out_dir / "propagated.tfhn"
    else:
        preprocess_seconds = 0.0
        propagated = _require_paths(cfg, "propagated")["propagated"]
    with propagated.open("rb") as fh:
        stored, _, built, _ = _read_header(fh, propagated)
    if stored != len(y.labels):
        raise DimensionError(f"{stored} feature rows vs {len(y.labels)} labels")
    if built != cfg.propagation:
        want = cfg.propagation
        raise ConfigError(f"propagated file was built with {built}, config wants {want}")
    labeled = y.labeled_indices
    records = []
    for seed in cfg.seeds:
        inputs = _labeled_rows(propagated, y, labeled, make_split(len(labeled), seed))
        _, metrics = train_node_classifier(*inputs, replace(cfg.train, seed=seed))
        del inputs  # free this seed's rows before the next seed reads its own
        records.append(_seed_record(cfg, seed, metrics, preprocess_seconds))
    return records


def _labeled_rows(
    path: Path, y: LabelVector, labeled: np.ndarray, split: Split
) -> tuple[np.ndarray, LabelVector, Split]:
    """The rows ``labeled[split]`` from the `.tfhn` at ``path``, in
    train|val|test order, with their labels and the split of those local
    ranges.  ``split`` holds positions in the sorted ``labeled``."""
    order = labeled[np.concatenate([split.train, split.val, split.test])]
    pf = load_propagated(path, rows=order)
    a, b = len(split.train), len(split.train) + len(split.val)
    local = Split(train=np.arange(a), val=np.arange(a, b), test=np.arange(b, len(order)))
    return pf.matrix, LabelVector(y.labels[order], y.num_classes), local


def _train_hp(cfg: RunConfig) -> list[dict]:
    """One record per seed.  Each seed reads the features afresh and
    propagates them in place, so the run holds one feature matrix at a
    time: the previous seed's is freed before the next one is read."""
    paths = _require_paths(cfg, "edges", "features")
    h = load_hypergraph(paths["edges"])
    return [_hp_record(cfg, h, paths["features"], seed) for seed in cfg.seeds]


def _hp_record(cfg: RunConfig, h: Hypergraph, features: Path, seed: int) -> dict:
    x = _feature_matrix(load_features(features), h.n)
    split = make_split(h.m, seed)
    data = negative_sample(h, cfg.negative["alpha"], cfg.negative["beta"], seed)
    pf, seconds = _propagate(x, *_operator(_trainval_hypergraph(data, split)), cfg.propagation)
    _, metrics = train_hyperlink_predictor(pf, data, split, replace(cfg.train, seed=seed))
    return _seed_record(cfg, seed, metrics, seconds)


def cmd_train(cfg: RunConfig) -> int:
    records = _train_nc(cfg) if cfg.task == "nc" else _train_hp(cfg)
    metric_name = _METRIC[cfg.task]
    values = [r["payload"]["metric"][metric_name] for r in records]
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    total_train = sum(r["timing"]["train_seconds"] for r in records)
    records.append(
        {
            "payload": {
                "aggregate": True,
                "dataset": _dataset_name(cfg),
                "task": cfg.task,
                "config_hash": cfg.hash(),
                "metric_name": metric_name,
                "mean": mean,
                "std": std,
                "n_seeds": len(values),
            },
            "timing": {"train_seconds_total": total_train},
        }
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_file = cfg.out_dir / "metrics.jsonl"
    with _replacing(out_file) as fh:
        for record in records:
            fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
    _say(f"{metric_name}: {100 * mean:.2f} +/- {100 * std:.2f} over {len(values)} seed(s)")
    _say(f"records -> {out_file}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(cases=args.cases, seed=args.seed)
    for report in reports:
        _say(report.line())
    return 0 if all(r.passed for r in reports) else 3


def _say(line: str) -> None:
    """Print one line of a command's report.  A reader that has closed
    stdout ends the printing, not the run: stdout then points at
    os.devnull, so the later lines and the exit's flush cannot fail."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _int_from(low: int):
    """argparse type for an ASCII decimal integer of at least ``low``."""

    def parse(text: str) -> int:
        if not _DECIMAL.fullmatch(text):
            raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, seed_help in (
        ("generate", "write a planted-partition dataset", "override the config's synthetic.seed"),
        ("precompute", "propagate features once and store them", None),
        ("train", "train the task head over seeds", "override the config's seed list"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON run config")
        if seed_help:
            p.add_argument("--seed", type=_int_from(0), help=seed_help)
        p.add_argument("--out", help="override the output directory")
    p.add_argument("--task", choices=("nc", "hp"), help="override the task")  # p is train's
    p.add_argument(
        "--inline-precompute",
        action="store_true",
        help="nc only: run precompute into the output directory first, then train from its "
        "file; hp always propagates per seed",
    )
    p = sub.add_parser("verify", help="run randomized structural self-checks")
    p.add_argument("--cases", type=_int_from(1), default=50, help="random cases per suite")
    p.add_argument("--seed", type=_int_from(0), default=0, help="seed of the random cases")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = load_config(args.config, args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "precompute":
            cmd_precompute(cfg)
            return 0
        return cmd_train(cfg)
    except (HyperpropError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
