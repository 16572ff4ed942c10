"""Tests for the command-line front end (run in-process via main())."""

import argparse
import dataclasses
import filecmp
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import hyperprop.cli as cli
import hyperprop.propagation as propagation
from hyperprop.core import (
    Hypergraph,
    _structure_digest,
    load_features,
    load_hypergraph,
    save_features,
    save_hypergraph,
)
from hyperprop.errors import DomainError
from hyperprop.expansion import normalize_with_self_loops, weighted_clique_expansion
from hyperprop.propagation import (
    PropagatedFeatures,
    PropagationConfig,
    load_propagated,
    save_propagated,
)
from hyperprop.synthetic import PlantedConfig, generate
from hyperprop.tasks import negative_sample


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "dataset": {},
        "synthetic": {
            "n": 60, "m": 40, "classes": 3, "size_min": 2, "size_max": 4,
            "p_in": 0.9, "feature_dim": 8, "feature_noise": 0.8, "seed": 5,
        },
        "propagation": {"layers": 2, "alpha": 0.3},
        "train": {"learning_rate": 0.01, "epochs": 25, "hidden_dims": [16]},
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg))
    return file


@pytest.fixture()
def workspace(tmp_path):
    """A generated dataset plus a config whose paths point at it."""
    data_dir = tmp_path / "data"
    cfg_file = write_config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_file), "--out", str(data_dir)]) == 0
    dataset = {
        "name": "toy",
        "edges": str(data_dir / "edges_seed5.txt"),
        "features": str(data_dir / "features_seed5.npy"),
        "labels": str(data_dir / "labels_seed5.txt"),
        "propagated": str(tmp_path / "pre" / "propagated.tfhn"),
    }
    cfg_file = write_config(tmp_path, dataset=dataset)
    return tmp_path, cfg_file


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def read_payloads(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return [json.dumps(json.loads(line)["payload"], sort_keys=True) for line in lines]


class TestUsageAndConfigErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["train", "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--config", "x"],
            ["verify", "--out", "x"],
            ["verify", "--task", "nc"],
            ["verify", "--inline-precompute"],
            ["precompute", "--inline-precompute"],
            ["generate", "--inline-precompute"],
            ["train", "--cases", "3"],
            ["generate", "--task", "nc"],
            ["precompute", "--task", "hp"],
            ["precompute", "--seed", "7"],
        ],
    )
    def test_flag_of_another_command_is_usage_error(self, argv, capsys):
        assert cli.main(argv) == 1

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_verify_cases_below_one_is_usage_error(self, cases, capsys):
        assert cli.main(["verify", "--cases", cases]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["verify", "train"])
    def test_negative_seed_flag_is_usage_error(self, workspace, capsys, command):
        tmp_path, cfg_file = workspace
        argv = {
            "verify": ["verify", "--cases", "1"],
            "train": ["train", "--config", str(cfg_file), "--out", str(tmp_path / "r")],
        }[command]
        assert cli.main([*argv, "--seed", "-1"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--cases", "\u0661"],  # Arabic-Indic one
            ["verify", "--seed", "1_0"],
            ["verify", "--cases", " 3"],
            ["train", "--seed", "\u0663"],
        ],
    )
    def test_integer_flag_that_is_not_ascii_decimal_is_usage_error(self, argv, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == ""

    def test_negative_config_seed_is_config_error(self, workspace, capsys):
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        file = write_config(tmp_path, dataset=cfg["dataset"], seeds=[0, -1])
        argv = ["train", "--config", str(file), "--inline-precompute"]
        assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 2
        assert "config.seeds must be nonnegative" in capsys.readouterr().err

    def test_negative_synthetic_seed_is_config_error(self, tmp_path, capsys):
        file = write_config(tmp_path)
        cfg = json.loads(file.read_text())
        cfg["synthetic"]["seed"] = -1
        file.write_text(json.dumps(cfg))
        assert cli.main(["generate", "--config", str(file), "--out", str(tmp_path / "d")]) == 2
        assert "synthetic.seed must be nonnegative" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys):
        file = write_config(tmp_path, train={"learning_rate": 10**400})
        assert cli.main(["train", "--config", str(file)]) == 2
        assert "train.learning_rate is too large for a float" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        file = tmp_path / "c.json"
        file.write_text(json.dumps({"propagaton": {"layers": 2}}))
        assert cli.main(["train", "--config", str(file)]) == 2
        assert "propagaton" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        file = tmp_path / "c.json"
        file.write_text(json.dumps({"train": {"learning_rte": 0.1}}))
        assert cli.main(["train", "--config", str(file)]) == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        file = tmp_path / "c.json"
        file.write_text("{not json")
        assert cli.main(["train", "--config", str(file)]) == 2

    def test_integer_literal_past_the_digit_limit_is_config_error(self, tmp_path, capsys):
        file = tmp_path / "c.json"
        file.write_text('{"seeds": [' + "9" * 5000 + "]}")
        assert cli.main(["train", "--config", str(file)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_readme_config_shows_every_key(self, tmp_path):
        """The README's complete config loads, and names every key of
        every section the loader accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A complete config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        file = tmp_path / "readme.json"
        file.write_text(block)
        cfg = cli.load_config(str(file), argparse.Namespace())
        raw = json.loads(block)
        sections = cli._SECTION_KEYS
        assert set(raw) == set(cli._TOP_KEYS)
        assert set(sections) == {key for key, kind in cli._TOP_KEYS.items() if kind is dict}
        assert {name: set(raw[name]) for name in sections} == {
            name: set(keys) for name, keys in sections.items()
        }
        assert (cfg.task, cfg.seeds, cfg.train.epochs) == (raw["task"], raw["seeds"], 60)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"propagation": {"layers": "2"}}, "propagation.layers", id="layers-str"),
            pytest.param({"propagation": {"layers": 2.5}}, "propagation.layers", id="layers-float"),
            pytest.param({"train": {"epochs": "5"}}, "train.epochs", id="epochs-str"),
            pytest.param({"train": {"hidden_dims": 16}}, "train.hidden_dims", id="hidden_dims-int"),
            pytest.param({"train": {"learning_rate": None}}, "train.learning_rate", id="lr-null"),
            pytest.param({"negative": {"beta": 2.5}, "task": "hp"}, "negative.beta", id="beta-float"),
            pytest.param({"dataset": "x"}, "config.dataset", id="dataset-str"),
            pytest.param({"seeds": [True]}, "config.seeds", id="seeds-bool"),
        ],
    )
    def test_wrongly_typed_value_is_config_error(self, tmp_path, capsys, overrides, key):
        file = write_config(tmp_path, **overrides)
        assert cli.main(["train", "--config", str(file)]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, text",
        [
            ("train", "train", "learning_rate", "Infinity"),
            ("train", "propagation", "alpha", "-Infinity"),
            ("train", "negative", "alpha", "1e400"),
            ("generate", "synthetic", "feature_noise", "NaN"),
        ],
        ids=["lr-inf", "alpha-minus-inf", "negative-alpha-1e400", "noise-nan"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, section, key, text):
        """JSON as Python reads it takes NaN, Infinity and 1e400 (inf);
        each is refused by name, before a range check compares it."""
        file = write_config(tmp_path)
        cfg = json.loads(file.read_text())
        cfg.setdefault(section, {})[key] = "@"
        file.write_text(json.dumps(cfg).replace('"@"', text))
        assert cli.main([command, "--config", str(file), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {section}.{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_readme_defaults_are_the_loaders(self):
        """The README's "Defaults when a section is omitted" paragraph
        states what an empty config resolves to."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("Defaults when a section is omitted:", 1)[1].split("\n\n", 1)[0]
        text = " ".join(text.split())
        spans = dict(re.findall(r"(propagation|train|negative|task) `([^`]*)`", text))

        def settings(section: str) -> dict:
            return {k: json.loads(v) for k, v in (kv.split("=") for kv in spans[section].split(", "))}

        cfg = cli.load_config(None, argparse.Namespace())
        prop = cfg.propagation
        assert settings("propagation") == {"layers": prop.layers, "alpha": prop.alpha}
        train = dataclasses.asdict(cfg.train)
        assert train.pop("seed") == 0
        assert settings("train") == {**train, "hidden_dims": list(train["hidden_dims"])}
        assert settings("negative") == cfg.negative
        assert spans["task"] == cfg.task
        nc, hp = re.search(r"seeds `0\.\.(\d+)` for nc and `0\.\.(\d+)` for hp", text).groups()
        assert cfg.seeds == list(range(int(nc) + 1))
        assert cli.load_config(None, argparse.Namespace(task="hp")).seeds == list(range(int(hp) + 1))

    @pytest.mark.parametrize(
        "key, blob",
        [
            ("edges", b"0 1\n0 \xff 2\n"),
            ("features", b"not a .npy file\n"),
            ("features", npy_bytes(np.array([["a", "b"]]))),
            ("labels", b"0\n\xfe\n"),
        ],
        ids=["edges", "features", "features-dtype", "labels"],
    )
    def test_unreadable_input_file_is_data_error(self, workspace, capsys, key, blob):
        tmp_path, cfg_file = workspace
        path = Path(json.loads(cfg_file.read_text())["dataset"][key])
        path.write_bytes(blob)
        argv = ["train", "--config", str(cfg_file), "--inline-precompute"]
        assert cli.main([*argv, "--out", str(tmp_path / "r")]) == 2
        assert f"error: {path.name}: " in capsys.readouterr().err

    def test_missing_dataset_path_is_data_error(self, tmp_path, capsys):
        file = write_config(tmp_path, dataset={"edges": str(tmp_path / "absent.txt")})
        assert cli.main(["precompute", "--config", str(file)]) == 2

    def test_output_below_a_regular_file_is_data_error(self, workspace, capsys):
        tmp_path, cfg_file = workspace
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, blocked",
        [(["precompute"], "propagated.tfhn"), (["train", "--inline-precompute"], "metrics.jsonl")],
    )
    def test_directory_in_place_of_an_output_file_is_data_error(
        self, workspace, capsys, command, blocked
    ):
        tmp_path, cfg_file = workspace
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert cli.main([*command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert (out / blocked).is_dir() and not list((out / blocked).iterdir())

    @pytest.mark.parametrize(
        "command",
        [["precompute"], ["train", "--inline-precompute"], ["train", "--task", "hp"]],
        ids=["precompute", "inline-precompute", "hp"],
    )
    def test_feature_rows_are_checked_before_the_operator_is_built(
        self, workspace, capsys, monkeypatch, command
    ):
        """The operator is sized by the edges' largest node id, so a
        features file of the wrong height is refused before it is built."""
        tmp_path, cfg_file = workspace
        save_features(json.loads(cfg_file.read_text())["dataset"]["features"], np.ones((4, 8)))

        def refuse(h):
            raise AssertionError("the operator was built")

        monkeypatch.setattr(cli, "weighted_clique_expansion", refuse)
        out = str(tmp_path / "out")
        assert cli.main([*command, "--config", str(cfg_file), "--out", out]) == 2
        assert "error: features must be (60, d), got (4, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "train, message",
        [
            ({"learning_rate": -1}, "learning rate must be positive, got -1.0"),
            ({"epochs": 0}, "epochs must be a positive integer, got 0"),
            ({"dropout": 1}, "dropout must lie in [0, 1), got 1.0"),
            ({"hidden_dims": [16, 0]}, "hidden widths must be positive integers, got [16, 0]"),
        ],
        ids=["lr", "epochs", "dropout", "hidden_dims"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["generate"], ["precompute"], ["train", "--inline-precompute"],
            ["train", "--task", "hp"],
        ],
        ids=["generate", "precompute", "inline-precompute", "hp"],
    )
    def test_bad_train_value_is_refused_before_any_input_is_read(
        self, workspace, capsys, monkeypatch, command, train, message
    ):
        """Every command checks the whole config at load: no input is
        parsed and ``--out`` is never made."""
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        cfg_file.write_text(json.dumps({**cfg, "train": {**cfg["train"], **train}}))

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("load_hypergraph", "load_features", "load_labels", "emit_dataset"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        assert cli.main([*command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "negative, message",
        [
            ({"alpha": -0.1}, "corruption alpha must lie in [0, 1], got -0.1"),
            ({"alpha": 1.5}, "corruption alpha must lie in [0, 1], got 1.5"),
            ({"beta": 0}, "negatives per positive must be a positive integer, got 0"),
            ({"beta": -3}, "negatives per positive must be a positive integer, got -3"),
        ],
        ids=["alpha-below", "alpha-above", "beta-zero", "beta-negative"],
    )
    @pytest.mark.parametrize(
        "command", [["precompute"], ["train", "--task", "hp"]], ids=["precompute", "hp"]
    )
    def test_bad_negative_value_is_refused_before_any_input_is_read(
        self, workspace, capsys, monkeypatch, command, negative, message
    ):
        """The negative section's ranges are `negative_sample`'s, and
        every command checks them at load, before it parses an input."""
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        cfg_file.write_text(json.dumps({**cfg, "negative": negative}))

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("load_hypergraph", "load_features", "load_labels", "negative_sample"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        assert cli.main([*command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        values = {"alpha": 0.5, "beta": 1, **negative}
        with pytest.raises(DomainError) as direct:
            negative_sample(Hypergraph.from_edges([(0, 1)], n=3), **values, seed=0)
        assert str(direct.value) == message

    def test_config_hash_is_pinned(self, tmp_path):
        """`config_hash` digests the resolved settings, not the file's
        spelling: the README's complete config, that config for hp, the
        same with its floats spelled as integers, and the empty config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A complete config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        file = tmp_path / "readme.json"
        file.write_text(block)
        load = cli.load_config
        assert load(str(file), argparse.Namespace()).hash() == "b50502f56d1b5bd1"
        assert load(str(file), argparse.Namespace(task="hp")).hash() == "11a8a5f4469b3cc0"
        assert load(None, argparse.Namespace()).hash() == "114049ff37ace119"
        raw = json.loads(block)
        ints = {"dropout": 0}
        file.write_text(json.dumps({**raw, "train": {**raw["train"], **ints}}))
        assert load(str(file), argparse.Namespace()).hash() == "b50502f56d1b5bd1"

    def test_weight_decay_is_an_unknown_key(self, tmp_path, capsys):
        """Adam has no weight decay, so the key is refused like any typo."""
        file = write_config(tmp_path, train={"learning_rate": 0.01, "weight_decay": 0.0})
        assert cli.main(["train", "--config", str(file)]) == 2
        assert capsys.readouterr().err == "error: unknown key(s) in train: weight_decay\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config root must be a JSON object"),
            ('{"task": "lp"}', "task must be 'nc' or 'hp', got 'lp'"),
            ('{"seeds": []}', "seeds must be a nonempty list of integers, got []"),
        ],
        ids=["root-list", "unknown-task", "empty-seeds"],
    )
    def test_bad_config_shape_is_config_error(self, tmp_path, capsys, text, message):
        file = tmp_path / "c.json"
        file.write_text(text)
        assert cli.main(["train", "--config", str(file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_dataset_key_is_config_error(self, tmp_path, capsys):
        file = write_config(tmp_path)
        assert cli.main(["precompute", "--config", str(file)]) == 2
        assert capsys.readouterr().err == "error: dataset.edges is required for this command\n"

    def test_generate_without_a_synthetic_section_is_config_error(self, tmp_path, capsys):
        file = tmp_path / "c.json"
        file.write_text("{}")
        assert cli.main(["generate", "--config", str(file), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: generate needs a 'synthetic' config section\n"
        assert not (tmp_path / "d").exists()

    def test_incomplete_synthetic_section_is_config_error(self, tmp_path, capsys):
        file = write_config(tmp_path, synthetic={"n": 60})
        assert cli.main(["generate", "--config", str(file), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic section is incomplete: ")
        assert "'m' and 'classes'" in err
        assert not (tmp_path / "d").exists()

    def test_run_too_large_for_memory_is_data_error(self, workspace, capsys):
        """10**12 negatives for each of the 40 hyperedges is a 320 TB
        source array, more than a process can map, so numpy's allocation
        fails before anything is written."""
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        cfg_file.write_text(json.dumps({**cfg, "negative": {"beta": 10**12}}))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg_file), "--task", "hp", "--out", str(out)]) == 2
        assert re.fullmatch(r"error: Unable to allocate .*\n", capsys.readouterr().err)
        assert not (out / "metrics.jsonl").exists()

    def test_config_tables_name_the_library_settings(self):
        """The train section's keys are `TrainConfig`'s fields but the
        seed (which the seed list sets), and the propagation section's
        are `PropagationConfig`'s; each section's defaults name its keys."""
        fields = [f.name for f in dataclasses.fields(cli.TrainConfig)]
        assert list(cli._SECTION_KEYS["train"]) == [f for f in fields if f != "seed"]
        fields = [f.name for f in dataclasses.fields(PropagationConfig)]
        assert list(cli._SECTION_KEYS["propagation"]) == fields
        for section, defaults in cli._SECTION_DEFAULTS.items():
            assert list(defaults) == list(cli._SECTION_KEYS[section])

    def test_bad_synthetic_range_is_data_error(self, tmp_path, capsys):
        file = write_config(tmp_path)
        cfg = json.loads(file.read_text())
        cfg["synthetic"]["size_min"] = 9
        cfg["synthetic"]["size_max"] = 3
        file.write_text(json.dumps(cfg))
        assert cli.main(["generate", "--config", str(file), "--out", str(tmp_path / "d")]) == 2
        assert "size range" in capsys.readouterr().err


class TestGenerate:
    def test_writes_loadable_files_with_seed_in_name(self, tmp_path):
        file = write_config(tmp_path)
        out = tmp_path / "data"
        assert cli.main(["generate", "--config", str(file), "--out", str(out)]) == 0
        assert (out / "edges_seed5.txt").is_file()
        assert (out / "features_seed5.npy").is_file()
        assert (out / "labels_seed5.txt").is_file()
        manifest = json.loads((out / "dataset_seed5.json").read_text())
        assert set(manifest) == {"edges", "features", "labels"}

    def test_seed_flag_overrides_config(self, tmp_path):
        file = write_config(tmp_path)
        out = tmp_path / "data"
        assert cli.main(["generate", "--config", str(file), "--out", str(out), "--seed", "9"]) == 0
        assert (out / "edges_seed9.txt").is_file()

    def test_help_says_seed_replaces_the_synthetic_seed(self, capsys):
        assert cli.main(["generate", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "synthetic.seed" in out
        assert "seed list" not in out


class TestPrecompute:
    def test_writes_propagated_file_and_metadata(self, workspace):
        tmp_path, cfg_file = workspace
        pre = tmp_path / "pre"
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(pre)]) == 0
        pf = load_propagated(pre / "propagated.tfhn")
        assert pf.matrix.shape == (60, 8)
        assert pf.config.layers == 2 and pf.config.alpha == 0.3
        meta = json.loads((pre / "precompute.json").read_text())
        assert meta["payload"]["provenance"] == pf.provenance
        assert meta["payload"]["structure"] == pf.structure
        assert "adjacency_hash" not in meta["payload"]
        assert "preprocess_seconds" in meta["timing"]

    @pytest.mark.parametrize("route", ["precompute", "inline"])
    def test_no_hypergraph_is_alive_while_features_propagate(self, workspace, monkeypatch, route):
        """Once the operator is built nothing holds the hypergraph, not
        even a call argument, so its incidence arrays are freed before
        `propagate` starts."""
        tmp_path, cfg_file = workspace
        real_load, real_propagate = cli.load_hypergraph, cli.propagate
        loaded, alive = [], []

        def load_spy(path):
            h = real_load(path)
            loaded.append(weakref.ref(h))
            return h

        def propagate_spy(*args, **kwargs):
            alive.append([ref() is not None for ref in loaded])
            return real_propagate(*args, **kwargs)

        monkeypatch.setattr(cli, "load_hypergraph", load_spy)
        monkeypatch.setattr(cli, "propagate", propagate_spy)
        out = str(tmp_path / route)
        argv = ["precompute"] if route == "precompute" else ["train", "--inline-precompute"]
        assert cli.main([*argv, "--config", str(cfg_file), "--out", out]) == 0
        assert alive == [[False]]

    @pytest.mark.parametrize("task", ["precompute", "hp"])
    def test_the_operator_dies_when_propagation_returns(self, workspace, monkeypatch, task):
        """Nothing holds the operator once `propagate` returns: it is
        freed before the `.tfhn` is written, and before each hp seed's
        head trains."""
        tmp_path, cfg_file = workspace
        real_propagate = cli.propagate
        operators, alive = [], []

        def propagate_spy(atilde, *args, **kwargs):
            operators.append(weakref.ref(atilde))
            return real_propagate(atilde, *args, **kwargs)

        def next_step_spy(real):
            def spy(*args, **kwargs):
                alive.append([ref() is not None for ref in operators])
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(cli, "propagate", propagate_spy)
        step = "save_propagated" if task == "precompute" else "train_hyperlink_predictor"
        monkeypatch.setattr(cli, step, next_step_spy(getattr(cli, step)))
        argv = ["precompute"] if task == "precompute" else ["train", "--task", "hp"]
        assert cli.main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / task)]) == 0
        assert alive and alive == [[False] * len(seen) for seen in alive]

    def test_rerun_reproduces_provenance(self, workspace):
        tmp_path, cfg_file = workspace
        payloads = []
        for sub in ("pre", "pre2"):
            assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / sub)]) == 0
            meta = json.loads((tmp_path / sub / "precompute.json").read_text())
            payloads.append(json.dumps(meta["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_zero_layers_payload_is_input_bytes(self, workspace):
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        cfg["propagation"] = {"layers": 0, "alpha": 0.3}
        cfg_file.write_text(json.dumps(cfg))
        pre = tmp_path / "pre0"
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(pre)]) == 0
        raw = np.load(cfg["dataset"]["features"])
        blob = (pre / "propagated.tfhn").read_bytes()
        assert blob[20 : 20 + raw.nbytes] == raw.tobytes()

    def test_tfhn_bytes_equal_the_literal_recurrence(self, tmp_path):
        """On the criterion-09 instance (n=3312, d=3703), the file that
        `precompute` writes at L = 0-3 is the one `save_propagated` writes
        for the literal recurrence and the documented digests."""
        h, x, _ = generate(PlantedConfig(
            n=3312, m=1079, classes=6, size_range=(2, 5), p_in=0.9,
            feature_dim=3703, feature_noise=1.0, seed=0,
        ))
        save_hypergraph(tmp_path / "edges.txt", h)
        save_features(tmp_path / "features.npy", x)
        loaded = load_hypergraph(tmp_path / "edges.txt")
        atilde = normalize_with_self_loops(weighted_clique_expansion(loaded))
        x = load_features(tmp_path / "features.npy")
        adj_hash = _structure_digest(loaded)
        features = hashlib.sha256(struct.pack("<QQ", *x.shape))
        features.update(x)
        alpha = 0.3
        z = x
        for layers in range(4):
            prov = features.copy()
            prov.update(bytes.fromhex(adj_hash) + struct.pack("<Qd", layers, alpha))
            want = tmp_path / "want.tfhn"
            save_propagated(want, PropagatedFeatures(
                z, PropagationConfig(layers, alpha), prov.hexdigest(), adj_hash
            ))
            cfg_file = tmp_path / "config.json"
            cfg_file.write_text(json.dumps({
                "dataset": {"edges": str(tmp_path / "edges.txt"), "features": str(tmp_path / "features.npy")},
                "propagation": {"layers": layers, "alpha": alpha},
            }))
            pre = tmp_path / "pre"
            assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(pre)]) == 0
            assert filecmp.cmp(pre / "propagated.tfhn", want, shallow=False), f"L={layers}"
            z = (1.0 - alpha) * (atilde.matrix @ z) + alpha * x


    def test_peak_is_the_features_plus_three_panel_arrays_per_worker(
        self, tmp_path, monkeypatch
    ):
        """`precompute` of a 2000 x 512 matrix on two workers allocates
        at most the features, three panel arrays of `_panel_width`'s
        width per worker, and 1 MiB for the hypergraph, the operator and
        the digests: `load_features` checks finiteness in row blocks and
        a panel holds its anchor, Z^{l-1} and Z^l alone."""
        n, d = 2000, 512
        synthetic = {
            "n": n, "m": 1000, "classes": 4, "size_min": 2, "size_max": 4,
            "p_in": 0.9, "feature_dim": d, "feature_noise": 0.8, "seed": 5,
        }
        data_dir = tmp_path / "data"
        cfg_file = write_config(tmp_path, synthetic=synthetic)
        assert cli.main(["generate", "--config", str(cfg_file), "--out", str(data_dir)]) == 0
        dataset = {
            "edges": str(data_dir / "edges_seed5.txt"),
            "features": str(data_dir / "features_seed5.npy"),
        }
        cfg_file = write_config(tmp_path, dataset=dataset)
        h = load_hypergraph(data_dir / "edges_seed5.txt")
        nnz = normalize_with_self_loops(weighted_clique_expansion(h)).matrix.nnz
        width = propagation._panel_width(n, nnz)
        assert 1 < width < d // 4
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tracemalloc.start()
        try:
            assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        features, panel = 8 * n * d, 8 * n * width
        assert peak <= features + 2 * 3 * panel + (1 << 20), (peak - features) / panel


class TestTrain:
    def test_node_classification_from_precomputed_file(self, workspace):
        tmp_path, cfg_file = workspace
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        per_seed = [l for l in lines if "seed" in l["payload"]]
        aggregate = [l for l in lines if l["payload"].get("aggregate")]
        assert len(per_seed) == 2 and len(aggregate) == 1
        for line in per_seed:
            assert 0.0 <= line["payload"]["metric"]["accuracy"] <= 1.0
            assert "train_seconds" in line["timing"]
        assert aggregate[0]["payload"]["metric_name"] == "accuracy"

    def test_propagation_config_mismatch_is_data_error(self, workspace, capsys, monkeypatch):
        """The `.tfhn`'s recorded layers/alpha are checked once, before
        the first seed reads any of its rows."""
        tmp_path, cfg_file = workspace
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        cfg = json.loads(cfg_file.read_text())
        cfg["propagation"] = {"layers": 3, "alpha": 0.3}
        cfg_file.write_text(json.dumps(cfg))
        loads = []
        monkeypatch.setattr(
            cli, "load_propagated", lambda *a, **k: loads.append(1) or load_propagated(*a, **k)
        )
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "error: propagated file was built with PropagationConfig(layers=2, alpha=0.3), "
            "config wants PropagationConfig(layers=3, alpha=0.3)\n"
        )
        assert loads == []
        assert not (tmp_path / "r").exists()

    def test_propagated_rows_must_match_the_labels(self, workspace, capsys):
        tmp_path, cfg_file = workspace
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        labels = Path(json.loads(cfg_file.read_text())["dataset"]["labels"])
        labels.write_text(labels.read_text() + "0\n")
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 2
        assert "61 labels" in capsys.readouterr().err

    def test_file_route_holds_one_seeds_rows_at_a_time(self, tmp_path, monkeypatch):
        """Three seeds from the `.tfhn` of an 8 MB matrix, every node
        labeled: training allocates at most one seed's labeled rows plus
        one `_BLOCK_BYTES` chunk plus 1 MiB for the head, the labels and
        the indices.  A seed's rows are freed before the next seed reads
        its own, and the parts are views of them, not gathered copies."""
        n, d = 2000, 512
        synthetic = {
            "n": n, "m": 1000, "classes": 4, "size_min": 2, "size_max": 4,
            "p_in": 0.9, "feature_dim": d, "feature_noise": 0.8, "seed": 5,
        }
        cfg_file = write_config(tmp_path, synthetic=synthetic)
        data_dir = tmp_path / "data"
        assert cli.main(["generate", "--config", str(cfg_file), "--out", str(data_dir)]) == 0
        dataset = {
            "name": "wide",
            "edges": str(data_dir / "edges_seed5.txt"),
            "features": str(data_dir / "features_seed5.npy"),
            "labels": str(data_dir / "labels_seed5.txt"),
            "propagated": str(tmp_path / "pre" / "propagated.tfhn"),
        }
        train = {"learning_rate": 0.01, "epochs": 2, "hidden_dims": [4]}
        cfg_file = write_config(tmp_path, dataset=dataset, train=train, seeds=[0, 1, 2])
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        loads = []
        monkeypatch.setattr(
            cli, "load_propagated", lambda *a, **k: loads.append(1) or load_propagated(*a, **k)
        )
        tracemalloc.start()
        try:
            assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loads) == 3
        rows = 8 * n * d
        assert peak <= rows + propagation._BLOCK_BYTES + (1 << 20), (peak - rows) / rows

    def test_inline_precompute_matches_file_route(self, workspace):
        tmp_path, cfg_file = workspace
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "b"), "--inline-precompute"]) == 0
        assert read_payloads(tmp_path / "a" / "metrics.jsonl") == read_payloads(
            tmp_path / "b" / "metrics.jsonl"
        )

    def test_inline_reads_each_seeds_rows_from_the_file_it_wrote(self, workspace, monkeypatch):
        tmp_path, cfg_file = workspace
        cfg = json.loads(cfg_file.read_text())
        cfg_file.write_text(json.dumps({**cfg, "seeds": [0, 1, 2]}))
        out = tmp_path / "inline"
        reads = []
        monkeypatch.setattr(
            cli, "load_propagated", lambda *a, **k: reads.append(a[0]) or load_propagated(*a, **k)
        )
        assert cli.main(["train", "--config", str(cfg_file), "--inline-precompute", "--out", str(out)]) == 0
        assert reads == [out / "propagated.tfhn"] * 3

    def test_inline_leaves_what_precompute_writes(self, workspace, capsys):
        tmp_path, cfg_file = workspace
        pre, inline = tmp_path / "pre", tmp_path / "inline"
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(pre)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert cli.main(["train", "--config", str(cfg_file), "--inline-precompute", "--out", str(inline)]) == 0
        inline_printed = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in inline.iterdir()) == [
            "metrics.jsonl", "precompute.json", "propagated.tfhn"
        ]
        assert filecmp.cmp(pre / "propagated.tfhn", inline / "propagated.tfhn", shallow=False)
        assert read_payloads(pre / "precompute.json") == read_payloads(inline / "precompute.json")
        assert inline_printed[:2] == [line.replace(str(pre), str(inline)) for line in printed[:2]]
        assert inline_printed[2].startswith("preprocess_seconds ")

    def test_payloads_are_rerun_stable(self, workspace):
        tmp_path, cfg_file = workspace
        args = ["train", "--config", str(cfg_file), "--inline-precompute"]
        assert cli.main([*args, "--out", str(tmp_path / "r1")]) == 0
        assert cli.main([*args, "--out", str(tmp_path / "r2")]) == 0
        assert read_payloads(tmp_path / "r1" / "metrics.jsonl") == read_payloads(
            tmp_path / "r2" / "metrics.jsonl"
        )

    def test_float_keys_hash_by_value(self, workspace):
        """A float-typed key spelled as an integer loads as the float it
        equals, so configs that differ only in that spelling give
        byte-equal payloads."""
        tmp_path, cfg_file = workspace
        base = json.loads(cfg_file.read_text())
        payloads = []
        for spell in (int, float):
            cfg = {
                **base,
                "synthetic": {**base["synthetic"], "feature_noise": spell(1)},
                "propagation": {"layers": 2, "alpha": spell(0)},
                "train": {**base["train"], "learning_rate": spell(1), "dropout": spell(0)},
                "negative": {"alpha": spell(1), "beta": 2},
            }
            file = tmp_path / f"{spell.__name__}.json"
            file.write_text(json.dumps(cfg))
            out = tmp_path / spell.__name__
            argv = ["train", "--config", str(file), "--inline-precompute", "--out", str(out)]
            assert cli.main(argv) == 0
            payloads.append(read_payloads(out / "metrics.jsonl"))
        assert (tmp_path / "int.json").read_text() != (tmp_path / "float.json").read_text()
        assert payloads[0] == payloads[1]

    def test_seed_flag_shrinks_seed_list(self, workspace):
        tmp_path, cfg_file = workspace
        out = tmp_path / "one"
        assert cli.main([
            "train", "--config", str(cfg_file), "--inline-precompute",
            "--out", str(out), "--seed", "3",
        ]) == 0
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        seeds = [l["payload"]["seed"] for l in lines if "seed" in l["payload"]]
        assert seeds == [3]

    def test_inline_precompute_leaves_hp_payloads_unchanged(self, workspace):
        """hp propagates per seed, so the nc-only flag writes nothing more
        and changes no payload byte."""
        tmp_path, cfg_file = workspace
        plain, inline = tmp_path / "hp", tmp_path / "hp_inline"
        argv = ["train", "--config", str(cfg_file), "--task", "hp"]
        assert cli.main([*argv, "--out", str(plain)]) == 0
        assert cli.main([*argv, "--inline-precompute", "--out", str(inline)]) == 0
        assert [p.name for p in inline.iterdir()] == ["metrics.jsonl"]
        got, want = (read_payloads(out / "metrics.jsonl") for out in (inline, plain))
        assert "\n".join(got).encode() == "\n".join(want).encode()

    def test_hp_reads_and_propagates_each_seeds_features_in_place(self, workspace, monkeypatch):
        """Two hp seeds: each reads the features afresh and propagates
        them in place, and the first seed's matrix is freed before the
        second is read, so the run never holds two n x d matrices.  The
        payloads equal those of propagating into a new array, the
        features left as read."""
        tmp_path, cfg_file = workspace
        argv = ["train", "--config", str(cfg_file), "--task", "hp"]
        real_load, real_propagate = cli.load_features, cli.propagate
        reads, in_place = [], []

        def load_once_freed(path):
            assert all(ref() is None for ref in reads), "the last seed's features are alive"
            x = real_load(path)
            reads.append(weakref.ref(x))
            return x

        def spy(atilde, x, cfg, *, out=None):
            in_place.append(out is x is reads[-1]())
            return real_propagate(atilde, x, cfg, out=out)

        monkeypatch.setattr(cli, "load_features", load_once_freed)
        monkeypatch.setattr(cli, "propagate", spy)
        assert cli.main([*argv, "--out", str(tmp_path / "in_place")]) == 0
        assert len(reads) == 2 and in_place == [True, True]
        monkeypatch.setattr(cli, "load_features", real_load)
        monkeypatch.setattr(cli, "propagate", lambda a, x, cfg, out=None: real_propagate(a, x, cfg))
        assert cli.main([*argv, "--out", str(tmp_path / "new_array")]) == 0
        got, want = (
            read_payloads(tmp_path / out / "metrics.jsonl") for out in ("in_place", "new_array")
        )
        assert len(got) == 3 and "\n".join(got).encode() == "\n".join(want).encode()

    def test_more_classes_than_labeled_nodes_is_data_error(self, workspace, capsys, monkeypatch):
        """A label of 10**12 in labels.txt is refused once the labels
        are read, before any feature row is."""
        tmp_path, cfg_file = workspace
        labels = Path(json.loads(cfg_file.read_text())["dataset"]["labels"])
        lines = ["1000000000000", *labels.read_text().splitlines()[1:]]
        labels.write_text("\n".join(lines) + "\n")
        labeled = sum(1 for line in lines if line != "-1")
        monkeypatch.setattr(cli, "load_propagated", None)  # reading rows would fail
        for extra in ([], ["--inline-precompute"]):
            out = tmp_path / f"r{len(extra)}"
            assert cli.main(["train", "--config", str(cfg_file), "--out", str(out), *extra]) == 2
            assert capsys.readouterr().err == (
                f"error: labels name 1000000000001 classes but only {labeled} nodes are labeled\n"
            )
            assert not out.exists()

    def test_hyperlink_task_via_flag(self, workspace):
        tmp_path, cfg_file = workspace
        out = tmp_path / "hp"
        assert cli.main(["train", "--config", str(cfg_file), "--task", "hp", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        per_seed = [l for l in lines if "seed" in l["payload"]]
        assert all("auc" in l["payload"]["metric"] for l in per_seed)
        agg = [l for l in lines if l["payload"].get("aggregate")][0]
        assert agg["payload"]["metric_name"] == "auc"

    def test_failed_write_leaves_existing_metrics_untouched(self, workspace, monkeypatch, capsys):
        """metrics.jsonl is written beside itself and renamed into place,
        so a write that fails after the first record leaves the previous
        file byte for byte and no temporary file behind."""
        tmp_path, cfg_file = workspace
        assert cli.main(["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]) == 0
        out = tmp_path / "runs"
        args = ["train", "--config", str(cfg_file), "--out", str(out)]
        assert cli.main(args) == 0
        before = (out / "metrics.jsonl").read_bytes()
        dumps, written = json.dumps, []

        def fail_on_second_record(obj, **kwargs):
            if isinstance(obj, dict) and "timing" in obj:
                written.append(obj)
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", fail_on_second_record)
        assert cli.main(args) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(written) == 2
        assert (out / "metrics.jsonl").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]


class TestVerify:
    def test_passing_run_exits_zero(self, capsys):
        assert cli.main(["verify", "--cases", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "unification: ok" in out
        assert "receptive-field: ok" in out
        assert "oversmoothing: ok" in out

    def test_failing_suite_exits_three(self, monkeypatch):
        from hyperprop.verify import PropertyReport

        monkeypatch.setattr(
            cli, "run_all", lambda cases, seed: [PropertyReport("unification", 5, 2, 1.0)]
        )
        assert cli.main(["verify", "--cases", "5"]) == 3


class TestClosedStdout:
    """A reader that closes stdout before the report is printed ends the
    printing, not the run: the command keeps its exit code and writes
    nothing to stderr."""

    @staticmethod
    def run_with_closed_stdout(argv: list[str]) -> subprocess.CompletedProcess:
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as for most readers
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the first write fails with EPIPE
        try:
            return subprocess.run(
                [sys.executable, "-m", "hyperprop.cli", *argv], env=env, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=300,
            )
        finally:
            os.close(write_end)

    def test_verify_keeps_its_exit_code(self):
        proc = self.run_with_closed_stdout(["verify", "--cases", "2"])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_train_keeps_its_exit_code_and_writes_every_record(self, workspace):
        tmp_path, cfg_file = workspace
        out = tmp_path / "hp"
        argv = ["train", "--config", str(cfg_file), "--task", "hp", "--out", str(out)]
        proc = self.run_with_closed_stdout(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        again = tmp_path / "again"
        assert cli.main([*argv[:-1], str(again)]) == 0
        assert read_payloads(out / "metrics.jsonl") == read_payloads(again / "metrics.jsonl")


def scipy_modules_after(statement: str) -> list[str]:
    """The ``scipy`` modules loaded in a fresh interpreter once
    ``statement`` has run."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_scipy_module():
    """scipy is imported where a sparse matrix is first built, never by
    importing the package."""
    assert scipy_modules_after("import hyperprop") == []
    assert scipy_modules_after("import hyperprop.cli") == []


def test_training_from_a_precomputed_file_loads_no_scipy(workspace):
    """`train --task nc` from a .tfhn runs no sparse code, so it loads
    no scipy module; `precompute`, which builds the operator, does (so
    the check can see one)."""
    tmp_path, cfg_file = workspace
    run = "import hyperprop.cli as cli; assert cli.main({!r}) == 0"
    pre = ["precompute", "--config", str(cfg_file), "--out", str(tmp_path / "pre")]
    assert "scipy.sparse" in scipy_modules_after(run.format(pre))
    train = ["train", "--config", str(cfg_file), "--task", "nc", "--out", str(tmp_path / "r")]
    assert scipy_modules_after(run.format(train)) == []
    assert (tmp_path / "r" / "metrics.jsonl").is_file()
