"""A seeded mutation fuzzer over the CLI's inputs.

Every failure must map to a documented exit code.  Each trial mutates
one input file of a 60-node dataset (edges, labels, features, the
`.tfhn` of its precompute, or the run config) by a bit flip, a
truncation, or an inserted token, then runs ``precompute``,
``train --task nc`` and ``train --task hp`` in process.  Each must
return 0 or 2 and raise nothing.  A failure names the seed, the trial,
the file and the mutation, so it reproduces from them alone.
"""

import json
import random

import pytest

import hyperprop.cli as cli
from hyperprop.core import save_features, save_hypergraph, save_labels
from hyperprop.synthetic import PlantedConfig, generate

SEED = 17
TRIALS = 300
TOKENS = [
    b"-1", b"1e400", b"nan", b"99999999999999999999", b"\x00", b"m=", b"[]", b"null",
    b"-0", b"1_0", "٣".encode(), b"inf", b"true", b"#n=", b"{}", b'"x"', b"\xff",
]
FILES = ("edges.txt", "labels.txt", "features.npy", "propagated.tfhn", "config.json")
CONFIG = {
    "propagation": {"layers": 2, "alpha": 0.3},
    "train": {"learning_rate": 0.01, "epochs": 2, "hidden_dims": [8]},
    "seeds": [0],
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of each input file, as written into ``work``."""
    work = tmp_path_factory.mktemp("fuzz")
    h, x, y = generate(PlantedConfig(n=60, m=40, classes=3, feature_dim=8, seed=0))
    save_hypergraph(work / "edges.txt", h)
    save_features(work / "features.npy", x)
    save_labels(work / "labels.txt", y)
    dataset = {name.split(".")[0]: str(work / name) for name in FILES[:4]}
    (work / "config.json").write_text(json.dumps({"dataset": dataset, **CONFIG}))
    args = ["--config", str(work / "config.json"), "--out"]
    assert cli.main(["precompute", *args, str(work)]) == 0
    return work, {name: (work / name).read_bytes() for name in FILES}, args


def only_lengthens(text: bytes, base: dict) -> bool:
    """Whether a config is still valid JSON that differs from ``base``
    only by a larger ``train.epochs`` or ``propagation.layers``: a long
    run, not a bad input."""
    try:
        cfg = json.loads(text)
        raised = False
        for section, key in (("train", "epochs"), ("propagation", "layers")):
            value = cfg[section][key]
            if type(value) is int and value > base[section][key]:
                cfg[section][key], raised = base[section][key], True
    except (ValueError, TypeError, KeyError):
        return False
    return raised and cfg == base


def mutate(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    kind = rng.choice(("flip", "truncate", "token"))
    at = rng.randrange(len(data) + (kind == "token"))
    if kind == "flip":
        bit = rng.randrange(8)
        return data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1 :], f"flip bit {bit} of byte {at}"
    if kind == "truncate":
        return data[:at], f"truncate to {at} bytes"
    token, replace = rng.choice(TOKENS), rng.random() < 0.5
    end = at
    while replace and end < len(data) and chr(data[end]) in "0123456789.+-eE":
        end += 1  # replace the number that starts here
    return data[:at] + token + data[end:], f"token {token!r} over bytes {at}:{end}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a mutated input may overflow the head
def test_every_mutated_input_exits_zero_or_two(pristine, capsys):
    work, files, args = pristine
    base = json.loads(files["config.json"])
    rng = random.Random(SEED)
    runs = [
        ["precompute", *args, str(work / "pre")],
        ["train", "--task", "nc", *args, str(work / "runs")],
        ["train", "--task", "hp", *args, str(work / "runs")],
    ]
    escapes = []
    for trial in range(TRIALS):
        name = rng.choice(FILES)
        data, what = mutate(files[name], rng)
        while name == "config.json" and only_lengthens(data, base):
            data, what = mutate(files[name], rng)
        for other, content in files.items():
            (work / other).write_bytes(data if other == name else content)
        for argv in runs:
            where = f"seed {SEED}, trial {trial}, {name}: {what}; {' '.join(argv[:3])}"
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escape: what this test looks for
                escapes.append(f"{where} raised {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 2):
                escapes.append(f"{where} returned {code}")
        capsys.readouterr()  # the runs' reports are not this test's output
    assert not escapes, "\n".join(escapes)
