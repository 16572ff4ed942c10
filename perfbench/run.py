"""Benchmark of the hyperprop CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Generates the workload's inputs from the
seed, then runs each CLI command as a fresh ``python -m hyperprop.cli``
child and times it end to end (wall clock, peak RSS from the child's own
rusage).  ``--trace 1`` instead makes one untraced and one traced pass
and reports per-layer metrics from the spans, plus import times from
``python -X importtime``.  Prints a human-readable report, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import self_times
from workloads import IMPORTS, SELF_TIME, VERIFY_CASES, WORKLOADS

ROOT = Path.cwd()
WORK = Path(__file__).resolve().parent / "_work"
SETUP_PER_ROUND = 2
IMPORT_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s; children past this are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads per child.  One thread: on a few shared cores a
# multi-threaded GEMM waits for its slowest thread, which spreads the
# timings far more than it saves.
THREADS = 1


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time, each with the run's remaining time."""

    def __init__(self, env: dict[str, str], log_dir: Path):
        self.env = env
        self.log_dir = log_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.start = time.perf_counter()
        self.log: list[list] = []  # [start offset s, wall s, argv[1:]] per child

    def spawn(self, cmd: list[str]) -> Child:
        self.attempted += 1
        out_path = self.log_dir / f"{self.attempted:03d}.out"
        err_path = self.log_dir / f"{self.attempted:03d}.err"
        timeout = max(1.0, self.deadline - time.monotonic())
        with out_path.open("wb") as out, err_path.open("wb") as err:
            tic = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - tic
        self.log.append([tic - self.start, wall, cmd[1:]])
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            print(f"command failed ({proc.returncode}): {' '.join(cmd)}; log {err_path}", file=sys.stderr)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(), err_path.read_text())

    def cli(self, args: list[str]) -> Child:
        return self.spawn([sys.executable, "-m", "hyperprop.cli", *args])


@dataclass
class Inputs:
    """What perfbench/prepare.py wrote and reported for one workload."""

    versions: dict[str, str]
    config: str = ""
    files: dict[str, str] = field(default_factory=dict)
    n: int = 0
    d: int = 0
    classes: int = 0


def prepare(wl, seed: int, work: Path, env: dict[str, str]) -> Inputs:
    """Generate the workload's inputs in a child process (untimed)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("prepare.py")), wl.name, str(seed), str(work)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=DEADLINE_S / 2,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: generating {wl.name} inputs failed:\n{proc.stderr}")
    return Inputs(**json.loads(proc.stdout))


def _sha256(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _payload_digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(json.dumps(json.loads(line)["payload"], sort_keys=True).encode() + b"\n")
    return hasher.hexdigest()


@dataclass
class Step:
    """One CLI command of a pass: timing, output digest and checks."""

    command: str
    child: Child
    spans: Path | None = None  # where a traced command wrote its spans
    digest: str = ""
    quality: float | None = None
    ok: bool = False


def run_command(runner: Runner, command: str, wl, inputs: Inputs, seed: int, work: Path, spans: Path | None) -> Step:
    """Run one CLI command (traced when ``spans`` is given) and check
    what it wrote."""
    if command == "verify":
        args = ["verify", "--cases", str(VERIFY_CASES), "--seed", str(seed)]
    else:
        out_dir = work / ("pre" if command == "precompute" else "run")
        shutil.rmtree(out_dir, ignore_errors=True)
        args = [command, "--config", inputs.config, "--out", str(out_dir)]
    if spans is None:
        child = runner.cli(args)
    else:
        child = runner.spawn([sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), *args])
    step = Step(command, child, spans)
    if child.code != 0:
        return step
    try:
        check_output(step, wl, inputs, work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"unreadable output of {command}: {exc!r}", file=sys.stderr)
    if not step.ok:
        runner.failed += 1
        print(f"output check failed: {command} on {wl.name}", file=sys.stderr)
    return step


def check_output(step: Step, wl, inputs: Inputs, work: Path) -> None:
    """Digest what the command wrote and set ``step.ok`` if it is sane."""
    command = step.command
    if command == "verify":
        lines = step.child.stdout.splitlines()
        step.digest = hashlib.sha256(step.child.stdout.encode()).hexdigest()
        step.quality = sum(": ok " in line for line in lines) / max(1, len(lines))
        step.ok = len(lines) == 3 and step.quality == 1.0
    elif command == "precompute":
        meta_line = (work / "pre" / "precompute.json").read_text()
        payload = json.loads(meta_line)["payload"]
        step.digest = _payload_digest([meta_line])
        step.ok = (payload["rows"], payload["cols"]) == (inputs.n, inputs.d)
    else:
        lines = (work / "run" / "metrics.jsonl").read_text().splitlines()
        aggregate = json.loads(lines[-1])["payload"]
        step.digest = _payload_digest(lines)
        step.quality = aggregate["mean"]
        chance = 1.0 / inputs.classes if wl.config["task"] == "nc" else 0.5
        step.ok = len(lines) == len(wl.config["seeds"]) + 1 and step.quality > chance


def run_pass(runner, wl, inputs, seed, work, traced: bool) -> list[Step]:
    steps = []
    for i, command in enumerate(wl.commands):
        spans = work / f"spans-{i}-{command}.json" if traced else None
        steps.append(run_command(runner, command, wl, inputs, seed, work, spans))
    return steps


def import_times(runner: Runner) -> dict[str, float]:
    """Median over IMPORT_RUNS cold imports of each IMPORTS metric."""
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORTS}
    for _ in range(IMPORT_RUNS):
        child = runner.spawn([sys.executable, "-X", "importtime", "-c", "import hyperprop.cli"])
        cumulative = {}
        for line in child.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for metric, module in IMPORTS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def per_layer(steps: list[Step]) -> dict[str, float]:
    """Sum self times and counts over every traced command's spans."""
    by_span: dict[str, float] = {}
    counts: dict[str, float] = {}
    for step in steps:
        if not step.spans.is_file():  # the command died before writing them
            continue
        spans = json.loads(step.spans.read_text())
        for span, own in zip(spans, self_times(spans)):
            by_span[span["name"]] = by_span.get(span["name"], 0.0) + own
            for key, value in span["counts"].items():
                counts[key] = counts.get(key, 0) + value
    layer = {metric: sum(by_span.get(name, 0.0) for name in names) for metric, names in SELF_TIME.items()}
    layer.update(counts)
    return layer


def environment(inputs: Inputs) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "python": platform.python_version(),
        **inputs.versions,
        "cpu": cpu,
        "cache": caches,
        "feature_matrix_bytes": inputs.n * inputs.d * 8,
    }


def _src_digest() -> str:
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()


def check_digests(passes: list[list[Step]], key: str, runner: Runner) -> str:
    """Compare each command's payload digest across every pass of this
    run, and with earlier runs of the same source tree and seed through a
    ledger in the work directory; every disagreeing command counts as
    failed.  Commands that already failed have no digest and are skipped.
    Returns the workload's combined payload digest."""
    first = passes[0]
    for steps in passes[1:]:
        for ref, step in zip(first, steps):
            if ref.digest and step.digest and step.digest != ref.digest:
                runner.failed += 1
                print(f"payload digest differs between passes: {step.command}", file=sys.stderr)
    combined = hashlib.sha256("".join(s.digest for s in first).encode()).hexdigest()
    if not all(s.digest for s in first):
        return combined
    ledger_path = WORK / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    if ledger.setdefault(key, combined) != combined:
        runner.failed += len(first)
        print(f"payload digest differs from an earlier run of the same code: {key}", file=sys.stderr)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return combined


def measure(runner, wl, inputs, seed, work, trace: bool, seconds: float):
    """Untraced: rounds of SETUP_PER_ROUND bare start-ups and one whole
    pass, until the next round would end past ``seconds`` (at least one),
    so that both medians cover the whole run.  Traced: one untraced pass,
    then one traced pass.  Returns (setup, passes)."""
    if trace:
        passes = [run_pass(runner, wl, inputs, seed, work, traced=False)]
        passes.append(run_pass(runner, wl, inputs, seed, work, traced=True))
        return [], passes
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        setup.extend(runner.cli(["--help"]) for _ in range(SETUP_PER_ROUND))
        passes.append(run_pass(runner, wl, inputs, seed, work, traced=False))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return setup, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperprop" / "cli.py").is_file():
        print("error: run from the root of a hyperprop checkout (src/hyperprop is missing)", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every child
    runner = Runner(env, work / "logs")

    inputs = prepare(wl, args.seed, work, env)
    runner.cli(["--help"])  # byte-compiles the package; users do not pay this per run
    setup, passes = measure(runner, wl, inputs, args.seed, work, bool(args.trace), args.seconds)
    payload = check_digests(passes, f"{wl.name}:{args.seed}:{_src_digest()}", runner)
    correct = runner.failed == 0 and all(step.ok for steps in passes for step in steps)

    # Per-command end-to-end figures, from untraced passes only.
    untraced = passes[:1] if args.trace else passes
    report: dict[str, tuple[float, str]] = {}
    for i, command in enumerate(wl.commands):
        report[f"{command}_s"] = (statistics.median(p[i].child.wall_s for p in untraced), "s")
        report[f"{command}_rss_mb"] = (statistics.median(p[i].child.rss_mb for p in untraced), "MB")
    quality_name = {"nc": "nc_accuracy", "hp": "hp_auc"}.get((wl.config or {}).get("task"), "verify_ok_share")
    report[quality_name] = (passes[0][-1].quality or 0.0, "score")

    if args.trace:
        layer = per_layer(passes[1])
        layer.update(import_times(runner))
        walls = [sum(step.child.wall_s for step in steps) for steps in passes]
        layer["trace_overhead"] = walls[1] / walls[0] - 1.0
        declared = manifest["per_layer"]
    else:
        layer = {
            "setup_s": statistics.median(c.wall_s for c in setup),
            "wall_s": statistics.median(sum(s.child.wall_s for s in steps) for steps in passes),
            "peak_rss_mb": statistics.median(max(s.child.rss_mb for s in steps) for steps in passes),
            "quality": report[quality_name][0],
        }
        declared = manifest["end_to_end"]
    metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(inputs),
        "inputs_sha256": {key: _sha256(p) for key, p in inputs.files.items()},
        "payload_digest": payload,
        "pass_digests": [[step.digest for step in steps] for steps in passes],
        "commands": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        "failed_ops": runner.failed / runner.attempted,
        "children": runner.log,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print_report(result, report, runner, len(passes))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


def print_report(result: dict, report: dict, runner: Runner, n_passes: int) -> None:
    env = result["environment"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} passes {n_passes}")
    print("environment " + json.dumps(env, sort_keys=True))
    l3 = env["cache"].get("L3", "")
    if l3.endswith("K") and env["feature_matrix_bytes"]:
        share = env["feature_matrix_bytes"] / (int(l3[:-1]) * 1024)
        print(f"feature matrix is {share:.2f}x L3: a working-set note, not a bandwidth measurement")
    for key, digest in result["inputs_sha256"].items():
        print(f"input {key} sha256 {digest}")
    for name, (value, unit) in report.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ops {result['failed_ops']:.6g} share ({runner.failed} of {runner.attempted} commands)")
    print(f"payload_digest {result['payload_digest']}")
    for name, entry in result["metrics"].items():
        label = " (computed)" if entry["unit"] == "count" else ""
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}{label}")


if __name__ == "__main__":
    sys.exit(main())
