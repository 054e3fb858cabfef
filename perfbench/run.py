"""The molchord benchmark: set up and run one workload, check its outputs and
print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-cold --seed 0 --seconds 10 --trace 0

Each stage is a separate ``molchord`` process, timed from spawn to exit. The
timed passes repeat until ``--seconds`` have been measured and two passes of
the run can be compared (see ``run``). With ``--trace 1`` one further pass
runs every stage under ``traced.py`` and the per-layer metrics are printed
instead of the end-to-end ones. The last line of standard output is one JSON
object; the lines before it are a readable stage table and the environment
record. All files go to a temporary directory under ``.perfbench_work/`` in
the checkout, which is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYER_METRICS, layer_metrics, load_trace
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0  # the whole run must end within 180 s
SETUP_REPEATS = 5
NON_ARTIFACTS = (".manifest.json",)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

PROBE = """\
import ctypes, glob, json, os, sys
import numpy
info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            threads = int(getattr(lib, symbol)())
            break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}))
"""


@dataclass
class Checks:
    """Operations attempted and failed: stage processes, dock requests and
    output checks."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> bool:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(what)
        return not failed

    def check(self, ok: bool, what: str) -> bool:
        return self.add(1, int(not ok), what)


@dataclass
class StageRun:
    name: str
    wall_s: float
    exit_code: int
    max_rss_mb: float


@dataclass
class Pass:
    directory: Path
    stages: list[StageRun] = field(default_factory=list)
    spans: dict[str, Path] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.exit_code == 0 for s in self.stages)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.python = sys.executable
        self.env = dict(os.environ)
        # The run's own cache directory is always set in the config; the
        # environment fallback is removed so it is never read.
        self.env.pop("MOLCHORD_CACHE_DIR", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src

    def spawn(self, cmd: list[str], cwd: Path, log: Path, name: str) -> StageRun:
        """Run one process to completion; time it from spawn to exit."""
        log.parent.mkdir(parents=True, exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return StageRun(name, 0.0, -1, 0.0)
        with open(log, "wb") as handle:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=handle,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            done = threading.Event()

            def kill():
                if not done.is_set():
                    os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (see main): end the stage and its children too.
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                done.set()
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(name, wall, proc.returncode, usage.ru_maxrss / 1024.0)

    def molchord(self, cwd: Path, name: str, args: tuple[str, ...], spans: Path | None) -> StageRun:
        argv = ["--config", "run.ini", *args]
        if spans is None:
            cmd = [self.python, "-c", "import sys\nfrom molchord.cli import main\nsys.exit(main())"]
        else:
            cmd = [self.python, str(BENCH_DIR / "traced.py"), str(spans), str(time.monotonic_ns())]
        return self.spawn(cmd + argv, cwd, cwd / "logs" / f"{name}.log", name)

    def environment(self, checks: Checks) -> dict:
        out = subprocess.run([self.python, "-c", PROBE], env=self.env, capture_output=True,
                             text=True, timeout=60, check=True)
        record = json.loads(out.stdout)
        record["nproc"] = len(os.sched_getaffinity(0))
        record["cpu"] = platform.machine()
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
        threads = record["blas_threads"]
        checks.check(threads is not None and threads <= record["nproc"],
                      f"BLAS threads {threads} exceed nproc {record['nproc']}")
        return record


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.endswith(NON_ARTIFACTS)
    }


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def make_inputs(runner: Runner, workload: Workload, seed: int, directory: Path,
                checks: Checks) -> bool:
    """Write the seeded inputs and the config into ``directory``."""
    data = directory / "data"
    data.mkdir(parents=True)
    if workload.inputs == "fixture":
        cmd = [runner.python, str(runner.root / "scripts" / "make_fixture.py"),
               str(data / "complexes.jsonl"), "--pockets", str(workload.pockets), "--seed",
               str(seed if workload.fixture_seed is None else workload.fixture_seed)]
    else:
        cmd = [runner.python, str(BENCH_DIR / "inputs.py"), str(data), "--seed", str(seed)]
    made = runner.spawn(cmd, directory, directory / "logs" / "inputs.log", "inputs")
    if not checks.check(made.exit_code == 0, f"input generation exited {made.exit_code}"):
        return False
    if workload.eval_size:
        lines = (data / "complexes.jsonl").read_text().splitlines(keepends=True)
        chosen = sorted(random.Random(seed).sample(range(len(lines)), workload.eval_size))
        (data / "eval_complexes.jsonl").write_text("".join(lines[i] for i in chosen))
    (directory / "run.ini").write_text(workload.config_text(runner.python, str(runner.root)))
    return True


def prepare(workload: Workload, setup_dir: Path, directory: Path) -> None:
    directory.mkdir(parents=True)
    shutil.copy(setup_dir / "run.ini", directory / "run.ini")
    shutil.copytree(setup_dir / "data", directory / "data")
    (directory / "out").mkdir()
    if workload.cache == "warm":
        shutil.copytree(setup_dir / "cache", directory / "cache")
    if workload.inputs == "import":
        for name in ("generations.jsonl", "scores.jsonl"):
            shutil.copy(directory / "data" / name, directory / "out" / name)


def run_pass(runner: Runner, workload: Workload, setup_dir: Path, directory: Path,
             spans: Path | None, checks: Checks) -> Pass:
    """Run every stage of the workload once in ``directory`` and check it."""
    if directory != setup_dir:
        prepare(workload, setup_dir, directory)
    result = Pass(directory)
    for name, args in workload.stages:
        span_file = spans / f"{name}.json" if spans else None
        stage = runner.molchord(directory, name, args, span_file)
        result.stages.append(stage)
        checks.check(stage.exit_code == 0, f"{directory.name}: {name} exited {stage.exit_code}")
        if stage.exit_code != 0:
            return result
        if span_file is not None:
            result.spans[name] = span_file
    out = directory / "out"
    if workload.cache is not None:
        manifest = json.loads((out / "dock.manifest.json").read_text())
        failures = len(manifest["extra"]["failures"])
        checks.add(manifest["extra"]["scored"] + failures, failures,
                   f"{directory.name}: {failures} dock failures")
        generated, scored = count_lines(out / "generations.jsonl"), count_lines(out / "scores.jsonl")
        checks.check(generated == scored, f"{directory.name}: {scored} scores for {generated} generations")
        pair_log = json.loads((out / "d_dpo.json").read_text())["pairs"]
        curate_failures = [p for p in pair_log if p["status"].startswith("dock failure")]
        checks.check(not curate_failures, f"{directory.name}: curate dock failures {curate_failures[:3]}")
    return result


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run(workload: Workload, seed: int, seconds: int, trace: bool, runner: Runner) -> dict:
    checks = Checks()
    env = runner.environment(checks)
    # Set-up: input generation, repeated; a warm workload then fills the dock
    # cache once with an untimed pass, whose time is added to the median.
    made: list[float] = []
    for i in range(SETUP_REPEATS):
        setup_dir = runner.work / f"setup{i}"
        started = time.perf_counter()
        if not make_inputs(runner, workload, seed, setup_dir, checks):
            break
        made.append(time.perf_counter() - started)
    inputs = [artifact_hashes(runner.work / f"setup{i}" / "data") for i in range(len(made))]
    checks.check(all(h == inputs[0] for h in inputs), "inputs differ between set-ups of one seed")
    fills: list[Pass] = []
    fill_s = 0.0
    if workload.cache == "warm" and checks.failed == 0:
        fills.append(run_pass(runner, workload, setup_dir, setup_dir, None, checks))
        fill_s = fills[0].wall_s
    setup_s = median(made) + fill_s if made else None

    # Passes run until --seconds are measured and, with the fill pass, two
    # passes can be compared. A second cold pass would double the run, so
    # the cold workload compares against a check pass on a warm cache instead.
    min_passes = 1 if workload.cache == "cold" else 2 - len(fills)
    passes: list[Pass] = []
    ready = checks.failed == 0
    measured = 0.0
    while ready and (len(passes) < min_passes or measured < seconds):
        if passes and time.monotonic() + passes[-1].wall_s * 1.5 > runner.deadline:
            break
        before = len(list((setup_dir / "cache").glob("*"))) if workload.cache == "warm" else 0
        current = run_pass(runner, workload, setup_dir, runner.work / f"pass{len(passes)}", None, checks)
        passes.append(current)
        measured += current.wall_s
        if not current.ok:
            break
        if workload.cache == "warm":
            after = len(list((current.directory / "cache").glob("*")))
            checks.check(after == before, f"{current.directory.name}: {after - before} dock cache misses")

    traced = None
    extra = None
    if passes and all(p.ok for p in passes):
        if trace:
            spans = runner.work / "spans"
            spans.mkdir()
            traced = extra = run_pass(runner, workload, setup_dir, runner.work / "traced", spans, checks)
        elif len(passes) < 2 and workload.cache == "cold":
            # The cold workload's check pass, outside the timing, on the
            # cache the last timed pass filled.
            check_dir = runner.work / "check"
            prepare(workload, setup_dir, check_dir)
            shutil.copytree(passes[-1].directory / "cache", check_dir / "cache")
            extra = run_pass(runner, workload, check_dir, check_dir, None, checks)

    compared = [p for p in fills + passes + ([extra] if extra else []) if p.ok]
    hashes = [artifact_hashes(p.directory / "out") for p in compared]
    for other, p in zip(hashes[1:], compared[1:]):
        differ = sorted(k for k in set(hashes[0]) | set(other) if hashes[0].get(k) != other.get(k))
        checks.check(not differ, f"{p.directory.name}: artifacts differ from the first pass: {differ}")
    checks.check(len(compared) >= 2, "fewer than two passes to compare")

    timed = [p for p in passes if p.ok]
    stage_names = [name for name, _ in workload.stages]
    stage_s = {n: median([s.wall_s for p in timed for s in p.stages if s.name == n]) for n in stage_names}
    pipeline_s = median([p.wall_s for p in timed])
    if trace:
        if traced is not None and traced.ok:
            sampled = (count_lines(traced.directory / "out" / "generations.jsonl")
                       if "sample" in stage_names else 0)
            trace_data = load_trace(traced.spans)
            if trace_data.missing:
                print(f"not traced (function not found): {sorted(trace_data.missing)}")
            if workload.cache == "warm":
                hits = trace_data.get("scorers.external_dock")
                checks.check(hits.calls > 0 and hits.no_spawn_ok == hits.calls,
                             f"traced pass: {hits.calls - hits.no_spawn_ok} dock cache misses")
            values = layer_metrics(trace_data, sampled, traced.wall_s, pipeline_s, stage_s)
        else:
            values = dict.fromkeys(LAYER_METRICS)
        metrics = {n: {"value": values[n], "unit": u} for n, u in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": setup_s,
            "pipeline_s": pipeline_s,
            "peak_rss_mb": max((s.max_rss_mb for p in timed for s in p.stages), default=None),
            "ops_ok_frac": 1.0 - checks.failed / max(1, checks.attempted),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    print(f"workload {workload.name} seed {seed}: {len(made)} set-ups, "
          f"{len(timed)} timed passes{', 1 traced pass' if traced else ''}")
    for name in stage_names:
        value = stage_s[name]
        print(f"  {name + '_s':<14} {'-' if value is None else f'{value:.4f}':>10} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for message in checks.messages:
        print(f"check failed: {message}")

    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    needed = [root / "src" / "molchord" / "cli.py", root / "scripts" / "make_fixture.py",
              root / "scripts" / "surrogate_dock.py"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the root of a molchord checkout; missing {missing}", file=sys.stderr)
        return 2

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     Runner(root, work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
