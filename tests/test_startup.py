"""Processes that neither train nor sample start without numpy, and
without what they have no use for; no stage maps OpenSSL.

The dock command starts once per uncached molecule and every pipeline stage
is its own process, so their start-up time and memory are paid over and
over. Besides numpy, these processes leave unloaded: ``subprocess`` outside
``dock``, ``concurrent.futures`` with the ``logging`` it loads, ``dataclasses``
and the introspection it loads, and ``hashlib`` with OpenSSL's ``_hashlib``
(``hashutil`` takes its hashes from CPython's built-in modules). The model
stages load numpy, whose ``numpy.random`` imports ``hashlib`` through
``secrets``; ``cli.main`` blocks ``_hashlib`` first (``sys.modules`` maps it
to None), so they take the built-in hashes too and never map libcrypto. A
module counts as loaded when ``sys.modules`` holds it and not None. Each
check runs in a fresh interpreter, except the one that ``main`` leaves a
loaded ``_hashlib`` in place.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from molchord import metrics
from molchord.cli import main
from molchord.hashutil import stable_hash64
from molchord.molgraph import canon, canonical_smiles, parse_smiles
from molchord.scorers import dump_records
from molchord.synthetic import smiles_corpus, synthetic_complexes

from .test_cli import _write_config

SURROGATE = Path(__file__).resolve().parents[1] / "scripts" / "surrogate_dock.py"
RUN_SURROGATE_WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')"
)
SMILES = ["OCC", "c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "NC(=O)C1CC1", "C(C)(C)(C)CCCCCCCCCCCCCCN"]


def _surrogate(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", RUN_SURROGATE_WITHOUT_NUMPY, str(SURROGATE), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def _score(env: dict, smiles: str) -> str:
    proc = _surrogate(env, smiles)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_genmodel_import_loads_no_record_dock_or_metric_code(child_env):
    # a checkpoint is written through ``store.atomic_write`` alone
    modules = ("molchord.scorers", "molchord.curation", "molchord.metrics")
    code = f"import sys\nimport molchord.genmodel\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_unloaded(child_env):
    code = "import sys\nimport molchord.cli\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ``dock`` runs its commands on plain threads, so no stage needs a thread pool
# or the logging it loads; only ``dock`` needs subprocess, to run a command.
POOL_MODULES = ("concurrent.futures", "logging")
DOCK_ONLY_MODULES = ("subprocess", *POOL_MODULES)
DATA = Path(__file__).parent / "data"
RUN_STEPS = (
    "import sys\n"
    "from molchord.cli import main\n"
    "loaded = []\n"
    "for step in {steps!r}:\n"
    "    assert main(['--config', 'run.ini', *step]) == 0, step\n"
    "    loaded.append([m for m in {modules!r} if sys.modules.get(m) is not None])\n"
    "print(loaded)\n"
)


def _evaluation_stages_load(tmp_path: Path, env: dict, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` are loaded after each of evaluate, report and
    verify, run in turn on ``tests/data`` in one fresh interpreter."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("generations.jsonl", "scores.jsonl"):
        shutil.copy(DATA / name, out / name)
    (tmp_path / "run.ini").write_text(
        f"[paths]\ncomplexes = {DATA / 'complexes.jsonl'}\noutdir = out\n"
    )
    steps = [["evaluate"], ["--allow-partial", "report", "--fused", "--ood"], ["verify"]]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_STEPS.format(steps=steps, modules=modules)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_evaluation_stages_leave_the_dock_modules_unloaded(tmp_path, child_env):
    assert _evaluation_stages_load(tmp_path, child_env, DOCK_ONLY_MODULES) == "[[], [], []]"


# ``dataclasses`` and what it loads on the way: records and results are
# NamedTuples, so no stage that runs without numpy needs them.
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _cli_import_loads(env: dict, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after
    ``import molchord.cli``."""
    code = f"import sys\nimport molchord.cli\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(child_env):
    assert _cli_import_loads(child_env, INTROSPECTION_MODULES) == "[]"


def test_evaluation_stages_leave_dataclasses_and_inspect_unloaded(tmp_path, child_env):
    assert _evaluation_stages_load(tmp_path, child_env, INTROSPECTION_MODULES) == "[[], [], []]"


# Importing ``hashlib`` loads OpenSSL's libcrypto (about 3.5 MB); molchord
# computes only BLAKE2b and SHA-256, which ``hashutil`` builds without it.
OPENSSL_MODULES = ("hashlib", "_hashlib")


def test_cli_import_leaves_hashlib_unloaded(child_env):
    assert _cli_import_loads(child_env, OPENSSL_MODULES) == "[]"


def test_evaluation_stages_leave_hashlib_unloaded(tmp_path, child_env):
    assert _evaluation_stages_load(tmp_path, child_env, OPENSSL_MODULES) == "[[], [], []]"


def test_dock_stage_through_the_stand_in_leaves_hashlib_unloaded(tmp_path, child_env):
    # two workers, which run at once (the barrier tests of test_scorers show
    # that) on plain threads: no pool, no logging, no OpenSSL
    out = tmp_path / "out"
    out.mkdir()
    lines = (DATA / "generations.jsonl").read_text().splitlines(keepends=True)[:6]
    (out / "generations.jsonl").write_text("".join(lines))
    (tmp_path / "run.ini").write_text(
        f"[paths]\ncomplexes = {DATA / 'complexes.jsonl'}\noutdir = out\n"
        f"[dock]\ncommand = {sys.executable} {SURROGATE} '{{smiles}}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUN_STEPS.format(
            steps=[["--jobs", "2", "dock"]], modules=(*POOL_MODULES, *OPENSSL_MODULES))],
        cwd=tmp_path, env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[[]]"
    assert len((out / "scores.jsonl").read_text().splitlines()) == len(lines)


# The model stages: ``main`` blocks ``_hashlib`` before ``numpy.random``
# imports it, so ``hashlib`` and ``hmac`` take CPython's built-in hashes, and
# what the stages write is the same as in a process that loaded OpenSSL.
MODEL_STAGES = ("train-sft", "curate", "train-dpo", "sample")
MODEL_ARTIFACTS = ("sft_checkpoint.json", "sft_curve.jsonl", "pairs.jsonl", "d_dpo.json",
                   "dpo_checkpoint.json", "dpo_curve.jsonl", "generations.jsonl")
RUN_STAGE_AND_LIST_OPENSSL = (
    "import json, sys\n"
    "from molchord.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/maps') as maps:\n"
    "    crypto = [line for line in maps if 'libcrypto' in line]\n"
    "print(json.dumps([code, repr(sys.modules.get('_hashlib')), crypto]))\n"
)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="lists mappings in /proc")
def test_model_stages_map_no_openssl_and_write_what_an_openssl_process_writes(
    tmp_path, child_env
):
    # the model-golden pipeline's data and config, once for each side
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(18, seed=4, max_heavy=7))
    configs = []
    for side in ("in-process", "fresh"):
        (tmp_path / side).mkdir()
        configs.append(_write_config(tmp_path / side, complexes))
    in_process, fresh = configs
    assert sys.modules.get("_hashlib") is not None  # this process loaded OpenSSL
    for step in ("partition", *MODEL_STAGES):
        assert main(["--config", str(in_process), step]) == 0, step
    assert main(["--config", str(fresh), "partition"]) == 0
    for step in MODEL_STAGES:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_STAGE_AND_LIST_OPENSSL, "--config", str(fresh), step],
            env=child_env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, "None", []], step
    for name in MODEL_ARTIFACTS:
        expected = (in_process.parent / "out" / name).read_bytes()
        assert (fresh.parent / "out" / name).read_bytes() == expected, name


def test_main_leaves_a_loaded_openssl_in_place(tmp_path):
    # a program that embeds molchord keeps the hashes it already has
    openssl = pytest.importorskip("_hashlib")
    (tmp_path / "run.ini").write_text(
        f"[paths]\ncomplexes = {DATA / 'complexes.jsonl'}\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["--config", str(tmp_path / "run.ini"), "partition"]) == 0
    assert sys.modules["_hashlib"] is openssl


def test_surrogate_dock_hash_mode_without_numpy(child_env):
    for smiles in SMILES:
        canon = canonical_smiles(parse_smiles(smiles))
        expected = -4 - stable_hash64("surrogate-dock", canon) % 800 / 100
        assert _score(child_env, smiles) == f"{expected:.2f}"


def test_surrogate_dock_rejects_unparseable(child_env):
    # the third parses, but its 100 alike components exhaust the canonical search
    for smiles, reason in [("C1CC", "unparseable"), ("C²CC", "unparseable"),
                           (".".join(["C"] * 100), "uncanonicalizable")]:
        proc = _surrogate(child_env, smiles)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and reason in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "args", [[], ["CCO", "CCN"], ["CCO", "--mode", "heavy"]], ids=["none", "two", "mode"]
)
def test_surrogate_dock_takes_exactly_one_argument(child_env, args):
    proc = _surrogate(child_env, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("usage:"), proc.stderr


# What the stand-in has no use for: an argument parser, what dataclasses,
# JSON and the fork plumbing would load on the way, and OpenSSL's hashes.
UNUSED_BY_SURROGATE = ("argparse", "dataclasses", "json", "signal", "_hashlib")
LIST_UNUSED = f"import sys\nprint(sorted(m for m in {UNUSED_BY_SURROGATE!r} if m in sys.modules))\n"
RUN_SURROGATE_AND_LIST = (
    "import runpy, sys\n"
    "sys.argv = sys.argv[1:]\n"
    "try:\n"
    "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
) + LIST_UNUSED


def test_surrogate_dock_loads_only_what_it_uses(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", RUN_SURROGATE_AND_LIST, str(SURROGATE), "c1ccccc1O"],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    score, loaded = proc.stdout.strip().splitlines()
    assert score == _score(child_env, "c1ccccc1O")
    # what a bare interpreter loads (site and its .pth files) does not count
    bare = subprocess.run(
        [sys.executable, "-c", LIST_UNUSED], env=child_env, capture_output=True, text=True
    )
    assert loaded == bare.stdout.strip()


# Each costs about 1 MB of peak RSS on top of ``import molchord.cli``; the
# evaluation stages fork and send JSON through pipes instead.
HEAVY_MODULES = ("multiprocessing", "concurrent.futures.process", "pickle")
EVALUATE_WITH_FORKS = (
    "import os, sys\n"
    "from molchord.molgraph import canon\n"
    "from molchord.cli import main\n"
    "forks = []\n"
    "fork = os.fork\n"
    "def counting_fork():\n"
    "    pid = fork()\n"
    "    forks.append(pid)\n"
    "    return pid\n"
    "os.fork = counting_fork\n"
    "canon._usable_cpus = lambda: 2\n"
    "code = main(['--config', 'run.ini', 'evaluate'])\n"
    "print(code, len(forks), [m for m in {heavy!r} if m in sys.modules])\n"
)


def test_forking_evaluate_imports_no_process_pool_or_pickle(tmp_path, child_env):
    # enough distinct strings that the prefetch and the pocket rows both fork
    n = 2 * math.ceil(canon._FORK_PAYOFF * canon._FORK_S
                      / min(canon._CANONICALIZE_S, metrics._ROW_GENERATION_S)) + 20
    smiles = list(dict.fromkeys(smiles_corpus(3 * n, seed=5, min_heavy=3, max_heavy=12)))[:n]
    assert len(smiles) == n
    out = tmp_path / "out"
    out.mkdir()
    pockets = [f"p{i}" for i in range(8)]
    with open(tmp_path / "complexes.jsonl", "w") as handle:
        for pocket in pockets:
            handle.write(json.dumps({"pocket_id": pocket, "ligand_smiles": ["CCO"]}) + "\n")
    with open(out / "generations.jsonl", "w") as gens, open(out / "scores.jsonl", "w") as scores:
        for i, text in enumerate(smiles):
            row = {"pocket_id": pockets[i % len(pockets)], "smiles": text}
            gens.write(json.dumps(row) + "\n")
            scores.write(json.dumps({**row, "vina": -5.0 - i % 7}) + "\n")
    (tmp_path / "run.ini").write_text("[paths]\ncomplexes = complexes.jsonl\noutdir = out\n")
    proc = subprocess.run(
        [sys.executable, "-c", EVALUATE_WITH_FORKS.format(heavy=HEAVY_MODULES)],
        cwd=tmp_path, env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, forks, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 2)
    assert code == "0"
    assert int(forks) >= 2  # the prefetch and the pocket rows both forked
    assert loaded == "[]"
