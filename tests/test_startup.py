"""Processes that neither train nor sample start without numpy.

The dock command starts once per uncached molecule and every pipeline stage
is its own process, so their start-up time is paid over and over. Each check
runs in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from molchord.hashutil import stable_hash64
from molchord.molgraph import canonical_smiles, parse_smiles
from molchord.scorers import surrogate_vina

SURROGATE = Path(__file__).resolve().parents[1] / "scripts" / "surrogate_dock.py"
RUN_SURROGATE_WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')"
)
SMILES = ["OCC", "c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "NC(=O)C1CC1", "C(C)(C)(C)CCCCCCCCCCCCCCN"]


def _surrogate(env: dict, smiles: str, mode: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", RUN_SURROGATE_WITHOUT_NUMPY, str(SURROGATE), smiles, "--mode", mode],
        env=env,
        capture_output=True,
        text=True,
    )


def _score(env: dict, smiles: str, mode: str) -> str:
    proc = _surrogate(env, smiles, mode)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_unloaded(child_env):
    code = "import sys\nimport molchord.cli\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_surrogate_dock_hash_mode_without_numpy(child_env):
    for smiles in SMILES:
        canon = canonical_smiles(parse_smiles(smiles))
        expected = -4 - stable_hash64("surrogate-dock", canon) % 800 / 100
        assert _score(child_env, smiles, "hash") == f"{expected:.2f}"


def test_surrogate_dock_heavy_mode_matches_experiment_surrogate(child_env):
    for smiles in SMILES:
        expected = surrogate_vina(parse_smiles(smiles))
        assert _score(child_env, smiles, "heavy") == f"{expected:.2f}"


@pytest.mark.parametrize("mode", ["hash", "heavy"])
def test_surrogate_dock_rejects_unparseable(child_env, mode):
    proc = _surrogate(child_env, "C1CC", mode)
    assert proc.returncode == 1
    assert "unparseable" in proc.stderr
