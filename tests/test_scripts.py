"""The scripts under ``scripts/`` end in a result or in exit 2 with one
``error:`` line, each run in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXPERIMENT_SETTINGS = {
    "n_pockets", "corpus_size", "sft_pockets", "held_out_pairs", "eval_samples",
    "filter_samples", "diversity_threshold", "sft_steps", "d", "d_feat", "window",
    "n_struct", "max_len", "seed",
}


def _run(env: dict, script: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_experiment_script_reports_its_settings_and_results(child_env):
    # 55 pairs: 50 held out and 5 trained on
    proc = _run(child_env, "run_dpo_experiment.py",
                "--pockets", "80", "--corpus", "800", "--sft-steps", "50", "--json", timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert set(summary) == {
        "elapsed_s", "config", "supervised_val_loss", "selected_pockets", "pairs",
        "fraction_improved", "mean_margin_held_out", "mean_reward",
    }
    assert set(summary["config"]) == EXPERIMENT_SETTINGS
    assert summary["config"]["n_pockets"] == 80
    assert summary["pairs"] == {"train": 5, "held_out": 50}


def test_experiment_script_without_a_training_pair_exits_2(child_env):
    # 10 pairs, every one of them held out
    proc = _run(child_env, "run_dpo_experiment.py",
                "--pockets", "20", "--corpus", "200", "--sft-steps", "20", timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: curation made 10 preference pairs")


def test_fixture_script_with_too_few_heavy_atoms_exits_2(child_env, tmp_path):
    # fixture ligands have at least 3 heavy atoms
    out = tmp_path / "complexes.jsonl"
    proc = _run(child_env, "make_fixture.py", str(out), "--pockets", "2", "--max-heavy", "2",
                timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: no molecule has 3 to 2 heavy atoms"]
    assert not out.exists()
