import json
import subprocess
import sys
from pathlib import Path

import pytest

from molchord.cli import main
from molchord.scorers import dump_records, load_records
from molchord.synthetic import synthetic_complexes

# deterministic pseudo-binding score from a checksum of the molecule text
DOCK_STUB = (
    "printf '%s' '{smiles}' | cksum | "
    "awk '{ printf \"-%.2f\\n\", 4 + ($1 % 800) / 100.0 }'"
)


def _write_config(tmp_path: Path, complexes: Path, overrides: dict | None = None) -> Path:
    outdir = tmp_path / "out"
    values = {
        "paths": {"complexes": str(complexes), "outdir": str(outdir)},
        "model": {"d": "16", "d_feat": "16", "window": "4", "n_struct": "3", "seed": "0"},
        "sample": {"temperature": "1.0", "top_p": "0.95", "max_len": "40", "n_eval": "5",
                   "retry_factor": "20"},
        "train_sft": {"steps": "500", "batch_size": "8", "eval_interval": "50"},
        "train_dpo": {"learning_rate": "1e-3"},
        "curate": {"filter_samples": "24", "pair_candidates": "16", "pair_docked": "4"},
        "metrics": {"top_k": "2"},
        "dock": {"command": DOCK_STUB, "timeout": "30",
                 "cache_dir": str(tmp_path / "dock_cache")},
    }
    for section, keys in (overrides or {}).items():
        values.setdefault(section, {}).update(keys)
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path = tmp_path / "run.ini"
    path.write_text("\n".join(lines))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run on a small synthetic dataset, shared across tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(18, seed=4, max_heavy=7))
    config = _write_config(tmp_path, complexes)
    outdir = tmp_path / "out"

    steps = [
        ["partition"],
        ["train-sft"],
        ["curate"],
        ["train-dpo"],
        ["sample"],
        ["dock"],
        ["evaluate"],
        ["report", "--fused", "--ood"],
        ["verify"],
    ]
    for step in steps:
        code = main(["--config", str(config), "--allow-partial", *step])
        assert code == 0, f"step {step} exited {code}"
    return tmp_path, config, outdir


@pytest.mark.parametrize(
    "step", [["partition"], ["dock"], ["evaluate"], ["report", "--fused", "--ood"], ["verify"]]
)
def test_numpy_free_commands_run_with_numpy_blocked(pipeline, step, child_env):
    # commands that neither train nor sample must not need numpy to start or run
    _, config, _ = pipeline
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from molchord.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--config", str(config), "--allow-partial", *step],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_partition_rule_and_counts(pipeline):
    tmp_path, config, outdir = pipeline
    payload = json.loads((outdir / "partition.json").read_text())
    records = load_records(tmp_path / "complexes.jsonl", "complexes")
    expected_sft = {r.pocket_id for r in records if len(set(r.ligand_smiles)) > 2}
    assert set(payload["sft_pool"]) == expected_sft
    assert payload["counts"]["sft"] + payload["counts"]["dpo"] == len(records)


def test_pipeline_artifacts_exist(pipeline):
    _, _, outdir = pipeline
    for name in [
        "partition.json", "sft_checkpoint.json", "sft_curve.jsonl", "pairs.jsonl",
        "d_dpo.json", "dpo_checkpoint.json", "dpo_curve.jsonl", "generations.jsonl",
        "scores.jsonl", "report.jsonl", "report.txt", "fused_report.json",
        "ood_report.json",
    ]:
        assert (outdir / name).exists(), name


def test_pipeline_manifests_cover_commands(pipeline):
    _, _, outdir = pipeline
    commands = {
        json.loads(p.read_text())["command"] for p in outdir.glob("*.manifest.json")
    }
    assert {"partition", "train-sft", "curate", "train-dpo", "sample", "dock",
            "evaluate", "report"} <= commands


def test_generations_unique_and_capped(pipeline):
    _, _, outdir = pipeline
    generations = load_records(outdir / "generations.jsonl", "generations")
    per_pocket: dict[str, list[str]] = {}
    for g in generations:
        per_pocket.setdefault(g.pocket_id, []).append(g.smiles)
    for pocket_id, molecules in per_pocket.items():
        assert len(molecules) == len(set(molecules))
        assert len(molecules) <= 5


def test_report_row_per_pocket(pipeline):
    _, _, outdir = pipeline
    rows = [json.loads(line) for line in (outdir / "report.jsonl").read_text().splitlines()]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"pocket", "aggregate"}
    aggregate = [r for r in rows if r["kind"] == "aggregate"][0]
    assert aggregate["mean_vina"] < 0
    assert aggregate["ood"] is not None


def test_partition_rerun_byte_identical(pipeline):
    tmp_path, config, outdir = pipeline
    before = (outdir / "partition.json").read_bytes()
    assert main(["--config", str(config), "partition"]) == 0
    assert (outdir / "partition.json").read_bytes() == before


def test_duplicate_pocket_exits_validation(tmp_path):
    complexes = tmp_path / "complexes.jsonl"
    records = synthetic_complexes(2, seed=1)
    complexes.write_text(
        "\n".join(
            json.dumps({"pocket_id": "same", "ligand_smiles": list(r.ligand_smiles)})
            for r in records
        )
        + "\n"
    )
    config = _write_config(tmp_path, complexes)
    assert main(["--config", str(config), "partition"]) == 2


def test_missing_artifact_exit_code(tmp_path):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(3, seed=2))
    config = _write_config(tmp_path, complexes)
    assert main(["--config", str(config), "train-sft"]) == 3  # no partition yet
    assert main(["--config", str(config), "evaluate"]) == 3  # no generations


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini"), "partition"]) == 3


def test_evaluate_coverage_gap_exits_two(pipeline, tmp_path):
    src_tmp, config, outdir = pipeline
    scores_path = outdir / "scores.jsonl"
    backup = scores_path.read_bytes()
    try:
        lines = scores_path.read_text().splitlines()
        scores_path.write_text("\n".join(lines[:-1]) + "\n")
        code = main(["--config", str(config), "evaluate"])
        assert code == 2
        assert (outdir / "coverage_report.json").exists()
    finally:
        scores_path.write_bytes(backup)


def test_dock_failure_exit_code(tmp_path):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(3, seed=5, ligand_counts=(3, 4)))
    config = _write_config(
        tmp_path, complexes, overrides={"dock": {"command": "false # {smiles}"}}
    )
    assert main(["--config", str(config), "partition"]) == 0
    assert main(["--config", str(config), "train-sft"]) == 0
    assert main(["--config", str(config), "sample"]) == 0
    assert main(["--config", str(config), "dock"]) == 4


def test_verify_detects_modified_artifact(pipeline):
    _, config, outdir = pipeline
    target = outdir / "partition.json"
    original = target.read_bytes()
    try:
        target.write_bytes(original + b" ")
        assert main(["--config", str(config), "verify"]) == 2
    finally:
        target.write_bytes(original)
    assert main(["--config", str(config), "verify"]) == 0


def test_sample_with_explicit_checkpoint(pipeline):
    tmp_path, config, outdir = pipeline
    generations_path = outdir / "generations.jsonl"
    backup = generations_path.read_bytes()
    try:
        code = main([
            "--config", str(config), "sample",
            "--checkpoint", str(outdir / "sft_checkpoint.json"),
        ])
        assert code == 0
        manifest = json.loads((outdir / "sample.manifest.json").read_text())
        assert str(outdir / "sft_checkpoint.json") in manifest["inputs"]
        assert main([
            "--config", str(config), "sample", "--checkpoint", str(outdir / "nope.json"),
        ]) == 3
    finally:
        generations_path.write_bytes(backup)


def test_flag_overrides_config(tmp_path, capsys):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(4, seed=6))
    config = _write_config(tmp_path, complexes)
    assert main(["--config", str(config), "--seed", "7", "partition"]) == 0
    manifest = json.loads((tmp_path / "out" / "partition.manifest.json").read_text())
    assert manifest["config"]["model"]["seed"] == "7"
