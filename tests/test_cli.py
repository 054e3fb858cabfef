import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molchord.cli import SCHEMA, ValidationFailure, build_parser, load_config, main
from molchord import curation, molgraph, scorers
from molchord.molgraph import canonical_smiles, canonicalize, parse_smiles
from molchord.scorers import dump_records, load_records
from molchord.store import CACHE_DIR_ENV
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


# --- golden hashes of the artifacts that depend on matrix products ----------

_MODEL_GOLDENS = Path(__file__).parent / "data" / "model_goldens.json"
# curate and everything after it also ran with flow = offline
_MODEL_ARTIFACTS = {
    "online": ("sft_checkpoint.json", "sft_curve.jsonl", "pairs.jsonl", "d_dpo.json",
               "dpo_checkpoint.json", "dpo_curve.jsonl", "generations.jsonl", "scores.jsonl"),
    "offline": ("pairs.jsonl", "d_dpo.json", "dpo_checkpoint.json", "dpo_curve.jsonl",
                "generations.jsonl", "scores.jsonl"),
}


def _environment() -> dict[str, str]:
    """What the bits of a matrix product depend on: numpy, its BLAS, and the
    CPU features that choose the BLAS kernels."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    flags = next((line.split(":", 1)[1].split() for line in cpuinfo.splitlines()
                  if line.startswith("flags")), [])
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_flags": " ".join(sorted(flags))}


@pytest.fixture(scope="module")
def offline_pipeline(pipeline, tmp_path_factory):
    """The shared run again from curate on, with flow = offline, over a copy
    of its partition and supervised checkpoint; returns its output directory."""
    tmp_path = tmp_path_factory.mktemp("offline")
    config, out = _run_after(pipeline, tmp_path, ("partition.json", "sft_checkpoint.json"),
                             {"curate": {"flow": "offline"}})
    for step in (["curate"], ["train-dpo"], ["sample"], ["dock"]):
        assert main(["--config", str(config), "--allow-partial", *step]) == 0, step
    return out


@pytest.mark.parametrize("flow", ["online", "offline"])
def test_model_artifacts_keep_their_golden_hashes(request, flow):
    """The checkpoints, curves, pairs, generations and scores of the shared
    run hash as committed, when this machine is the one they were computed
    on; elsewhere the test skips and says what differs. With
    MOLCHORD_UPDATE_GOLDENS=1 (scripts/update_model_goldens.py) it records
    the hashes and this environment instead."""
    golden = json.loads(_MODEL_GOLDENS.read_text())
    environment = _environment()
    update = bool(os.environ.get("MOLCHORD_UPDATE_GOLDENS"))
    if not update and environment != golden["environment"]:
        differ = {key: {"golden": golden["environment"].get(key), "here": value}
                  for key, value in environment.items()
                  if golden["environment"].get(key) != value}
        print(f"environment differs from the goldens': {differ}")
        pytest.skip(f"environment differs from the goldens': {sorted(differ)}")
    outdir = request.getfixturevalue("pipeline")[2] if flow == "online" else (
        request.getfixturevalue("offline_pipeline"))
    hashes = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
              for name in _MODEL_ARTIFACTS[flow]}
    if update:
        golden.update({"environment": environment, flow: hashes})
        _MODEL_GOLDENS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert hashes == golden[flow], "the artifacts now hash to\n" + json.dumps(hashes, indent=1)


# What each manifest of the shared run lists, relative to its directory: the
# inputs, then the outputs. The complexes file is also its eval_complexes.
_EVALUATED = {"complexes.jsonl", "out/generations.jsonl", "out/scores.jsonl"}
_MANIFESTS = {
    "partition": ({"complexes.jsonl"}, {"out/partition.json"}),
    "train-sft": ({"complexes.jsonl", "out/partition.json"},
                  {"out/sft_checkpoint.json", "out/sft_curve.jsonl"}),
    "curate": ({"complexes.jsonl", "out/partition.json", "out/sft_checkpoint.json"},
               {"out/pairs.jsonl", "out/d_dpo.json"}),
    "train-dpo": ({"complexes.jsonl", "out/pairs.jsonl", "out/sft_checkpoint.json"},
                  {"out/dpo_checkpoint.json", "out/dpo_curve.jsonl"}),
    "sample": ({"complexes.jsonl", "out/dpo_checkpoint.json"}, {"out/generations.jsonl"}),
    "dock": ({"complexes.jsonl", "out/generations.jsonl"}, {"out/scores.jsonl"}),
    "evaluate": (_EVALUATED, {"out/report.jsonl", "out/report.txt"}),
    "report-fused": (_EVALUATED, {"out/fused_report.json"}),
    "report-ood": (_EVALUATED, {"out/ood_report.json"}),
}


def test_pipeline_manifests_list_what_each_command_read_and_wrote(pipeline):
    tmp_path, _, outdir = pipeline
    listed, commands = {}, set()
    for path in outdir.glob("*.manifest.json"):
        manifest = json.loads(path.read_text())
        commands.add(manifest["command"])
        listed[path.name.removesuffix(".manifest.json")] = tuple(
            {str(Path(name).relative_to(tmp_path)) for name in manifest[role]}
            for role in ("inputs", "outputs")
        )
    assert listed == _MANIFESTS
    assert commands == {"partition", "train-sft", "curate", "train-dpo", "sample", "dock",
                        "evaluate", "report"}


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


def test_config_that_is_not_a_readable_file_exits_three(tmp_path, capsys):
    # ConfigParser.read skipped it, so the run went on with the defaults and
    # failed later on "complexes file not found: None"
    folder = tmp_path / "run.ini"
    folder.mkdir()
    assert main(["--config", str(folder), "partition"]) == 3
    assert f"cannot read config file {folder}" in capsys.readouterr().err


def test_complexes_path_that_is_a_directory_exits_three(tmp_path, capsys):
    # open() raised IsADirectoryError, which ended in exit 1
    folder = tmp_path / "complexes.jsonl"
    folder.mkdir()
    assert main(["--config", str(_write_config(tmp_path, folder)), "partition"]) == 3
    assert f"cannot read complexes file {folder}" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"pocket_id": "p1", "ligand_smiles": ["CCO"], "reference_vina": 1%s}' % ("0" * 400),
    '{"pocket_id": "p1", "ligand_smiles": [5]}',
    '{"pocket_id": "p1", "ligand_smiles": [["CCO"]]}',
    "[" * 100_000,
], ids=["huge-integer", "number-ligand", "nested-ligand", "deep-nesting"])
def test_complexes_lines_that_crashed_partition_exit_two(tmp_path, line):
    complexes = tmp_path / "complexes.jsonl"
    complexes.write_text(line + "\n")
    assert main(["--config", str(_write_config(tmp_path, complexes)), "partition"]) == 2
    assert not (tmp_path / "out" / "partition.json").exists()


@pytest.mark.parametrize("text", [
    "garbage", '{"sft_pool": 3}', "[]", '{"sft_pool": [1], "dpo_pool": []}', "[" * 100_000,
], ids=["not-json", "number-pool", "list", "number-id", "deep-nesting"])
def test_unloadable_partition_exits_three(tmp_path, capsys, text):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(3, seed=2))
    config = _write_config(tmp_path, complexes)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "partition.json").write_text(text)
    assert main(["--config", str(config), "train-sft"]) == 3
    assert "cannot load partition" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "garbage", "{}", "[" * 100_000],
                         ids=["list", "not-json", "empty", "deep-nesting"])
def test_unloadable_supervised_checkpoint_exits_three(tmp_path, capsys, text):
    complexes = tmp_path / "complexes.jsonl"
    records = synthetic_complexes(3, seed=2)
    dump_records(complexes, records)
    config = _write_config(tmp_path, complexes)
    outdir = tmp_path / "out"
    outdir.mkdir()
    pair = {"pocket_id": records[0].pocket_id, "chosen": "CCO", "rejected": "CCN",
            "reward_chosen": 1.0, "reward_rejected": 0.0}
    (outdir / "pairs.jsonl").write_text(json.dumps(pair) + "\n")
    (outdir / "sft_checkpoint.json").write_text(text)
    assert main(["--config", str(config), "train-dpo"]) == 3
    assert "cannot load checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "garbage", "[]", '{"command": "dock", "inputs": []}', "[" * 100_000,
], ids=["not-json", "list", "list-of-inputs", "deep-nesting"])
def test_verify_reports_an_unreadable_manifest_and_exits_two(pipeline, tmp_path, capsys, text):
    _, config, outdir = pipeline
    broken = outdir / "broken.manifest.json"
    broken.write_text(text)
    try:
        assert main(["--config", str(config), "verify"]) == 2
    finally:
        broken.unlink()
    out = capsys.readouterr().out
    assert f"BROKEN   {broken}" in out
    assert out.count("CHANGED") == out.count("MISSING") == 0
    assert main(["--config", str(config), "verify"]) == 0


def test_bare_report_exits_two_before_loading_anything(pipeline, tmp_path, monkeypatch, capsys):
    """Without --fused or --ood, report loads no record file and writes
    nothing, whether its inputs are missing or all there."""
    loads = []
    monkeypatch.setattr(scorers, "load_records", lambda *args: loads.append(args))
    bare = tmp_path / "run.ini"
    bare.write_text(f"[paths]\ncomplexes = {tmp_path / 'complexes.jsonl'}\n"
                    f"outdir = {tmp_path / 'out'}\n")
    _, config, outdir = pipeline
    before = sorted((p.name, p.stat().st_mtime_ns) for p in outdir.iterdir())
    for path in (bare, config):
        assert main(["--config", str(path), "report"]) == 2
        assert "pass --fused and/or --ood" in capsys.readouterr().err
    assert loads == []
    assert list(tmp_path.iterdir()) == [bare]
    assert sorted((p.name, p.stat().st_mtime_ns) for p in outdir.iterdir()) == before


@pytest.mark.parametrize("key, value, message", [
    ("d", 200_000, "checkpoint params are not the base64 of 200020200084 float64 values"),
    ("n_struct_tokens", 2**40, "model n_struct must be in [1, 512]"),
    ("seed", 2**200, "model seed must be in [0, "),
], ids=["d", "n_struct", "seed"])
def test_a_checkpoint_that_names_a_huge_model_exits_three(tmp_path, capsys, key, value, message):
    # with its content hash to match, d = 200000 ended in MemoryError (the
    # arrays were checked against a random model of that size), as did
    # n_struct = 2**40 while featurizing, and seed = 2**200 in OverflowError
    from molchord.genmodel.params import _payload_digest

    config = _contract_run(tmp_path, _contract_texts())
    path = tmp_path / "out" / "sft_checkpoint.json"
    payload = json.loads(path.read_text())
    del payload["content_hash"]
    payload["config"][key] = value
    payload["content_hash"] = _payload_digest(payload)
    path.write_text(json.dumps(payload))
    assert main(["--config", str(config), "sample", "--checkpoint", str(path)]) == 3
    assert message in capsys.readouterr().err


def _rewrite_checkpoint(path: Path, edit) -> None:
    """Apply ``edit`` to a checkpoint document and give it a matching content hash."""
    from molchord.genmodel.params import _payload_digest

    payload = json.loads(path.read_text())
    del payload["content_hash"]
    edit(payload)
    payload["content_hash"] = _payload_digest(payload)
    path.write_text(json.dumps(payload))


def test_a_version_one_checkpoint_exits_three_and_names_its_version(tmp_path, capsys):
    """A checkpoint in the earlier format (each array as hex text) is not read."""
    from molchord.genmodel import load_params

    config = _contract_run(tmp_path, _contract_texts())
    path = tmp_path / "out" / "sft_checkpoint.json"
    params = load_params(path)

    def version_one(payload):
        del payload["params"]
        payload["version"] = 1
        payload["arrays"] = {
            name: {"shape": list(getattr(params, name).shape),
                   "data": " ".join(map(float.hex, getattr(params, name).ravel().tolist()))}
            for name in params.array_fields()
        }

    _rewrite_checkpoint(path, version_one)
    assert main(["--config", str(config), "sample", "--checkpoint", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "unsupported checkpoint version 1" in err


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:-4], "checkpoint params are not the base64 of"),
    (lambda text: text + "AAAA", "checkpoint params are not the base64 of"),
    (lambda text: "!" + text[1:], "checkpoint params are not the base64 of"),
    (lambda text: text[:-4] + "A===", "checkpoint params are not the base64 of"),
], ids=["short", "long", "not-base64", "padding"])
def test_a_checkpoint_whose_params_are_not_the_models_exits_three(tmp_path, capsys, edit,
                                                                   message):
    config = _contract_run(tmp_path, _contract_texts())
    path = tmp_path / "out" / "sft_checkpoint.json"
    _rewrite_checkpoint(path, lambda payload: payload.update(params=edit(payload["params"])))
    assert main(["--config", str(config), "sample", "--checkpoint", str(path)]) == 3
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and message in err


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


def test_evaluate_lists_the_coverage_report_it_wrote(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl", "scores.jsonl"))
    scores = out / "scores.jsonl"
    scores.write_text("".join(scores.read_text().splitlines(keepends=True)[:-1]))
    assert main(["--config", str(config), "--allow-partial", "evaluate"]) == 0
    manifest = json.loads((out / "evaluate.manifest.json").read_text())
    assert sorted(manifest["outputs"]) == [
        str(out / name) for name in ("coverage_report.json", "report.jsonl", "report.txt")
    ]


def _verify_line(status: str, command: str, role: str, path: Path) -> str:
    return f"{status:<8} {command:<12} {role:<7} {path}"


def _walkthrough_evaluation(pipeline, tmp_path):
    """evaluate, then the two sub-reports one command each, as the README
    runs them, over a copy of the shared run with an eval_complexes file of
    its own; returns the config, the output directory and that file."""
    src_tmp, _, _ = pipeline
    eval_complexes = tmp_path / "eval_complexes.jsonl"
    eval_complexes.write_bytes((src_tmp / "complexes.jsonl").read_bytes())
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl", "scores.jsonl"),
                             {"paths": {"eval_complexes": str(eval_complexes)}})
    for step in (["evaluate"], ["--allow-partial", "report", "--fused"], ["report", "--ood"]):
        assert main(["--config", str(config), *step]) == 0, step
    assert main(["--config", str(config), "verify"]) == 0
    return config, out, eval_complexes


def test_verify_names_a_changed_fused_report_after_separate_sub_reports(
    pipeline, tmp_path, capsys
):
    # report --ood overwrote the manifest of report --fused, so no manifest
    # listed fused_report.json and verify passed a changed one
    config, out, _ = _walkthrough_evaluation(pipeline, tmp_path)
    with open(out / "fused_report.json", "a") as handle:
        handle.write(" ")
    capsys.readouterr()
    assert main(["--config", str(config), "verify"]) == 2
    assert _verify_line("CHANGED", "report", "output", out / "fused_report.json") in (
        capsys.readouterr().out.splitlines()
    )


def test_verify_names_a_changed_eval_complexes_file_after_evaluate_and_report(
    pipeline, tmp_path, capsys
):
    # reference_vina and homology come from it, but no manifest listed it
    config, _, eval_complexes = _walkthrough_evaluation(pipeline, tmp_path)
    with open(eval_complexes, "a") as handle:
        handle.write("\n")
    capsys.readouterr()
    assert main(["--config", str(config), "verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert _verify_line("CHANGED", "evaluate", "input", eval_complexes) in lines
    assert lines.count(_verify_line("CHANGED", "report", "input", eval_complexes)) == 2


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


def test_verify_reports_a_listed_file_it_cannot_read_and_exits_two(
    pipeline, monkeypatch, capsys
):
    # a listed /proc/self/mem ended in exit 1, "OSError: [Errno 5] Input/output error"
    from molchord import cli

    _, config, outdir = pipeline
    target, real = outdir / "partition.json", cli.sha256_file

    def unreadable(path, *rest):
        if Path(path) == target:
            raise OSError(5, "Input/output error")
        return real(path, *rest)

    monkeypatch.setattr(cli, "sha256_file", unreadable)
    capsys.readouterr()
    assert main(["--config", str(config), "verify"]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(str(target))]
    assert _verify_line("UNREADABLE", "partition", "output", target) in rows
    assert all(row.startswith("UNREADABLE ") for row in rows)


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


@pytest.mark.filterwarnings("ignore:pocket .* within the retry cap")
def test_window_zero_model_trains_and_samples(pipeline, tmp_path):
    # A window-0 model reads only its conditioning vector; the schema accepts
    # it, so sampling must not shift a window it does not have.
    config, out = _run_after(pipeline, tmp_path, ("partition.json",), {
        "model": {"window": "0"}, "train_sft": {"steps": "20"},
    })
    assert main(["--config", str(config), "train-sft"]) == 0
    assert main([
        "--config", str(config), "sample", "--checkpoint", str(out / "sft_checkpoint.json"),
    ]) == 0
    assert load_records(out / "generations.jsonl", "generations")


def test_jobs_zero_exits_two_before_any_artifact(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, _UPSTREAM["dock"])
    assert main(["--config", str(config), "--jobs", "0", "dock"]) == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(_UPSTREAM["dock"])


def test_flag_overrides_config(tmp_path, capsys):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(4, seed=6))
    config = _write_config(tmp_path, complexes)
    assert main(["--config", str(config), "--seed", "7", "partition"]) == 0
    manifest = json.loads((tmp_path / "out" / "partition.manifest.json").read_text())
    assert manifest["config"]["model"]["seed"] == "7"


def test_sample_counts_strings_over_the_work_cap_as_invalid(pipeline, tmp_path, monkeypatch):
    from molchord.molgraph import canon, canonicalize

    src_tmp, _, outdir = pipeline
    complexes = src_tmp / "complexes.jsonl"
    # ligands without ties, so that only sampled strings meet the work cap
    eval_complexes = tmp_path / "eval_complexes.jsonl"
    dump_records(eval_complexes, [
        r._replace(ligand_smiles=("CCO",)) for r in load_records(complexes, "complexes")
    ])
    config = _write_config(tmp_path, complexes, {"paths": {"eval_complexes": str(eval_complexes)}})
    monkeypatch.setattr(canon, "_MAX_WORK", 0)
    canonicalize.cache_clear()
    code = main([
        "--config", str(config), "sample", "--checkpoint", str(outdir / "dpo_checkpoint.json"),
    ])
    assert code == 0
    rows = load_records(tmp_path / "out" / "generations.jsonl", "generations")
    assert rows and all(canon.canonical_smiles(parse_smiles(r.smiles)) == r.smiles for r in rows)


def test_checkpoints_do_not_depend_on_the_output_directory(pipeline, tmp_path):
    src_tmp, _, _ = pipeline
    complexes = src_tmp / "complexes.jsonl"
    checkpoints = []
    for name in ("a", "b"):
        run = tmp_path / name
        run.mkdir()
        config = _write_config(run, complexes, {"train_sft": {"steps": "40"}})
        assert main(["--config", str(config), "partition"]) == 0
        assert main(["--config", str(config), "train-sft"]) == 0
        checkpoints.append((run / "out" / "sft_checkpoint.json").read_bytes())
        manifest = json.loads((run / "out" / "train-sft.manifest.json").read_text())
        assert manifest["config"]["paths"]["outdir"] == str(run / "out")
    assert checkpoints[0] == checkpoints[1]


def test_checkpoint_does_not_depend_on_dock_workers(pipeline, tmp_path):
    # --jobs writes [dock] max_parallel, which the config digest leaves out
    checkpoints = []
    for jobs in ("1", "3"):
        run = tmp_path / jobs
        run.mkdir()
        config, out = _run_after(pipeline, run, ("partition.json",), {"train_sft": {"steps": "40"}})
        assert main(["--config", str(config), "--jobs", jobs, "train-sft"]) == 0
        manifest = json.loads((out / "train-sft.manifest.json").read_text())
        assert manifest["config"]["dock"]["max_parallel"] == jobs
        checkpoints.append((out / "sft_checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def _run_after(pipeline, tmp_path, copied, overrides=None):
    """Config for a fresh output directory seeded with upstream artifacts of
    the shared pipeline run."""
    src_tmp, _, outdir = pipeline
    config = _write_config(tmp_path, src_tmp / "complexes.jsonl", overrides)
    (tmp_path / "out").mkdir()
    for name in copied:
        (tmp_path / "out" / name).write_bytes((outdir / name).read_bytes())
    return config, tmp_path / "out"


_CURATE_INPUTS = ("partition.json", "sft_checkpoint.json")


@pytest.mark.parametrize("threshold, expected", [("1.5", 2), ("0.8", 4)])
def test_curate_without_pairs_exits_four_only_after_dock_failures(
    pipeline, tmp_path, threshold, expected
):
    # A threshold above any diversity keeps no pocket, so nothing is docked
    # and the empty pair set is a validation outcome, not a dock failure.
    config, _ = _run_after(pipeline, tmp_path, _CURATE_INPUTS, {
        "curate": {"diversity_threshold": threshold},
        "dock": {"command": "false # {smiles}"},
    })
    assert main(["--config", str(config), "curate"]) == expected


@pytest.mark.parametrize(
    "command, copied",
    [("dock", ("generations.jsonl",)), ("curate", _CURATE_INPUTS)],
    ids=["dock", "curate"],
)
def test_a_cache_dir_that_is_a_file_exits_three_before_any_dock_command(
    pipeline, tmp_path, capsys, command, copied
):
    log = tmp_path / "runs.log"
    config, out = _run_after(pipeline, tmp_path, copied, {
        "dock": {"command": f"echo '{{smiles}}' >> {log}; echo -5",
                 "cache_dir": str(tmp_path / "run.ini")},
    })
    assert main(["--config", str(config), command]) == 3
    assert str(tmp_path / "run.ini") in capsys.readouterr().err
    assert not log.exists()
    assert sorted(p.name for p in out.iterdir()) == sorted(copied)


@pytest.mark.parametrize(
    "how", [["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "-1"], "config-nan"],
    ids=["nan", "inf", "negative", "config-nan"],
)
def test_bad_lambda_exits_two_before_any_artifact(pipeline, tmp_path, how):
    overrides = {"curate": {"lambda": "nan"}} if how == "config-nan" else None
    flags = [] if how == "config-nan" else how
    config, out = _run_after(pipeline, tmp_path, _CURATE_INPUTS, overrides)
    assert main(["--config", str(config), *flags, "curate"]) == 2
    assert not (out / "pairs.jsonl").exists()
    assert not (out / "d_dpo.json").exists()


def test_zero_temperature_exits_two(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, ("sft_checkpoint.json",))
    assert main(["--config", str(config), "--temperature", "0", "sample"]) == 2
    assert not (out / "generations.jsonl").exists()


def test_negative_preference_weight_exits_two(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, ("sft_checkpoint.json", "pairs.jsonl"))
    assert main(["--config", str(config), "--beta-dpo", "-5", "train-dpo"]) == 2
    assert not (out / "dpo_checkpoint.json").exists()


def test_unknown_curate_flow_exits_two_without_artifacts(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, _CURATE_INPUTS, {"curate": {"flow": "batch"}})
    assert main(["--config", str(config), "curate"]) == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(_CURATE_INPUTS)


# The upstream artifacts each command reads, copied from the shared run.
_UPSTREAM = {
    "partition": (),
    "train-sft": ("partition.json",),
    "curate": _CURATE_INPUTS,
    "train-dpo": ("sft_checkpoint.json", "pairs.jsonl"),
    "sample": ("sft_checkpoint.json",),
    "dock": ("generations.jsonl",),
    "evaluate": ("generations.jsonl", "scores.jsonl"),
    "report": ("generations.jsonl", "scores.jsonl"),
}


@pytest.mark.parametrize("section, key, value, step", [
    # these ended in exit 1 "internal error" before values were range-checked at load
    ("train_sft", "batch_size", "0", ["train-sft"]),
    ("train_dpo", "batch_size", "0", ["train-dpo"]),
    ("train_sft", "eval_interval", "0", ["train-sft"]),
    ("model", "n_struct", "-1", ["train-sft"]),
    ("model", "seed", "-4", ["train-sft"]),
    ("metrics", "nbits", "0", ["curate"]),
    ("metrics", "radius", "-1", ["curate"]),
    ("metrics", "nbits", "0", ["evaluate"]),
    ("metrics", "radius", "-1", ["evaluate"]),
    ("metrics", "top_k", "0", ["report", "--fused"]),
    ("dock", "timeout", "inf", ["dock"]),
    ("paths", "pocket_file_pattern", "x/{pocket}.pdb", ["dock"]),
    # and these in exit 0 with meaningless artifacts
    ("model", "d", "0", ["train-sft"]),
    ("model", "d_feat", "0", ["train-sft"]),
    ("train_sft", "steps", "-1", ["train-sft"]),
    ("train_sft", "clip_norm", "-1", ["train-sft"]),
    ("train_sft", "learning_rate", "inf", ["train-sft"]),
    ("sample", "n_eval", "-3", ["sample"]),
    ("sample", "retry_factor", "0", ["sample"]),
    ("sample", "temperature", "inf", ["sample"]),
    ("train_dpo", "beta_dpo", "inf", ["train-dpo"]),
    ("metrics", "top_k", "-2", ["report", "--fused"]),
    # and this in exit 4, every uncached dock call failing on the NaN
    ("dock", "timeout", "nan", ["dock"]),
    # accepted before the upper bounds: a 2**40-bit fingerprint integer per
    # molecule, and a million refinement rounds
    ("metrics", "nbits", "1099511627776", ["curate"]),
    ("metrics", "radius", "1000000", ["curate"]),
    # and this in exit 1 (OverflowError): the wait for a command takes at most 2**31 - 1 ms
    ("dock", "timeout", "3e6", ["dock"]),
])
def test_out_of_range_config_value_exits_two_before_any_artifact(
    pipeline, tmp_path, section, key, value, step
):
    copied = _UPSTREAM[step[0]]
    config, out = _run_after(pipeline, tmp_path, copied, {section: {key: value}})
    assert main(["--config", str(config), *step]) == 2
    assert sorted(p.name for p in out.iterdir()) == sorted(copied)


@pytest.mark.parametrize("section, key, cap, flag, command", [
    ("model", "d", 512, None, "train-sft"),
    ("model", "d_feat", 512, None, "train-sft"),
    ("model", "window", 32, None, "train-sft"),
    ("model", "n_struct", 512, None, "train-sft"),
    ("sample", "max_len", 2048, "--max-len", "sample"),
    ("model", "seed", 2**63 - 1, "--seed", "train-sft"),
])
def test_size_above_its_cap_exits_two_before_any_artifact(
    pipeline, tmp_path, capsys, section, key, cap, flag, command
):
    # without a cap, d = 200000 and --max-len 1000000000 ended in MemoryError
    # (exit 1), and a seed of 2**127 or more in OverflowError when hashed
    (schema_key,) = [k for k in SCHEMA if (k.section, k.name) == (section, key)]
    assert _load_with(tmp_path, {schema_key: str(cap)}) is not None
    copied = _UPSTREAM[command]
    over = str(cap + 1)
    config, out = _run_after(pipeline, tmp_path, copied, None if flag else {section: {key: over}})
    assert main(["--config", str(config), *([flag, over] if flag else []), command]) == 2
    assert f"[{section}] {key} = '{over}' must be in [" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted(copied)


@pytest.mark.parametrize("edit", [
    lambda text: text + "[model]\nd = 8\n",
    lambda text: text.replace("[model]\n", "[model]\nd = 8\n"),
    lambda text: "d = 8\n" + text,
    lambda text: text.replace("[metrics]", "[metrics"),
    lambda text: "\udcff" + text,
], ids=["duplicate-section", "duplicate-key", "no-section-header", "unterminated-header",
        "not-utf8"])
def test_malformed_config_file_exits_two(pipeline, tmp_path, edit):
    config, out = _run_after(pipeline, tmp_path, ())
    config.write_bytes(edit(config.read_text()).encode("utf-8", "surrogateescape"))
    assert main(["--config", str(config), "partition"]) == 2
    assert not any(out.iterdir())


# each key's boundary cases, and strings for the string keys
_EDGE_VALUES = [
    "0", "-1", "1", "0.5", "1.5", "63", "64", "nan", "inf", "-inf", "", "x", "online",
    "echo {smiles}", "x/{pocket}.pdb", "x/{pocket_id}.pdb",
]


def _load_with(tmp_dir: Path, settings: dict, flags=()):
    """Load a config of ``settings`` (key -> INI string) over a docking
    command, plus (key, value) flag overrides; None if it is rejected."""
    values = {("dock", "command"): "echo {smiles}"}
    values.update({(key.section, key.name): value for key, value in settings.items()})
    lines: dict[str, list[str]] = {}
    for (section, name), value in values.items():
        lines.setdefault(section, []).append(f"{name} = {value}")
    config = tmp_dir / "fuzzed.ini"
    config.write_text("".join(f"[{s}]\n" + "\n".join(rows) + "\n" for s, rows in lines.items()))
    argv = ["--config", str(config), *(f"{key.flag}={value}" for key, value in flags), "verify"]
    try:
        return load_config(build_parser().parse_args(argv))
    except ValidationFailure:
        return None


def _assert_library_accepts(cfg) -> None:
    from molchord.cli import _dock_command
    from molchord.genmodel import check_sampling
    from molchord.molgraph import morgan_fingerprint

    cfg.model_config()
    cfg.train_config("train_sft")
    cfg.train_config("train_dpo")
    cfg.curate_config()
    check_sampling(**cfg.sampling())
    if cfg.typed["dock"]["command"]:
        _dock_command(cfg)
    metrics = cfg.typed["metrics"]
    morgan_fingerprint(parse_smiles("c1ccccc1O"), metrics["radius"], metrics["nbits"])
    cfg.typed["paths"]["pocket_file_pattern"].format(pocket_id="pocket00001")


def test_every_edge_value_the_config_accepts_passes_the_library_checks(tmp_path):
    for key in SCHEMA:
        for value in _EDGE_VALUES:
            cfg = _load_with(tmp_path, {key: value})
            if cfg is not None:
                _assert_library_accepts(cfg)


@given(
    settings=st.dictionaries(st.sampled_from(SCHEMA), st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.text(max_size=12),
        st.integers(-3, 4096).map(str),
        st.floats().map(str),
    ), max_size=4),
    flags=st.lists(
        st.sampled_from([key for key in SCHEMA if key.flag]).flatmap(lambda key: st.tuples(
            st.just(key), st.integers(-3, 4096) if key.kind is int else st.floats()
        )),
        max_size=2,
    ),
)
def test_load_config_accepts_only_what_the_library_accepts(tmp_path_factory, settings, flags):
    # load_config either returns or exits 2; never another exception
    cfg = _load_with(tmp_path_factory.getbasetemp(), settings, flags)
    if cfg is not None:
        _assert_library_accepts(cfg)


def test_offline_flow_scores_every_valid_filter_candidate(pipeline, tmp_path, monkeypatch):
    from molchord import genmodel, scorers
    from molchord.hashutil import derive_seed
    from molchord.molgraph import try_canonicalize

    draws: dict[tuple[str, int], list[str]] = {}
    real_sample = genmodel.sample_many

    def recording_sample(params, pockets, vocab, n, **kwargs):
        results = real_sample(params, pockets, vocab, n, **kwargs)
        for feats, drawn in zip(pockets, results):
            draws[feats.pocket_id, kwargs["base_seed"]] = [r.text for r in drawn]
        return results

    monkeypatch.setattr(genmodel, "sample_many", recording_sample)
    docked: dict[str, list[str]] = {}
    real_dock = scorers.dock_many

    def recording_dock(cmd, requests, **kwargs):
        for pocket_id, smiles, _, _ in requests:
            docked.setdefault(pocket_id, []).append(smiles)
        return real_dock(cmd, requests, **kwargs)

    monkeypatch.setattr(scorers, "dock_many", recording_dock)
    config, out = _run_after(pipeline, tmp_path, _CURATE_INPUTS, {"curate": {"flow": "offline"}})
    assert main(["--config", str(config), "curate"]) == 0

    selected = json.loads((out / "d_dpo.json").read_text())["selected"]
    pair_seed = derive_seed("curate-pairs", 0)
    assert set(docked) <= set(selected)
    for pocket_id in selected:
        texts = draws[pocket_id, pair_seed]
        assert len(texts) == 24  # filter_samples draws, not pair_candidates
        valid = [c for c in map(try_canonicalize, texts) if c is not None]
        assert docked.get(pocket_id, []) == (valid if len(set(valid)) >= 2 else [])
    # more than pair_docked molecules per pocket: the online cap is off
    assert max(map(len, docked.values())) > 4


# fails every molecule with a nitrogen, scores the others like DOCK_STUB
FAILING_STUB = "case '{smiles}' in *N*) echo 'no pose' >&2; exit 3;; esac; " + DOCK_STUB


@pytest.mark.parametrize("flow", ["online", "offline"])
def test_curate_pairs_every_pocket_as_a_per_pocket_loop_would(pipeline, tmp_path, monkeypatch,
                                                               flow):
    """One sampler call per phase and one dock call for every kept pocket
    give the pairs and the pair log of sampling and docking each pocket on
    its own, also when molecules of several pockets fail to dock."""
    from molchord import genmodel
    from molchord.curation import CurateConfig
    from molchord.hashutil import derive_seed

    from .oracles import curate_per_pocket_oracle

    config, out = _run_after(pipeline, tmp_path, _CURATE_INPUTS, {
        "curate": {"flow": flow}, "dock": {"command": FAILING_STUB},
    })
    sampled, docked = [], []
    real_sample, real_dock = genmodel.sample_many, scorers.dock_many

    def counting_sample(params, pockets, *args, **kwargs):
        sampled.append(len(pockets))
        return real_sample(params, pockets, *args, **kwargs)

    def counting_dock(cmd, requests, **kwargs):
        docked.append(len(requests))
        return real_dock(cmd, requests, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(genmodel, "sample_many", counting_sample)
        patched.setattr(scorers, "dock_many", counting_dock)
        assert main(["--config", str(config), "curate"]) == 0
    d_dpo = (out / "d_dpo.json").read_text()
    kept = json.loads(d_dpo)["selected"]
    assert len(sampled) == 2 and len(docked) == 1
    assert sampled[0] > len(kept) >= 3
    failed = {row["pocket_id"] for row in json.loads(d_dpo)["pairs"]
              if row["status"].startswith("dock failure")}
    assert len(failed) >= 3

    by_id = {r.pocket_id: r for r in load_records(pipeline[0] / "complexes.jsonl", "complexes")}
    pockets = [p for p in json.loads((out / "partition.json").read_text())["dpo_pool"]
               if p in by_id]
    params = genmodel.load_params(out / "sft_checkpoint.json")
    vocab = params.config.vocabulary()

    def draw(phase, pocket_id, n):
        record = by_id[pocket_id]
        features = params.config.featurize(pocket_id, record.pocket_sequence)
        (results,) = genmodel.sample_many(
            params, [features], vocab, n, base_seed=derive_seed(f"curate-{phase}", 0),
            temperature=1.0, top_p=0.95, max_len=40,
        )
        return [r.text for r in results]

    def dock(pocket_id, smiles):
        center = by_id[pocket_id].ligand_smiles[0]
        result = scorers.dock_many(
            scorers.DockCommand(FAILING_STUB, timeout=30),
            [(pocket_id, s, None, center) for s in smiles],
            cache_dir=tmp_path / "dock_cache",
        )
        return [(r.smiles, r.vina) for r in result.scores], [f.error for f in result.failures]

    curate_config = CurateConfig(filter_samples=24, pair_candidates=16, pair_docked=4, flow=flow)
    document, pairs = curate_per_pocket_oracle(pockets, draw, dock, curate_config, 2, 2048)
    assert d_dpo == json.dumps(document, sort_keys=True, indent=1) + "\n"
    dump_records(tmp_path / "oracle_pairs.jsonl", pairs)
    assert (out / "pairs.jsonl").read_bytes() == (tmp_path / "oracle_pairs.jsonl").read_bytes()


def test_warm_curate_and_dock_send_every_line_through_external_dock(pipeline, tmp_path,
                                                                    monkeypatch):
    """On a warm cache each command's one dock call still hands every
    distinct command line to the public ``external_dock`` (where a traced
    run counts dock calls and cache hits), and no process starts."""
    config, out = _run_after(pipeline, tmp_path, (*_CURATE_INPUTS, "generations.jsonl"))
    for command in ("curate", "dock"):
        assert main(["--config", str(config), command]) == 0  # fills the cache
    artifacts = ("pairs.jsonl", "d_dpo.json", "scores.jsonl")
    cold = {name: (out / name).read_bytes() for name in artifacts}

    requested, passed, started = [], [], []
    real_many, real_one = scorers.dock_many, scorers.external_dock
    real_init = subprocess.Popen.__init__

    def line(pocket_id, smiles, pocket_file, center):
        return scorers._command_line(DOCK_STUB, pocket_id, canonicalize(smiles), pocket_file,
                                     center)

    def recording_many(cmd, requests, **kwargs):
        requested.append({line(*request) for request in requests})
        passed.append([])
        return real_many(cmd, requests, **kwargs)

    def recording_one(cmd, pocket_id, smiles, pocket_file=None, center_source=None, **kwargs):
        passed[-1].append(line(pocket_id, smiles, pocket_file, center_source))
        return real_one(cmd, pocket_id, smiles, pocket_file, center_source, **kwargs)

    def counting_init(popen, *args, **kwargs):
        started.append(args)
        real_init(popen, *args, **kwargs)

    monkeypatch.setattr(scorers, "dock_many", recording_many)
    monkeypatch.setattr(scorers, "external_dock", recording_one)
    monkeypatch.setattr(subprocess.Popen, "__init__", counting_init)
    for command in ("curate", "dock"):
        assert main(["--config", str(config), command]) == 0
    assert len(requested) == 2 and all(requested)
    assert [sorted(lines) for lines in passed] == [sorted(lines) for lines in requested]
    assert started == []
    assert {name: (out / name).read_bytes() for name in artifacts} == cold


def _readme_config_reference() -> dict[str, dict[str, str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Config reference", 1)[1].split("\n\n")[1]
    sections: dict[str, dict[str, str]] = {}
    for line in table.splitlines()[2:]:
        _, section, keys, _ = (cell.strip() for cell in line.split("|"))
        entries = sections.setdefault(section.strip("`"), {})
        for key, default in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys):
            # "(= complexes)" falls back to another key; "(`a`/`b`)" lists
            # the choices, the first being the default
            value = "" if default.startswith("=") else default.split("/")[0].strip("`")
            entries[key] = value
    return sections


def test_readme_config_reference_matches_cli_defaults():
    defaults: dict[str, dict[str, str]] = {}
    for key in SCHEMA:
        defaults.setdefault(key.section, {})[key.name] = key.default
    assert _readme_config_reference() == defaults


def test_cli_defaults_match_the_library_defaults():
    """Each default is written once in the library and once in ``SCHEMA``."""
    import dataclasses
    import inspect

    from molchord.curation import CurateConfig, reward
    from molchord.genmodel import ModelConfig, sample_many
    from molchord.metrics import fused_ring_report
    from molchord.molgraph import DEFAULT_NBITS, DEFAULT_RADIUS
    from molchord.training import TrainConfig, dpo_loss

    def parameters(function, *names):
        signature = inspect.signature(function).parameters
        return {name: signature[name].default for name in names}

    dock = scorers.DockCommand._field_defaults
    model = dataclasses.asdict(ModelConfig())
    del model["vocab_tokens"]  # not a config key
    curate = CurateConfig()._asdict()
    train = dataclasses.asdict(TrainConfig())
    # [train_dpo] keys whose default the preference stage shares with TrainConfig
    train_dpo = {name: train[name] for name in ("epochs", "beta_dpo", "beta_vae", "clip_norm")}
    for name in ("epochs", "beta_dpo", "seed"):  # [train_dpo] keys, and the [model] seed
        del train[name]
    library = {
        "model": {"n_struct": model.pop("n_struct_tokens"), **model},
        "curate": {"lambda": curate.pop("lam"), **curate},
        "train_sft": train,
        "train_dpo": train_dpo,
        "dock": {name: dock[name] for name in ("timeout", "max_parallel")},
        "sample": parameters(sample_many, "temperature", "top_p", "max_len"),
        "metrics": {"radius": DEFAULT_RADIUS, "nbits": DEFAULT_NBITS,
                    **parameters(fused_ring_report, "top_k")},
    }
    for section in ("model", "curate", "train_sft"):  # every key of the section
        assert set(library[section]) == {k.name for k in SCHEMA if k.section == section}
    # keyword defaults that callers without a config, such as the preference
    # experiment, take in place of the config keys
    keywords = [
        ("train_dpo", parameters(dpo_loss, "beta_dpo", "beta_vae")),
        ("curate", {"lambda": parameters(reward, "lam")["lam"]}),
    ]
    defaults = {(k.section, k.name): k.parse(k.default) for k in SCHEMA}
    for section, settings in [*library.items(), *keywords]:
        for name, value in settings.items():
            assert defaults[section, name] == value, (section, name)


# --- contract: any record line ends in a documented exit code -----------------

_CONTRACT_RECORDS = {
    "complexes": [
        {"pocket_id": "p0", "ligand_smiles": ["CCO", "c1ccccc1", "CC(=O)O"],
         "reference_vina": -7.0, "pocket_sequence": "ACDE", "homology": "homologous"},
        {"pocket_id": "p1", "ligand_smiles": ["CCN"], "reference_vina": -6.0,
         "homology": "non_homologous"},
    ],
    "generations": [
        {"pocket_id": "p0", "smiles": "CCO", "logprob": -3.0},
        {"pocket_id": "p0", "smiles": "c1ccccc1O", "logprob": -9.5},
        {"pocket_id": "p1", "smiles": "CCCN"},
    ],
    "scores": [
        {"pocket_id": "p0", "smiles": "CCO", "vina": -6.5, "qed": 0.4, "sa_origin": 2.0},
        {"pocket_id": "p0", "smiles": "c1ccccc1O", "vina": -7.5, "qed": 0.6, "sa_origin": 1.5},
        {"pocket_id": "p1", "smiles": "CCCN", "vina": -5.0},
    ],
    "pairs": [
        {"pocket_id": "p1", "chosen": "CCO", "rejected": "CC(=O)O", "reward_chosen": 1.5,
         "reward_rejected": 0.5},
    ],
}
_SMILES_VALUES = st.sampled_from([
    "C1CC", "C((", "Xx", "cc", "[C", "C" * 5000, ".".join(["C"] * 60), ".".join(["C"] * 2000),
    ".".join(["c1ccccc1"] * 450), "[Si]", "[Na+]", "C[Se]C",
])
# a tiny model without training steps, so that every command runs in well
# under the deadline
_TINY_MODEL = {
    "model": {"d": "4", "d_feat": "4", "window": "2", "n_struct": "2"},
    "train_sft": {"steps": "0"},
    "train_dpo": {"epochs": "0"},
}


def _contract_run(tmp_path: Path, texts: dict[str, str]) -> Path:
    """A tiny-model run directory over the given record files, with the
    partition (p0 supervised, p1 preference) and the supervised checkpoint
    that train-sft and train-dpo read; returns the config path."""
    from molchord.genmodel import ModelConfig, init_params, save_params

    complexes = tmp_path / "complexes.jsonl"
    complexes.write_text(texts["complexes"])
    config = _write_config(tmp_path, complexes, _TINY_MODEL)
    outdir = tmp_path / "out"
    outdir.mkdir()
    for name in ("generations", "scores", "pairs"):
        (outdir / f"{name}.jsonl").write_text(texts[name])
    (outdir / "partition.json").write_text('{"sft_pool": ["p0"], "dpo_pool": ["p1"]}')
    tiny = ModelConfig(d=4, d_feat=4, window=2, n_struct_tokens=2)
    save_params(outdir / "sft_checkpoint.json", init_params(tiny))
    return config


def _contract_texts(**replaced: list[dict]) -> dict[str, str]:
    """The contract record files, with the rows of the named files replaced."""
    records = {**_CONTRACT_RECORDS, **replaced}
    return {name: "".join(json.dumps(row) + "\n" for row in rows)
            for name, rows in records.items()}


@pytest.mark.parametrize("smiles", ["C[Si](C)C", "[Na+]", "[Li+].[Cl-]"])
def test_ligand_outside_the_vocabulary_exits_two_in_train_sft(tmp_path, capsys, smiles):
    from molchord.molgraph import canonicalize

    p0, p1 = _CONTRACT_RECORDS["complexes"]
    p0 = {**p0, "ligand_smiles": ["CCO", "c1ccccc1", smiles]}
    config = _contract_run(tmp_path, _contract_texts(complexes=[p0, p1]))
    assert main(["--config", str(config), "train-sft"]) == 2
    err = capsys.readouterr().err
    assert "pocket p0" in err and canonicalize(smiles) in err
    assert not (tmp_path / "out" / "sft_curve.jsonl").exists()


def test_preferred_molecule_outside_the_vocabulary_exits_two_in_train_dpo(tmp_path, capsys):
    pair = {**_CONTRACT_RECORDS["pairs"][0], "chosen": "C[Si](C)C"}
    config = _contract_run(tmp_path, _contract_texts(pairs=[pair]))
    assert main(["--config", str(config), "train-dpo"]) == 2
    err = capsys.readouterr().err
    assert "pocket p1" in err and "C[Si](C)C" in err
    assert not (tmp_path / "out" / "dpo_checkpoint.json").exists()


_VALUES = st.one_of(
    st.text(alphabet="Cc1(=O.N%", max_size=8),
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(10**400),
    st.just(-(10**400)),
    st.none(),
    st.booleans(),
    st.recursive(st.lists(st.integers(), max_size=2), lambda inner: st.lists(inner, max_size=2)),
    st.just([[[["CCO"]]]]),
    _SMILES_VALUES,
    st.lists(_SMILES_VALUES, min_size=1, max_size=2),
)


# the inputs each command reads: record files, and JSON documents under out/
_READS = {
    "partition": ("complexes",),
    "train-sft": ("complexes", "partition.json"),
    "curate": ("complexes", "partition.json", "sft_checkpoint.json"),
    "train-dpo": ("pairs", "complexes", "sft_checkpoint.json"),
    "sample": ("complexes", "sft_checkpoint.json", "dpo_checkpoint.json"),
    "evaluate": ("generations", "scores", "complexes"),
    "dock": ("generations", "complexes"),
    "report --fused --ood": ("generations", "scores", "complexes"),
    "verify": ("partition.manifest.json",),
}


@st.composite
def _mutated_record_files(draw, names):
    """The contract records with one line of one of ``names`` mutated: a
    field dropped or given another value (a string, number, huge integer,
    NaN, infinity, null, bool, nested array or a bad SMILES), or the whole
    line replaced."""
    files = {name: [json.dumps(row) for row in rows] for name, rows in _CONTRACT_RECORDS.items()}
    name = draw(st.sampled_from(names))
    index = draw(st.integers(0, len(files[name]) - 1))
    row = dict(_CONTRACT_RECORDS[name][index])
    field = draw(st.sampled_from(sorted(row)))
    kind = draw(st.sampled_from(["drop", "set", "set", "set", "line"]))
    if kind == "drop":
        del row[field]
    elif kind == "set":
        row[field] = draw(_VALUES)
    files[name][index] = json.dumps(row) if kind != "line" else draw(st.one_of(
        _VALUES.map(json.dumps), st.sampled_from(["[" * 100_000, "{", "garbage"])
    ))
    return {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}


_DOCUMENT_VALUES = st.one_of(
    _VALUES,
    st.integers(-(2**40), 2**40),
    st.just(200_000),
    st.just({}),
    st.dictionaries(st.sampled_from(["", ".", "/", "out", "a\x00b", "d"]), st.text(max_size=2),
                    max_size=2),
)


@st.composite
def _document_mutation(draw):
    """A change to a JSON document: the whole text replaced, or one key
    dropped or given another value. The key is found by descending from the
    top, at each level taking the key at a drawn index (modulo the number of
    keys) and going one level deeper while the value is an object and the
    drawn path goes on. A checkpoint's content hash may be recomputed, so
    that the change reaches the checks behind it."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["[" * 100_000, "{", "garbage", "", "[]", "null"]))
    steps = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3))
    drop = draw(st.booleans())
    return steps, None if drop else draw(_DOCUMENT_VALUES), draw(st.booleans())


def _mutate_document(path: Path, mutation) -> None:
    from molchord.genmodel.params import _payload_digest

    if isinstance(mutation, str):
        path.write_text(mutation)
        return
    steps, value, rehash = mutation
    doc = json.loads(path.read_text())
    parent, key = None, None
    target = doc
    for step in steps:
        if not isinstance(target, dict) or not target:
            break
        parent, key = target, sorted(target)[step % len(target)]
        target = target[key]
    if value is None:
        del parent[key]
    else:
        parent[key] = value
    if rehash and "content_hash" in doc:
        doc["content_hash"] = _payload_digest({k: v for k, v in doc.items() if k != "content_hash"})
    path.write_text(json.dumps(doc))


@given(st.data())
@settings(max_examples=160, suppress_health_check=list(HealthCheck))
def test_any_mutated_input_ends_in_a_documented_exit_code(tmp_path_factory, deadline, data):
    command = data.draw(st.sampled_from(sorted(_READS)), "command")
    name = data.draw(st.sampled_from(_READS[command]), "input")
    if name in _CONTRACT_RECORDS:
        texts = data.draw(_mutated_record_files((name,)), "records")
    else:
        texts = _contract_texts()
    tmp_path = tmp_path_factory.mktemp("contract")
    config = _contract_run(tmp_path, texts)
    if name.endswith(".manifest.json"):  # a manifest of the partition it writes
        assert main(["--config", str(config), "partition"]) == 0
    elif name == "dpo_checkpoint.json":
        (tmp_path / "out" / name).write_bytes((tmp_path / "out" / "sft_checkpoint.json").read_bytes())
    if name not in _CONTRACT_RECORDS:
        _mutate_document(tmp_path / "out" / name, data.draw(_document_mutation(), "mutation"))
    with deadline(10.0):
        assert main(["--config", str(config), *command.split()]) in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def clean_dock(pipeline, tmp_path_factory):
    """A finished dock run over the shared pipeline's generations: its config,
    scores bytes, and the cache entry file of one request with its bytes."""
    tmp_path = tmp_path_factory.mktemp("clean-dock")
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl",))
    assert main(["--config", str(config), "dock"]) == 0
    first = json.loads((out / "scores.jsonl").read_text().splitlines()[0])
    line = DOCK_STUB.replace("{smiles}", first["smiles"])
    (entry,) = [path for path in (tmp_path / "dock_cache").glob("*.json")
                if json.loads(path.read_text())["command"] == line]
    return config, (out / "scores.jsonl").read_bytes(), entry, entry.read_bytes()


@pytest.mark.parametrize(
    "content",
    [lambda line: "{}", lambda line: json.dumps({"command": line, "vina": "nan"}),
     lambda line: '{"command": "'],
    ids=["empty", "nan-string", "truncated"],
)
def test_dock_redocks_a_bad_cache_entry(clean_dock, content):
    config, scores, entry, fresh = clean_dock
    entry.write_text(content(json.loads(fresh)["command"]))
    assert main(["--config", str(config), "dock"]) == 0
    assert (config.parent / "out" / "scores.jsonl").read_bytes() == scores
    assert entry.read_bytes() == fresh


@given(st.data())
@settings(suppress_health_check=list(HealthCheck))
def test_dock_redocks_any_bad_cache_entry(clean_dock, data):
    config, scores, entry, fresh = clean_dock
    line = json.loads(fresh)["command"]
    content = data.draw(st.one_of(
        _VALUES.map(lambda value: json.dumps(value).encode()),
        st.sampled_from([None, True, "-3.0", [-3.0], math.nan, math.inf, 10**400]).map(
            lambda value: json.dumps({"command": line, "vina": value}).encode()
        ),
        st.integers(0, len(fresh) - 1).map(lambda n: fresh[:n]),
        st.binary(max_size=16).map(lambda tail: b"\xff" + tail),
        st.sampled_from([line + " ", DOCK_STUB, DOCK_STUB.replace("{smiles}", "[Na+]")]).map(
            lambda other: json.dumps({"command": other, "vina": -3.0}).encode()
        ),
    ))
    entry.write_bytes(content)
    assert main(["--config", str(config), "dock"]) == 0
    assert (config.parent / "out" / "scores.jsonl").read_bytes() == scores
    assert entry.read_bytes() == fresh


# --- canonical entries of record files -----------------------------------------


@pytest.fixture(scope="module")
def clean_evaluate(pipeline, tmp_path_factory):
    """A finished evaluate run over the shared pipeline's generations and
    scores: its config and artifacts, the canonical entry of its generations
    file with that entry's bytes, and the bytes of its scores file's entry."""
    tmp_path = tmp_path_factory.mktemp("clean-evaluate")
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl", "scores.jsonl"))
    assert main(["--config", str(config), "evaluate"]) == 0
    entries = [tmp_path / "dock_cache" / "canonical" / f"{_canonical_key(out / name)}.json"
               for name in ("generations.jsonl", "scores.jsonl")]
    return config, _evaluated(out), entries[0], entries[0].read_bytes(), entries[1].read_bytes()


def _evaluated(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("report.jsonl", "report.txt")}


@given(st.data())
@settings(suppress_health_check=list(HealthCheck))
def test_evaluate_rewrites_any_bad_canonical_entry(clean_evaluate, data):
    config, artifacts, entry, fresh, other_file = clean_evaluate
    key, known = json.loads(fresh)["key"], json.loads(fresh)["canonical"]
    raw = next(iter(known))
    # the key this file would have under other canonicalization code
    generations = (config.parent / "out" / "generations.jsonl").read_bytes()
    other_source = hashlib.sha256(hashlib.sha256(b"other source").digest() + generations)
    content = data.draw(st.one_of(
        st.sampled_from([b"", b"\xff\xfe", other_file,
                         json.dumps({"key": other_source.hexdigest(), "canonical": known}).encode(),
                         json.dumps({"key": "0" * 64, "canonical": known}).encode(),
                         json.dumps({"canonical": known}).encode()]),
        st.integers(1, len(fresh) - 1).map(lambda n: fresh[:n]),
        st.binary(max_size=16).map(lambda tail: b"\xff" + tail),
        _VALUES.map(lambda value: json.dumps(value).encode()),
        _VALUES.map(lambda value: json.dumps({"key": key, "canonical": value}).encode()),
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.just(["CCO"])).map(
            lambda value: json.dumps({"key": key, "canonical": {**known, raw: value}}).encode()
        ),
    ), label="entry")
    entry.write_bytes(content)
    canonicalize.cache_clear()  # as in a new process
    assert main(["--config", str(config), "evaluate"]) == 0
    assert _evaluated(config.parent / "out") == artifacts
    assert entry.read_bytes() == fresh


def test_report_after_evaluate_canonicalizes_only_what_warned(tmp_path, monkeypatch):
    from molchord.molgraph import SmilesFeatureWarning, canon

    stereo = "C/C=C/C"  # canonicalizes, with a feature warning
    records = _CONTRACT_RECORDS
    config = _contract_run(tmp_path, _contract_texts(
        generations=[*records["generations"], {"pocket_id": "p1", "smiles": stereo}],
        scores=[*records["scores"], {"pocket_id": "p1", "smiles": stereo, "vina": -6.0}],
    ))
    parsed = []
    real = canon.parse_smiles

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(canon, "parse_smiles", counting)

    def stage(*command):
        canonicalize.cache_clear()  # a new process starts with an empty memo
        parsed.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(config), "--allow-partial", *command]) == 0
        return list(parsed), [str(w.message) for w in caught
                              if issubclass(w.category, SmilesFeatureWarning)]

    evaluated, evaluate_warnings = stage("evaluate")
    reported, report_warnings = stage("report", "--fused", "--ood")
    assert "CCCN" in evaluated and stereo in evaluated
    assert reported == [stereo]  # the line loop's one call; every clean string came from entries
    assert evaluate_warnings and report_warnings == evaluate_warnings
    entries = sorted((tmp_path / "dock_cache" / "canonical").glob("*.json"))
    assert len(entries) == 3  # complexes, generations and scores
    assert all(stereo not in json.loads(e.read_text())["canonical"] for e in entries)


def test_canonical_entries_live_where_dock_results_do(tmp_path, monkeypatch):
    # [dock] cache_dir, else $MOLCHORD_CACHE_DIR, else .molchord_cache in the
    # working directory; identical files give identical entry names
    config = _contract_run(tmp_path, _contract_texts())
    text = config.read_text()
    unset = tmp_path / "unset.ini"
    unset.write_text(text.replace(f"cache_dir = {tmp_path / 'dock_cache'}", "cache_dir = "))
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert main(["--config", str(config), "partition"]) == 0
    assert main(["--config", str(unset), "partition"]) == 0
    monkeypatch.delenv(CACHE_DIR_ENV)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(unset), "partition"]) == 0
    names = [sorted(p.name for p in (tmp_path / d / "canonical").iterdir())
             for d in ("dock_cache", "env", ".molchord_cache")]
    assert len(names[0]) == 1 and names[0] == names[1] == names[2]


# --- the cache directory's layout, and processes that share it -----------------


def _canonical_key(path: Path) -> str:
    """A record file's canonical entry key: the SHA-256 of a digest of the
    ``molgraph`` source files, then the file's bytes."""
    digest = hashlib.sha256()
    for source in sorted(Path(molgraph.__file__).parent.glob("*.py")):
        digest.update(hashlib.sha256(source.read_bytes()).digest() + source.name.encode() + b"\0")
    return hashlib.sha256(digest.digest() + path.read_bytes()).hexdigest()


def _clean_canonical_map(path: Path, fields: tuple[str, ...]) -> dict[str, str]:
    """Each distinct SMILES string of a record file, in file order, that
    canonicalizes with no error and no warning, mapped to its canonical form."""
    texts = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        for field in fields:
            texts += row[field] if isinstance(row[field], list) else [row[field]]
    known = {}
    for text in dict.fromkeys(texts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                known[text] = canonical_smiles(parse_smiles(text))
            except (ValueError, Warning):
                pass
    return known


def _expected_cache(scores: list[Path], record_files: dict[Path, tuple[str, ...]]) -> dict:
    """Every file of a cache directory, by relative path, with its bytes:
    ``<sha256(line)>.json`` per docked line and ``canonical/<key>.json`` per
    loaded record file."""
    expected = {}
    for path in scores:
        for row in map(json.loads, path.read_text().splitlines()):
            line = DOCK_STUB.replace("{smiles}", row["smiles"])
            name = hashlib.sha256(line.encode()).hexdigest() + ".json"
            expected[name] = json.dumps({"command": line, "vina": row["vina"]}).encode()
    for path, fields in record_files.items():
        key = _canonical_key(path)
        entry = {"key": key, "canonical": _clean_canonical_map(path, fields)}
        expected[f"canonical/{key}.json"] = json.dumps(entry).encode()
    return expected


def _cache_files(cache: Path) -> dict:
    return {str(p.relative_to(cache)): p.read_bytes() for p in cache.rglob("*") if p.is_file()}


def test_a_cold_dock_and_evaluate_leave_this_cache_layout(pipeline, tmp_path):
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl",))
    for step in ("dock", "evaluate"):
        assert main(["--config", str(config), step]) == 0
    complexes = pipeline[0] / "complexes.jsonl"
    assert _cache_files(tmp_path / "dock_cache") == _expected_cache([out / "scores.jsonl"], {
        complexes: ("ligand_smiles",),
        out / "generations.jsonl": ("smiles",),
        out / "scores.jsonl": ("smiles",),
    })


RUN_MAIN = "import sys\nfrom molchord.cli import main\nsys.exit(main(sys.argv[1:]))"


def _two_at_once(configs: list[Path], step: str, env: dict) -> None:
    procs = [subprocess.Popen([sys.executable, "-c", RUN_MAIN, "--config", str(c), step], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for c in configs]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr


def test_two_dock_processes_share_one_cache_dir(pipeline, tmp_path, child_env):
    # overlapping thirds of the generations, docked at once into one cache
    generations = (pipeline[2] / "generations.jsonl").read_text().splitlines(keepends=True)
    scores = (pipeline[2] / "scores.jsonl").read_text().splitlines(keepends=True)
    assert len(scores) == len(generations) >= 6
    third = len(generations) // 3
    shares = [slice(0, 2 * third), slice(third, None)]
    configs = []
    for i, share in enumerate(shares):
        run = tmp_path / f"run{i}"
        run.mkdir()
        configs.append(_write_config(run, pipeline[0] / "complexes.jsonl",
                                     {"dock": {"cache_dir": str(tmp_path / "cache")}}))
        (run / "out").mkdir()
        (run / "out" / "generations.jsonl").write_text("".join(generations[share]))
    _two_at_once(configs, "dock", child_env)
    outs = [c.parent / "out" for c in configs]
    for out, share in zip(outs, shares):
        assert (out / "scores.jsonl").read_text() == "".join(scores[share])
    assert _cache_files(tmp_path / "cache") == _expected_cache(
        [out / "scores.jsonl" for out in outs],
        {pipeline[0] / "complexes.jsonl": ("ligand_smiles",),
         **{out / "generations.jsonl": ("smiles",) for out in outs}},
    )


DISAGREEING_ENGINE = """\
import glob, os, sys, time

markers, cache = sys.argv[1:3]


def wait_for(pattern):
    end = time.monotonic() + 20
    while not glob.glob(pattern) and time.monotonic() < end:
        time.sleep(0.01)


try:
    os.mkdir(os.path.join(markers, "first"))
except FileExistsError:
    os.mkdir(os.path.join(markers, "second"))
    wait_for(os.path.join(cache, "*.json"))  # the first score's entry
    print(-8.0)
else:
    wait_for(os.path.join(markers, "second"))  # the other run missed the cache too
    print(-7.0)
"""


def test_two_dock_processes_that_disagree_fail_one_molecule_by_name(tmp_path, child_env):
    """An engine that gives one command line two scores, in two ``dock``
    processes on one cache directory: the second score is a named
    per-molecule failure (exit 4), and the entry keeps the first score."""
    import shlex

    engine, markers, cache = tmp_path / "engine.py", tmp_path / "markers", tmp_path / "cache"
    engine.write_text(DISAGREEING_ENGINE)
    markers.mkdir()
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, [curation.ComplexRecord("p0", ("CCO",))])
    template = " ".join(map(shlex.quote, (sys.executable, str(engine), str(markers), str(cache))))
    template += " '{smiles}'"
    configs = []
    for i in range(2):
        run = tmp_path / f"run{i}"
        (run / "out").mkdir(parents=True)
        dump_records(run / "out" / "generations.jsonl", [scorers.GenerationRecord("p0", "CCO")])
        configs.append(_write_config(run, complexes, {
            "dock": {"command": template, "cache_dir": str(cache)}}))
    procs = [subprocess.Popen([sys.executable, "-c", RUN_MAIN, "--config", str(c), "dock"],
                              env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for c in configs]
    stderr = [proc.communicate(timeout=120)[1] for proc in procs]
    codes = [proc.returncode for proc in procs]
    assert sorted(codes) == [0, 4], stderr
    first, second = (configs[codes.index(code)].parent / "out" for code in (0, 4))
    assert (first / "scores.jsonl").read_text() == (
        '{"pocket_id": "p0", "smiles": "CCO", "vina": -7.0}\n'
    )
    (failure,) = json.loads((second / "dock.manifest.json").read_text())["extra"]["failures"]
    assert (failure["pocket_id"], failure["smiles"]) == ("p0", "CCO")
    assert failure["error"].startswith("cache holds -7.0 but command produced -8.0: ")
    assert failure["kind"] == "ConflictingScore"
    assert (second / "scores.jsonl").read_text() == ""
    line = template.replace("{smiles}", "CCO")
    assert _cache_files(cache)[hashlib.sha256(line.encode()).hexdigest() + ".json"] == (
        json.dumps({"command": line, "vina": -7.0}).encode()
    )


def test_two_evaluate_processes_write_one_canonical_entry(pipeline, tmp_path, child_env):
    configs = []
    for i in range(2):
        run = tmp_path / f"run{i}"
        run.mkdir()
        config, _ = _run_after(pipeline, run, ("generations.jsonl", "scores.jsonl"),
                               {"dock": {"cache_dir": str(tmp_path / "cache")}})
        configs.append(config)
    _two_at_once(configs, "evaluate", child_env)
    artifacts = [_evaluated(c.parent / "out") for c in configs]
    assert artifacts[0] == artifacts[1] == _evaluated(pipeline[2])
    out = configs[0].parent / "out"
    assert _cache_files(tmp_path / "cache") == _expected_cache([], {
        pipeline[0] / "complexes.jsonl": ("ligand_smiles",),
        out / "generations.jsonl": ("smiles",),
        out / "scores.jsonl": ("smiles",),
    })
