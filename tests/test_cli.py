import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molchord.cli import SCHEMA, ValidationFailure, build_parser, load_config, main
from molchord.molgraph import parse_smiles
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


@pytest.mark.parametrize(
    "entry",
    ["{{}}", '{{"pocket_id": "{pocket}", "smiles": "{smiles}", "vina": "nan"}}', '{{"pocket_id": "'],
    ids=["empty", "nan-string", "truncated"],
)
def test_dock_redocks_a_bad_cache_entry(pipeline, tmp_path, entry):
    config, out = _run_after(pipeline, tmp_path, ("generations.jsonl",))
    assert main(["--config", str(config), "dock"]) == 0
    scores = (out / "scores.jsonl").read_bytes()
    first = json.loads(scores.splitlines()[0])
    for path in (tmp_path / "dock_cache").glob("*.json"):
        if json.loads(path.read_text())["smiles"] == first["smiles"]:
            path.write_text(entry.format(pocket=first["pocket_id"], smiles=first["smiles"]))
    assert main(["--config", str(config), "dock"]) == 0
    assert (out / "scores.jsonl").read_bytes() == scores


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


def test_sample_counts_strings_over_the_leaf_cap_as_invalid(pipeline, tmp_path, monkeypatch):
    from dataclasses import replace

    from molchord.molgraph import canon, canonicalize

    src_tmp, _, outdir = pipeline
    complexes = src_tmp / "complexes.jsonl"
    # ligands without ties, so that only sampled strings meet the leaf cap
    eval_complexes = tmp_path / "eval_complexes.jsonl"
    dump_records(eval_complexes, [
        replace(r, ligand_smiles=("CCO",)) for r in load_records(complexes, "complexes")
    ])
    config = _write_config(tmp_path, complexes, {"paths": {"eval_complexes": str(eval_complexes)}})
    monkeypatch.setattr(canon, "_MAX_LEAVES", 1)
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
])
def test_out_of_range_config_value_exits_two_before_any_artifact(
    pipeline, tmp_path, section, key, value, step
):
    copied = _UPSTREAM[step[0]]
    config, out = _run_after(pipeline, tmp_path, copied, {section: {key: value}})
    assert main(["--config", str(config), *step]) == 2
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
    from molchord import scorers
    from molchord.genmodel import sampling
    from molchord.hashutil import derive_seed
    from molchord.molgraph import try_canonicalize

    draws: dict[tuple[str, int], list[str]] = {}
    real_sample = sampling.sample_many

    def recording_sample(params, feats, vocab, n, **kwargs):
        results = real_sample(params, feats, vocab, n, **kwargs)
        draws[feats.pocket_id, kwargs["base_seed"]] = [r.text for r in results]
        return results

    monkeypatch.setattr(sampling, "sample_many", recording_sample)
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
}
_SMILES_VALUES = st.sampled_from([
    "C1CC", "C((", "Xx", "cc", "[C", "C" * 5000, ".".join(["C"] * 60), ".".join(["C"] * 2000),
    ".".join(["c1ccccc1"] * 450),
])
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


@st.composite
def _mutated_record_files(draw):
    """The contract records with one line mutated: a field dropped or given
    another value (a string, number, huge integer, NaN, infinity, null, bool,
    nested array or a bad SMILES), or the whole line replaced."""
    files = {name: [json.dumps(row) for row in rows] for name, rows in _CONTRACT_RECORDS.items()}
    name = draw(st.sampled_from(sorted(files)))
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


@given(_mutated_record_files(), st.sampled_from(["partition", "evaluate"]))
@settings(max_examples=40, suppress_health_check=list(HealthCheck))
def test_any_mutated_record_line_ends_in_a_documented_exit_code(
    tmp_path_factory, deadline, texts, command
):
    tmp_path = tmp_path_factory.mktemp("contract")
    complexes = tmp_path / "complexes.jsonl"
    complexes.write_text(texts["complexes"])
    config = _write_config(tmp_path, complexes)
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "generations.jsonl").write_text(texts["generations"])
    (outdir / "scores.jsonl").write_text(texts["scores"])
    with deadline(10.0):
        assert main(["--config", str(config), command]) in (0, 2, 3, 4)
