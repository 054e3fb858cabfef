import json
import os
import stat
import subprocess
import sys

import pytest

from molchord import scorers
from molchord.curation import ComplexRecord, PreferencePair
from molchord.scorers import (
    CACHE_DIR_ENV,
    DockCommand,
    DuplicateKey,
    GenerationRecord,
    MalformedLine,
    MissingDockInput,
    NonZeroExit,
    SchemaViolation,
    ScoreRecord,
    Timeout,
    UnparseableOutput,
    coverage_check,
    dock_many,
    dump_records,
    external_dock,
    load_records,
)


def _write(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


# --- record loading -----------------------------------------------------------


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text("")
    assert load_records(path, "scores") == []


def test_load_scores_happy_path(tmp_path):
    path = tmp_path / "scores.jsonl"
    _write(path, [
        {"pocket_id": "p1", "smiles": "OCC", "vina": -8.5, "qed": 0.4, "sa_origin": 3.0},
        {"pocket_id": "p1", "smiles": "CCN", "vina": -7.0},
    ])
    records = load_records(path, "scores")
    assert records[0].smiles == "CCO"  # canonicalized
    assert records[0].raw_smiles == "OCC"
    assert records[1].qed is None


def test_load_rejects_bad_vina(tmp_path):
    path = tmp_path / "scores.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "CCO", "vina": "abc"}])
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 1
    assert excinfo.value.field == "vina"


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"pocket_id": "p1"\nnot json\n')
    with pytest.raises(MalformedLine) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 1


def test_load_duplicate_key(tmp_path):
    path = tmp_path / "scores.jsonl"
    _write(path, [
        {"pocket_id": "p1", "smiles": "CCO", "vina": -8.0},
        {"pocket_id": "p1", "smiles": "OCC", "vina": -7.0},  # same canonical molecule
    ])
    with pytest.raises(DuplicateKey) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 2


def test_load_bounds_checks(tmp_path):
    path = tmp_path / "scores.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "CCO", "vina": -8.0, "qed": 1.5}])
    with pytest.raises(SchemaViolation):
        load_records(path, "scores")
    _write(path, [{"pocket_id": "p1", "smiles": "CCO", "vina": -8.0, "sa_origin": 0.2}])
    with pytest.raises(SchemaViolation):
        load_records(path, "scores")


def test_load_complexes_and_homology(tmp_path):
    path = tmp_path / "complexes.jsonl"
    _write(path, [
        {"pocket_id": "p1", "ligand_smiles": ["OCC", "CCN"], "reference_vina": -8.0,
         "homology": "homologous"},
        {"pocket_id": "p2", "ligand_smiles": ["C"], "pocket_sequence": "GAV"},
    ])
    records = load_records(path, "complexes")
    assert records[0].ligand_smiles == ("CCO", "CCN")
    assert records[1].pocket_sequence == "GAV"
    _write(path, [{"pocket_id": "p", "ligand_smiles": ["C"], "homology": "close"}])
    with pytest.raises(SchemaViolation):
        load_records(path, "complexes")


def test_load_pairs_validates_invariants(tmp_path):
    path = tmp_path / "pairs.jsonl"
    _write(path, [{"pocket_id": "p", "chosen": "CCO", "rejected": "CCO",
                   "reward_chosen": 2.0, "reward_rejected": 1.0}])
    with pytest.raises(SchemaViolation):
        load_records(path, "pairs")


def test_load_unknown_schema(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_records(path, "molecules")


def test_round_trip_all_schemas(tmp_path):
    datasets = {
        "complexes": [
            ComplexRecord("p1", ("CCO", "CCN"), -8.0, "GAV", "homologous"),
            ComplexRecord("p2", ("c1ccccc1",), None, None, None),
        ],
        "scores": [
            ScoreRecord("p1", "CCO", -8.0, 0.4, 3.0, raw_smiles="CCO"),
            ScoreRecord("p1", "CCN", -7.0, None, None, raw_smiles="CCN"),
        ],
        "pairs": [PreferencePair("p1", "CCO", "CCN", 8.0, 7.0)],
        "generations": [GenerationRecord("p1", "CCO", -3.5, raw_smiles="CCO")],
    }
    for schema, records in datasets.items():
        path = tmp_path / f"{schema}.jsonl"
        dump_records(path, records)
        loaded = load_records(path, schema)
        dump_records(tmp_path / "again.jsonl", loaded)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        reloaded = load_records(tmp_path / "again.jsonl", schema)
        assert reloaded == loaded


# --- coverage -------------------------------------------------------------------


def _gen(pid, smiles):
    return GenerationRecord(pid, smiles)


def _score(pid, smiles, vina=-8.0):
    return ScoreRecord(pid, smiles, vina)


def test_coverage_exact_match():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN")]
    scores = [_score("p1", "CCO"), _score("p1", "CCN")]
    report = coverage_check(gens, scores)
    assert report.ok and len(report.covered) == 2


def test_coverage_one_missing():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN")]
    report = coverage_check(gens, [_score("p1", "CCO")])
    assert not report.ok
    assert [g.smiles for g in report.missing] == ["CCN"]


def test_coverage_superset_scores_ok():
    gens = [_gen("p1", "CCO")]
    scores = [_score("p1", "CCO"), _score("p1", "CCN"), _score("p2", "CCO")]
    assert coverage_check(gens, scores).ok


def test_coverage_partitions_generations():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN"), _gen("p2", "C")]
    report = coverage_check(gens, [_score("p1", "CCO")])
    assert set(report.covered) | set(report.missing) == set(gens)
    assert not set(report.covered) & set(report.missing)


# --- external docking -------------------------------------------------------------


def test_dock_command_requires_smiles_placeholder():
    with pytest.raises(ValueError):
        DockCommand(template="echo -8.5 # no placeholder")


def _cmd(template, **kw):
    return DockCommand(template=template, **kw)


def test_external_dock_parses_final_line(tmp_path):
    cmd = _cmd("echo ignored && echo -8.5 # {smiles}")
    score = external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)
    assert score == -8.5


def test_external_dock_nonzero_exit(tmp_path):
    cmd = _cmd("echo boom >&2; false # {smiles}")
    with pytest.raises(NonZeroExit):
        external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)


def test_external_dock_unparseable(tmp_path):
    with pytest.raises(UnparseableOutput):
        external_dock(_cmd("echo hello # {smiles}"), "p1", "CCO", cache_dir=tmp_path)
    with pytest.raises(UnparseableOutput):
        external_dock(_cmd("true # {smiles}"), "p1", "CCN", cache_dir=tmp_path)


def test_external_dock_timeout(tmp_path):
    cmd = _cmd("sleep 5 # {smiles}", timeout=0.2)
    with pytest.raises(Timeout):
        external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)


def test_external_dock_cache_hits_skip_execution(tmp_path):
    counter = tmp_path / "count"
    script = tmp_path / "dock.sh"
    script.write_text(f"#!/bin/sh\necho x >> {counter}\necho -9.25\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    cmd = _cmd(f"{script} {{smiles}}")
    for _ in range(4):
        assert external_dock(cmd, "p1", "CCO", cache_dir=tmp_path / "cache") == -9.25
    assert counter.read_text().count("x") == 1
    # same molecule written differently still hits the cache
    assert external_dock(cmd, "p1", "OCC", cache_dir=tmp_path / "cache") == -9.25
    assert counter.read_text().count("x") == 1


def test_external_dock_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envcache"))
    external_dock(_cmd("echo -1.5 # {smiles}"), "p1", "CCO")
    assert list((tmp_path / "envcache").glob("*.json"))


def test_external_dock_conflicting_cache_value(tmp_path):
    cache = tmp_path / "cache"
    external_dock(_cmd("echo -2.0 # {smiles}"), "p1", "CCO", cache_dir=cache)
    entry = next(cache.glob("*.json"))
    payload = json.loads(entry.read_text())
    payload["vina"] = -3.0
    entry.write_text(json.dumps(payload))
    assert external_dock(_cmd("echo -2.0 # {smiles}"), "p1", "CCO", cache_dir=cache) == -3.0


def test_external_dock_center_source_required(tmp_path):
    cmd = _cmd("echo {center_source} >/dev/null; echo -5 # {smiles}")
    with pytest.raises(MissingDockInput):
        external_dock(cmd, "p1", "CCO", center_source=None, cache_dir=tmp_path)
    score = external_dock(cmd, "p1", "CCO", center_source="CCN", cache_dir=tmp_path)
    assert score == -5.0


def test_dock_many_collects_failures(tmp_path):
    script = tmp_path / "dock.sh"
    script.write_text("#!/bin/sh\ncase \"$1\" in *N*) exit 3;; esac\necho -6.5\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    cmd = _cmd(f"{script} {{smiles}}", max_parallel=4)
    requests = [("p1", "CCO", None, None), ("p1", "CCN", None, None),
                ("p2", "CCC", None, None)]
    result = dock_many(cmd, requests, jobs=3, cache_dir=tmp_path / "cache")
    assert [s.smiles for s in result.scores] == ["CCO", "CCC"]
    assert len(result.failures) == 1
    assert result.failures[0].smiles == "CCN"


def test_external_dock_cache_key_covers_substituted_inputs(tmp_path):
    # the same template with another pocket file or reference ligand is
    # another command, so it must not reuse the first command's score
    cache = tmp_path / "cache"
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("-5.0\n")
    second.write_text("-7.0\n")
    by_pocket = _cmd("cat {pocket_file} # {smiles}")
    assert external_dock(by_pocket, "p1", "CCO", pocket_file=str(first), cache_dir=cache) == -5.0
    assert external_dock(by_pocket, "p1", "CCO", pocket_file=str(second), cache_dir=cache) == -7.0
    by_center = _cmd("cat {center_source} # {smiles}")
    assert external_dock(by_center, "p1", "CCO", center_source=str(first), cache_dir=cache) == -5.0
    assert external_dock(by_center, "p1", "CCO", center_source=str(second), cache_dir=cache) == -7.0


def test_external_dock_concurrent_writers_of_one_key(tmp_path, monkeypatch, child_env):
    # A second process docks the same (command, pocket, molecule) and writes
    # its cache entry while this one sits between writing its temp file and
    # renaming it into place.
    cache = tmp_path / "cache"
    template = "echo -4.5 # {smiles}"
    other_writer = [
        sys.executable,
        "-c",
        "import sys\n"
        "from molchord.scorers import DockCommand, external_dock\n"
        f"print(external_dock(DockCommand({template!r}), 'p1', 'CCO', cache_dir=sys.argv[1]))",
        str(cache),
    ]
    real_replace = os.replace

    def replace_after_other_writer(source, target):
        monkeypatch.setattr(os, "replace", real_replace)
        proc = subprocess.run(other_writer, env=child_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == -4.5
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace_after_other_writer)
    assert external_dock(_cmd(template), "p1", "CCO", cache_dir=cache) == -4.5
    assert os.replace is real_replace  # the other writer did run
    assert [p.suffix for p in cache.iterdir()] == [".json"]
    assert json.loads(next(cache.iterdir()).read_text())["vina"] == -4.5


def test_dock_many_canonicalizes_each_request_once(tmp_path, monkeypatch):
    calls = []
    real = scorers.canonical_smiles

    def counting(mol):
        calls.append(mol)
        return real(mol)

    monkeypatch.setattr(scorers, "canonical_smiles", counting)
    scorers._canonical_request.cache_clear()
    requests = [("p1", "OCC", None, None), ("p1", "C(C)N", None, None)]
    result = dock_many(_cmd("echo -3 # {smiles}"), requests, cache_dir=tmp_path / "cache")
    assert [s.smiles for s in result.scores] == ["CCO", "CCN"]
    assert len(calls) == 2
