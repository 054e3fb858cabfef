import contextlib
import json
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from molchord import scorers
from molchord.curation import ComplexRecord, PreferencePair
from molchord.metrics import join_scores
from molchord.scorers import (
    DockCommand,
    DuplicateKey,
    GenerationRecord,
    MalformedLine,
    NonZeroExit,
    SchemaViolation,
    ScoreRecord,
    Timeout,
    UnparseableOutput,
    UnsafePocketId,
    dock_many,
    dump_records,
    external_dock,
    load_records,
)
from molchord.store import CACHE_DIR_ENV


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
    assert records[1].qed is None


def test_load_rejects_bad_vina(tmp_path):
    path = tmp_path / "scores.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "CCO", "vina": "abc"}])
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 1
    assert excinfo.value.field == "vina"


def test_load_reports_canonicalization_limit_as_schema_violation(tmp_path, monkeypatch):
    from molchord.molgraph import CanonicalizationLimit, canon

    monkeypatch.setattr(canon, "_MAX_WORK", 0)
    path = tmp_path / "scores.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "CC(C)(C)C", "vina": -5.0}])
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 1
    assert excinfo.value.field == "smiles"
    assert isinstance(excinfo.value.__cause__, CanonicalizationLimit)


def test_load_stops_a_stalling_canonicalization_within_a_second(tmp_path, deadline):
    # one ligand of a 400-carbon chain plus 300 methanes made partition take 49 s
    from molchord.molgraph import CanonicalizationLimit

    path = tmp_path / "complexes.jsonl"
    _write(path, [{"pocket_id": "p1", "ligand_smiles": ["C" * 400 + ".C" * 300]}])
    with deadline(1.0), pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "complexes")
    assert excinfo.value.field == "ligand_smiles"
    assert isinstance(excinfo.value.__cause__, CanonicalizationLimit)


def test_load_reports_too_many_open_ring_closures_as_schema_violation(tmp_path):
    # valid, but its canonical string would keep more than 99 closures open
    from molchord.molgraph import CanonicalizationLimit

    smiles = "C0CCC1C(C0)" + "CC0C(C1)CC1C(C0)" * 59 + "CCCC1"
    path = tmp_path / "scores.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": smiles, "vina": -5.0}])
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.field == "smiles"
    assert isinstance(excinfo.value.__cause__, CanonicalizationLimit)


def test_files_that_share_strings_parse_each_string_once(tmp_path, monkeypatch, canonicalized):
    from molchord.molgraph import parser

    # one molecule built per parse, whichever module calls parse_smiles
    built = []
    real = parser.Molecule

    def counting(atoms, bonds):
        built.append(len(atoms))
        return real(atoms, bonds)

    monkeypatch.setattr(parser, "Molecule", counting)
    raws = ["OCC", "C(C)N", "c1ccccc1O"]
    gen_path, score_path = tmp_path / "generations.jsonl", tmp_path / "scores.jsonl"
    _write(gen_path, [{"pocket_id": p, "smiles": s} for p in ("p1", "p2") for s in raws])
    _write(score_path, [
        {"pocket_id": p, "smiles": s, "vina": -5.0} for p in ("p1", "p2") for s in raws
    ])
    generations = load_records(gen_path, "generations")
    scores = load_records(score_path, "scores")
    assert [g.smiles for g in generations] == [s.smiles for s in scores]
    assert sorted(canonicalized) == sorted(raws)
    assert len(built) == len(raws)


@pytest.fixture
def canonicalized(monkeypatch):
    """The strings ``canonicalize`` and the prefetch parse, in call order."""
    from molchord.molgraph import canon

    texts = []
    real = canon.parse_smiles

    def counting(text, *args, **kwargs):
        texts.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(canon, "parse_smiles", counting)
    return texts


@pytest.mark.parametrize(
    "bad", ["C1CC", "C" * 400 + ".C" * 300], ids=["unclosed-ring", "chain-and-methanes"]
)
def test_a_failing_string_is_canonicalized_twice_per_load(tmp_path, canonicalized, bad):
    """Once by the prefetch, which keeps results only, and once by the line
    loop, which raises."""
    path = tmp_path / "generations.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "CCO"}, {"pocket_id": "p2", "smiles": bad}])
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, "generations")
    assert (excinfo.value.line_no, excinfo.value.field) == (2, "smiles")
    assert canonicalized.count(bad) == 2
    with pytest.raises(SchemaViolation) as again:  # the next load computes it again
        load_records(path, "generations")
    assert str(again.value) == str(excinfo.value)
    assert type(again.value.__cause__) is type(excinfo.value.__cause__)
    assert canonicalized.count(bad) == 4


def test_records_of_two_files_share_the_canonical_string_object(tmp_path):
    raws = ["OCC", "C(C)N", "c1ccccc1O"]
    gen_path, score_path = tmp_path / "generations.jsonl", tmp_path / "scores.jsonl"
    _write(gen_path, [{"pocket_id": "p1", "smiles": s} for s in raws])
    _write(score_path, [{"pocket_id": "p1", "smiles": s, "vina": -5.0} for s in raws])
    generations = load_records(gen_path, "generations")
    scores = load_records(score_path, "scores")
    for gen, score in zip(generations, scores):
        assert gen.smiles is score.smiles


def test_a_second_load_of_the_same_bytes_canonicalizes_nothing(tmp_path, canonicalized):
    from molchord.molgraph import canonicalize

    rows = [{"pocket_id": f"p{i}", "smiles": s} for i, s in enumerate(["OCC", "C/C=C/C", "CCN"])]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(first, rows)
    _write(second, rows)
    cache = tmp_path / "cache"
    records = load_records(first, "generations", cache)
    assert sorted(set(canonicalized)) == sorted(r["smiles"] for r in rows)
    canonicalize.cache_clear()
    canonicalized.clear()
    assert load_records(second, "generations", cache) == records
    assert canonicalized == ["C/C=C/C"]  # it warned, so its entry leaves it out
    (entry,) = (cache / "canonical").iterdir()
    assert json.loads(entry.read_text())["canonical"] == {"OCC": "CCO", "CCN": "CCN"}


def test_a_cache_dir_that_cannot_be_written_keeps_no_entry(tmp_path):
    path = tmp_path / "generations.jsonl"
    _write(path, [{"pocket_id": "p1", "smiles": "OCC"}])
    blocker = tmp_path / "file"
    blocker.write_text("")
    expected = load_records(path, "generations")
    assert load_records(path, "generations", blocker) == expected
    assert load_records(path, "generations", blocker / "below") == expected
    assert blocker.read_text() == ""


def test_bad_smiles_fails_with_its_own_line_in_every_file(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(first, [{"pocket_id": "p1", "smiles": "C1CC", "vina": -5.0}])
    _write(second, [
        {"pocket_id": "p1", "smiles": "CCO", "vina": -5.0},
        {"pocket_id": "p2", "smiles": "CCO", "vina": -5.0},
        {"pocket_id": "p3", "smiles": "C1CC", "vina": -5.0},
    ])
    for path, line_no in ((first, 1), (second, 3)):
        with pytest.raises(SchemaViolation) as excinfo:
            load_records(path, "scores")
        assert excinfo.value.line_no == line_no
        assert excinfo.value.field == "smiles"


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"pocket_id": "p1"\nnot json\n')
    with pytest.raises(MalformedLine) as excinfo:
        load_records(path, "scores")
    assert excinfo.value.line_no == 1


@pytest.mark.parametrize("schema, line, field", [
    ("complexes", '{"pocket_id": "p1", "ligand_smiles": ["CCO"], "reference_vina": 1%s}' % ("0" * 400),
     "reference_vina"),
    ("scores", '{"pocket_id": "p1", "smiles": "CCO", "vina": -1%s}' % ("0" * 400), "vina"),
    ("complexes", '{"pocket_id": "p1", "ligand_smiles": [5]}', "ligand_smiles"),
    ("complexes", '{"pocket_id": "p1", "ligand_smiles": [["CCO"]]}', "ligand_smiles"),
], ids=["huge-reference-vina", "huge-vina", "number-ligand", "nested-ligand"])
def test_load_rejects_values_that_raised_outside_the_schema(tmp_path, schema, line, field):
    # an integer beyond the float range raised OverflowError, a ligand that
    # is not a string TypeError
    path = tmp_path / "records.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(SchemaViolation) as excinfo:
        load_records(path, schema)
    assert (excinfo.value.line_no, excinfo.value.field) == (1, field)


def test_load_rejects_deeply_nested_json_as_malformed(tmp_path):
    # json.loads raised RecursionError
    path = tmp_path / "scores.jsonl"
    path.write_text("[" * 100_000 + "\n")
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
            ScoreRecord("p1", "CCO", -8.0, 0.4, 3.0),
            ScoreRecord("p1", "CCN", -7.0, None, None),
        ],
        "pairs": [PreferencePair("p1", "CCO", "CCN", 8.0, 7.0)],
        "generations": [GenerationRecord("p1", "CCO", -3.5)],
    }
    for schema, records in datasets.items():
        path = tmp_path / f"{schema}.jsonl"
        dump_records(path, records)
        loaded = load_records(path, schema)
        dump_records(tmp_path / "again.jsonl", loaded)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        reloaded = load_records(tmp_path / "again.jsonl", schema)
        assert reloaded == loaded


def test_dump_records_golden_bytes(tmp_path):
    """Exact bytes per schema: unset optional fields are left out."""
    datasets = {
        "complexes": (
            [
                ComplexRecord("p1", ("CCO", "CCN"), -8.0, "GAV", "homologous"),
                ComplexRecord("p2", ("c1ccccc1",)),
            ],
            '{"homology": "homologous", "ligand_smiles": ["CCO", "CCN"], "pocket_id": "p1", '
            '"pocket_sequence": "GAV", "reference_vina": -8.0}\n'
            '{"ligand_smiles": ["c1ccccc1"], "pocket_id": "p2"}\n',
        ),
        "scores": (
            [
                ScoreRecord("p1", "CCO", -8.0, 0.4, 3.0),
                ScoreRecord("p1", "CCN", -7.0),
            ],
            '{"pocket_id": "p1", "qed": 0.4, "sa_origin": 3.0, "smiles": "CCO", "vina": -8.0}\n'
            '{"pocket_id": "p1", "smiles": "CCN", "vina": -7.0}\n',
        ),
        "pairs": (
            [PreferencePair("p1", "CCO", "CCN", 8.0, 7.0)],
            '{"chosen": "CCO", "pocket_id": "p1", "rejected": "CCN", "reward_chosen": 8.0, '
            '"reward_rejected": 7.0}\n',
        ),
        "generations": (
            [
                GenerationRecord("p1", "CCO", -3.5),
                GenerationRecord("p1", "CCN"),
            ],
            '{"logprob": -3.5, "pocket_id": "p1", "smiles": "CCO"}\n'
            '{"pocket_id": "p1", "smiles": "CCN"}\n',
        ),
    }
    for schema, (records, expected) in datasets.items():
        path = tmp_path / f"{schema}.jsonl"
        dump_records(path, records)
        assert path.read_bytes() == expected.encode("utf-8"), schema


# --- coverage -------------------------------------------------------------------


def _gen(pid, smiles):
    return GenerationRecord(pid, smiles)


def _score(pid, smiles, vina=-8.0):
    return ScoreRecord(pid, smiles, vina)


def _complexes(*pids):
    return [ComplexRecord(pid, ("C",)) for pid in pids]


def _scored(pockets):
    return [(s.pocket_id, s.smiles) for p in pockets for s in p.generations]


def test_coverage_exact_match():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN")]
    scores = [_score("p1", "CCO"), _score("p1", "CCN")]
    pockets, missing = join_scores(_complexes("p1"), gens, scores)
    assert not missing and _scored(pockets) == [("p1", "CCO"), ("p1", "CCN")]


def test_coverage_one_missing():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN")]
    _, missing = join_scores(_complexes("p1"), gens, [_score("p1", "CCO")])
    assert missing
    assert [g.smiles for g in missing] == ["CCN"]


def test_coverage_superset_scores_ok():
    gens = [_gen("p1", "CCO")]
    scores = [_score("p1", "CCO"), _score("p1", "CCN"), _score("p2", "CCO")]
    assert not join_scores(_complexes("p1", "p2"), gens, scores)[1]


def test_coverage_partitions_generations():
    gens = [_gen("p1", "CCO"), _gen("p1", "CCN"), _gen("p2", "C")]
    pockets, missing = join_scores(_complexes("p1", "p2"), gens, [_score("p1", "CCO")])
    covered = set(_scored(pockets))
    missed = {(g.pocket_id, g.smiles) for g in missing}
    assert covered | missed == {(g.pocket_id, g.smiles) for g in gens}
    assert not covered & missed


def test_join_keeps_pocket_id_order_generation_order_and_the_loaded_scores():
    complexes = [
        ComplexRecord("p2", ("C",), None, None, "non_homologous"),
        ComplexRecord("p1", ("C",), -7.5, None, None),
        ComplexRecord("p3", ("C",)),  # no scored generation: left out
    ]
    scores = [_score("p1", "CCO", -9.0), _score("p2", "C"), _score("p1", "CCN", -6.0),
              _score("p4", "C")]
    gens = [_gen("p1", "CCN"), _gen("p4", "C"), _gen("p2", "C"), _gen("p1", "CCO")]
    pockets, missing = join_scores(complexes, gens, scores)
    assert missing == []
    assert [(p.pocket_id, p.reference_vina, p.homology) for p in pockets] == [
        ("p1", -7.5, "unknown"), ("p2", None, "non_homologous")
    ]
    assert pockets[0].generations == (scores[2], scores[0])
    assert all(a is b for a, b in zip(pockets[0].generations, (scores[2], scores[0])))


# --- external docking -------------------------------------------------------------


def test_dock_command_requires_smiles_placeholder():
    with pytest.raises(ValueError):
        DockCommand(template="echo -8.5 # no placeholder")


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_dock_command_requires_finite_positive_timeout(timeout):
    # NaN never timed out and inf overflowed inside subprocess.run
    with pytest.raises(ValueError, match="timeout"):
        DockCommand(template="echo -8.5 # {smiles}", timeout=timeout)


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


# Output that is not UTF-8 is read with replacement characters, so it ends in
# the score or the error the command meant, never in a UnicodeDecodeError.
def test_external_dock_reads_a_score_after_bytes_that_are_not_utf8(tmp_path):
    cmd = _cmd(r"printf '\377banner\n-5.5\n' # {smiles}")
    assert external_dock(cmd, "p1", "CCO", cache_dir=tmp_path) == -5.5


def test_external_dock_stderr_that_is_not_utf8_keeps_the_exit_code(tmp_path):
    cmd = _cmd(r"printf '\377' >&2; exit 3 # {smiles}")
    with pytest.raises(NonZeroExit) as info:
        external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)
    assert info.value.code == 3


def test_external_dock_last_line_that_is_not_utf8_is_unparseable(tmp_path):
    cmd = _cmd(r"printf -- '-5.5\n\377\n' # {smiles}")
    with pytest.raises(UnparseableOutput):
        external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)


def test_external_dock_timeout(tmp_path):
    cmd = _cmd("sleep 5 # {smiles}", timeout=0.2)
    with pytest.raises(Timeout):
        external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)


@pytest.fixture
def dock_processes(monkeypatch):
    """Gives every command this test starts an environment entry of its own;
    returns a function that waits up to 2 s for the last live process that
    carries it to end, and returns how many are left. With ``kill=True`` it
    first kills every such process."""
    entry = f"MOLCHORD_TEST_DOCK={os.getpid()}.{time.monotonic_ns()}"
    monkeypatch.setenv(*entry.split("="))

    def carriers() -> list[int]:
        pids = []
        for environ in Path("/proc").glob("[0-9]*/environ"):
            try:  # a zombie's environment reads empty
                if entry.encode() in environ.read_bytes().split(b"\0"):
                    pids.append(int(environ.parent.name))
            except OSError:
                continue
        return pids

    def left(kill: bool = False) -> int:
        deadline = time.monotonic() + 2.0
        while True:
            pids = carriers()
            for pid in pids if kill else ():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            if not pids or time.monotonic() > deadline:
                return len(pids)
            time.sleep(0.05)

    return left


@pytest.mark.parametrize(
    "template",
    [
        "sleep 8; echo {smiles} >/dev/null; echo -5",
        "sleep 8 | cat; echo {smiles} >/dev/null; echo -5",
        "(sleep 8; echo {smiles} >/dev/null; echo -5)",
    ],
    ids=["sequence", "pipeline", "subshell"],
)
def test_external_dock_timeout_kills_everything_the_command_started(
    tmp_path, dock_processes, template
):
    started = time.monotonic()
    with pytest.raises(Timeout):
        external_dock(_cmd(template, timeout=0.5), "p1", "CCO", cache_dir=tmp_path)
    assert time.monotonic() - started < 2.0
    assert dock_processes() == 0


def test_a_dock_timeout_does_not_wait_for_a_process_that_left_the_group(
    tmp_path, dock_processes
):
    # a process in a session of its own outlives the group's kill and holds
    # stdout open: reading the pipes to their end waited for it (8 s)
    cmd = _cmd("setsid sleep 8 & sleep 5; echo -5 # {smiles}", timeout=1)
    started = time.monotonic()
    try:
        with pytest.raises(Timeout):
            external_dock(cmd, "p1", "CCO", cache_dir=tmp_path)
        assert time.monotonic() - started < 3.0
    finally:
        assert dock_processes(kill=True) == 0


@pytest.mark.parametrize("workers", [1, 3])
def test_an_interrupted_dock_many_returns_at_once_and_leaves_no_process(
    tmp_path, dock_processes, workers
):
    # a command in a process group of its own does not get the terminal's
    # interrupt, so dock_many must stop what it started itself
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    requests = [("p1", "C" * k) for k in range(1, 6)]
    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            dock_many(_cmd("sleep 8; echo -5 # {smiles}", max_parallel=workers), requests,
                      cache_dir=tmp_path / "cache")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 2.0
    assert dock_processes() == 0
    # a leaked worker would keep fan_out from forking
    assert threading.active_count() == threads


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


@pytest.mark.parametrize(
    "entry",
    [
        "{}",
        '{"command": "LINE", "vina": "nan"}',
        '{"command": "LINE", "vina": NaN}',
        '{"command": "LINE", "vina": Infinity}',
        '{"command": "LINE", "vina": "-3.0"}',
        '{"command": "LINE", "vina": true}',
        '{"command": "LINE", "vina": 1' + "0" * 400 + "}",
        '{"command": "LINE"}',
        '{"command": "LINE --mode heavy", "vina": -3.0}',
        '{"command": "LINE_CCN", "vina": -3.0}',
        '{"pocket_id": "p1", "smiles": "CCO", "vina": -3.0}',
        '{"command": "LINE", "vi',
        "[-3.0]",
        "",
    ],
    ids=["empty", "nan-string", "nan", "infinity", "number-string", "bool", "huge-int",
         "no-score", "another-command-line", "other-smiles", "old-format", "truncated", "list", "blank"],
)
def test_external_dock_redocks_a_cache_entry_fresh_output_would_not_give(tmp_path, entry):
    counter = tmp_path / "count"
    script = tmp_path / "dock.sh"
    script.write_text(f"#!/bin/sh\necho x >> {counter}\necho -2.5\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    cmd, cache = _cmd(f"{script} {{smiles}}"), tmp_path / "cache"
    line = f"{script} CCO"
    assert external_dock(cmd, "p1", "CCO", cache_dir=cache) == -2.5
    (path,) = cache.glob("*.json")
    # an entry of another command line: another template, another molecule
    path.write_text(entry.replace("LINE_CCN", f"{script} CCN").replace("LINE", line))
    assert external_dock(cmd, "p1", "CCO", cache_dir=cache) == -2.5
    assert counter.read_text().count("x") == 2
    # rewritten through a temp file of its own, then a hit again
    assert json.loads(path.read_text()) == {"command": line, "vina": -2.5}
    assert [p.name for p in cache.iterdir()] == [path.name]
    assert external_dock(cmd, "p1", "CCO", cache_dir=cache) == -2.5
    assert counter.read_text().count("x") == 2


def _script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


def test_dock_command_bounds_its_timeout():
    # a wait above 2**31 - 1 ms ended a dock stage in OverflowError (exit 1)
    assert DockCommand(template="echo -8.5 # {smiles}", timeout=1e6).timeout == 1e6
    for timeout in (3e6, 0, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="timeout"):
            DockCommand(template="echo -8.5 # {smiles}", timeout=timeout)


def test_external_dock_commands_read_dev_null_not_the_callers_stdin(tmp_path, child_env):
    # stdin an open pipe that nobody writes: a command that reads it waited
    # for its whole timeout, then failed
    code = (
        "import sys\n"
        "from molchord.scorers import DockCommand, external_dock\n"
        "cmd = DockCommand('read x; echo -5 # {smiles}', timeout=2)\n"
        "print(external_dock(cmd, 'p', 'CCO', cache_dir=sys.argv[1]))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code, str(tmp_path / "cache")], env=child_env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:  # not communicate(), which would close the child's stdin
            assert proc.wait(timeout=30) == 0, proc.stderr.read()
        finally:
            proc.kill()
        assert proc.stdout.read().strip() == "-5.0"


def test_dock_command_requires_at_least_one_worker():
    with pytest.raises(ValueError, match="max_parallel"):
        DockCommand(template="echo -8.5 # {smiles}", max_parallel=0)


def test_dock_many_collects_failures(tmp_path):
    script = _script(tmp_path / "dock.sh", 'case "$1" in *N*) exit 3;; esac\necho -6.5\n')
    cmd = _cmd(f"{script} {{smiles}}", max_parallel=3)
    requests = [("p1", "CCO"), ("p1", "CCN"),
                ("p2", "CCC")]
    threads = threading.active_count()
    result = dock_many(cmd, requests, cache_dir=tmp_path / "cache")
    assert threading.active_count() == threads
    assert [s.smiles for s in result.scores] == ["CCO", "CCC"]
    assert len(result.failures) == 1
    assert result.failures[0].smiles == "CCN"


def test_dock_many_raises_a_workers_other_error_once_every_worker_has_ended(
    tmp_path, monkeypatch
):
    # not a DockError or ValueError: a fault, so it is raised, not recorded
    calls, all_three_running = [], threading.Barrier(3, timeout=5)

    def faulty(cmd, pocket_id, smiles, **kwargs):
        calls.append(smiles)
        all_three_running.wait()
        if smiles == "CCN":
            raise RuntimeError("fault on CCN")
        time.sleep(0.2)
        return -5.0

    monkeypatch.setattr(scorers, "external_dock", faulty)
    requests = [("p1", "C" * k + "N") for k in range(1, 9)]
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="fault on CCN"):
        dock_many(_cmd("echo -5 # {smiles}", max_parallel=3), requests,
                  cache_dir=tmp_path / "cache")
    assert threading.active_count() == threads
    # the three lines taken at the start run; no line starts after the fault
    assert sorted(calls) == ["CCCN", "CCN", "CN"]


def _barrier_dock(tmp_path, count):
    """A dock command that logs its molecule, then waits up to 5 s until
    ``count`` runs have logged theirs; it fails if they never do, so it
    succeeds only when ``count`` runs overlap. The score is minus the line
    number of its log entry, so a repeated run answers differently."""
    log = tmp_path / "runs.log"
    body = (
        f'echo "$1 $$" >> {log}\n'
        f'entry=$(grep -n -x "$1 $$" {log} | cut -d: -f1)\n'
        "for i in $(seq 50); do\n"
        f'  [ "$(wc -l < {log})" -ge {count} ] && {{ echo "-$entry"; exit 0; }}\n'
        "  sleep 0.1\n"
        "done\n"
        "exit 1\n"
    )
    return _script(tmp_path / "dock.sh", body), log


def test_dock_many_runs_distinct_requests_at_once(tmp_path):
    script, log = _barrier_dock(tmp_path, 2)
    cmd = _cmd(f"{script} {{smiles}}", max_parallel=2)
    requests = [("p1", "CCO"), ("p1", "CCN")]
    result = dock_many(cmd, requests, cache_dir=tmp_path / "cache")
    assert result.failures == ()
    assert [s.smiles for s in result.scores] == ["CCO", "CCN"]
    assert sorted(line.split()[0] for line in log.read_text().splitlines()) == ["CCN", "CCO"]


def _dock_each_line_once(tmp_path, template, runs):
    """Dock six requests over pockets p1 and p2, where ``runs`` groups the
    request indices that share one command line. Every
    line must start one run although all runs overlap: duplicates running
    side by side would each miss the cache and start the command, and with
    this command's changing answers also conflict."""
    script, log = _barrier_dock(tmp_path, len(runs))
    cmd = _cmd(template.format(script=script), max_parallel=4)
    requests = [("p1", "CCO"), ("p1", "OCC"), ("p2", "CCO"), ("p1", "C(O)C"), ("p2", "OCC"),
                ("p1", "CCN")]
    result = dock_many(cmd, requests, cache_dir=tmp_path / "cache")
    assert result.failures == ()
    assert len(log.read_text().splitlines()) == len(runs)
    scores = result.scores
    assert [(s.pocket_id, s.smiles) for s in scores] == [
        ("p1", "CCO"), ("p1", "CCO"), ("p2", "CCO"), ("p1", "CCO"), ("p2", "CCO"), ("p1", "CCN"),
    ]
    shared = [{scores[i].vina for i in run} for run in runs]
    assert all(len(values) == 1 for values in shared)
    assert len(set().union(*shared)) == len(runs)


def test_dock_many_docks_each_distinct_request_once(tmp_path):
    # a template without a pocket input docks one molecule once across pockets
    _dock_each_line_once(tmp_path, "{script} {{smiles}}", [[0, 1, 2, 3, 4], [5]])


def test_dock_many_docks_each_molecule_once_per_pocket_file(tmp_path):
    # the pocket file named by the pocket id, as a template names it
    _dock_each_line_once(
        tmp_path, "{script} {{smiles}} pockets/{{pocket_id}}.pdb", [[0, 1, 3], [2, 4], [5]]
    )


def test_dock_many_fails_each_duplicate_with_its_own_smiles(tmp_path):
    log = tmp_path / "runs.log"
    script = _script(
        tmp_path / "dock.sh",
        f'echo "$1" >> {log}\ncase "$1" in *N*) exit 3;; *S*) sleep 30;; esac\necho -6.5\n',
    )
    cmd = _cmd(f"{script} {{smiles}}", max_parallel=2, timeout=1.5)
    requests = [("p1", "CCN"), ("p1", "CCO"),
                ("p1", "NCC"), ("p1", "CCS")]
    result = dock_many(cmd, requests, cache_dir=tmp_path / "cache")
    assert [s.smiles for s in result.scores] == ["CCO"]
    assert [f.smiles for f in result.failures] == ["CCN", "NCC", "CCS"]
    assert result.failures[0].error == result.failures[1].error
    assert "exited 3" in result.failures[0].error
    # each failure names its error's class
    assert [f.kind for f in result.failures] == ["NonZeroExit", "NonZeroExit", "Timeout"]
    assert sorted(log.read_text().split()) == ["CCN", "CCO", "CCS"]  # one run per molecule


def test_dock_many_fails_an_invalid_smiles_alone(tmp_path):
    log = tmp_path / "runs.log"
    script = _script(tmp_path / "dock.sh", f'echo "$1" >> {log}\necho -6.5\n')
    requests = [("p1", "C1CC"), ("p1", "CCO")]
    result = dock_many(_cmd(f"{script} {{smiles}}"), requests, cache_dir=tmp_path / "cache")
    assert [s.smiles for s in result.scores] == ["CCO"]
    assert [(f.smiles, f.kind) for f in result.failures] == [("C1CC", "UnmatchedRingBond")]
    assert log.read_text().split() == ["CCO"]


def _dock_under_thread_pressure(tmp_path, template, runs, line_of):
    """More workers than cores and a short switch interval: a lost update of
    the grouping or the cache would start a second run of some command line.
    Eight molecules, five times each over pockets p0 and p1; ``line_of``
    says which scores share a command line."""
    log = tmp_path / "runs.log"
    script = _script(tmp_path / "dock.sh", f'echo "$*" >> {log}\nwc -l < {log}\n')
    molecules = ["C" * k for k in range(1, 9)]
    requests = [(f"p{i % 2}", smiles) for i in range(5) for smiles in molecules]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = dock_many(
            _cmd(template.format(script=script), max_parallel=8), requests,
            cache_dir=tmp_path / "cache",
        )
    finally:
        sys.setswitchinterval(interval)
    assert result.failures == ()
    assert len(log.read_text().splitlines()) == runs
    assert {(s.pocket_id, s.smiles) for s in result.scores} == {
        (pocket, smiles) for pocket, smiles in requests
    }
    by_line: dict[object, set[float]] = {}
    for score in result.scores:
        by_line.setdefault(line_of(score), set()).add(score.vina)
    assert len(by_line) == runs and all(len(v) == 1 for v in by_line.values())


def test_dock_many_under_thread_pressure_starts_one_run_per_key(tmp_path):
    _dock_under_thread_pressure(tmp_path, "{script} {{smiles}}", 8, lambda s: s.smiles)


def test_dock_many_under_thread_pressure_starts_one_run_per_pocket_file(tmp_path):
    _dock_under_thread_pressure(
        tmp_path, "{script} {{smiles}} pockets/{{pocket_id}}.pdb", 16,
        lambda s: (s.pocket_id, s.smiles),
    )


@pytest.mark.parametrize(
    "template, runs",
    [
        ("echo pockets/{pocket_id}.pdb >> LOG; echo -5 # {smiles}",
         ["pockets/p1.pdb", "pockets/p2.pdb", "pockets/p3.pdb"]),
        ("echo {smiles} centers/{pocket_id}.xyz >> LOG; echo -5",
         ["CCO centers/p1.xyz", "CCO centers/p2.xyz", "CCO centers/p3.xyz"]),
        ("echo pockets/{pocket_id}.pdb centers/{pocket_id}.xyz >> LOG; echo -5 # {smiles}",
         ["pockets/p1.pdb centers/p1.xyz", "pockets/p2.pdb centers/p2.xyz",
          "pockets/p3.pdb centers/p3.xyz"]),
    ],
    ids=["pocket-file", "center-source", "both"],
)
def test_dock_many_runs_once_per_distinct_pocket_input(tmp_path, template, runs):
    # the pocket's file and docking-box center, which a template finds from
    # the pocket id: one run per molecule and pocket
    log = tmp_path / "runs.log"
    requests = [("p1", "CCO"), ("p2", "OCC"), ("p1", "OCC"), ("p3", "CCO"), ("p 4", "CCO")]
    result = dock_many(_cmd(template.replace("LOG", str(log))), requests,
                       cache_dir=tmp_path / "cache")
    assert sorted(log.read_text().splitlines()) == runs
    assert [s.pocket_id for s in result.scores] == ["p1", "p2", "p1", "p3"]
    # a pocket id that is not shell-inert fails alone
    assert [(f.pocket_id, f.smiles) for f in result.failures] == [("p 4", "CCO")]
    assert "'p 4'" in result.failures[0].error
    assert result.failures[0].kind == "UnsafePocketId"


def test_a_pocket_id_that_is_not_shell_inert_fails_alone_and_starts_no_shell(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "runs.log"
    cmd = _cmd(f"echo '{{pocket_id}}' >> {log}; echo -5 # {{smiles}}")
    inert = "Pocket_9.a-b:c/d+e@f,g=h"
    unsafe = ["p1'; touch PWNED; echo '", "p$(touch PWNED)", "p`touch PWNED`", "p;1", "p&1",
              "p|1", "p<1", "p>PWNED", "p 1", "p\t1", "p\n1", 'p"1', "p\\1", "p*", "pé", "p{}"]
    requests = [(pocket_id, "CCO") for pocket_id in [*unsafe, inert]]
    result = dock_many(cmd, requests, cache_dir=tmp_path / "cache")
    assert [(s.pocket_id, s.vina) for s in result.scores] == [(inert, -5.0)]
    assert [(f.pocket_id, f.kind) for f in result.failures] == [
        (pocket_id, "UnsafePocketId") for pocket_id in unsafe
    ]
    assert log.read_text() == inert + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "runs.log"]
    with pytest.raises(UnsafePocketId):
        external_dock(cmd, unsafe[0], "CCO", cache_dir=tmp_path / "cache")
    # a template that does not name the pocket id docks any pocket
    plain = dock_many(_cmd("echo -6 # {smiles}"), requests[:1], cache_dir=tmp_path / "cache")
    assert [(s.pocket_id, s.vina) for s in plain.scores] == [(unsafe[0], -6.0)]


def test_a_later_dock_many_call_hits_the_entry_of_an_earlier_one(tmp_path):
    # a template without a pocket input: what one call (or stage) docked for
    # one pocket is a cache hit for every other pocket afterwards
    log = tmp_path / "runs.log"
    cmd = _cmd(f"{_script(tmp_path / 'dock.sh', f'echo $1 >> {log}; echo -4.5')} {{smiles}}")
    cache = tmp_path / "cache"
    assert dock_many(cmd, [("p1", "CCO")], cache_dir=cache).failures == ()
    result = dock_many(cmd, [("p2", "OCC"), ("p3", "C(C)O")], cache_dir=cache)
    assert [(s.pocket_id, s.smiles, s.vina) for s in result.scores] == [
        ("p2", "CCO", -4.5), ("p3", "CCO", -4.5)
    ]
    assert log.read_text().split() == ["CCO"]


def test_external_dock_cache_key_covers_substituted_inputs(tmp_path):
    # the same template and molecule for another pocket is another command,
    # so it must not reuse the first pocket's score
    cache = tmp_path / "cache"
    (tmp_path / "a.txt").write_text("-5.0\n")
    (tmp_path / "b.txt").write_text("-7.0\n")
    by_pocket = _cmd(f"cat '{tmp_path}'/{{pocket_id}}.txt # {{smiles}}")
    assert external_dock(by_pocket, "a", "CCO", cache_dir=cache) == -5.0
    assert external_dock(by_pocket, "b", "CCO", cache_dir=cache) == -7.0
    assert external_dock(by_pocket, "a", "OCC", cache_dir=cache) == -5.0  # a hit
    assert len(list(cache.glob("*.json"))) == 2


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
    from molchord.molgraph import canon, canonicalize

    calls = []
    real = canon.canonical_smiles

    def counting(mol):
        calls.append(mol)
        return real(mol)

    monkeypatch.setattr(canon, "canonical_smiles", counting)
    canonicalize.cache_clear()
    requests = [("p1", "OCC"), ("p1", "C(C)N")]
    result = dock_many(_cmd("echo -3 # {smiles}"), requests, cache_dir=tmp_path / "cache")
    assert [s.smiles for s in result.scores] == ["CCO", "CCN"]
    assert len(calls) == 2
