"""Forked fan-out of the evaluation stages: canonicalization prefetch in
``load_records`` and per-pocket rows in ``metrics.evaluate``.

The fork path is forced by reporting two usable CPUs, on inputs whose
estimated serial time is above the limit at which ``fan_out`` forks. Every
forked result must equal the serial one, and every error and warning must be
the one a serial run gives.
"""

import json
import math
import os
import signal
import threading
import time
import warnings
from dataclasses import asdict, replace

import pytest

from molchord import metrics
from molchord.cli import ValidationFailure, _load
from molchord.molgraph import (
    AromaticityError,
    CanonicalizationLimit,
    EmptyInput,
    SmilesFeatureWarning,
    SmilesSyntaxError,
    UnclosedBranch,
    UnknownElement,
    UnmatchedRingBond,
    ValenceViolation,
    canon,
    canonicalize,
    fan_out,
)
from molchord.scorers import SchemaViolation, load_records
from molchord.synthetic import smiles_corpus

# Enough distinct strings that canonicalizing them, or evaluating them as
# generations, pays for a fork.
_LIMIT_S = canon._FORK_PAYOFF * canon._FORK_S
N_STRINGS = max(
    2 * math.ceil(_LIMIT_S / canon._CANONICALIZE_S), 2 * math.ceil(_LIMIT_S / metrics._ROW_GENERATION_S)
) + 20
STEREO = "F/C=C/F"  # parses with a SmilesFeatureWarning


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs; the list of pids that ``os.fork`` returned."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(canon, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _generations(path, smiles):
    with open(path, "w", encoding="utf-8") as handle:
        for i, text in enumerate(smiles):
            handle.write(json.dumps({"pocket_id": f"p{i}", "smiles": text}) + "\n")
    return path


@pytest.fixture(scope="module")
def corpus():
    distinct = list(dict.fromkeys(smiles_corpus(3 * N_STRINGS, seed=23, min_heavy=3, max_heavy=12)))
    assert len(distinct) >= N_STRINGS
    return distinct[:N_STRINGS]


def _serial_load(monkeypatch, path, schema="generations"):
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        canonicalize.cache_clear()
        records = load_records(path, schema)
        memo = dict(canon._memo)
    canonicalize.cache_clear()
    return records, memo


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


def test_forked_load_equals_serial_load(tmp_path, corpus, forks, monkeypatch):
    path = _generations(tmp_path / "generations.jsonl", corpus + corpus[:20])
    serial, serial_memo = _serial_load(monkeypatch, path, "generations")
    assert not forks
    forked = load_records(path, "generations")
    assert len(forks) == 1 and _reaped(forks[0])
    assert forked == serial
    assert canon._memo == serial_memo


# One string per error class a load can meet.
BAD_SMILES = [
    ("", EmptyInput),
    ("C(C", UnclosedBranch),
    ("C1CC", UnmatchedRingBond),
    ("C=", SmilesSyntaxError),
    ("[Xx]", UnknownElement),
    ("c", AromaticityError),
    ("C(C)(C)(C)(C)C", ValenceViolation),
    (".".join(["C"] * 100), CanonicalizationLimit),
]


def test_bad_smiles_in_the_child_share_fails_on_the_serial_line(
    tmp_path, corpus, forks, monkeypatch
):
    smiles = list(corpus)
    smiles[len(smiles) - 5] = "C1CC"  # unclosed ring, in the second (child's) share
    smiles[len(smiles) - 2] = "not a molecule"
    path = _generations(tmp_path / "generations.jsonl", smiles)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        with pytest.raises(ValidationFailure) as serial:
            _load(path, "generations", "generations")
    canonicalize.cache_clear()
    assert not forks
    with pytest.raises(ValidationFailure) as forked:
        _load(path, "generations", "generations")
    assert len(forks) == 1 and _reaped(forks[0])
    assert str(forked.value) == str(serial.value)
    assert forked.value.exit_code == serial.value.exit_code == 2
    assert f"line {len(smiles) - 4}," in str(forked.value)
    assert isinstance(forked.value.__cause__, SchemaViolation)


@pytest.mark.parametrize("bad, error", BAD_SMILES, ids=[e.__name__ for _, e in BAD_SMILES])
def test_each_error_class_in_the_child_share_is_the_serial_exception(
    tmp_path, corpus, forks, monkeypatch, bad, error
):
    smiles = list(corpus)
    smiles[len(smiles) - 5] = bad  # in the second (child's) share
    smiles[len(smiles) - 2] = "not a molecule"
    path = _generations(tmp_path / "generations.jsonl", smiles)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        with pytest.raises(ValidationFailure) as serial:
            _load(path, "generations", "generations")
    canonicalize.cache_clear()
    assert not forks
    with pytest.raises(ValidationFailure) as forked:
        _load(path, "generations", "generations")
    assert len(forks) == 1 and _reaped(forks[0])
    assert str(forked.value) == str(serial.value)
    assert forked.value.exit_code == serial.value.exit_code == 2
    violation = forked.value.__cause__
    assert isinstance(violation, SchemaViolation)
    assert (violation.line_no, violation.field) == (len(smiles) - 4, "smiles")
    cause, expected = violation.__cause__, serial.value.__cause__.__cause__
    assert type(cause) is type(expected) is error
    assert (str(cause), cause.offset) == (str(expected), expected.offset)
    assert getattr(cause, "issue", None) == getattr(expected, "issue", None)


@pytest.mark.parametrize("bad", ["C1CC", "C(C)(C)(C)(C)C"], ids=["unclosed-ring", "valence"])
def test_a_failing_string_in_the_child_share_is_canonicalized_once(
    tmp_path, corpus, forks, monkeypatch, bad
):
    """The child computes a failing string of its share once, however often it
    occurs there, and hands back no result for it; the parent's line loop
    computes it once more and raises at its first line."""
    log = tmp_path / "parsed.log"
    real = canon.parse_smiles

    def logging_parse(text):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {text!r}\n")
        return real(text)

    monkeypatch.setattr(canon, "parse_smiles", logging_parse)
    smiles = list(corpus)
    smiles[len(smiles) - 5] = smiles[len(smiles) - 3] = bad  # twice in the child's share
    path = _generations(tmp_path / "generations.jsonl", smiles)
    with pytest.raises(SchemaViolation) as forked:
        load_records(path, "generations")
    assert len(forks) == 1 and _reaped(forks[0])
    assert forked.value.line_no == len(smiles) - 4
    parsed = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert [pid for pid, text in parsed if text == repr(bad)] == [str(forks[0]), str(os.getpid())]


def _feature_warnings(load):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load()
    return [str(w.message) for w in caught if issubclass(w.category, SmilesFeatureWarning)]


def test_a_feature_warning_in_the_child_share_warns_once_in_the_parent(
    tmp_path, corpus, forks, monkeypatch, capfd
):
    once = _feature_warnings(lambda: canonicalize(STEREO))
    assert once and all("stereo bond mark" in m for m in once)
    canonicalize.cache_clear()
    smiles = [*corpus, STEREO, STEREO]  # both in the child's share
    path = _generations(tmp_path / "generations.jsonl", smiles)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        assert _feature_warnings(lambda: load_records(path, "generations")) == once
    canonicalize.cache_clear()
    assert not forks
    assert _feature_warnings(lambda: load_records(path, "generations")) == once
    assert len(forks) == 1 and _reaped(forks[0])
    assert capfd.readouterr().err == ""  # the child printed nothing


def _pockets(smiles, per_pocket=20):
    pockets = []
    for start in range(0, len(smiles) - per_pocket + 1, per_pocket):
        pocket_id = f"p{start:04d}"
        gens = tuple(
            metrics.ScoreRecord(pocket_id, s, vina=-5.0 - (i % 9) / 4, qed=0.5, sa_origin=3.0)
            for i, s in enumerate(smiles[start : start + per_pocket])
        )
        pockets.append(metrics.PocketEval(pocket_id, gens, reference_vina=-6.0))
    return pockets


def test_the_pockets_pay_for_a_fork(corpus):
    n = sum(len(p.generations) for p in _pockets(corpus))
    assert n * metrics._ROW_GENERATION_S / 2 >= canon._FORK_PAYOFF * canon._FORK_S


def _without_score(pocket):
    gens = list(pocket.generations)
    gens[3] = replace(gens[3], vina=None)
    return replace(pocket, generations=tuple(gens))


def test_forked_evaluate_equals_serial_evaluate(corpus, forks, monkeypatch):
    pockets = _pockets(corpus)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        serial = metrics.evaluate(pockets)
    assert not forks
    forked = metrics.evaluate(pockets)
    assert len(forks) == 1 and _reaped(forks[0])
    assert asdict(forked) == asdict(serial)
    assert json.dumps(asdict(forked)) == json.dumps(asdict(serial))


@pytest.mark.parametrize("bad", [[-1], [-3, -1], [0, -1]], ids=["child", "child-first", "parent"])
def test_coverage_gap_is_the_serial_exception(corpus, forks, monkeypatch, bad):
    pockets = _pockets(corpus)
    for i in bad:
        pockets[i] = _without_score(pockets[i])
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        with pytest.raises(metrics.ScoreCoverageGap) as serial:
            metrics.evaluate(pockets)
    with pytest.raises(metrics.ScoreCoverageGap) as forked:
        metrics.evaluate(pockets)
    assert len(forks) == 1 and _reaped(forks[0])
    assert forked.value.pocket_id == serial.value.pocket_id == pockets[bad[0]].pocket_id
    assert str(forked.value) == str(serial.value)


def _squares_unless_child(parent, how):
    def work(share):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
        return [x * x for x in share]

    return work


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_a_failed_child_falls_back_to_the_parent(forks, how):
    items = list(range(50))
    work = _squares_unless_child(os.getpid(), how)
    assert fan_out(work, items, seconds=10.0) == [x * x for x in items]
    assert len(forks) == 1 and _reaped(forks[0])


def test_a_fork_that_fails_leaves_the_share_to_the_parent(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process available")

    monkeypatch.setattr(canon, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    items = list(range(50))
    assert fan_out(lambda share: [x * x for x in share], items, seconds=10.0) == [
        x * x for x in items
    ]


def test_a_killed_child_still_gives_the_serial_load(tmp_path, corpus, forks, monkeypatch):
    path = _generations(tmp_path / "generations.jsonl", corpus)
    serial, serial_memo = _serial_load(monkeypatch, path)
    parent, real = os.getpid(), canon._clean_canonical

    def dies_in_child(texts):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(texts)

    monkeypatch.setattr(canon, "_clean_canonical", dies_in_child)
    assert load_records(path, "generations") == serial
    assert len(forks) == 1 and _reaped(forks[0])
    assert canon._memo == serial_memo


def test_no_child_outlives_a_raising_parent_share(forks):
    parent = os.getpid()

    def work(share):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("parent share failed")

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parent share failed"):
        fan_out(work, list(range(10)), seconds=10.0)
    assert time.monotonic() - started < 30
    assert len(forks) == 1 and _reaped(forks[0])


def test_no_fork_with_one_cpu_or_another_thread(tmp_path, corpus, forks, monkeypatch):
    path = _generations(tmp_path / "generations.jsonl", corpus)
    pockets = _pockets(corpus)
    with monkeypatch.context() as patch:
        patch.setattr(canon, "_usable_cpus", lambda: 1)
        load_records(path, "generations")
        metrics.evaluate(pockets)
    canonicalize.cache_clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        load_records(path, "generations")
        metrics.evaluate(pockets)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []


def test_small_inputs_do_not_fork(tmp_path, corpus, forks):
    load_records(_generations(tmp_path / "generations.jsonl", corpus[:10]), "generations")
    metrics.evaluate(_pockets(corpus[:30], per_pocket=3))
    assert forks == []
