"""Record files and the external docking adapter.

All datasets are line-delimited JSON, one object per line, UTF-8. SMILES keys
are canonicalized at load time, and only the canonical string is kept, so
joins between files are exact; the conversion goes through the per-process
``molgraph.canonicalize`` memo, so files that share strings parse each of them
once. Before its line loop, ``load_records`` seeds that memo with every string
of the file, in shares across the usable CPUs when the file is large enough
(``molgraph.prefetch_canonical``); the line loop then hits the memo. The
prefetch keeps results only, so a string that warns or raises is computed
there again, and errors and warnings come in line order as before. The docking
adapter shells out to a user-supplied command that must print one finite
number as the last non-empty line of its stdout. A request is a pocket id and
a SMILES, and the template names them as ``{smiles}`` and ``{pocket_id}``. The
fully substituted command line is the identity of a result: ``dock_many`` runs
each distinct line once, on plain worker threads, and a cache hit skips
execution.

Both kinds of entry in the cache directory, a dock score keyed by its
command line and a record file's raw -> canonical map keyed by the file,
go through ``store.get`` and ``store.put``; ``store`` owns their format and
this module only says what each kind's value must be.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import signal
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import molgraph, store
from .curation import ComplexRecord, PreferencePair
from .hashutil import sha256, sha256_file
from .metrics import HOMOLOGOUS, NON_HOMOLOGOUS, ScoreRecord
from .molgraph import canonicalize, prefetch_canonical, seed_canonical

SCHEMAS = ("complexes", "scores", "pairs", "generations")
MAX_TIMEOUT = 1_000_000  # seconds: a wait for a command takes at most 2**31 - 1 ms


class MalformedLine(ValueError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class SchemaViolation(ValueError):
    def __init__(self, line_no: int, field: str, detail: str):
        super().__init__(f"line {line_no}, field {field!r}: {detail}")
        self.line_no = line_no
        self.field = field


class DuplicateKey(ValueError):
    def __init__(self, line_no: int, key):
        super().__init__(f"line {line_no}: duplicate key {key!r}")
        self.line_no = line_no
        self.key = key


class GenerationRecord(NamedTuple):
    pocket_id: str
    smiles: str
    logprob: float | None = None


def _require(obj: dict, line_no: int, field: str, kind) -> object:
    if field not in obj:
        raise SchemaViolation(line_no, field, "missing")
    return _typed(obj, line_no, field, kind)


def _typed(obj: dict, line_no: int, field: str, kind) -> object:
    value = obj[field]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaViolation(line_no, field, f"expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise SchemaViolation(line_no, field, "must be finite")
        return value
    if not isinstance(value, kind):
        raise SchemaViolation(line_no, field, f"expected {kind.__name__}, got {value!r}")
    return value


def _optional(obj: dict, line_no: int, field: str, kind):
    if field not in obj or obj[field] is None:
        return None
    return _typed(obj, line_no, field, kind)


def _bounded(value: float | None, line_no: int, field: str, lo: float, hi: float):
    if value is not None and not lo <= value <= hi:
        raise SchemaViolation(line_no, field, f"{value} outside [{lo}, {hi}]")
    return value


def _canonical(smiles: str, line_no: int, field: str) -> str:
    try:
        return canonicalize(smiles)
    except ValueError as exc:
        raise SchemaViolation(line_no, field, f"bad SMILES {smiles!r}: {exc}") from exc


def _parse_complexes(obj: dict, line_no: int) -> ComplexRecord:
    pocket_id = _require(obj, line_no, "pocket_id", str)
    ligands = _require(obj, line_no, "ligand_smiles", list)
    for s in ligands:
        if not isinstance(s, str):
            raise SchemaViolation(line_no, "ligand_smiles", f"expected str items, got {s!r}")
    canon = tuple(_canonical(s, line_no, "ligand_smiles") for s in ligands)
    homology = _optional(obj, line_no, "homology", str)
    if homology is not None and homology not in (HOMOLOGOUS, NON_HOMOLOGOUS):
        raise SchemaViolation(line_no, "homology", f"unknown label {homology!r}")
    return ComplexRecord(
        pocket_id=pocket_id,
        ligand_smiles=canon,
        reference_vina=_optional(obj, line_no, "reference_vina", float),
        pocket_sequence=_optional(obj, line_no, "pocket_sequence", str),
        homology=homology,
    )


def _parse_scores(obj: dict, line_no: int) -> ScoreRecord:
    raw = _require(obj, line_no, "smiles", str)
    return ScoreRecord(
        pocket_id=_require(obj, line_no, "pocket_id", str),
        smiles=_canonical(raw, line_no, "smiles"),
        vina=_require(obj, line_no, "vina", float),
        qed=_bounded(_optional(obj, line_no, "qed", float), line_no, "qed", 0.0, 1.0),
        sa_origin=_bounded(
            _optional(obj, line_no, "sa_origin", float), line_no, "sa_origin", 1.0, 10.0
        ),
    )


def _parse_pairs(obj: dict, line_no: int) -> PreferencePair:
    try:
        return PreferencePair(
            pocket_id=_require(obj, line_no, "pocket_id", str),
            chosen=_canonical(_require(obj, line_no, "chosen", str), line_no, "chosen"),
            rejected=_canonical(_require(obj, line_no, "rejected", str), line_no, "rejected"),
            reward_chosen=_require(obj, line_no, "reward_chosen", float),
            reward_rejected=_require(obj, line_no, "reward_rejected", float),
        )
    except ValueError as exc:
        if isinstance(exc, (SchemaViolation, MalformedLine, DuplicateKey)):
            raise
        raise SchemaViolation(line_no, "chosen", str(exc)) from exc


def _parse_generations(obj: dict, line_no: int) -> GenerationRecord:
    raw = _require(obj, line_no, "smiles", str)
    return GenerationRecord(
        pocket_id=_require(obj, line_no, "pocket_id", str),
        smiles=_canonical(raw, line_no, "smiles"),
        logprob=_optional(obj, line_no, "logprob", float),
    )


# per schema: the line parser, the record's key, and the SMILES fields
_PARSERS = {
    "complexes": (_parse_complexes, lambda r: r.pocket_id, ("ligand_smiles",)),
    "scores": (_parse_scores, lambda r: (r.pocket_id, r.smiles), ("smiles",)),
    "pairs": (_parse_pairs, lambda r: r.pocket_id, ("chosen", "rejected")),
    "generations": (_parse_generations, lambda r: (r.pocket_id, r.smiles), ("smiles",)),
}


def load_records(path: str | Path, schema: str, cache_dir: str | Path | None = None) -> list:
    """Read and validate one record file; errors carry the offending line number.

    With a ``cache_dir``, the map from each SMILES string of the file that
    canonicalizes with no error and no warning to its canonical form is kept
    in ``<cache_dir>/canonical/<key>.json``. The key is the SHA-256 of the
    ``molgraph`` source and the file's bytes, so a load of the same bytes by
    the same code seeds the memo from the entry and skips the prefetch.
    Records, errors and warnings are the same with or without an entry.
    """
    if schema not in _PARSERS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    parser, key_fn, _ = _PARSERS[schema]
    _seed_memo(path, schema, cache_dir)
    records = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_no, f"invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise MalformedLine(line_no, "invalid JSON: nested too deeply") from exc
            if not isinstance(obj, dict):
                raise MalformedLine(line_no, "record must be a JSON object")
            record = parser(obj, line_no)
            key = key_fn(record)
            if key in seen:
                raise DuplicateKey(line_no, key)
            seen.add(key)
            records.append(record)
    return records


def _seed_memo(path: str | Path, schema: str, cache_dir: str | Path | None) -> None:
    """Seed the ``canonicalize`` memo with the file's strings: from its
    canonical entry when one counts, else by ``prefetch_canonical``, whose
    result becomes the entry unless the directory cannot be written."""
    entry = None
    if cache_dir is not None:
        with contextlib.suppress(OSError):  # unreadable: the line loop says so
            key = sha256_file(path, _molgraph_digest())
            entry = (Path(cache_dir) / "canonical" / f"{key}.json", key)
    known = store.get(_CANONICAL, *entry) if entry is not None else None
    if known is not None:
        seed_canonical(known)
        return
    known = prefetch_canonical(_smiles_strings(path, schema))
    if entry is not None:
        with contextlib.suppress(OSError):
            store.put(_CANONICAL, *entry, known)


def _smiles_strings(path: str | Path, schema: str) -> Iterator[str]:
    """Every SMILES string of the file, for ``prefetch_canonical``. Lines and
    values that fail to parse are skipped; the line loop reports them."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError):
                    continue
                if not isinstance(obj, dict):
                    continue
                for field in _PARSERS[schema][2]:
                    value = obj.get(field)
                    for text in value if isinstance(value, list) else [value]:
                        if isinstance(text, str):
                            yield text
    except (OSError, ValueError):  # unreadable or not UTF-8: the line loop says so
        return


@functools.cache
def _molgraph_digest() -> bytes:
    """SHA-256 over the ``molgraph`` source files, read once per process: a
    canonical entry made by other canonicalization code never counts."""
    digest = sha256()
    for source in sorted(Path(molgraph.__file__).parent.glob("*.py")):
        digest.update(sha256(source.read_bytes()).digest() + source.name.encode() + b"\0")
    return digest.digest()


def _string_map(value) -> dict[str, str] | None:
    ok = isinstance(value, dict) and all(isinstance(c, str) for c in value.values())
    return value if ok else None


# ``<cache_dir>/canonical/<key>.json``: {"key": key, "canonical": {raw: canonical}}
_CANONICAL = store.Kind("key", "canonical", _string_map)


def dump_records(path: str | Path, records: Iterable) -> None:
    """Write records as sorted-key JSON lines (stable bytes for fixed input).
    Unset optional fields are left out."""
    with store.atomic_write(path) as handle:
        for record in records:
            row = {k: v for k, v in record._asdict().items() if v is not None}
            handle.write(json.dumps(row, sort_keys=True) + "\n")


class _DockFields(NamedTuple):
    template: str
    timeout: float = 300.0
    max_parallel: int = 4


class DockCommand(_DockFields):
    """Shell template with {smiles} and, optionally, {pocket_id};
    ``max_parallel`` bounds how many copies ``dock_many`` runs at once."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        command = super().__new__(cls, *args, **kwargs)
        if "{smiles}" not in command.template:
            raise ValueError("dock command template must contain {smiles}")
        if not 0 < command.timeout <= MAX_TIMEOUT:  # rejects NaN as well
            raise ValueError(f"timeout must be in (0, {MAX_TIMEOUT}]")
        if command.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        return command


class DockError(RuntimeError):
    pass


class Timeout(DockError):
    pass


class NonZeroExit(DockError):
    def __init__(self, code: int, stderr: str):
        super().__init__(f"dock command exited {code}: {stderr.strip()[:200]}")
        self.code = code


class UnparseableOutput(DockError):
    pass


class UnsafePocketId(DockError):
    """A pocket id with a character that a shell may read as more than text."""


class ConflictingScore(DockError):
    pass


# A canonical SMILES has no quote, ``$``, backtick, ``;``, ``&``, ``|``, ``<``,
# ``>`` or whitespace. A pocket id, the one free-text value in a command line,
# is substituted only when it has none of them either: each of its characters
# must be a letter, a digit or one of ``_ . : / + @ , = -``.
_SHELL_INERT = re.compile(r"[A-Za-z0-9_.:/+@,=-]*")


def _command_line(template: str, pocket_id: str, smiles: str) -> str:
    """The template with one request's values in place: the identity of its
    dock result. Only ``{smiles}`` and ``{pocket_id}`` are substituted; other
    braces (awk scripts, shell expansions) pass through untouched."""
    command = template.replace("{smiles}", smiles)
    if "{pocket_id}" in command:
        if not _SHELL_INERT.fullmatch(pocket_id):
            raise UnsafePocketId(
                f"pocket id {pocket_id!r} has a character outside [A-Za-z0-9_.:/+@,=-]"
            )
        command = command.replace("{pocket_id}", pocket_id)
    return command


def _finite_score(vina) -> float | None:
    """A dock entry's score, as a record file's ``vina`` would pass."""
    try:
        return _typed({"vina": vina}, 0, "vina", float)
    except SchemaViolation:
        return None


# ``<cache_dir>/<sha256(line)>.json``: {"command": line, "vina": score}
_SCORE = store.Kind("command", "vina", _finite_score)


def _kill_group(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


# The process groups that ``_run`` has running: the terminal's interrupt does
# not reach a group of its own, so an interrupted ``dock_many`` kills them,
# and while ``_stopped`` is set, a group that registers is killed at once.
_groups_lock = threading.Lock()
_groups: set[subprocess.Popen] = set()
_stopped = threading.Event()


# ``_run`` looks whether the shell has exited after each read and after each
# wait that read nothing. Such waits double from 0.5 ms up to this; a read
# starts them over, since a shell that closed its output is about to exit.
_POLL_S = 0.05


def _run(command: str, timeout: float) -> tuple[int, str, str]:
    """Run one command line, stdin ``/dev/null``, in a process group of its
    own and return its exit code, stdout and stderr.

    The result is final when the shell exits, not when its pipes reach end
    of file, which a process that it left running can hold off for as long
    as it runs: ``_run`` then takes what the pipes hold, kills what is left
    of the group and closes the pipes. A timeout, or anything else that ends
    the wait, kills the whole group too: killing the shell alone would leave
    what it started running. The shell is reaped only after the kill, so its
    group id cannot have passed to another process."""
    import selectors
    import subprocess  # here, so the stages that run no command start without it

    proc = subprocess.Popen(
        command,
        shell=True,
        stdin=subprocess.DEVNULL,  # a command that reads must not wait on the CLI's stdin
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    with _groups_lock:
        _groups.add(proc)
        if _stopped.is_set():
            _kill_group(proc)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    deadline, delay = time.monotonic() + timeout, 0.0005
    try:
        with selectors.DefaultSelector() as selector:
            for fd in chunks:
                selector.register(fd, selectors.EVENT_READ)
            while not _exited(proc.pid):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout(f"dock command timed out after {timeout}s: {command}")
                if selector.get_map():
                    ready = selector.select(min(remaining, delay))
                else:  # both pipes closed
                    time.sleep(min(remaining, delay))
                    ready = []
                for key, _ in ready:
                    if not _read_into(chunks[key.fd], key.fd):
                        selector.unregister(key.fd)
                delay = 0.0005 if ready else min(2 * delay, _POLL_S)
            for fd in selector.get_map():  # the shell has exited: what the pipes hold
                os.set_blocking(fd, False)
                with contextlib.suppress(BlockingIOError):
                    while _read_into(chunks[fd], fd):
                        pass
    finally:
        _kill_group(proc)
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()
        with _groups_lock:
            _groups.discard(proc)
    stdout, stderr = (_text(parts) for parts in chunks.values())
    return proc.returncode, stdout, stderr


def _exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited, left unreaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _read_into(parts: list[bytes], fd: int) -> bool:
    """Append one read of ``fd`` to ``parts``; False at end of file."""
    data = os.read(fd, 1 << 16)
    parts.append(data)
    return bool(data)


def _text(parts: list[bytes]) -> str:
    """A pipe's bytes as text with universal newlines, as ``subprocess``
    decodes them; a stray byte must not hide the score or the exit code."""
    text = b"".join(parts).decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def external_dock(
    cmd: DockCommand, pocket_id: str, smiles: str, cache_dir: str | Path | None = None
) -> float:
    """Run the docking command for one molecule and return its score.

    The command must print exactly one finite decimal number as the final
    non-empty stdout line. A template that names ``{pocket_id}`` docks per
    pocket; the command finds the pocket's files and docking box from its id,
    which must be shell-inert (``UnsafePocketId`` otherwise, and no shell
    starts). The cache key is the SHA-256 of the fully substituted command
    line, so another pocket's line never reuses this one's score. An entry
    counts only as fresh output would (see ``_finite_score``); any other
    entry is a miss, and the command's result replaces it. An entry that
    another writer filled with a different score meanwhile raises
    ``ConflictingScore``. A timeout kills the command's whole process group.
    """
    canon = canonicalize(smiles)
    command = _command_line(cmd.template, pocket_id, canon)
    directory = store.resolve_cache_dir(cache_dir)
    cache_file = directory / f"{sha256(command.encode('utf-8')).hexdigest()}.json"
    cached = store.get(_SCORE, cache_file, command)
    if cached is not None:
        return cached

    store.make_cache_dir(directory)
    code, stdout, stderr = _run(command, cmd.timeout)
    if code != 0:
        raise NonZeroExit(code, stderr)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise UnparseableOutput(f"no output from: {command}")
    try:
        score = float(lines[-1].strip())
    except ValueError as exc:
        raise UnparseableOutput(f"last line {lines[-1]!r} is not a number") from exc
    if not math.isfinite(score):
        raise UnparseableOutput(f"non-finite score {score}")

    held = store.put(_SCORE, cache_file, command, score)
    if held != score:
        raise ConflictingScore(f"cache holds {held} but command produced {score}: {command}")
    return score


class DockFailure(NamedTuple):
    pocket_id: str
    smiles: str
    error: str
    kind: str  # the exception's class name: ``Timeout``, ``NonZeroExit``, a SMILES error...


class DockRunResult(NamedTuple):
    scores: tuple[ScoreRecord, ...]
    failures: tuple[DockFailure, ...]


def dock_many(
    cmd: DockCommand,
    requests: Sequence[tuple[str, str]],
    cache_dir: str | Path | None = None,
) -> DockRunResult:
    """Dock (pocket_id, smiles) requests.

    Requests whose substituted command lines are equal share one call of the
    public ``external_dock`` (so whatever wraps that function sees one call
    per line, and two threads never race to fill one cache entry); a
    template without ``{pocket_id}`` docks a molecule once across pockets.
    ``min(cmd.max_parallel, lines)`` threads take lines from one iterator.
    Each request gets its line's outcome, in request order; a failure
    carries the request's own SMILES and its error's class name as ``kind``.
    A SMILES that does not canonicalize, or a pocket id the template names
    that is not shell-inert, fails alone and is never docked. The cache
    directory is made first. After an interrupt, which kills the running
    groups, or any other error, no line starts; it is raised once all end."""
    directory = store.resolve_cache_dir(cache_dir)
    store.make_cache_dir(directory)
    identities: list[tuple[str, str] | Exception] = []  # per request: (line, canonical)
    first: dict[str, tuple] = {}  # line -> the request its call is made with
    for request in requests:
        pocket_id, smiles = request
        try:
            canon = canonicalize(smiles)
            line = _command_line(cmd.template, pocket_id, canon)
        except (DockError, ValueError) as exc:
            identities.append(exc)
            continue
        first.setdefault(line, request)
        identities.append((line, canon))

    outcome: dict[str, float | Exception] = {}
    raised: list[BaseException] = []  # by a worker or the wait: no new line starts after it
    lines, lock = iter(first), threading.Lock()

    def work(done: threading.Event) -> None:
        try:
            while True:
                with lock:
                    line = None if raised else next(lines, None)
                if line is None:
                    return
                try:
                    outcome[line] = external_dock(cmd, *first[line], cache_dir=directory)
                except (DockError, ValueError) as exc:
                    outcome[line] = exc
                except BaseException as exc:
                    raised.append(exc)
        finally:
            done.set()

    # Each worker's own ``done`` says when it has ended. The wait is on it and
    # not in ``Thread.join``: on CPython 3.11 and 3.12 an interrupted ``join``
    # marks a thread that still runs as stopped, and ``is_alive`` then says
    # False. ``join`` follows once ``done`` is set, when it returns at once.
    ended = [threading.Event() for _ in range(min(cmd.max_parallel, len(first)))]
    threads = [threading.Thread(target=work, args=(done,), daemon=True) for done in ended]
    try:
        for thread in threads:
            thread.start()
        for done in ended:
            done.wait()
    except BaseException as exc:  # interrupted while waiting
        raised.append(exc)
        _stopped.set()
        with _groups_lock:
            for proc in _groups:
                _kill_group(proc)
        try:
            for thread, done in zip(threads, ended):
                if thread.ident is not None:  # one that never ran starts no line
                    done.wait()
        finally:
            _stopped.clear()
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if raised:
        raise raised[0]

    scores, failures = [], []
    for (pocket_id, smiles), identity in zip(requests, identities):
        result = outcome[identity[0]] if isinstance(identity, tuple) else identity
        if isinstance(result, Exception):
            failures.append(DockFailure(pocket_id, smiles, str(result), type(result).__name__))
        else:
            scores.append(ScoreRecord(pocket_id=pocket_id, smiles=identity[1], vina=result))
    return DockRunResult(scores=tuple(scores), failures=tuple(failures))
