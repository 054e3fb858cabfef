"""Record files and the external docking adapter.

All datasets are line-delimited JSON, one object per line, UTF-8. SMILES keys
are canonicalized at load time (the original string is preserved in
``raw_smiles``) so joins between files are exact; the conversion goes through
the per-process ``molgraph.canonicalize`` memo, so files that share strings
parse each of them once. Before its line loop, ``load_records`` seeds that
memo with every string of the file, in shares across the usable CPUs when the
file is large enough (``molgraph.prefetch_canonical``); the line loop then
hits the memo, and any string that fails or warns is computed there again, so
errors and warnings come in line order as before. The docking adapter shells
out to a user-supplied command that must print one finite number as the last
non-empty line of its stdout; results are cached by (pocket, molecule,
command) and a cache hit skips execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .curation import ComplexRecord, PreferencePair
from .metrics import HOMOLOGOUS, NON_HOMOLOGOUS
from .molgraph import Molecule, canonicalize, prefetch_canonical

CACHE_DIR_ENV = "MOLCHORD_CACHE_DIR"
DEFAULT_CACHE_DIR = ".molchord_cache"

SCHEMAS = ("complexes", "scores", "pairs", "generations")


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


@dataclass(frozen=True)
class ScoreRecord:
    pocket_id: str
    smiles: str
    vina: float
    qed: float | None = None
    sa_origin: float | None = None
    raw_smiles: str | None = None


@dataclass(frozen=True)
class GenerationRecord:
    pocket_id: str
    smiles: str
    logprob: float | None = None
    raw_smiles: str | None = None


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
        raw_smiles=raw,
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
        raw_smiles=raw,
    )


_SMILES_FIELDS = {
    "complexes": ("ligand_smiles",),
    "scores": ("smiles",),
    "pairs": ("chosen", "rejected"),
    "generations": ("smiles",),
}

_PARSERS = {
    "complexes": (_parse_complexes, lambda r: r.pocket_id),
    "scores": (_parse_scores, lambda r: (r.pocket_id, r.smiles)),
    "pairs": (_parse_pairs, lambda r: r.pocket_id),
    "generations": (_parse_generations, lambda r: (r.pocket_id, r.smiles)),
}


def load_records(path: str | Path, schema: str) -> list:
    """Read and validate one record file; errors carry the offending line number."""
    if schema not in _PARSERS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    parser, key_fn = _PARSERS[schema]
    prefetch_canonical(_smiles_strings(path, schema))
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
                for field in _SMILES_FIELDS[schema]:
                    value = obj.get(field)
                    for text in value if isinstance(value, list) else [value]:
                        if isinstance(text, str):
                            yield text
    except (OSError, ValueError):  # unreadable or not UTF-8: the line loop says so
        return


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` when the block ends
    without an exception; on an exception the temp file is removed. Every
    artifact is written this way, so a stage that fails or is killed
    mid-write leaves the previous file (or none), never a truncated one."""
    path = Path(path)
    # a name of this writer's own, created with the usual permissions
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def dump_records(path: str | Path, records: Iterable) -> None:
    """Write records as sorted-key JSON lines (stable bytes for fixed input).
    Unset optional fields and the load-only ``raw_smiles`` are left out."""
    with atomic_write(path) as handle:
        for record in records:
            row = {k: v for k, v in asdict(record).items() if v is not None and k != "raw_smiles"}
            handle.write(json.dumps(row, sort_keys=True) + "\n")


@dataclass(frozen=True)
class CoverageReport:
    covered: tuple[GenerationRecord, ...]
    missing: tuple[GenerationRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.missing


def coverage_check(
    generations: Sequence[GenerationRecord], scores: Sequence[ScoreRecord]
) -> CoverageReport:
    scored = {(s.pocket_id, s.smiles) for s in scores}
    covered, missing = [], []
    for gen in generations:
        (covered if (gen.pocket_id, gen.smiles) in scored else missing).append(gen)
    return CoverageReport(covered=tuple(covered), missing=tuple(missing))


SURROGATE_HEAVY_CAP = 15


def surrogate_vina(mol: Molecule) -> float:
    """Deterministic pseudo-binding score: heavier molecules bind better,
    saturating at the cap. Lower is better, like a docking energy."""
    return -float(min(mol.heavy_atom_count(), SURROGATE_HEAVY_CAP))


@dataclass(frozen=True)
class DockCommand:
    """Shell template with {smiles} plus optional {pocket_file} / {center_source};
    ``max_parallel`` bounds how many copies ``dock_many`` runs at once."""

    template: str
    timeout: float = 300.0
    max_parallel: int = 4

    def __post_init__(self):
        if "{smiles}" not in self.template:
            raise ValueError("dock command template must contain {smiles}")
        if not 0 < self.timeout < math.inf:  # rejects NaN as well
            raise ValueError("timeout must be finite and > 0")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")


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


class MissingDockInput(DockError):
    """Template references an input (pocket file / center) that was not provided."""


class ConflictingScore(DockError):
    pass


def _cache_dir(explicit: str | Path | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


_cache_lock = threading.Lock()


def _cache_key(command: str, pocket_id: str, smiles: str) -> str:
    digest = hashlib.sha256()
    for part in (command, pocket_id, smiles):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _read_cached(cache_file: Path, pocket_id: str, smiles: str) -> float | None:
    """The score a cache entry holds for this request, or None when the entry
    is missing or is not what this command would have written for it: JSON
    with this pocket and canonical SMILES and a finite number."""
    try:
        entry = json.loads(cache_file.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict):
        return None
    vina = entry.get("vina")
    if (
        entry.get("pocket_id") != pocket_id
        or entry.get("smiles") != smiles
        or isinstance(vina, bool)
        or not isinstance(vina, (int, float))
        or not math.isfinite(vina)
    ):
        return None
    return float(vina)


def external_dock(
    cmd: DockCommand,
    pocket_id: str,
    smiles: str,
    pocket_file: str | None = None,
    center_source: str | None = None,
    cache_dir: str | Path | None = None,
) -> float:
    """Run the docking command for one molecule and return its score.

    The command must print exactly one finite decimal number as the final
    non-empty stdout line. ``center_source`` is whatever the wrapped tool
    needs to locate the pocket center (typically the reference ligand);
    pockets that cannot provide one are rejected here when the template asks
    for it. The cache key covers the fully substituted command, so a changed
    pocket file or reference ligand never reuses another command's score. An
    entry counts only as fresh output would (see ``_read_cached``); any other
    entry is a miss, and the command's result replaces it.
    """
    canon = canonicalize(smiles)
    # Only the known placeholders are substituted; other braces (awk scripts,
    # shell expansions) pass through untouched.
    command = cmd.template.replace("{smiles}", canon)
    if "{pocket_file}" in command:
        if pocket_file is None:
            raise MissingDockInput(f"pocket {pocket_id}: no pocket file available")
        command = command.replace("{pocket_file}", pocket_file)
    if "{center_source}" in command:
        if center_source is None:
            raise MissingDockInput(
                f"pocket {pocket_id}: no reference ligand to define the pocket center"
            )
        command = command.replace("{center_source}", center_source)

    directory = _cache_dir(cache_dir)
    cache_file = directory / f"{_cache_key(command, pocket_id, canon)}.json"
    cached = _read_cached(cache_file, pocket_id, canon)
    if cached is not None:
        return cached

    try:
        proc = subprocess.run(
            command,
            shell=True,
            capture_output=True,
            text=True,
            timeout=cmd.timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise Timeout(f"dock command timed out after {cmd.timeout}s: {command}") from exc
    if proc.returncode != 0:
        raise NonZeroExit(proc.returncode, proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise UnparseableOutput(f"no output from: {command}")
    try:
        score = float(lines[-1].strip())
    except ValueError as exc:
        raise UnparseableOutput(f"last line {lines[-1]!r} is not a number") from exc
    if not math.isfinite(score):
        raise UnparseableOutput(f"non-finite score {score}")

    with _cache_lock:
        directory.mkdir(parents=True, exist_ok=True)
        existing = _read_cached(cache_file, pocket_id, canon)
        if existing is not None:
            if existing != score:
                raise ConflictingScore(
                    f"cache holds {existing} but command produced {score} for "
                    f"({pocket_id}, {canon})"
                )
            return existing
        # through a temp file of this writer's own: processes that share the
        # cache dir must never rename each other's half-written files
        with atomic_write(cache_file) as handle:
            json.dump({"pocket_id": pocket_id, "smiles": canon, "vina": score}, handle)
    return score


@dataclass(frozen=True)
class DockFailure:
    pocket_id: str
    smiles: str
    error: str


@dataclass(frozen=True)
class DockRunResult:
    scores: tuple[ScoreRecord, ...]
    failures: tuple[DockFailure, ...]


def dock_many(
    cmd: DockCommand,
    requests: Sequence[tuple[str, str, str | None, str | None]],
    cache_dir: str | Path | None = None,
) -> DockRunResult:
    """Dock (pocket_id, smiles, pocket_file, center_source) requests.

    Requests that share the pocket, the canonical molecule and both inputs
    share one call of the public ``external_dock`` (so whatever wraps that
    function sees every call, and two threads never race to fill one cache
    entry); up to ``cmd.max_parallel`` distinct calls run at once. Every
    request gets its key's outcome, in request order; a failure carries the
    request's own SMILES. A SMILES that does not canonicalize fails alone
    and is never docked."""
    keys: list[tuple | ValueError] = []  # per request: its key, or why it has none
    first_raw: dict[tuple, str] = {}  # key -> the SMILES its call is made with
    for pocket_id, smiles, pocket_file, center_source in requests:
        try:
            key = (pocket_id, canonicalize(smiles), pocket_file, center_source)
        except ValueError as exc:
            keys.append(exc)
            continue
        first_raw.setdefault(key, smiles)
        keys.append(key)

    def run_one(key):
        pocket_id, _, pocket_file, center_source = key
        try:
            return external_dock(
                cmd, pocket_id, first_raw[key], pocket_file, center_source, cache_dir
            )
        except (DockError, ValueError) as exc:
            return exc

    workers = min(cmd.max_parallel, len(first_raw))
    if workers <= 1:
        outcome = {key: run_one(key) for key in first_raw}
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcome = dict(zip(first_raw, pool.map(run_one, first_raw)))

    scores, failures = [], []
    for (pocket_id, smiles, _, _), key in zip(requests, keys):
        result = outcome[key] if isinstance(key, tuple) else key
        if isinstance(result, Exception):
            failures.append(DockFailure(pocket_id=pocket_id, smiles=smiles, error=str(result)))
        else:
            scores.append(ScoreRecord(pocket_id=pocket_id, smiles=key[1], vina=result))
    return DockRunResult(scores=tuple(scores), failures=tuple(failures))
