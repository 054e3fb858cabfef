"""Record files and the external docking adapter.

All datasets are line-delimited JSON, one object per line, UTF-8. SMILES keys
are canonicalized at load time (the original string is preserved in
``raw_smiles``) so joins between files are exact. The docking adapter shells
out to a user-supplied command that must print one finite number as the last
non-empty line of its stdout; results are cached by (pocket, molecule,
command) and a cache hit skips execution.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .curation import ComplexRecord, PreferencePair
from .metrics import HOMOLOGOUS, NON_HOMOLOGOUS
from .molgraph import Molecule, canonical_smiles, parse_smiles

CACHE_DIR_ENV = "MOLCHORD_CACHE_DIR"
DEFAULT_CACHE_DIR = ".molchord_cache"

SCHEMAS = ("complexes", "scores", "pairs", "generations")

# Shape of the evaluation report's line-delimited records (written by the CLI
# next to a human-readable table): per-pocket rows tagged kind="pocket" plus
# one kind="aggregate" row.
REPORT_ROW_FIELDS = (
    "kind", "pocket_id", "n", "mean_vina", "high_affinity", "mean_qed",
    "mean_sa", "diversity", "success_rate", "fused_ring_mean",
)


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
        value = float(value)
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


def _canonical(smiles: str, line_no: int, field: str, cache: dict[str, str]) -> str:
    if smiles not in cache:
        try:
            cache[smiles] = canonical_smiles(parse_smiles(smiles))
        except ValueError as exc:
            raise SchemaViolation(line_no, field, f"bad SMILES {smiles!r}: {exc}") from exc
    return cache[smiles]


def _parse_complexes(obj: dict, line_no: int, cache: dict[str, str]) -> ComplexRecord:
    pocket_id = _require(obj, line_no, "pocket_id", str)
    ligands = _require(obj, line_no, "ligand_smiles", list)
    canon = tuple(_canonical(s, line_no, "ligand_smiles", cache) for s in ligands)
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


def _parse_scores(obj: dict, line_no: int, cache: dict[str, str]) -> ScoreRecord:
    raw = _require(obj, line_no, "smiles", str)
    return ScoreRecord(
        pocket_id=_require(obj, line_no, "pocket_id", str),
        smiles=_canonical(raw, line_no, "smiles", cache),
        vina=_require(obj, line_no, "vina", float),
        qed=_bounded(_optional(obj, line_no, "qed", float), line_no, "qed", 0.0, 1.0),
        sa_origin=_bounded(
            _optional(obj, line_no, "sa_origin", float), line_no, "sa_origin", 1.0, 10.0
        ),
        raw_smiles=raw,
    )


def _parse_pairs(obj: dict, line_no: int, cache: dict[str, str]) -> PreferencePair:
    try:
        return PreferencePair(
            pocket_id=_require(obj, line_no, "pocket_id", str),
            chosen=_canonical(_require(obj, line_no, "chosen", str), line_no, "chosen", cache),
            rejected=_canonical(
                _require(obj, line_no, "rejected", str), line_no, "rejected", cache
            ),
            reward_chosen=_require(obj, line_no, "reward_chosen", float),
            reward_rejected=_require(obj, line_no, "reward_rejected", float),
        )
    except ValueError as exc:
        if isinstance(exc, (SchemaViolation, MalformedLine, DuplicateKey)):
            raise
        raise SchemaViolation(line_no, "chosen", str(exc)) from exc


def _parse_generations(obj: dict, line_no: int, cache: dict[str, str]) -> GenerationRecord:
    raw = _require(obj, line_no, "smiles", str)
    return GenerationRecord(
        pocket_id=_require(obj, line_no, "pocket_id", str),
        smiles=_canonical(raw, line_no, "smiles", cache),
        logprob=_optional(obj, line_no, "logprob", float),
        raw_smiles=raw,
    )


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
    records = []
    seen = set()
    cache: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise MalformedLine(line_no, "record must be a JSON object")
            record = parser(obj, line_no, cache)
            key = key_fn(record)
            if key in seen:
                raise DuplicateKey(line_no, key)
            seen.add(key)
            records.append(record)
    return records


def _record_to_dict(record) -> dict:
    if isinstance(record, ComplexRecord):
        out = {"pocket_id": record.pocket_id, "ligand_smiles": list(record.ligand_smiles)}
        if record.reference_vina is not None:
            out["reference_vina"] = record.reference_vina
        if record.pocket_sequence is not None:
            out["pocket_sequence"] = record.pocket_sequence
        if record.homology is not None:
            out["homology"] = record.homology
        return out
    if isinstance(record, ScoreRecord):
        out = {"pocket_id": record.pocket_id, "smiles": record.smiles, "vina": record.vina}
        if record.qed is not None:
            out["qed"] = record.qed
        if record.sa_origin is not None:
            out["sa_origin"] = record.sa_origin
        return out
    if isinstance(record, PreferencePair):
        return {
            "pocket_id": record.pocket_id,
            "chosen": record.chosen,
            "rejected": record.rejected,
            "reward_chosen": record.reward_chosen,
            "reward_rejected": record.reward_rejected,
        }
    if isinstance(record, GenerationRecord):
        out = {"pocket_id": record.pocket_id, "smiles": record.smiles}
        if record.logprob is not None:
            out["logprob"] = record.logprob
        return out
    raise TypeError(f"cannot serialize {type(record).__name__}")


def dump_records(path: str | Path, records: Iterable) -> None:
    """Write records as sorted-key JSON lines (stable bytes for fixed input)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_record_to_dict(record), sort_keys=True) + "\n")


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
    """Shell template with {smiles} plus optional {pocket_file} / {center_source}."""

    template: str
    timeout: float = 300.0
    max_parallel: int = 1

    def __post_init__(self):
        if "{smiles}" not in self.template:
            raise ValueError("dock command template must contain {smiles}")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


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


@functools.lru_cache(maxsize=4096)
def _canonical_request(smiles: str) -> str:
    """Canonical form of a dock request's SMILES, memoized so that
    ``dock_many`` and the ``external_dock`` it calls canonicalize it once.
    ``dock_many`` goes through the public ``external_dock`` for every request,
    so whatever wraps that function sees each dock call."""
    return canonical_smiles(parse_smiles(smiles))


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
    pocket file or reference ligand never reuses another command's score.
    """
    canon = _canonical_request(smiles)
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
    if cache_file.exists():
        return float(json.loads(cache_file.read_text())["vina"])

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
        if cache_file.exists():
            existing = float(json.loads(cache_file.read_text())["vina"])
            if existing != score:
                raise ConflictingScore(
                    f"cache holds {existing} but command produced {score} for "
                    f"({pocket_id}, {canon})"
                )
            return existing
        # A temp file of this writer's own: processes that share the cache
        # dir must never rename each other's half-written files.
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=cache_file.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pocket_id": pocket_id, "smiles": canon, "vina": score}, handle)
            os.replace(tmp, cache_file)
        except BaseException:
            os.unlink(tmp)
            raise
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
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> DockRunResult:
    """Dock (pocket_id, smiles, pocket_file, center_source) requests, bounding
    parallelism; results come back in request order regardless of scheduling."""
    workers = max(1, min(jobs, cmd.max_parallel))

    def run_one(req):
        pocket_id, smiles, pocket_file, center_source = req
        try:
            canon = _canonical_request(smiles)
            score = external_dock(cmd, pocket_id, smiles, pocket_file, center_source, cache_dir)
            return ScoreRecord(pocket_id=pocket_id, smiles=canon, vina=score)
        except (DockError, ValueError) as exc:
            return DockFailure(pocket_id=pocket_id, smiles=smiles, error=str(exc))

    if workers == 1:
        outcomes = [run_one(req) for req in requests]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_one, requests))

    scores = tuple(o for o in outcomes if isinstance(o, ScoreRecord))
    failures = tuple(o for o in outcomes if isinstance(o, DockFailure))
    return DockRunResult(scores=scores, failures=failures)
