"""Command-line pipeline.

Subcommands cover the whole flow: partition, train-sft, curate, train-dpo,
sample, dock, evaluate, report, verify (``_COMMANDS``). Settings come from an
INI config file overridden by flags (flag wins). All commands are
deterministic given (config, seed): reruns produce byte-identical primary
artifacts.

Every command writes its artifacts plus a manifest with input/output hashes
so `verify` can walk the chain. No file is listed by hand: ``main`` starts a
record of the command, the loaders (``_input``) and writers (``_output``) add
each file as it is read or written, and ``write_manifest`` lists the record.
`report` writes one manifest per sub-report (``report-fused``, ``report-ood``).

Exit codes: 0 ok, 2 validation/coverage failure, 3 missing upstream artifact,
4 external command failure, 1 internal error.

Each command is load -> library stage -> dump -> manifest; the stages live in
the library modules that own them (``curation.curate``,
``genmodel.sample_many``/``sample_unique``, ``training.train_sft``/``train_dpo``).
Only the four model commands (train-sft, curate, train-dpo, sample) need the
generator and numpy; they import them when they run, so the other commands
start without numpy.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from . import __version__, curation, metrics, scorers, store
from .hashutil import derive_seed, sha256, sha256_file

if TYPE_CHECKING:
    from .genmodel import ModelConfig, ModelParams, PocketFeatures, Vocabulary
    from .training import TrainConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_MISSING = 3
EXIT_EXTERNAL = 4


class CliError(Exception):
    exit_code = EXIT_INTERNAL


class ValidationFailure(CliError):
    exit_code = EXIT_VALIDATION


class MissingArtifact(CliError):
    exit_code = EXIT_MISSING


class ExternalCommandFailure(CliError):
    exit_code = EXIT_EXTERNAL


class Rule(NamedTuple):
    """The range a config value must lie in."""

    test: Callable[[Any], bool]
    text: str


def _between(low: int, high: int) -> Rule:
    return Rule(lambda v: low <= v <= high, f"in [{low}, {high}]")


_COUNT = Rule(lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = Rule(lambda v: v >= 0, ">= 0")
_POSITIVE = Rule(lambda v: v > 0, "> 0")
_FRACTION = Rule(lambda v: 0 < v <= 1, "in (0, 1]")
_TIMEOUT = Rule(lambda v: 0 < v <= scorers.MAX_TIMEOUT, f"in (0, {scorers.MAX_TIMEOUT}]")
# A fingerprint is an nbits-bit integer refined radius times: cap both.
_NBITS = Rule(lambda v: 64 <= v <= 65536 and not v & (v - 1), "a power of two in [64, 65536]")
_RADIUS = _between(0, 8)
# Model sizes and the sample length are capped: with all of them at their
# caps, one training step and one sample each stay under 0.75 GB resident.
_WIDTH = _between(1, 512)
# a stream seed hashes the run seed as a signed 128-bit integer (derive_seed)
_SEED = _between(0, 2**63 - 1)
_FLOW = Rule(lambda v: v in curation.FLOWS, " or ".join(curation.FLOWS))
# an empty command is fine for the commands that do not dock; dock and curate exit 2
_DOCK_COMMAND = Rule(lambda v: not v or "{smiles}" in v, "empty or a template with {smiles}")


class Key(NamedTuple):
    """One config key: where it lives, its type, its default (the INI
    string), the range of its value, and the flag that overrides it."""

    section: str
    name: str
    kind: type
    default: str
    rule: Rule = Rule(lambda v: True, "any value")
    flag: str | None = None

    def parse(self, raw: str) -> Any:
        """The typed value of ``raw``; a value of another type, a float that
        is not finite or a value out of range is a validation failure."""
        setting = f"invalid config: [{self.section}] {self.name} = {raw!r}"
        try:
            value = self.kind(raw.strip())
        except ValueError:
            raise ValidationFailure(f"{setting} is not {self.kind.__name__}") from None
        if self.kind is float and not abs(value) < math.inf:  # NaN too
            raise ValidationFailure(f"{setting} is not finite")
        if not self.rule.test(value):
            raise ValidationFailure(f"{setting} must be {self.rule.text}")
        return value


SCHEMA = (
    Key("paths", "complexes", str, ""),
    Key("paths", "outdir", str, "out"),
    Key("paths", "eval_complexes", str, ""),
    Key("model", "d", int, "64", _WIDTH),
    Key("model", "d_feat", int, "64", _WIDTH),
    Key("model", "window", int, "8", _between(0, 32)),
    Key("model", "n_struct", int, "8", _WIDTH),
    Key("model", "seed", int, "0", _SEED, "--seed"),
    Key("sample", "temperature", float, "1.5", _POSITIVE, "--temperature"),
    Key("sample", "top_p", float, "0.95", _FRACTION, "--top-p"),
    Key("sample", "max_len", int, "256", _between(1, 2048), "--max-len"),
    Key("sample", "n_eval", int, "100", _COUNT),
    Key("sample", "retry_factor", int, "20", _COUNT),
    Key("train_sft", "learning_rate", float, "1e-3", _NON_NEGATIVE),
    Key("train_sft", "batch_size", int, "16", _COUNT),
    Key("train_sft", "steps", int, "500", _NON_NEGATIVE),
    Key("train_sft", "beta_vae", float, "0.1", _NON_NEGATIVE, "--beta-vae"),
    Key("train_sft", "eval_interval", int, "50", _COUNT),
    Key("train_sft", "clip_norm", float, "5.0", _NON_NEGATIVE),
    Key("train_dpo", "learning_rate", float, "1e-4", _NON_NEGATIVE),
    Key("train_dpo", "batch_size", int, "8", _COUNT),
    Key("train_dpo", "epochs", int, "1", _NON_NEGATIVE),
    Key("train_dpo", "beta_dpo", float, "0.1", _NON_NEGATIVE, "--beta-dpo"),
    Key("train_dpo", "beta_vae", float, "0.1", _NON_NEGATIVE, "--beta-vae"),
    Key("train_dpo", "clip_norm", float, "5.0", _NON_NEGATIVE),
    Key("curate", "filter_samples", int, "100", _COUNT),
    Key("curate", "pair_candidates", int, "32", _COUNT),
    Key("curate", "pair_docked", int, "5", _COUNT),
    # not capped at 1: a threshold above any diversity keeps no pocket
    Key("curate", "diversity_threshold", float, "0.8"),
    Key("curate", "lambda", float, "0.5", _NON_NEGATIVE, "--lambda"),
    Key("curate", "flow", str, "online", _FLOW),
    Key("metrics", "top_k", int, "10", _COUNT, "--top-k"),
    Key("metrics", "radius", int, "2", _RADIUS),
    Key("metrics", "nbits", int, "2048", _NBITS),
    Key("dock", "command", str, "", _DOCK_COMMAND),
    Key("dock", "timeout", float, "300", _TIMEOUT),
    Key("dock", "max_parallel", int, "4", _COUNT, "--jobs"),
    Key("dock", "cache_dir", str, ""),
)


class RunConfig:
    """Checked settings. ``values`` holds each key's INI string, which the
    digest hashes and manifests record; ``typed`` holds the parsed values."""

    def __init__(
        self,
        values: dict[str, dict[str, str]],
        typed: dict[str, dict[str, Any]],
        allow_partial: bool = False,
    ):
        self.values = values
        self.typed = typed
        self.allow_partial = allow_partial

    @property
    def outdir(self) -> Path:
        return Path(self.typed["paths"]["outdir"])

    @property
    def seed(self) -> int:
        return self.typed["model"]["seed"]

    def model_config(self) -> ModelConfig:
        from .genmodel import ModelConfig

        settings = dict(self.typed["model"])
        return ModelConfig(n_struct_tokens=settings.pop("n_struct"), **settings)

    def train_config(self, section: str) -> TrainConfig:
        from .training import TrainConfig

        return TrainConfig(seed=self.seed, **self.typed[section])

    def curate_config(self) -> curation.CurateConfig:
        settings = dict(self.typed["curate"])
        return curation.CurateConfig(lam=settings.pop("lambda"), **settings)

    def sampling(self) -> dict:
        """The ``[sample]`` temperature, top-p and length cap."""
        return {k: self.typed["sample"][k] for k in ("temperature", "top_p", "max_len")}

    def digest(self) -> str:
        """Hash of every value that can change a computed result. ``[paths]``
        and ``[dock] cache_dir`` are locations and ``[dock] max_parallel`` is
        concurrency; they are left out, so the same run in another directory
        or with more dock workers embeds the same digest in its checkpoints."""
        values = {k: v for k, v in self.values.items() if k != "paths"}
        values["dock"] = {
            k: v for k, v in values["dock"].items() if k not in ("cache_dir", "max_parallel")
        }
        payload = json.dumps(values, sort_keys=True)
        return sha256(payload.encode()).hexdigest()[:16]


def load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the override flags; every value
    is parsed and range-checked here, before any command runs."""
    values: dict[str, dict[str, str]] = {}
    for key in SCHEMA:
        values.setdefault(key.section, {})[key.name] = key.default
    if args.config:
        config_path = Path(args.config)
        parser = configparser.ConfigParser(interpolation=None)
        try:
            # opened here: ConfigParser.read skips a file it cannot open
            with open(config_path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise MissingArtifact(f"cannot read config file {config_path}: {exc.strerror}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationFailure(f"malformed config file {config_path}: {exc}") from exc
        for section in parser.sections():
            if section not in values:
                raise ValidationFailure(f"unknown config section [{section}]")
            for name, value in parser.items(section):
                if name not in values[section]:
                    raise ValidationFailure(f"unknown config key {name!r} in [{section}]")
                values[section][name] = value
    typed: dict[str, dict[str, Any]] = {section: {} for section in values}
    for key in SCHEMA:
        override = getattr(args, key.flag[2:].replace("-", "_")) if key.flag else None
        if override is not None:
            values[key.section][key.name] = str(override)
        typed[key.section][key.name] = key.parse(values[key.section][key.name])
    return RunConfig(values, typed, allow_partial=args.allow_partial)


class _Record:
    """The running command: its name, its start, and the paths it read and
    wrote, each once and in order (a dict is an ordered set)."""

    def __init__(self, command: str = "", started: float = 0.0):
        self.command = command
        self.started = started
        self.inputs: dict[Path, None] = {}
        self.outputs: dict[Path, None] = {}


_record = _Record()


def _input(path: Path | None, what: str) -> Path:
    """``path``, recorded as read; a missing file exits 3."""
    if path is None or not path.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    _record.inputs[path] = None
    return path


def _output(path: Path) -> Path:
    """``path``, recorded as written, with its directory made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _record.outputs[path] = None
    return path


def _write_text(path: Path, text: str) -> Path:
    with store.atomic_write(_output(path)) as handle:
        handle.write(text)
    return path


def _write_json(path: Path, payload) -> Path:
    return _write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    _write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def write_manifest(cfg: RunConfig, extra: dict | None = None, name: str | None = None) -> None:
    """``<name>.manifest.json``, by default named after the command: the
    hashes of every file the command has read and of each file it has
    written since its previous manifest, which is not listed itself."""
    manifest = {
        "command": _record.command,
        "version": __version__,
        "config_digest": cfg.digest(),
        "config": cfg.values,
        "inputs": {str(p): sha256_file(p) for p in _record.inputs},
        "outputs": {str(p): sha256_file(p) for p in _record.outputs},
        "elapsed_s": round(time.time() - _record.started, 3),
        "created_unix": int(_record.started),
    }
    if extra:
        manifest["extra"] = extra
    _write_json(cfg.outdir / f"{name or _record.command}.manifest.json", manifest)
    _record.outputs.clear()


def _cache_dir(cfg: RunConfig) -> Path:
    """``[dock] cache_dir``, else ``$MOLCHORD_CACHE_DIR``, else ``.molchord_cache``:
    where dock results and the canonical SMILES of record files are kept."""
    return store.resolve_cache_dir(cfg.typed["dock"]["cache_dir"] or None)


def _load(path: Path | None, schema: str, what: str, cache_dir: Path | None = None) -> list:
    """Records of an input file: missing or unreadable exits 3, malformed exits 2."""
    try:
        return scorers.load_records(_input(path, what), schema, cache_dir)
    except ValueError as exc:
        raise ValidationFailure(f"{what} {path}: {exc}") from exc
    except OSError as exc:
        raise MissingArtifact(f"cannot read {what} {path}: {exc.strerror}") from exc


def _load_complexes(cfg: RunConfig, key: str = "complexes") -> list[curation.ComplexRecord]:
    """The ``[paths] complexes`` records, or ``eval_complexes`` falling back to them."""
    raw = cfg.typed["paths"][key] or cfg.typed["paths"]["complexes"]
    return _load(Path(raw) if raw else None, "complexes", f"{key} file", _cache_dir(cfg))


def _load_partition(cfg: RunConfig) -> dict:
    """``partition.json``; unreadable, or without its two lists of pocket ids, exits 3."""
    path = _input(cfg.outdir / "partition.json", "partition artifact")
    try:
        partition = json.loads(path.read_text())
    except (ValueError, OSError, RecursionError) as exc:
        raise MissingArtifact(f"cannot load partition {path}: {exc}") from exc
    if not isinstance(partition, dict) or not all(
        isinstance(partition.get(name), list) and all(isinstance(p, str) for p in partition[name])
        for name in ("sft_pool", "dpo_pool")
    ):
        raise MissingArtifact(f"cannot load partition {path}: no sft_pool and dpo_pool id lists")
    return partition


def _load_checkpoint(path: Path, what: str = "supervised checkpoint") -> ModelParams:
    from .genmodel import load_params

    try:
        params = load_params(_input(path, what))
    except (ValueError, OSError, RecursionError) as exc:
        raise MissingArtifact(f"cannot load checkpoint {path}: {exc}") from exc
    # the checkpoint's model within the caps that its writer's config met
    for key in SCHEMA:
        name = "n_struct_tokens" if key.name == "n_struct" else key.name
        if key.section == "model" and not key.rule.test(getattr(params.config, name)):
            raise MissingArtifact(
                f"cannot load checkpoint {path}: model {key.name} must be {key.rule.text}"
            )
    return params


def _features_for(
    records: Iterable[curation.ComplexRecord], model_cfg: ModelConfig
) -> dict[str, PocketFeatures]:
    return {r.pocket_id: model_cfg.featurize(r.pocket_id, r.pocket_sequence) for r in records}


def _check_vocabulary(vocab: Vocabulary, molecules: Iterable[tuple[str, str]]) -> None:
    """Exit 2 at the first (pocket_id, smiles) the model cannot tokenize."""
    from .genmodel import TokenOutOfVocab

    for pocket_id, smiles in molecules:
        try:
            vocab.encode(smiles)
        except TokenOutOfVocab as exc:
            raise ValidationFailure(
                f"pocket {pocket_id}: ligand {smiles} is outside the model vocabulary ({exc})"
            ) from exc


def _dock_command(cfg: RunConfig) -> scorers.DockCommand:
    dock = cfg.typed["dock"]
    if not dock["command"]:
        raise ValidationFailure("no dock command configured ([dock] command)")
    return scorers.DockCommand(
        template=dock["command"], timeout=dock["timeout"], max_parallel=dock["max_parallel"]
    )


def _dock(
    cfg: RunConfig, command: scorers.DockCommand, requests: list[tuple[str, str]]
) -> scorers.DockRunResult:
    """Dock (pocket_id, smiles) requests; a cache directory that cannot be
    made or written exits 3, and a kernel that cannot run commands exits 4."""
    try:
        return scorers.dock_many(command, requests, cache_dir=_cache_dir(cfg))
    except store.CacheUnavailable as exc:
        raise MissingArtifact(str(exc)) from exc
    except scorers.DockUnsupported as exc:
        raise ExternalCommandFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_partition(cfg: RunConfig, args: argparse.Namespace) -> int:
    """split pockets into supervised/preference pools"""
    records = _load_complexes(cfg)
    partition = curation.partition_dataset(records)
    _write_json(cfg.outdir / "partition.json", {
        "sft_pool": list(partition.sft_pool),
        "dpo_pool": list(partition.dpo_pool),
        "counts": {"sft": len(partition.sft_pool), "dpo": len(partition.dpo_pool)},
    })
    write_manifest(cfg)
    print(f"partition: {len(partition.sft_pool)} supervised, {len(partition.dpo_pool)} preference")
    return EXIT_OK


def cmd_train_sft(cfg: RunConfig, args: argparse.Namespace) -> int:
    """supervised stage"""
    from .genmodel import save_params
    from .training import build_sft_examples, train_sft

    records = _load_complexes(cfg)
    partition = _load_partition(cfg)
    model_cfg = cfg.model_config()
    train_cfg = cfg.train_config("train_sft")
    sft_ids = set(partition["sft_pool"])
    pool = [r for r in records if r.pocket_id in sft_ids]
    if not pool:
        raise ValidationFailure("supervised pool is empty")
    ligands = {r.pocket_id: sorted(set(r.ligand_smiles)) for r in pool}
    vocab = model_cfg.vocabulary()
    _check_vocabulary(vocab, ((pid, s) for pid, smis in ligands.items() for s in smis))
    examples = build_sft_examples(_features_for(pool, model_cfg), ligands, vocab, seed=cfg.seed)
    checkpoint, curve = train_sft(examples, model_cfg, train_cfg)

    save_params(
        _output(cfg.outdir / "sft_checkpoint.json"),
        checkpoint.params,
        extra={
            "stage": "sft",
            "step": checkpoint.step,
            "val_loss": checkpoint.val_loss,
            "config_digest": cfg.digest(),
        },
    )
    _write_jsonl(cfg.outdir / "sft_curve.jsonl", curve)
    write_manifest(cfg, extra={"examples": len(examples), "best_step": checkpoint.step,
                               "best_val_loss": checkpoint.val_loss})
    print(f"train-sft: {len(examples)} examples, best val loss {checkpoint.val_loss:.4f} "
          f"at step {checkpoint.step}")
    return EXIT_OK


def cmd_curate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """diversity filter + preference pair construction"""
    from .genmodel import sample_many

    records = _load_complexes(cfg)
    partition = _load_partition(cfg)
    params = _load_checkpoint(cfg.outdir / "sft_checkpoint.json")
    curate_cfg = cfg.curate_config()
    sampling = cfg.sampling()
    dock_cmd = _dock_command(cfg)

    by_id = {r.pocket_id: r for r in records}
    dpo_ids = [pid for pid in partition["dpo_pool"] if pid in by_id]
    feats = _features_for((by_id[pid] for pid in dpo_ids), params.config)
    vocab = params.config.vocabulary()

    def draw(label: str, pocket_ids: list[str], n: int) -> list[list[str]]:
        """The texts of n draws for each pocket, all stepped together."""
        results = sample_many(params, [feats[p] for p in pocket_ids], vocab, n,
                              base_seed=derive_seed(label, cfg.seed), **sampling)
        return [[r.text for r in draws] for draws in results]

    def scorer(requests: list[tuple[str, str]]):
        result = _dock(cfg, dock_cmd, requests)
        return ([(s.pocket_id, s.smiles, s.vina) for s in result.scores],
                [(f.pocket_id, f.error) for f in result.failures])

    filtered, pairs, pair_log = curation.curate(
        dpo_ids,
        lambda pocket_ids, n: draw("curate-filter", pocket_ids, n),
        lambda pocket_ids, n: draw("curate-pairs", pocket_ids, n),
        scorer,
        curate_cfg,
        radius=cfg.typed["metrics"]["radius"],
        nbits=cfg.typed["metrics"]["nbits"],
    )

    scorers.dump_records(_output(cfg.outdir / "pairs.jsonl"), pairs)
    audit_path = _write_json(cfg.outdir / "d_dpo.json", {
        "selected": list(filtered.selected),
        "audit": [row._asdict() for row in filtered.audit],
        "pairs": pair_log,
    })
    write_manifest(cfg, extra={"selected": len(filtered.selected), "pairs": len(pairs)})
    print(f"curate: kept {len(filtered.selected)}/{len(dpo_ids)} pockets, built {len(pairs)} pairs")
    if not pairs:
        if any(row["status"].startswith("dock failure") for row in pair_log):
            raise ExternalCommandFailure("no preference pairs could be built (dock failures)")
        raise ValidationFailure(f"no preference pairs could be built (see {audit_path})")
    return EXIT_OK


def cmd_train_dpo(cfg: RunConfig, args: argparse.Namespace) -> int:
    """preference stage"""
    from .genmodel import save_params
    from .training import build_dpo_examples, train_dpo

    records = _load_complexes(cfg)
    pairs = _load(cfg.outdir / "pairs.jsonl", "pairs", "preference pairs", _cache_dir(cfg))
    params = _load_checkpoint(cfg.outdir / "sft_checkpoint.json")
    if not pairs:
        raise ValidationFailure("pairs file is empty")
    train_cfg = cfg.train_config("train_dpo")

    by_id = {r.pocket_id: r for r in records}
    missing = [p.pocket_id for p in pairs if p.pocket_id not in by_id]
    if missing:
        raise ValidationFailure(f"pairs reference unknown pockets: {missing[:5]}")
    vocab = params.config.vocabulary()
    _check_vocabulary(vocab, ((p.pocket_id, s) for p in pairs for s in (p.chosen, p.rejected)))
    feats = _features_for((by_id[p.pocket_id] for p in pairs), params.config)
    examples = build_dpo_examples(pairs, feats, params, vocab, seed=cfg.seed)
    checkpoint, curve = train_dpo(examples, params, train_cfg)

    save_params(
        _output(cfg.outdir / "dpo_checkpoint.json"),
        checkpoint.params,
        extra={"stage": "dpo", "step": checkpoint.step, "config_digest": cfg.digest()},
    )
    _write_jsonl(cfg.outdir / "dpo_curve.jsonl", curve)
    write_manifest(cfg, extra={"pairs": len(pairs)})
    mean_margin = sum(row["margin"] for row in curve) / len(curve) if curve else 0.0
    print(f"train-dpo: {len(pairs)} pairs, {checkpoint.step} steps, mean margin {mean_margin:.4f}")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args: argparse.Namespace) -> int:
    """generate unique molecules per pocket"""
    from .genmodel import sample_unique

    if args.checkpoint:
        params = _load_checkpoint(Path(args.checkpoint), "checkpoint")
    else:
        dpo = cfg.outdir / "dpo_checkpoint.json"
        params = _load_checkpoint(
            dpo if dpo.exists() else cfg.outdir / "sft_checkpoint.json",
            "checkpoint (run train-sft or pass --checkpoint)",
        )
    sampling = dict(cfg.typed["sample"])  # with retry_factor, which sample_unique takes too
    n_eval = sampling.pop("n_eval")
    records = _load_complexes(cfg, "eval_complexes")
    feats = _features_for(records, params.config)

    base_seed = derive_seed("sample-cmd", cfg.seed)
    flagged: list[str] = []
    rows: list[scorers.GenerationRecord] = []
    ordered = sorted(records, key=lambda r: r.pocket_id)
    drawn = sample_unique(params, [feats[r.pocket_id] for r in ordered], n_eval, base_seed,
                          **sampling)
    for record, (molecules, capped) in zip(ordered, drawn):
        if capped:
            flagged.append(record.pocket_id)
            warnings.warn(
                f"pocket {record.pocket_id}: only {len(molecules)}/{n_eval} unique "
                "valid molecules within the retry cap"
            )
        rows += (scorers.GenerationRecord(pocket_id=record.pocket_id, smiles=smiles,
                                          logprob=logprob) for smiles, logprob in molecules)

    scorers.dump_records(_output(cfg.outdir / "generations.jsonl"), rows)
    write_manifest(cfg, extra={"n_eval": n_eval, "flagged_pockets": flagged})
    print(f"sample: wrote {len(rows)} molecules for {len(records)} pockets "
          f"({len(flagged)} flagged)")
    return EXIT_OK


def cmd_dock(cfg: RunConfig, args: argparse.Namespace) -> int:
    """score generations with the external dock command"""
    cache = _cache_dir(cfg)
    generations = _load(cfg.outdir / "generations.jsonl", "generations", "generations", cache)
    result = _dock(cfg, _dock_command(cfg), [(g.pocket_id, g.smiles) for g in generations])

    scorers.dump_records(_output(cfg.outdir / "scores.jsonl"), result.scores)
    write_manifest(cfg, extra={
        "scored": len(result.scores),
        "failures": [f._asdict() for f in result.failures],
    })
    print(f"dock: scored {len(result.scores)}, {len(result.failures)} failures")
    if result.failures and not cfg.allow_partial:
        raise ExternalCommandFailure(
            f"{len(result.failures)} docking failures (rerun with --allow-partial to accept)"
        )
    return EXIT_OK


def _assemble_pockets(cfg: RunConfig) -> list[metrics.PocketEval]:
    records = _load_complexes(cfg, "eval_complexes")
    cache = _cache_dir(cfg)
    generations = _load(cfg.outdir / "generations.jsonl", "generations", "generations", cache)
    scores = _load(cfg.outdir / "scores.jsonl", "scores", "scores", cache)

    pockets, missing = metrics.join_scores(records, generations, scores)
    if missing:
        report_path = _write_json(cfg.outdir / "coverage_report.json", {
            "missing": [{"pocket_id": g.pocket_id, "smiles": g.smiles} for g in missing],
            "covered": len(generations) - len(missing),
        })
        if not cfg.allow_partial:
            raise ValidationFailure(
                f"{len(missing)} generations lack scores "
                f"(see {report_path}; use --allow-partial to evaluate anyway)"
            )
    if not pockets:
        raise ValidationFailure("no pockets with scored generations")
    return pockets


# report.txt's metric columns after pocket and n: (header, field of a
# PocketRow and of the MetricReport aggregate)
_REPORT_COLUMNS = (
    ("vina", "mean_vina"),
    ("high_aff", "high_affinity"),
    ("qed", "mean_qed"),
    ("sa", "mean_sa"),
    ("divers", "diversity"),
    ("success", "success_rate"),
    ("fused", "fused_ring_mean"),
)


def _fmt_columns(row) -> str:
    values = (getattr(row, field) for _, field in _REPORT_COLUMNS)
    return "".join("-".rjust(9) if v is None else f"{v:.3f}".rjust(9) for v in values)


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """metric report over scored generations"""
    pockets = _assemble_pockets(cfg)
    report = metrics.evaluate(
        pockets, radius=cfg.typed["metrics"]["radius"], nbits=cfg.typed["metrics"]["nbits"]
    )

    rows = [{"kind": "pocket", **row._asdict()} for row in report.per_pocket]
    aggregate = {"kind": "aggregate", **report._asdict()}
    del aggregate["per_pocket"]
    aggregate["ood"] = None if report.ood is None else report.ood._asdict()  # a JSON object
    _write_jsonl(cfg.outdir / "report.jsonl", [*rows, aggregate])

    lines = [f"{'pocket':<14}{'n':>5}" + "".join(f"{h:>9}" for h, _ in _REPORT_COLUMNS)]
    lines += [f"{r.pocket_id:<14}{r.n:>5}{_fmt_columns(r)}" for r in report.per_pocket]
    n = sum(r.n for r in report.per_pocket)
    lines.append(f"{'AGGREGATE':<14}{n:>5}{_fmt_columns(report)}")
    _write_text(cfg.outdir / "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    write_manifest(cfg)
    return EXIT_OK


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    """fused-ring / homology sub-reports"""
    if not (args.fused or args.ood):
        raise ValidationFailure("report: pass --fused and/or --ood")
    pockets = _assemble_pockets(cfg)
    if args.fused:
        top_k = cfg.typed["metrics"]["top_k"]
        eligible = pockets
        skipped: list[str] = []
        if cfg.allow_partial:
            eligible = [p for p in pockets if len(p.generations) >= top_k]
            skipped = [p.pocket_id for p in pockets if len(p.generations) < top_k]
            if not eligible:
                raise ValidationFailure(f"no pocket has {top_k} scored generations")
        try:
            summary = metrics.fused_ring_report(eligible, top_k=top_k)
        except metrics.TooFewGenerations as exc:
            raise ValidationFailure(str(exc)) from exc
        _write_json(cfg.outdir / "fused_report.json", {
            "top_k": top_k,
            "mean": summary.mean,
            "histogram": {str(k): v for k, v in summary.histogram.items()},
            "n_compounds": summary.n_compounds,
            "skipped_pockets": skipped,
        })
        write_manifest(cfg, name="report-fused")
        print(f"fused rings (top {top_k} per pocket): mean {summary.mean:.3f} "
              f"over {summary.n_compounds} compounds")
        for count, freq in summary.histogram.items():
            print(f"  {count:>3} fused: {freq}")
    if args.ood:
        try:
            ood = metrics.ood_report(pockets)
        except (metrics.UnlabeledPocket, metrics.EmptyGroup) as exc:
            raise ValidationFailure(str(exc)) from exc
        _write_json(cfg.outdir / "ood_report.json", ood._asdict())
        write_manifest(cfg, name="report-ood")
        print(
            f"ood: homologous {ood.homologous_mean:.3f}, "
            f"non-homologous {ood.non_homologous_mean:.3f}, delta {ood.delta:+.3f}"
        )
    return EXIT_OK


def _read_manifest(path: Path) -> tuple[str, list[tuple[str, Path, str]]] | None:
    """A manifest's command and its (role, file, sha256) entries; None when
    the file is not JSON in the shape ``write_manifest`` writes."""
    try:
        manifest = json.loads(path.read_text())
    except (ValueError, OSError, RecursionError):
        return None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("command"), str):
        return None
    entries = []
    for role in ("inputs", "outputs"):
        files = manifest.get(role, {})
        if not isinstance(files, dict) or not all(isinstance(h, str) for h in files.values()):
            return None
        entries += [(role[:-1], Path(name), digest) for name, digest in files.items()]
    return manifest["command"], entries


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    """check manifests against files on disk"""
    manifests = sorted(cfg.outdir.glob("*.manifest.json"))
    if not manifests:
        raise MissingArtifact(f"no manifests under {cfg.outdir}")
    bad = 0
    for manifest_path in manifests:
        read = _read_manifest(manifest_path)
        if read is None:
            print(f"BROKEN   {manifest_path}")
            bad += 1
            continue
        command, entries = read
        for role, path, expected in entries:
            if not path.is_file():  # a directory or an impossible name too
                print(f"MISSING  {command:<12} {role:<7} {path}")
                bad += 1
                continue
            try:
                status = "ok" if sha256_file(path) == expected else "CHANGED"
            except OSError:
                status = "UNREADABLE"
            if status != "ok":
                bad += 1
            print(f"{status:<8} {command:<12} {role:<7} {path}")
    if bad:
        raise ValidationFailure(f"{bad} artifacts or manifests failed the check")
    print(f"verify: {len(manifests)} manifests consistent")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "partition": cmd_partition,
    "train-sft": cmd_train_sft,
    "curate": cmd_curate,
    "train-dpo": cmd_train_dpo,
    "sample": cmd_sample,
    "dock": cmd_dock,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molchord", description="pocket-conditioned molecule generation pipeline"
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument(
        "--allow-partial", action="store_true", help="continue despite missing scores/failures"
    )
    for flag, kind in {key.flag: key.kind for key in SCHEMA if key.flag}.items():
        targets = ", ".join(f"[{k.section}] {k.name}" for k in SCHEMA if k.flag == flag)
        parser.add_argument(flag, type=kind, help=f"override {targets}")

    sub = parser.add_subparsers(dest="command", required=True)
    # each command's help is its function's docstring
    commands = {name: sub.add_parser(name, help=run.__doc__) for name, run in _COMMANDS.items()}
    commands["sample"].add_argument("--checkpoint",
                                    help="checkpoint path (default: best available)")
    commands["report"].add_argument("--fused", action="store_true")
    commands["report"].add_argument("--ood", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    global _record
    # ``numpy.random`` imports ``secrets``, whose ``hmac`` imports OpenSSL's
    # ``_hashlib``: about 3.3 MB of libcrypto in each model stage, which uses
    # only ``secrets.randbits`` and ``hashutil``'s built-in hashes. Blocked
    # before anything imports it, ``hashlib`` and ``hmac`` take CPython's
    # built-in fallback, as on an interpreter built without OpenSSL; a
    # process that has already loaded it keeps it.
    sys.modules.setdefault("_hashlib", None)
    args = build_parser().parse_args(argv)
    _record = _Record(args.command, time.time())
    try:
        cfg = load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
