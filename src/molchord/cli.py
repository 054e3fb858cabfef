"""Command-line pipeline.

Subcommands cover the whole flow: partition, train-sft, curate, train-dpo,
sample, dock, evaluate, report, verify. Settings come from an INI config file
overridden by flags (flag wins); every command writes its artifacts plus a
manifest with input/output hashes so `verify` can walk the chain. All
commands are deterministic given (config, seed): reruns produce byte-identical
primary artifacts.

Exit codes: 0 ok, 2 validation/coverage failure, 3 missing upstream artifact,
4 external command failure, 1 internal error.

Only the four model commands (train-sft, curate, train-dpo, sample) need the
generator and numpy; they import them when they run, so the other commands
start without numpy.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, curation, metrics, scorers
from .hashutil import derive_seed
from .molgraph import try_canonicalize

if TYPE_CHECKING:
    from .genmodel import ModelConfig, ModelParams, PocketFeatures

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


_DEFAULTS: dict[str, dict[str, str]] = {
    "paths": {"complexes": "", "outdir": "out", "eval_complexes": "", "pocket_file_pattern": ""},
    "model": {"d": "64", "d_feat": "64", "window": "8", "n_struct": "8", "seed": "0"},
    "sample": {
        "temperature": "1.5",
        "top_p": "0.95",
        "max_len": "256",
        "n_eval": "100",
        "retry_factor": "20",
    },
    "train_sft": {
        "learning_rate": "1e-3",
        "batch_size": "16",
        "steps": "500",
        "beta_vae": "0.1",
        "eval_interval": "50",
        "clip_norm": "5.0",
    },
    "train_dpo": {
        "learning_rate": "1e-4",
        "batch_size": "8",
        "epochs": "1",
        "beta_dpo": "0.1",
        "beta_vae": "0.1",
        "clip_norm": "5.0",
    },
    "curate": {
        "filter_samples": "100",
        "pair_candidates": "32",
        "pair_docked": "5",
        "diversity_threshold": "0.8",
        "lambda": "0.5",
        "flow": "online",
    },
    "metrics": {"top_k": "10", "radius": "2", "nbits": "2048"},
    "dock": {"command": "", "timeout": "300", "max_parallel": "4", "cache_dir": ""},
}

_FLAG_TARGETS = {
    "seed": ("model", "seed"),
    "top_k": ("metrics", "top_k"),
    "temperature": ("sample", "temperature"),
    "top_p": ("sample", "top_p"),
    "max_len": ("sample", "max_len"),
    "beta_dpo": ("train_dpo", "beta_dpo"),
    "beta_vae": ("train_dpo", "beta_vae"),
    "lambda_fused": ("curate", "lambda"),
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, str]]
    jobs: int = 1
    allow_partial: bool = False

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_int(self, section: str, key: str) -> int:
        return int(self.values[section][key])

    def get_float(self, section: str, key: str) -> float:
        return float(self.values[section][key])

    def path(self, section: str, key: str) -> Path | None:
        raw = self.values[section][key]
        return Path(raw) if raw else None

    @property
    def outdir(self) -> Path:
        return Path(self.values["paths"]["outdir"])

    @property
    def seed(self) -> int:
        return self.get_int("model", "seed")

    def model_config(self) -> ModelConfig:
        from .genmodel import ModelConfig

        return ModelConfig(
            d=self.get_int("model", "d"),
            d_feat=self.get_int("model", "d_feat"),
            window=self.get_int("model", "window"),
            n_struct_tokens=self.get_int("model", "n_struct"),
            seed=self.seed,
        )

    def digest(self) -> str:
        """Hash of every value that can change a computed result. ``[paths]``
        and ``[dock] cache_dir`` are locations and are left out, so the same
        run in another directory embeds the same digest in its checkpoints."""
        values = {k: v for k, v in self.values.items() if k != "paths"}
        values["dock"] = {k: v for k, v in values["dock"].items() if k != "cache_dir"}
        payload = json.dumps(values, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_config(args: argparse.Namespace) -> RunConfig:
    values = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    if args.config:
        config_path = Path(args.config)
        if not config_path.exists():
            raise MissingArtifact(f"config file not found: {config_path}")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config_path)
        for section in parser.sections():
            if section not in values:
                raise ValidationFailure(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in values[section]:
                    raise ValidationFailure(f"unknown config key {key!r} in [{section}]")
                values[section][key] = value
    for flag, (section, key) in _FLAG_TARGETS.items():
        value = getattr(args, flag, None)
        if value is not None:
            values[section][key] = str(value)
    if getattr(args, "beta_vae", None) is not None:
        values["train_sft"]["beta_vae"] = str(args.beta_vae)
    cfg = RunConfig(values=values)
    cfg.jobs = args.jobs
    cfg.allow_partial = args.allow_partial
    return cfg


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    cfg: RunConfig,
    command: str,
    inputs: list[Path],
    outputs: list[Path],
    started: float,
    extra: dict | None = None,
) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "config_digest": cfg.digest(),
        "config": cfg.values,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(p): _sha256_file(p) for p in outputs},
        "elapsed_s": round(time.time() - started, 3),
        "created_unix": int(started),
    }
    if extra:
        manifest["extra"] = extra
    path = cfg.outdir / f"{command}.manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def _require_file(path: Path | None, what: str) -> Path:
    if path is None or not path.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    return path


def _load_complexes(cfg: RunConfig, key: str = "complexes") -> list[curation.ComplexRecord]:
    raw = cfg.values["paths"][key] or cfg.values["paths"]["complexes"]
    path = _require_file(Path(raw) if raw else None, f"{key} file")
    try:
        return scorers.load_records(path, "complexes")
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def _features_for(
    records: list[curation.ComplexRecord], model_cfg: ModelConfig
) -> dict[str, PocketFeatures]:
    from .genmodel import featurize_pocket

    return {
        r.pocket_id: featurize_pocket(
            r.pocket_id,
            model_cfg.d_feat,
            model_cfg.seed,
            pocket_sequence=r.pocket_sequence,
            n_struct_tokens=model_cfg.n_struct_tokens,
        )
        for r in records
    }


def _load_checkpoint(path: Path) -> tuple[ModelParams, dict]:
    from .genmodel import load_params

    try:
        return load_params(path)
    except (ValueError, OSError) as exc:
        raise MissingArtifact(f"cannot load checkpoint {path}: {exc}") from exc


def _dock_command(cfg: RunConfig) -> scorers.DockCommand:
    template = cfg.get("dock", "command").strip()
    if not template:
        raise ValidationFailure("no dock command configured ([dock] command)")
    return scorers.DockCommand(
        template=template,
        timeout=cfg.get_float("dock", "timeout"),
        max_parallel=cfg.get_int("dock", "max_parallel"),
    )


def _dock_cache_dir(cfg: RunConfig) -> Path | None:
    raw = cfg.get("dock", "cache_dir").strip()
    return Path(raw) if raw else None


def _pocket_file(cfg: RunConfig, pocket_id: str) -> str | None:
    pattern = cfg.values["paths"]["pocket_file_pattern"].strip()
    return pattern.format(pocket_id=pocket_id) if pattern else None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_partition(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    records = _load_complexes(cfg)
    try:
        partition = curation.partition_dataset(records)
    except curation.DuplicatePocketId as exc:
        raise ValidationFailure(f"duplicate pocket_id: {exc}") from exc
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.outdir / "partition.json"
    payload = {
        "sft_pool": list(partition.sft_pool),
        "dpo_pool": list(partition.dpo_pool),
        "counts": {"sft": len(partition.sft_pool), "dpo": len(partition.dpo_pool)},
    }
    out_path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    complexes_path = Path(cfg.values["paths"]["complexes"])
    write_manifest(cfg, "partition", [complexes_path], [out_path], started)
    print(f"partition: {len(partition.sft_pool)} supervised, {len(partition.dpo_pool)} preference")
    return EXIT_OK


def _load_partition(cfg: RunConfig) -> dict:
    path = _require_file(cfg.outdir / "partition.json", "partition artifact")
    return json.loads(path.read_text())


def cmd_train_sft(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .genmodel import save_params
    from .training import TrainConfig, build_sft_examples, train_sft

    started = time.time()
    records = _load_complexes(cfg)
    partition = _load_partition(cfg)
    model_cfg = cfg.model_config()
    vocab = model_cfg.vocabulary()
    sft_ids = set(partition["sft_pool"])
    pool = [r for r in records if r.pocket_id in sft_ids]
    if not pool:
        raise ValidationFailure("supervised pool is empty")
    feats = _features_for(pool, model_cfg)
    ligands = {r.pocket_id: sorted(set(r.ligand_smiles)) for r in pool}
    examples = build_sft_examples(feats, ligands, vocab, seed=cfg.seed)

    train_cfg = TrainConfig(
        learning_rate=cfg.get_float("train_sft", "learning_rate"),
        batch_size=cfg.get_int("train_sft", "batch_size"),
        steps=cfg.get_int("train_sft", "steps"),
        beta_vae=cfg.get_float("train_sft", "beta_vae"),
        eval_interval=cfg.get_int("train_sft", "eval_interval"),
        clip_norm=cfg.get_float("train_sft", "clip_norm") or None,
        seed=cfg.seed,
    )
    checkpoint, curve = train_sft(examples, model_cfg, train_cfg)

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    ckpt_path = cfg.outdir / "sft_checkpoint.json"
    save_params(
        ckpt_path,
        checkpoint.params,
        extra={
            "stage": "sft",
            "step": checkpoint.step,
            "val_loss": checkpoint.val_loss,
            "config_digest": cfg.digest(),
        },
    )
    curve_path = cfg.outdir / "sft_curve.jsonl"
    with open(curve_path, "w") as handle:
        for row in curve:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    write_manifest(
        cfg,
        "train-sft",
        [Path(cfg.values["paths"]["complexes"]), cfg.outdir / "partition.json"],
        [ckpt_path, curve_path],
        started,
        extra={"examples": len(examples), "best_step": checkpoint.step,
               "best_val_loss": checkpoint.val_loss},
    )
    print(f"train-sft: {len(examples)} examples, best val loss {checkpoint.val_loss:.4f} "
          f"at step {checkpoint.step}")
    return EXIT_OK


def _sample_pocket_unique(
    params: ModelParams,
    feats: PocketFeatures,
    vocab,
    n_wanted: int,
    base_seed: int,
    temperature: float,
    top_p: float,
    max_len: int,
    retry_factor: int,
) -> tuple[list[tuple[str, float]], bool]:
    """Collect unique valid canonical molecules, resampling up to the retry cap.

    Returns (list of (canonical, logprob of first producing sample), capped?).
    """
    from .genmodel import sample_many

    collected: dict[str, float] = {}
    index = 0
    budget = n_wanted * retry_factor
    while len(collected) < n_wanted and index < budget:
        chunk = min(max(n_wanted - len(collected), 8), budget - index)
        results = sample_many(
            params,
            feats,
            vocab,
            chunk,
            base_seed=base_seed,
            temperature=temperature,
            top_p=top_p,
            max_len=max_len,
            start_index=index,
        )
        index += chunk
        for res in results:
            if len(collected) >= n_wanted:
                break
            canon = try_canonicalize(res.text)
            if canon is not None and canon not in collected:
                collected[canon] = res.logprob
    return list(collected.items()), len(collected) < n_wanted


def cmd_curate(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .genmodel import sample_many

    started = time.time()
    records = _load_complexes(cfg)
    partition = _load_partition(cfg)
    ckpt_path = _require_file(cfg.outdir / "sft_checkpoint.json", "supervised checkpoint")
    params, _ = _load_checkpoint(ckpt_path)
    vocab = params.config.vocabulary()

    by_id = {r.pocket_id: r for r in records}
    dpo_ids = [pid for pid in partition["dpo_pool"] if pid in by_id]
    feats = _features_for([by_id[pid] for pid in dpo_ids], params.config)

    temperature = cfg.get_float("sample", "temperature")
    top_p = cfg.get_float("sample", "top_p")
    max_len = cfg.get_int("sample", "max_len")
    filter_samples = cfg.get_int("curate", "filter_samples")
    flow = cfg.get("curate", "flow")
    if flow not in ("online", "offline"):
        raise ValidationFailure(f"unknown curate flow {flow!r}")
    dock_cmd = _dock_command(cfg)
    cache_dir = _dock_cache_dir(cfg)

    def sampler_for(label: str):
        base_seed = derive_seed(label, cfg.seed)

        def sampler(pocket_id: str, n: int) -> list[str]:
            results = sample_many(
                params,
                feats[pocket_id],
                vocab,
                n,
                base_seed=base_seed,
                temperature=temperature,
                top_p=top_p,
                max_len=max_len,
            )
            return [r.text for r in results]

        return sampler

    def scorer(pocket_id: str, smiles: list[str]):
        ligands = by_id[pocket_id].ligand_smiles
        center = ligands[0] if ligands else None
        requests = [(pocket_id, s, _pocket_file(cfg, pocket_id), center) for s in smiles]
        result = scorers.dock_many(dock_cmd, requests, jobs=cfg.jobs, cache_dir=cache_dir)
        return [(s.smiles, s.vina) for s in result.scores], [f.error for f in result.failures]

    result = curation.curate_dpo_set(
        dpo_ids,
        sampler_for("curate-filter"),
        n_samples=filter_samples,
        threshold=cfg.get_float("curate", "diversity_threshold"),
        radius=cfg.get_int("metrics", "radius"),
        nbits=cfg.get_int("metrics", "nbits"),
    )
    online = flow == "online"
    n_candidates = cfg.get_int("curate", "pair_candidates") if online else filter_samples
    pairs, pair_log = curation.build_pair_set(
        result.selected,
        sampler_for("curate-pairs"),
        scorer,
        n_candidates=n_candidates,
        n_scored=cfg.get_int("curate", "pair_docked") if online else n_candidates,
        lam=cfg.get_float("curate", "lambda"),
    )

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    pairs_path = cfg.outdir / "pairs.jsonl"
    scorers.dump_records(pairs_path, pairs)
    audit_path = cfg.outdir / "d_dpo.json"
    audit_payload = {
        "selected": list(result.selected),
        "audit": [asdict(row) for row in result.audit],
        "pairs": pair_log,
    }
    audit_path.write_text(json.dumps(audit_payload, sort_keys=True, indent=1) + "\n")
    write_manifest(
        cfg,
        "curate",
        [Path(cfg.values["paths"]["complexes"]), cfg.outdir / "partition.json", ckpt_path],
        [pairs_path, audit_path],
        started,
        extra={"selected": len(result.selected), "pairs": len(pairs)},
    )
    print(f"curate: kept {len(result.selected)}/{len(dpo_ids)} pockets, built {len(pairs)} pairs")
    if not pairs:
        raise ExternalCommandFailure("no preference pairs could be built")
    return EXIT_OK


def cmd_train_dpo(cfg: RunConfig, args: argparse.Namespace) -> int:
    import numpy as np

    from .genmodel import save_params
    from .training import Checkpoint, TrainConfig, build_dpo_examples, train_dpo

    started = time.time()
    records = _load_complexes(cfg)
    pairs_path = _require_file(cfg.outdir / "pairs.jsonl", "preference pairs")
    ckpt_path = _require_file(cfg.outdir / "sft_checkpoint.json", "supervised checkpoint")
    try:
        pairs = scorers.load_records(pairs_path, "pairs")
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    if not pairs:
        raise ValidationFailure("pairs file is empty")
    params, extra = _load_checkpoint(ckpt_path)
    vocab = params.config.vocabulary()

    by_id = {r.pocket_id: r for r in records}
    missing = [p.pocket_id for p in pairs if p.pocket_id not in by_id]
    if missing:
        raise ValidationFailure(f"pairs reference unknown pockets: {missing[:5]}")
    feats = _features_for([by_id[p.pocket_id] for p in pairs], params.config)

    sft_checkpoint = Checkpoint(
        params=params,
        step=int(extra.get("step", 0)),
        val_loss=float(extra.get("val_loss", 0.0)),
        stage="sft",
        config_digest=str(extra.get("config_digest", "")),
    )
    examples = build_dpo_examples(pairs, feats, params, vocab, seed=cfg.seed)
    train_cfg = TrainConfig(
        learning_rate=cfg.get_float("train_dpo", "learning_rate"),
        batch_size=cfg.get_int("train_dpo", "batch_size"),
        epochs=cfg.get_int("train_dpo", "epochs"),
        beta_dpo=cfg.get_float("train_dpo", "beta_dpo"),
        beta_vae=cfg.get_float("train_dpo", "beta_vae"),
        clip_norm=cfg.get_float("train_dpo", "clip_norm") or None,
        seed=cfg.seed,
    )
    checkpoint, curve = train_dpo(examples, sft_checkpoint, train_cfg)

    ckpt_out = cfg.outdir / "dpo_checkpoint.json"
    save_params(
        ckpt_out,
        checkpoint.params,
        extra={"stage": "dpo", "step": checkpoint.step, "config_digest": cfg.digest()},
    )
    curve_path = cfg.outdir / "dpo_curve.jsonl"
    with open(curve_path, "w") as handle:
        for row in curve:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    write_manifest(
        cfg,
        "train-dpo",
        [pairs_path, ckpt_path, Path(cfg.values["paths"]["complexes"])],
        [ckpt_out, curve_path],
        started,
        extra={"pairs": len(pairs)},
    )
    mean_margin = float(np.mean([row["margin"] for row in curve])) if curve else 0.0
    print(f"train-dpo: {len(pairs)} pairs, {checkpoint.step} steps, mean margin {mean_margin:.4f}")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    if args.checkpoint:
        ckpt_path = _require_file(Path(args.checkpoint), "checkpoint")
    else:
        dpo = cfg.outdir / "dpo_checkpoint.json"
        sft = cfg.outdir / "sft_checkpoint.json"
        ckpt_path = dpo if dpo.exists() else sft
        ckpt_path = _require_file(ckpt_path, "checkpoint (run train-sft or pass --checkpoint)")
    params, _ = _load_checkpoint(ckpt_path)
    vocab = params.config.vocabulary()
    records = _load_complexes(cfg, "eval_complexes")
    feats = _features_for(records, params.config)

    n_eval = cfg.get_int("sample", "n_eval")
    flagged: list[str] = []
    rows: list[scorers.GenerationRecord] = []
    for record in sorted(records, key=lambda r: r.pocket_id):
        molecules, capped = _sample_pocket_unique(
            params,
            feats[record.pocket_id],
            vocab,
            n_eval,
            base_seed=derive_seed("sample-cmd", cfg.seed),
            temperature=cfg.get_float("sample", "temperature"),
            top_p=cfg.get_float("sample", "top_p"),
            max_len=cfg.get_int("sample", "max_len"),
            retry_factor=cfg.get_int("sample", "retry_factor"),
        )
        if capped:
            flagged.append(record.pocket_id)
            warnings.warn(
                f"pocket {record.pocket_id}: only {len(molecules)}/{n_eval} unique "
                "valid molecules within the retry cap"
            )
        for smiles, logprob in molecules:
            rows.append(
                scorers.GenerationRecord(
                    pocket_id=record.pocket_id, smiles=smiles, logprob=logprob
                )
            )

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.outdir / "generations.jsonl"
    scorers.dump_records(out_path, rows)
    eval_path = cfg.values["paths"]["eval_complexes"] or cfg.values["paths"]["complexes"]
    write_manifest(
        cfg,
        "sample",
        [Path(eval_path), ckpt_path],
        [out_path],
        started,
        extra={"n_eval": n_eval, "flagged_pockets": flagged},
    )
    print(f"sample: wrote {len(rows)} molecules for {len(records)} pockets "
          f"({len(flagged)} flagged)")
    return EXIT_OK


def cmd_dock(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    gen_path = _require_file(cfg.outdir / "generations.jsonl", "generations")
    records = _load_complexes(cfg, "eval_complexes")
    try:
        generations = scorers.load_records(gen_path, "generations")
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    by_id = {r.pocket_id: r for r in records}
    dock_cmd = _dock_command(cfg)
    requests = []
    for gen in generations:
        record = by_id.get(gen.pocket_id)
        center = record.ligand_smiles[0] if record and record.ligand_smiles else None
        requests.append((gen.pocket_id, gen.smiles, _pocket_file(cfg, gen.pocket_id), center))
    result = scorers.dock_many(
        dock_cmd, requests, jobs=cfg.jobs, cache_dir=_dock_cache_dir(cfg)
    )

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.outdir / "scores.jsonl"
    scorers.dump_records(out_path, result.scores)
    eval_path = cfg.values["paths"]["eval_complexes"] or cfg.values["paths"]["complexes"]
    write_manifest(
        cfg,
        "dock",
        [gen_path, Path(eval_path)],
        [out_path],
        started,
        extra={
            "scored": len(result.scores),
            "failures": [asdict(f) for f in result.failures],
        },
    )
    print(f"dock: scored {len(result.scores)}, {len(result.failures)} failures")
    if result.failures and not cfg.allow_partial:
        raise ExternalCommandFailure(
            f"{len(result.failures)} docking failures (rerun with --allow-partial to accept)"
        )
    return EXIT_OK


def _assemble_pockets(cfg: RunConfig) -> list[metrics.PocketEval]:
    records = _load_complexes(cfg, "eval_complexes")
    gen_path = _require_file(cfg.outdir / "generations.jsonl", "generations")
    scores_path = _require_file(cfg.outdir / "scores.jsonl", "scores")
    try:
        generations = scorers.load_records(gen_path, "generations")
        scores = scorers.load_records(scores_path, "scores")
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc

    coverage = scorers.coverage_check(generations, scores)
    if coverage.missing:
        report_path = cfg.outdir / "coverage_report.json"
        report_path.write_text(
            json.dumps(
                {
                    "missing": [
                        {"pocket_id": g.pocket_id, "smiles": g.smiles}
                        for g in coverage.missing
                    ],
                    "covered": len(coverage.covered),
                },
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )
        if not cfg.allow_partial:
            raise ValidationFailure(
                f"{len(coverage.missing)} generations lack scores "
                f"(see {report_path}; use --allow-partial to evaluate anyway)"
            )

    score_map = {(s.pocket_id, s.smiles): s for s in scores}
    by_pocket: dict[str, list[metrics.Generation]] = {}
    for gen in coverage.covered:
        score = score_map[(gen.pocket_id, gen.smiles)]
        by_pocket.setdefault(gen.pocket_id, []).append(
            metrics.Generation(
                smiles=gen.smiles, vina=score.vina, qed=score.qed, sa_origin=score.sa_origin
            )
        )
    pockets = []
    for record in sorted(records, key=lambda r: r.pocket_id):
        gens = by_pocket.get(record.pocket_id)
        if not gens:
            continue
        pockets.append(
            metrics.PocketEval(
                pocket_id=record.pocket_id,
                generations=tuple(gens),
                reference_vina=record.reference_vina,
                homology=record.homology or metrics.UNKNOWN,
            )
        )
    if not pockets:
        raise ValidationFailure("no pockets with scored generations")
    return pockets


def _fmt(value, width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    pockets = _assemble_pockets(cfg)
    report = metrics.evaluate(
        pockets, radius=cfg.get_int("metrics", "radius"), nbits=cfg.get_int("metrics", "nbits")
    )

    report_path = cfg.outdir / "report.jsonl"
    with open(report_path, "w") as handle:
        for row in report.per_pocket:
            handle.write(json.dumps({"kind": "pocket", **asdict(row)}, sort_keys=True) + "\n")
        aggregate = {"kind": "aggregate", **asdict(report)}
        del aggregate["per_pocket"]
        handle.write(json.dumps(aggregate, sort_keys=True) + "\n")

    lines = [
        f"{'pocket':<14}{'n':>5}{'vina':>9}{'high_aff':>9}{'qed':>9}"
        f"{'sa':>9}{'divers':>9}{'success':>9}{'fused':>9}"
    ]
    for row in report.per_pocket:
        lines.append(
            f"{row.pocket_id:<14}{row.n:>5}{_fmt(row.mean_vina)}{_fmt(row.high_affinity)}"
            f"{_fmt(row.mean_qed)}{_fmt(row.mean_sa)}{_fmt(row.diversity)}"
            f"{_fmt(row.success_rate)}{_fmt(row.fused_ring_mean)}"
        )
    lines.append(
        f"{'AGGREGATE':<14}{sum(r.n for r in report.per_pocket):>5}{_fmt(report.mean_vina)}"
        f"{_fmt(report.high_affinity)}{_fmt(report.mean_qed)}{_fmt(report.mean_sa)}"
        f"{_fmt(report.diversity)}{_fmt(report.success_rate)}{_fmt(report.fused_ring_mean)}"
    )
    table_path = cfg.outdir / "report.txt"
    table_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))

    write_manifest(
        cfg,
        "evaluate",
        [cfg.outdir / "generations.jsonl", cfg.outdir / "scores.jsonl"],
        [report_path, table_path],
        started,
    )
    return EXIT_OK


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    started = time.time()
    pockets = _assemble_pockets(cfg)
    outputs: list[Path] = []
    if args.fused:
        top_k = cfg.get_int("metrics", "top_k")
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
        fused_path = cfg.outdir / "fused_report.json"
        fused_path.write_text(
            json.dumps(
                {
                    "top_k": top_k,
                    "mean": summary.mean,
                    "histogram": {str(k): v for k, v in summary.histogram.items()},
                    "n_compounds": summary.n_compounds,
                    "skipped_pockets": skipped,
                },
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )
        outputs.append(fused_path)
        print(f"fused rings (top {top_k} per pocket): mean {summary.mean:.3f} "
              f"over {summary.n_compounds} compounds")
        for count, freq in summary.histogram.items():
            print(f"  {count:>3} fused: {freq}")
    if args.ood:
        try:
            ood = metrics.ood_report(pockets)
        except (metrics.UnlabeledPocket, metrics.EmptyGroup) as exc:
            raise ValidationFailure(str(exc)) from exc
        ood_path = cfg.outdir / "ood_report.json"
        ood_path.write_text(json.dumps(asdict(ood), sort_keys=True, indent=1) + "\n")
        outputs.append(ood_path)
        print(
            f"ood: homologous {ood.homologous_mean:.3f}, "
            f"non-homologous {ood.non_homologous_mean:.3f}, delta {ood.delta:+.3f}"
        )
    if not outputs:
        raise ValidationFailure("report: pass --fused and/or --ood")
    write_manifest(
        cfg,
        "report",
        [cfg.outdir / "generations.jsonl", cfg.outdir / "scores.jsonl"],
        outputs,
        started,
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    manifests = sorted(cfg.outdir.glob("*.manifest.json"))
    if not manifests:
        raise MissingArtifact(f"no manifests under {cfg.outdir}")
    bad = 0
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text())
        for role in ("inputs", "outputs"):
            for path_str, expected in manifest.get(role, {}).items():
                path = Path(path_str)
                if not path.exists():
                    print(f"MISSING  {manifest['command']:<12} {role[:-1]:<7} {path}")
                    bad += 1
                    continue
                actual = _sha256_file(path)
                status = "ok" if actual == expected else "CHANGED"
                if status != "ok":
                    bad += 1
                print(f"{status:<8} {manifest['command']:<12} {role[:-1]:<7} {path}")
    if bad:
        raise ValidationFailure(f"{bad} artifacts differ from their manifests")
    print(f"verify: {len(manifests)} manifests consistent")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molchord", description="pocket-conditioned molecule generation pipeline"
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [model] seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for docking")
    parser.add_argument(
        "--allow-partial", action="store_true", help="continue despite missing scores/failures"
    )
    parser.add_argument("--top-k", dest="top_k", type=int, default=None)
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--top-p", dest="top_p", type=float, default=None)
    parser.add_argument("--max-len", dest="max_len", type=int, default=None)
    parser.add_argument("--beta-dpo", dest="beta_dpo", type=float, default=None)
    parser.add_argument("--beta-vae", dest="beta_vae", type=float, default=None)
    parser.add_argument("--lambda", dest="lambda_fused", type=float, default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("partition", help="split pockets into supervised/preference pools")
    sub.add_parser("train-sft", help="supervised stage")
    sub.add_parser("curate", help="diversity filter + preference pair construction")
    sub.add_parser("train-dpo", help="preference stage")
    sample_p = sub.add_parser("sample", help="generate unique molecules per pocket")
    sample_p.add_argument("--checkpoint", help="checkpoint path (default: best available)")
    sub.add_parser("dock", help="score generations with the external dock command")
    sub.add_parser("evaluate", help="metric report over scored generations")
    report_p = sub.add_parser("report", help="fused-ring / homology sub-reports")
    report_p.add_argument("--fused", action="store_true")
    report_p.add_argument("--ood", action="store_true")
    sub.add_parser("verify", help="check manifests against files on disk")
    return parser


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
