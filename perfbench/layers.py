"""Per-layer metrics from the span files of one traced pipeline pass.

Each traced stage process writes one spans file (see ``traced.py``). A span's
self time is its duration minus the durations of its direct child spans, so
time spent inside a nested wrapped call is charged to the inner layer only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# name -> unit, in the order they are printed
LAYER_METRICS = {
    "scorers.external_dock.calls": "count",
    "scorers.external_dock.cache_hits": "count",
    "scorers.external_dock.hit_ratio": "ratio",
    "scorers.external_dock.self_s": "s",
    "scorers.external_dock.p50_ms": "ms",
    "scorers.external_dock.tail_ms": "ms",
    "scorers.external_dock.failures": "count",
    "scorers.dock_many.self_s": "s",
    "scorers.load_records.rows": "count",
    "scorers.load_records.self_s": "s",
    "scorers.dump_records.self_s": "s",
    "genmodel.sample_many.calls": "count",
    "genmodel.sample_many.samples": "count",
    "genmodel.sample_many.tokens": "count",
    "genmodel.sample_many.self_s": "s",
    "genmodel.sample_many.tokens_per_s": "1/s",
    "genmodel.sample_many.useful_ratio": "ratio",
    "genmodel.featurize_pocket.self_s": "s",
    "genmodel.params_io.self_s": "s",
    "training.sft_loss.calls": "count",
    "training.sft_loss.self_s": "s",
    "training.sft_loss.ms_per_call": "ms",
    "training.dpo_loss.calls": "count",
    "training.dpo_loss.self_s": "s",
    "training.dpo_loss.ms_per_call": "ms",
    "training.build_dpo_examples.self_s": "s",
    "training.optim.self_s": "s",
    "curation.curate_dpo_set.self_s": "s",
    "curation.kept_ratio": "ratio",
    "curation.partition_dataset.self_s": "s",
    "molgraph.parse_smiles.calls": "count",
    "molgraph.parse_smiles.self_s": "s",
    "molgraph.try_parse.valid_ratio": "ratio",
    "molgraph.canonical_smiles.calls": "count",
    "molgraph.canonical_smiles.self_s": "s",
    "molgraph.canonical_smiles.tail_ms": "ms",
    "molgraph.morgan_fingerprint.calls": "count",
    "molgraph.morgan_fingerprint.self_s": "s",
    "molgraph.count_fused_rings.calls": "count",
    "molgraph.count_fused_rings.self_s": "s",
    "metrics.evaluate.self_s": "s",
    "metrics.diversity.calls": "count",
    "metrics.diversity.self_s": "s",
    "metrics.fused_ring_report.self_s": "s",
    "metrics.ood_report.self_s": "s",
    "cli.import_s": "s",
    "cli.write_manifest.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}
# Untraced stage wall times of the same run, 0 for a stage the workload skips.
STAGES = ("partition", "train_sft", "curate", "train_dpo", "sample", "dock", "evaluate",
          "report", "verify")
LAYER_METRICS.update({f"cli.stage.{stage}_s": "s" for stage in STAGES})

# Fixed percentile behind each ``tail_ms``. p99.9 of canonical_smiles falls
# inside the 4-tert-butyl chains of import-eval (about 0.27 % of its calls;
# see inputs.py). p90 of external_dock is an uncached request on desk-cold.
CANONICAL_TAIL_PCT = 99.9
DOCK_TAIL_PCT = 90.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class SpanStats:
    calls: int = 0
    failures: int = 0
    self_ns: int = 0
    no_spawn_ok: int = 0
    durations_ms: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class Trace:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    import_s: float = 0.0
    missing: set[str] = field(default_factory=set)
    by_stage: dict[str, dict[str, SpanStats]] = field(default_factory=dict)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_s(self, *names: str) -> float:
        return sum(self.get(n).self_ns for n in names) / 1e9


def _stage_stats(payload: dict) -> dict[str, SpanStats]:
    names, spans = payload["names"], payload["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, ok, spawns in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for index, (name_id, start, end, parent, ok, spawns) in enumerate(spans):
        entry = stats.setdefault(names[name_id], SpanStats())
        entry.calls += 1
        entry.failures += 1 - ok
        entry.self_ns += end - start - child_ns[index]
        entry.no_spawn_ok += int(ok and spawns == 0)
        entry.durations_ms.append((end - start) / 1e6)
    for name, counters in payload["counters"].items():
        stats.setdefault(name, SpanStats()).counters = dict(counters)
    return stats


def load_trace(span_files: dict[str, Path]) -> Trace:
    """Merge the spans files of one pass, keyed by stage name."""
    trace = Trace()
    for stage, path in span_files.items():
        payload = json.loads(path.read_text())
        trace.import_s += payload["import_s"]
        trace.missing.update(payload["missing"])
        stage_stats = _stage_stats(payload)
        trace.by_stage[stage] = stage_stats
        for name, entry in stage_stats.items():
            total = trace.stats.setdefault(name, SpanStats())
            total.calls += entry.calls
            total.failures += entry.failures
            total.self_ns += entry.self_ns
            total.no_spawn_ok += entry.no_spawn_ok
            total.durations_ms.extend(entry.durations_ms)
            for key, value in entry.counters.items():
                total.counters[key] = total.counters.get(key, 0) + value
    return trace


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    trace: Trace,
    sampled_kept: int,
    traced_pipeline_s: float,
    untraced_pipeline_s: float,
    stage_s: dict[str, float],
) -> dict[str, float]:
    """All ``LAYER_METRICS`` values. ``sampled_kept`` is the number of rows the
    ``sample`` stage wrote and ``stage_s`` the untraced median wall time of each
    stage run; a layer a workload does not exercise reads 0."""
    dock = trace.get("scorers.external_dock")
    sampler = trace.get("genmodel.sample_many")
    sample_stage = trace.by_stage.get("sample", {}).get("genmodel.sample_many", SpanStats())
    sft, dpo = trace.get("training.sft_loss"), trace.get("training.dpo_loss")
    curate = trace.get("curation.curate_dpo_set")
    parse, try_parse = trace.get("molgraph.parse_smiles"), trace.get("molgraph.try_parse")
    canon = trace.get("molgraph.canonical_smiles")
    fingerprint, fused = trace.get("molgraph.morgan_fingerprint"), trace.get("molgraph.count_fused_rings")
    diversity = trace.get("metrics.diversity")
    sampler_s = trace.self_s("genmodel.sample_many")
    tokens = sampler.counters.get("tokens", 0)
    values = {
        "scorers.external_dock.calls": dock.calls,
        "scorers.external_dock.cache_hits": dock.no_spawn_ok,
        "scorers.external_dock.hit_ratio": _ratio(dock.no_spawn_ok, dock.calls),
        "scorers.external_dock.self_s": trace.self_s("scorers.external_dock"),
        "scorers.external_dock.p50_ms": percentile(dock.durations_ms, 50.0),
        "scorers.external_dock.tail_ms": percentile(dock.durations_ms, DOCK_TAIL_PCT),
        "scorers.external_dock.failures": dock.failures,
        "scorers.dock_many.self_s": trace.self_s("scorers.dock_many"),
        "scorers.load_records.rows": trace.get("scorers.load_records").counters.get("rows", 0),
        "scorers.load_records.self_s": trace.self_s("scorers.load_records"),
        "scorers.dump_records.self_s": trace.self_s("scorers.dump_records"),
        "genmodel.sample_many.calls": sampler.calls,
        "genmodel.sample_many.samples": sampler.counters.get("samples", 0),
        "genmodel.sample_many.tokens": tokens,
        "genmodel.sample_many.self_s": sampler_s,
        "genmodel.sample_many.tokens_per_s": _ratio(tokens, sampler_s),
        "genmodel.sample_many.useful_ratio": _ratio(
            sampled_kept, sample_stage.counters.get("samples", 0)
        ),
        "genmodel.featurize_pocket.self_s": trace.self_s("genmodel.featurize_pocket"),
        "genmodel.params_io.self_s": trace.self_s("genmodel.save_params", "genmodel.load_params"),
        "training.sft_loss.calls": sft.calls,
        "training.sft_loss.self_s": trace.self_s("training.sft_loss"),
        "training.sft_loss.ms_per_call": _ratio(sft.self_ns / 1e6, sft.calls),
        "training.dpo_loss.calls": dpo.calls,
        "training.dpo_loss.self_s": trace.self_s("training.dpo_loss"),
        "training.dpo_loss.ms_per_call": _ratio(dpo.self_ns / 1e6, dpo.calls),
        "training.build_dpo_examples.self_s": trace.self_s("training.build_dpo_examples"),
        "training.optim.self_s": trace.self_s("training.adam_step", "training.clip_gradients"),
        "curation.curate_dpo_set.self_s": trace.self_s("curation.curate_dpo_set"),
        "curation.kept_ratio": _ratio(
            curate.counters.get("kept", 0), curate.counters.get("audited", 0)
        ),
        "curation.partition_dataset.self_s": trace.self_s("curation.partition_dataset"),
        "molgraph.parse_smiles.calls": parse.calls,
        "molgraph.parse_smiles.self_s": trace.self_s("molgraph.parse_smiles"),
        "molgraph.try_parse.valid_ratio": _ratio(try_parse.counters.get("valid", 0), try_parse.calls),
        "molgraph.canonical_smiles.calls": canon.calls,
        "molgraph.canonical_smiles.self_s": trace.self_s("molgraph.canonical_smiles"),
        "molgraph.canonical_smiles.tail_ms": percentile(canon.durations_ms, CANONICAL_TAIL_PCT),
        "molgraph.morgan_fingerprint.calls": fingerprint.calls,
        "molgraph.morgan_fingerprint.self_s": trace.self_s("molgraph.morgan_fingerprint"),
        "molgraph.count_fused_rings.calls": fused.calls,
        "molgraph.count_fused_rings.self_s": trace.self_s("molgraph.count_fused_rings"),
        "metrics.evaluate.self_s": trace.self_s("metrics.evaluate"),
        "metrics.diversity.calls": diversity.calls,
        "metrics.diversity.self_s": trace.self_s("metrics.diversity"),
        "metrics.fused_ring_report.self_s": trace.self_s("metrics.fused_ring_report"),
        "metrics.ood_report.self_s": trace.self_s("metrics.ood_report"),
        "cli.import_s": trace.import_s,
        "cli.write_manifest.self_s": trace.self_s("cli.write_manifest"),
        "cli.main.self_s": trace.self_s("cli.main"),
        "trace.overhead_frac": _ratio(traced_pipeline_s, untraced_pipeline_s) - 1.0,
    }
    values.update({f"cli.stage.{stage}_s": stage_s.get(stage, 0.0) for stage in STAGES})
    return {name: float(values[name]) for name in LAYER_METRICS}
