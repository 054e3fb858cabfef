"""Run one molchord CLI command with spans recorded around each layer's
public functions.

Usage: traced.py SPANS_JSON SPAWN_NS [molchord arguments...]

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process, so the spans file can report interpreter start-up plus imports as
``import_s``. Every function in ``TARGETS`` is replaced by a wrapper in its
defining module and in every other ``molchord`` module that binds the same
object (``molchord.cli.sample_many`` as well as
``molchord.genmodel.sampling.sample_many``). Spans (name, start, end, parent,
ok) stay in memory and are written to SPANS_JSON when the command returns.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import subprocess
import sys
import threading
import time


def _count_rows(result) -> dict:
    return {"rows": len(result)}


def _count_samples(result) -> dict:
    return {"samples": len(result), "tokens": sum(len(r.token_ids) for r in result)}


def _count_kept(result) -> dict:
    return {"kept": len(result.selected), "audited": len(result.audit)}


def _count_valid(result) -> dict:
    return {"valid": int(result is not None)}


# (span name, defining module, function name, counts taken from the result)
TARGETS = (
    ("scorers.external_dock", "molchord.scorers", "external_dock", None),
    ("scorers.dock_many", "molchord.scorers", "dock_many", None),
    ("scorers.load_records", "molchord.scorers", "load_records", _count_rows),
    ("scorers.dump_records", "molchord.scorers", "dump_records", None),
    ("genmodel.sample_many", "molchord.genmodel.sampling", "sample_many", _count_samples),
    ("genmodel.featurize_pocket", "molchord.genmodel.features", "featurize_pocket", None),
    ("genmodel.save_params", "molchord.genmodel.params", "save_params", None),
    ("genmodel.load_params", "molchord.genmodel.params", "load_params", None),
    ("training.sft_loss", "molchord.training.losses", "sft_loss", None),
    ("training.dpo_loss", "molchord.training.losses", "dpo_loss", None),
    ("training.build_dpo_examples", "molchord.training.loops", "build_dpo_examples", None),
    ("training.adam_step", "molchord.training.optim", "adam_step", None),
    ("training.clip_gradients", "molchord.training.optim", "clip_gradients", None),
    ("curation.curate_dpo_set", "molchord.curation", "curate_dpo_set", _count_kept),
    ("curation.partition_dataset", "molchord.curation", "partition_dataset", None),
    ("molgraph.parse_smiles", "molchord.molgraph.parser", "parse_smiles", None),
    ("molgraph.try_parse", "molchord.molgraph.parser", "try_parse", _count_valid),
    ("molgraph.canonical_smiles", "molchord.molgraph.canon", "canonical_smiles", None),
    ("molgraph.morgan_fingerprint", "molchord.molgraph.fingerprint", "morgan_fingerprint", None),
    ("molgraph.count_fused_rings", "molchord.molgraph.rings", "count_fused_rings", None),
    ("metrics.evaluate", "molchord.metrics", "evaluate", None),
    ("metrics.diversity", "molchord.metrics", "diversity", None),
    ("metrics.fused_ring_report", "molchord.metrics", "fused_ring_report", None),
    ("metrics.ood_report", "molchord.metrics", "ood_report", None),
    ("cli.write_manifest", "molchord.cli", "write_manifest", None),
)


class Tracer:
    """Spans and counters of one process. A span is
    [name index, start ns, end ns, parent span index or -1, ok, processes started]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, totals = self.spans, self.counters.setdefault(name, {})
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name_id, clock(), 0, stack[-1] if stack else -1, 1, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 0
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return wrapper

    def count_spawn(self) -> None:
        """Charge one started process to the innermost open span."""
        stack = self._stack()
        if stack:
            self.spans[stack[-1]][5] += 1

    def install(self) -> None:
        """Wrap each target in every loaded molchord module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("molchord") and m]
        for name, module_name, attr, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        tracer = self
        base_init = subprocess.Popen.__init__

        @functools.wraps(base_init)
        def counting_init(popen, *args, **kwargs):
            tracer.count_spawn()
            base_init(popen, *args, **kwargs)

        subprocess.Popen.__init__ = counting_init

    def dump(self, path: str, import_s: float) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "missing": self.missing,
            "import_s": import_s,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main() -> int:
    spans_path, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import molchord.cli

    import_s = (time.monotonic_ns() - spawn_ns) / 1e9
    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap("cli.main", molchord.cli.main)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
