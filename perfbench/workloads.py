"""Workload definitions: inputs, configuration and the stages each one runs.

Every stage is one ``molchord`` process started from the checkout, as a user
would run it. Paths in the configuration are relative to the directory a
pass runs in, so every pass of one run uses byte-identical configuration
text, and the checkpoints that embed its digest can be compared across
passes.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

PIPELINE = (
    ("partition", ("partition",)),
    ("train_sft", ("train-sft",)),
    ("curate", ("curate",)),
    ("train_dpo", ("train-dpo",)),
    ("sample", ("sample",)),
    ("dock", ("dock",)),
    ("evaluate", ("evaluate",)),
    # --allow-partial is a top-level flag. Without it, `report --fused` on the
    # desk fixture exits 2 (a documented validation failure), because at
    # top_k = 2 some pockets keep fewer than two generations.
    ("report", ("--allow-partial", "report", "--fused", "--ood")),
    ("verify", ("verify",)),
)
EVALUATION = PIPELINE[-3:]

# The README desk config, unchanged except for paths, the dock cache
# directory and the interpreter that runs the surrogate dock script.
# Training and curation use the README's fixture (50 pockets, seed 0): on a
# 10-pocket fixture curation found no preference pair for 4 seeds in 10 and
# exited 4, and with a fixture per seed the amount of docking differed by
# up to 1.8x between seeds, because it follows the trained model's
# validity. The workload seed picks the pockets that are sampled, docked
# and evaluated (eval_complexes), few enough that one cold pass fits in a
# run.
DESK_CONFIG = """\
[paths]
complexes = data/complexes.jsonl
eval_complexes = data/eval_complexes.jsonl
outdir = out

[model]
d = 16
window = 4
n_struct = 3

[sample]
temperature = 1.0
n_eval = 5
max_len = 40

[train_sft]
steps = 400
batch_size = 8

[curate]
filter_samples = 24
pair_candidates = 16
pair_docked = 4

[metrics]
top_k = 2

[dock]
command = {surrogate} '{{smiles}}'
cache_dir = cache
"""

# Production [model] and [sample] defaults (d=64, window=8, n_struct=8,
# temperature 1.5, top-p 0.95, max_len 256) with counts sized so that
# sampling, supervised and preference training each do real work in a few
# seconds. The dock command is a deterministic shell checksum: its cache is
# filled during set-up and every request of the timed pass is a cache hit.
RERUN_CONFIG = """\
[paths]
complexes = data/complexes.jsonl
outdir = out

[sample]
n_eval = 8

[train_sft]
steps = 200
eval_interval = 50

[train_dpo]
epochs = 4

[curate]
pair_candidates = 128

[metrics]
top_k = 2

[dock]
command = printf '%s' '{{smiles}}' | cksum | awk '{{printf "%.2f\\n", -4 - ($1 % 800) / 100}}'
cache_dir = cache
"""

# Production metric settings (top_k 10, radius 2, 2048 bits).
IMPORT_CONFIG = """\
[paths]
complexes = data/complexes.jsonl
outdir = out
"""


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[tuple[str, tuple[str, ...]], ...]
    config: str
    # "fixture": scripts/make_fixture.py; "import": perfbench/inputs.py,
    # whose sizes are its own constants
    inputs: str
    pockets: int | None  # fixture pockets
    eval_size: int | None  # pockets written to data/eval_complexes.jsonl
    # "cold": every pass starts with an empty dock cache; "warm": set-up
    # fills the cache with one untimed pass; None: no docking.
    cache: str | None
    # Fixed fixture seed, with the workload seed choosing the evaluated
    # pockets instead; None: the fixture is made from the workload seed.
    fixture_seed: int | None

    def config_text(self, python: str, root: str) -> str:
        surrogate = f"{shlex.quote(python)} {shlex.quote(root + '/scripts/surrogate_dock.py')}"
        return self.config.format(surrogate=surrogate)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-cold", PIPELINE, DESK_CONFIG, "fixture", 50, 12, "cold", 0),
        Workload("rerun-warm", PIPELINE, RERUN_CONFIG, "fixture", 24, None, "warm", None),
        Workload("import-eval", EVALUATION, IMPORT_CONFIG, "import", None, None, None, None),
    )
}
