"""Reruns must not depend on the BLAS thread count: the packed training pass
and the cross-pocket sampler put many rows through each matrix product, and
OpenBLAS rounds a product over many rows differently with one thread than
with two. The thread count is set in each child's environment only."""

import subprocess
import sys

from molchord.scorers import dump_records
from molchord.synthetic import synthetic_complexes

# production [model] defaults (d = 64, window 8); ligands long enough that a
# training batch holds more than one 256-row block
CONFIG = """\
[paths]
complexes = {complexes}
outdir = {outdir}

[sample]
n_eval = 4
max_len = 60
retry_factor = 4

[train_sft]
steps = 12
batch_size = 16
eval_interval = 6
"""

RUN = """\
import sys
from molchord.cli import main
for command in ("partition", "train-sft", "sample"):
    code = main(["--config", sys.argv[1], command])
    if code:
        sys.exit(code)
"""


def test_checkpoint_and_generations_do_not_depend_on_blas_threads(tmp_path, child_env):
    complexes = tmp_path / "complexes.jsonl"
    dump_records(complexes, synthetic_complexes(24, seed=3, ligand_counts=(3, 5), max_heavy=22))
    outputs = {}
    for threads in ("1", "2"):
        outdir = tmp_path / f"out{threads}"
        config = tmp_path / f"run{threads}.ini"
        config.write_text(CONFIG.format(complexes=complexes, outdir=outdir))
        env = dict(child_env, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", RUN, str(config)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = outdir
    for name in ("sft_checkpoint.json", "generations.jsonl"):
        one, two = (outputs[t] / name for t in ("1", "2"))
        assert one.read_bytes() == two.read_bytes(), name
