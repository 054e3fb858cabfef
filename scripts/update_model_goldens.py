"""Rewrite tests/data/model_goldens.json from this machine.

The file holds the SHA-256s of the model-dependent artifacts (checkpoints,
curves, pairs, generations, scores) of the pipeline run in tests/test_cli.py,
for the online and the offline curation flow, and the environment they were
computed in (numpy, its BLAS, the kernel that the BLAS runs, the CPU
flags). Tier-1 compares them only in that environment. Run this from the repository root after a change that
alters those artifacts on purpose, and name each changed hash in CHANGES.md:

    python scripts/update_model_goldens.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, MOLCHORD_UPDATE_GOLDENS="1", PYTHONPATH=path)
    test = "tests/test_cli.py::test_model_artifacts_keep_their_golden_hashes"
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              test], cwd=ROOT, env=env))
