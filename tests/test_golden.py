"""Golden SHA-256s of the artifacts that depend on no matrix product.

``tests/data`` holds 8 pockets x 10 molecules cut from
``perfbench/inputs.py --seed 0``: both homology labels, fused-ring molecules
among the generations, and a score for every generation. ``partition``,
``evaluate`` and ``report`` over them touch neither numpy nor BLAS, so their
bytes are the same on any machine; a change to parsing, canonicalization,
fingerprints, rings, metrics or the writers that moves one byte fails here.
A change that alters them on purpose replaces the hashes below with the ones
the failure prints.
"""

import hashlib
import json
import shutil
from pathlib import Path

from molchord.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "partition.json": "7eb3b8c891efd43eb7febc73b23c4d60395a462cf17471582740cb0a725812bb",
    "report.jsonl": "b74a6de86a85f321c8533c99c66dd086bf5d4331aa6e4e1c2f3906c284f2e581",
    "report.txt": "ff713bbcd3e5c861cd99168022d06529b5fcd035791752de07c7f5ed0638506c",
    "fused_report.json": "30c71a957eddf9266d854da6589811aabdfdef6ed03df5177dd7e45637b4f84e",
    "ood_report.json": "e1c8247848d3cf034f646d8ee67c718bbce9cc4548043fd1cfa8147800dbcffc",
}


def test_numpy_free_artifacts_keep_their_golden_hashes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("generations.jsonl", "scores.jsonl"):
        shutil.copy(DATA / name, out / name)
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\ncomplexes = {DATA / 'complexes.jsonl'}\noutdir = {out}\n")
    for step in (["partition"], ["evaluate"], ["--allow-partial", "report", "--fused", "--ood"]):
        assert main(["--config", str(config), *step]) == 0, step
    hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert hashes == GOLDEN, "the artifacts now hash to\n" + json.dumps(hashes, indent=4)
