"""Seeded input generators for the benchmark workloads.

``import_eval_inputs`` writes the externally produced files of the
``import-eval`` workload: a complexes file, one generations file with a
fixed number of molecules per pocket, and a scores file covering every
generation. Molecules are assembled from SMILES fragments as plain strings,
in no canonical order, the way another tool would write them, so loading
them makes molchord parse and canonicalize every one.

One molecule slot in ``SYMMETRIC_EVERY`` holds a highly symmetric alkane
chain carrying 1 to 4 tert-butyl groups, the same slots for every seed.
Their canonicalization cost grows factorially with the group count, which is
what ``molgraph.canonical_smiles.tail_ms`` (the fixed p99.9 of the call
times) measures. The 33 chains cycle through 1-4 groups, so 8 carry four
groups. Each is canonicalized once per file per stage like every other
molecule, so they are about 0.27 % of the calls, nearly three times the
0.1 % that lies above p99.9: the cut stays inside the four-group class
unless a change treats these molecules differently from the rest. A smaller
share would leave fewer than ten calls above the cut or put it near the
class edge; a larger one would let the chains dominate the pass (8 chains
already take about 6 s of it). Chains with 5 or more groups are left out on
purpose: one 5-group molecule takes seconds, and a 6-group molecule makes
``canonical_smiles`` raise ``RuntimeError``, which ends the whole stage with
exit code 1.

Usage: inputs.py DIRECTORY --seed SEED
"""

from __future__ import annotations

import argparse
import json
import random
import re
from collections import Counter
from pathlib import Path


# Fragments with one attachment point, written with that atom first (for the
# right end of a molecule or a side branch) or last (for the left end).
HEADS = (
    "F", "Cl", "Br", "O", "N", "C", "CC", "CC(C)", "CO", "N#C", "OC(=O)",
    "FC(F)(F)", "c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCCC1", "c1ccc2ccccc2c1",
    "C1CCNCC1",
)
TAILS = (
    "F", "Cl", "Br", "O", "N", "C", "CC", "C(C)C", "OC", "C#N", "C(=O)O",
    "C(F)(F)F", "c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCCC1", "c1ccc2ccccc2c1",
    "C1CCNCC1", "c1ccc2c(c1)ccc1ccccc12",
)
# Fragments with two attachment points: the left end bonds to the previous
# fragment, the right end to the next one.
LINKERS = (
    "C", "CC", "CCC", "N", "O", "S", "C(=O)", "C(=O)N", "NC(=O)", "C=C", "C(C)",
    "c1ccc(cc1)", "c1cc(ccn1)", "C1CCC(CC1)", "C1CCN(CC1)", "c1ccc2cc(ccc2c1)",
)

POCKETS = 30
PER_POCKET = 100
LINKERS_MAX = 2
SYMMETRIC_EVERY = 90  # 33 chains in the 3000 slots
SYMMETRIC_GROUPS = (1, 2, 3, 4)
SYMMETRIC_TAILS = tuple(range(1, 10))


def tert_butyl_chain(groups: int, tail: int = 1) -> str:
    """Alkane chain with ``groups`` consecutive tert-butyl branches and an
    n-alkyl end of ``tail`` carbons."""
    return "C" * tail + "C" + "C(C(C)(C)C)" * groups + "C"


def random_molecule(rng: random.Random) -> str:
    """A valid SMILES string: head, 1-LINKERS_MAX linkers with side branches, tail."""
    parts = [rng.choice(HEADS)]
    for _ in range(rng.randint(1, LINKERS_MAX)):
        linker = rng.choice(LINKERS)
        if rng.random() < 0.3 and linker.endswith("C"):
            linker += f"(-{rng.choice(TAILS)})"
        parts.append(linker)
    parts.append(rng.choice(TAILS))
    # Explicit single bonds: two aromatic atoms written side by side would
    # otherwise read as an aromatic bond outside any ring.
    return "-".join(parts)


_ATOM = re.compile(r"Cl|Br|[BCNOSPFIcnos]")


def graph_invariant(smiles: str) -> tuple:
    """Element counts, multiple-bond counts and ring closures of a SMILES
    string from these generators. Two strings of one molecule always agree,
    so molecules with distinct invariants are distinct; the converse does not
    hold, which only makes deduplication stricter."""
    return (
        tuple(sorted(Counter(_ATOM.findall(smiles)).items())),
        smiles.count("="),
        smiles.count("#"),
        sum(ch.isdigit() for ch in smiles),
    )


class MoleculeStream:
    """Distinct molecules per pocket. Every ``SYMMETRIC_EVERY``-th slot of the
    whole stream is a tert-butyl chain: the group count cycles through
    ``SYMMETRIC_GROUPS`` and the tail length through ``SYMMETRIC_TAILS``, so
    repeats are distinct strings and the loader's per-file cache does not
    skip them. A record file may not hold one molecule twice for a pocket,
    so a random molecule whose invariant was already used in the pocket, or
    belongs to a tert-butyl chain, is redrawn."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.slot = 0
        self.reserved = {
            graph_invariant(tert_butyl_chain(k, t)) for k in SYMMETRIC_GROUPS for t in SYMMETRIC_TAILS
        }

    def pocket(self, n: int) -> list[str]:
        out: list[str] = []
        seen = set(self.reserved)
        for _ in range(n):
            self.slot += 1
            if self.slot % SYMMETRIC_EVERY == 0:
                j = self.slot // SYMMETRIC_EVERY - 1
                groups = SYMMETRIC_GROUPS[j % len(SYMMETRIC_GROUPS)]
                tail = SYMMETRIC_TAILS[j // len(SYMMETRIC_GROUPS) % len(SYMMETRIC_TAILS)]
                out.append(tert_butyl_chain(groups, tail))
                continue
            smiles = random_molecule(self.rng)
            while graph_invariant(smiles) in seen:
                smiles = random_molecule(self.rng)
            seen.add(graph_invariant(smiles))
            out.append(smiles)
        return out


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def import_eval_inputs(directory: Path, seed: int) -> None:
    """Write complexes.jsonl, generations.jsonl and scores.jsonl to ``directory``."""
    rng = random.Random(f"import-eval:{seed}")
    stream = MoleculeStream(rng)
    complexes, generations, scores = [], [], []
    for i in range(POCKETS):
        pocket_id = f"ext{i:04d}"
        complexes.append({
            "pocket_id": pocket_id,
            "ligand_smiles": [random_molecule(rng) for _ in range(rng.randint(1, 4))],
            "reference_vina": round(rng.uniform(-10.0, -5.0), 2),
            # Alternate labels so both OOD groups are always populated.
            "homology": "homologous" if i % 2 == 0 else "non_homologous",
        })
        for smiles in stream.pocket(PER_POCKET):
            generations.append({"pocket_id": pocket_id, "smiles": smiles,
                                "logprob": round(rng.uniform(-60.0, -5.0), 4)})
            scores.append({"pocket_id": pocket_id, "smiles": smiles,
                           "vina": round(rng.uniform(-12.0, -4.0), 2),
                           "qed": round(rng.uniform(0.05, 0.95), 3),
                           "sa_origin": round(rng.uniform(1.5, 7.5), 2)})
    directory.mkdir(parents=True, exist_ok=True)
    _write_jsonl(directory / "complexes.jsonl", complexes)
    _write_jsonl(directory / "generations.jsonl", generations)
    _write_jsonl(directory / "scores.jsonl", scores)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_eval_inputs(args.directory, args.seed)


if __name__ == "__main__":
    main()
