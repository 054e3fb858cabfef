#!/usr/bin/env python3
"""Write a synthetic pocket dataset for pipeline runs.

Produces a complexes record file with deterministic pockets, ligand sets,
reference scores, and homology labels.
"""

import argparse
import sys
from pathlib import Path

from molchord.scorers import dump_records
from molchord.synthetic import synthetic_complexes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", type=Path, help="output complexes.jsonl")
    parser.add_argument("--pockets", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-heavy", type=int, default=10)
    parser.add_argument("--with-sequences", action="store_true")
    args = parser.parse_args()

    try:
        records = synthetic_complexes(
            args.pockets,
            seed=args.seed,
            max_heavy=args.max_heavy,
            with_sequences=args.with_sequences,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    dump_records(args.out, records)
    n_ligands = sum(len(r.ligand_smiles) for r in records)
    print(f"wrote {len(records)} pockets / {n_ligands} ligands to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
