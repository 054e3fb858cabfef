#!/usr/bin/env python3
"""Deterministic stand-in for a docking command.

Prints one pseudo-binding score (kcal/mol-like, lower is better) derived from
the molecule alone, so pipelines can run end-to-end without a docking engine.

Usage: surrogate_dock.py SMILES [--mode hash|heavy]

  hash   score in [-12, -4) from a stable hash of the canonical structure
  heavy  heavier molecules score better (matches the experiment surrogate)

The pipeline starts this script once per uncached command line, which for
the pocket-free template ``surrogate_dock.py '{smiles}'`` is once per uncached
molecule across all pockets, so it imports no more than its mode needs (no
numpy).
"""

import argparse
import sys

from molchord.hashutil import stable_hash64
from molchord.molgraph import CanonicalizationLimit, canonical_smiles, try_parse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("smiles")
    parser.add_argument("--mode", choices=("hash", "heavy"), default="hash")
    args = parser.parse_args()

    mol = try_parse(args.smiles)
    if mol is None:
        print(f"unparseable molecule: {args.smiles!r}", file=sys.stderr)
        return 1
    if args.mode == "heavy":
        from molchord.scorers import surrogate_vina

        score = surrogate_vina(mol)
    else:
        try:
            canon = canonical_smiles(mol)
        except CanonicalizationLimit as exc:
            print(f"uncanonicalizable molecule: {args.smiles!r}: {exc}", file=sys.stderr)
            return 1
        bucket = stable_hash64("surrogate-dock", canon) % 800
        score = -4.0 - bucket / 100.0
    print(f"{score:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
