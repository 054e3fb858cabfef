#!/usr/bin/env python3
"""Deterministic stand-in for a docking command.

Prints one pseudo-binding score (kcal/mol-like, lower is better) in
[-12, -4), derived from a stable hash of the molecule's canonical structure,
so pipelines can run end-to-end without a docking engine.

Usage: surrogate_dock.py SMILES

An unparseable or uncanonicalizable SMILES prints one line to stderr and
exits 1; any other number of arguments exits 2.

The pipeline starts this script once per uncached command line, which for
the pocket-free template ``surrogate_dock.py '{smiles}'`` is once per uncached
molecule across all pockets, so it imports no more than it needs (no numpy,
no argument parser).
"""

import sys

from molchord.hashutil import stable_hash64
from molchord.molgraph import CanonicalizationLimit, canonical_smiles, try_parse


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: surrogate_dock.py SMILES", file=sys.stderr)
        return 2
    smiles = sys.argv[1]
    mol = try_parse(smiles)
    if mol is None:
        print(f"unparseable molecule: {smiles!r}", file=sys.stderr)
        return 1
    try:
        canon = canonical_smiles(mol)
    except CanonicalizationLimit as exc:
        print(f"uncanonicalizable molecule: {smiles!r}: {exc}", file=sys.stderr)
        return 1
    bucket = stable_hash64("surrogate-dock", canon) % 800
    print(f"{-4.0 - bucket / 100.0:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
