"""Circular (Morgan-style) fingerprints and Tanimoto similarity."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..hashutil import digest64, encode_part, stable_hash64
from .model import BondOrder, Molecule

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 2048


class WidthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Fingerprint:
    bits: int  # bitset packed into a Python int
    nbits: int = DEFAULT_NBITS
    radius: int = DEFAULT_RADIUS


@functools.lru_cache(maxsize=4096, typed=True)  # True and 1 hash apart, as in stable_hash64
def _atom_invariant(
    element: str, aromatic: bool, charge: int, explicit_h: int, degree: int
) -> int:
    """Radius-0 invariant of an atom label plus degree."""
    return stable_hash64("atom", element, aromatic, charge, explicit_h, degree)


_ENV_TAG = encode_part("env")
_ORDER_PART = {int(order): encode_part(int(order)) for order in BondOrder}


def morgan_fingerprint(
    mol: Molecule, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> Fingerprint:
    """Hash every atom's r-neighborhood invariant for r = 0..radius into bits.

    Atom invariants are built from the atom label plus degree and refined by
    the sorted multiset of (bond order, neighbor invariant) pairs, so the
    result only depends on the graph, never on atom input order. Each refined
    invariant is ``stable_hash64("env", r, own, order1, inv1, ...)``, hashed
    here in one call over the parts' pre-encoded bytes.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits < 64 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 64")

    adj = [[(nbr, int(order)) for nbr, order in row] for row in mol.neighbors()]
    invariants = [
        _atom_invariant(a.element, a.aromatic, a.charge, a.explicit_h, len(adj[i]))
        for i, a in enumerate(mol.atoms)
    ]
    bits = 0
    for inv in invariants:
        bits |= 1 << (inv % nbits)
    for r in range(1, radius + 1):
        head = _ENV_TAG + encode_part(r)
        encoded = [encode_part(inv) for inv in invariants]
        refreshed = []
        for i, row in enumerate(adj):
            env = sorted((order, invariants[nbr], nbr) for nbr, order in row)
            parts = [head, encoded[i]]
            for order, _, nbr in env:
                parts += (_ORDER_PART[order], encoded[nbr])
            refreshed.append(digest64(b"".join(parts)))
        invariants = refreshed
        for inv in invariants:
            bits |= 1 << (inv % nbits)
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|A and B| / |A or B| over set bits; two empty fingerprints count as equal."""
    if a.nbits != b.nbits:
        raise WidthMismatch(f"fingerprint widths differ: {a.nbits} != {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
