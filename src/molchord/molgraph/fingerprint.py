"""Circular (Morgan-style) fingerprints and Tanimoto similarity."""

from __future__ import annotations

import functools
from typing import NamedTuple

from ..hashutil import blake2b, encode_part, stable_hash64
from .model import BondOrder, Molecule

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 2048


class WidthMismatch(ValueError):
    pass


class Fingerprint(NamedTuple):
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
_ORDER_PART = [b""] + [encode_part(order) for order in range(1, max(BondOrder) + 1)]  # by order


def morgan_fingerprint(
    mol: Molecule, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> Fingerprint:
    """Hash every atom's r-neighborhood invariant for r = 0..radius into bits.

    Atom invariants are built from the atom label plus degree and refined by
    the sorted multiset of (bond order, neighbor invariant) pairs, so the
    result only depends on the graph, never on atom input order. Each refined
    invariant is ``stable_hash64("env", r, own, order1, inv1, ...)``, hashed
    here in one call over the parts' pre-encoded bytes. An invariant is a
    64-bit digest, so its ``encode_part`` is ``b"i"`` and its 16 little-endian
    bytes, and a (bond order, invariant) pair sorts as ``order << 64 | inv``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits < 64 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 64")

    adj: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]  # (order, neighbor)
    for a, b, order in mol.bonds:
        adj[a].append((order, b))
        adj[b].append((order, a))
    invariants = [
        _atom_invariant(element, aromatic, charge, explicit_h, len(row))
        for (element, aromatic, charge, explicit_h, _, _), row in zip(mol.atoms, adj)
    ]
    mask = nbits - 1
    bits = 0
    for inv in invariants:
        bits |= 1 << (inv & mask)
    for r in range(1, radius + 1):
        head = _ENV_TAG + encode_part(r)
        encoded = [b"i" + inv.to_bytes(16, "little") for inv in invariants]
        refreshed = []
        for own, row in zip(encoded, adj):
            if len(row) == 1:
                order, nbr = row[0]
                data = b"".join((head, own, _ORDER_PART[order], encoded[nbr]))
            elif len(row) == 2:
                (o1, n1), (o2, n2) = row
                if o1 > o2 or o1 == o2 and invariants[n1] > invariants[n2]:
                    o1, n1, o2, n2 = o2, n2, o1, n1
                data = b"".join(
                    (head, own, _ORDER_PART[o1], encoded[n1], _ORDER_PART[o2], encoded[n2])
                )
            else:
                parts = [head, own]
                for key, nbr in sorted([(order << 64 | invariants[nbr], nbr) for order, nbr in row]):
                    parts += (_ORDER_PART[key >> 64], encoded[nbr])
                data = b"".join(parts)
            refreshed.append(blake2b(data, digest_size=8).digest())
        invariants = [int.from_bytes(d, "little") for d in refreshed]
        for inv in invariants:
            bits |= 1 << (inv & mask)
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|A and B| / |A or B| over set bits; two empty fingerprints count as equal."""
    if a.nbits != b.nbits:
        raise WidthMismatch(f"fingerprint widths differ: {a.nbits} != {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
