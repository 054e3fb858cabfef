"""Molecular graph primitives: atoms, bonds, and the Molecule container."""

from __future__ import annotations

import enum
from typing import NamedTuple

ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_ORGANIC = ("b", "c", "n", "o", "p", "s")

# Elements accepted inside brackets. Valence is only enforced for the ones
# listed in MAX_VALENCE below.
KNOWN_ELEMENTS = frozenset(
    ORGANIC_SUBSET
    + (
        "H", "He", "Li", "Be", "Ne", "Na", "Mg", "Al", "Si", "Ar",
        "K", "Ca", "Ti", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
        "Ga", "Ge", "As", "Se", "Kr", "Rb", "Sr", "Zr", "Mo", "Ru",
        "Rh", "Pd", "Ag", "Cd", "In", "Sn", "Sb", "Te", "Xe", "Cs",
        "Ba", "W", "Pt", "Au", "Hg", "Tl", "Pb", "Bi",
    )
)

MAX_VALENCE = {
    "H": 1, "B": 3, "C": 4, "N": 3, "O": 2, "P": 5,
    "S": 6, "F": 1, "Cl": 1, "Br": 1, "I": 1,
}


class BondOrder(enum.IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


class Atom(NamedTuple):
    """One heavy atom (or bracket hydrogen) as written in the input. Atoms and
    bonds are immutable tuples: a parse builds thousands of them, and a
    tuple is built in half the time of a frozen dataclass."""

    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_h: int = 0
    index: int = -1
    offset: int = -1  # byte offset of the atom token in the source, -1 if synthetic


class Bond(NamedTuple):
    a: int
    b: int
    order: BondOrder = BondOrder.SINGLE

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


class Molecule(NamedTuple):
    """Parsed molecular graph."""

    atoms: list[Atom]
    bonds: list[Bond]

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")


def make_molecule(atoms: list[Atom], bonds: list[Bond]) -> Molecule:
    """Build a Molecule, enforcing distinct endpoints and no duplicate bonds.
    Each atom gets its list position as ``index``; an atom that already has
    it is kept as is."""
    seen: set[tuple[int, int]] = set()
    n = len(atoms)
    for bond in bonds:
        if bond.a == bond.b:
            raise ValueError(f"bond with identical endpoints: {bond.a}")
        if not (0 <= bond.a < n and 0 <= bond.b < n):
            raise ValueError(f"bond endpoint out of range: {bond.key()}")
        if bond.key() in seen:
            raise ValueError(f"duplicate bond between atoms {bond.key()}")
        seen.add(bond.key())
    fixed = [a if a.index == i else a._replace(index=i) for i, a in enumerate(atoms)]
    return Molecule(atoms=fixed, bonds=list(bonds))


def max_valence(element: str, charge: int) -> int | None:
    """Maximum bond-order sum for an element/charge, or None when unchecked.

    Charge shifts follow the isoelectronic rule: a positive charge on N/O/P/S
    raises the cap, a negative charge lowers it; boron behaves the opposite
    way, and any charge on carbon lowers its cap.
    """
    base = MAX_VALENCE.get(element)
    if base is None:
        return None
    if element == "C":
        return base - abs(charge)
    if element == "B":
        return base - charge
    return max(0, base + charge)
