"""Deterministic synthetic fixtures: random valid molecules and pocket datasets.

Molecules are assembled as graphs (ring motifs plus decorated chains) with a
per-atom valence budget, so every emitted string is valid by construction.
Everything is driven by explicit numpy Generators for reproducibility.
"""

from __future__ import annotations

import bisect

import numpy as np

from .curation import ComplexRecord
from .hashutil import derive_seed
from .metrics import HOMOLOGOUS, NON_HOMOLOGOUS
from .molgraph import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    canonical_smiles,
    make_molecule,
)

_AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


class _Builder:
    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.free: list[int] = []

    def add_atom(self, element: str, budget: int, aromatic: bool = False) -> int:
        idx = len(self.atoms)
        self.atoms.append(Atom(element=element, aromatic=aromatic, index=idx))
        self.free.append(budget)
        return idx

    def add_bond(self, a: int, b: int, order: BondOrder = BondOrder.SINGLE) -> None:
        cost = 1 if order == BondOrder.AROMATIC else int(order)
        self.bonds.append(Bond(*sorted((a, b)), order=order))
        self.free[a] -= cost
        self.free[b] -= cost

    def open_slots(self) -> list[int]:
        return [i for i, f in enumerate(self.free) if f > 0]

    def finish(self) -> Molecule:
        return make_molecule(self.atoms, self.bonds)


def _aromatic_ring(b: _Builder, rng: np.random.Generator, allow_hetero: bool = True) -> list[int]:
    """Benzene-like ring; optionally swap one position for a pyridine nitrogen
    or build a five-membered thiophene-like ring."""
    if allow_hetero and rng.random() < 0.25:
        kind = rng.choice(["pyridine", "thiophene"])
    else:
        kind = "benzene"
    # Budgets are full valences minus the aromatic-system increment, so a ring
    # carbon ends up with one free slot after its two ring bonds.
    if kind == "thiophene":
        members = [b.add_atom("S", budget=2, aromatic=True)]
        members += [b.add_atom("C", budget=3, aromatic=True) for _ in range(4)]
    elif kind == "pyridine":
        members = [b.add_atom("N", budget=2, aromatic=True)]
        members += [b.add_atom("C", budget=3, aromatic=True) for _ in range(5)]
    else:
        members = [b.add_atom("C", budget=3, aromatic=True) for _ in range(6)]
    for i in range(len(members)):
        b.add_bond(members[i], members[(i + 1) % len(members)], BondOrder.AROMATIC)
    return members


def _saturated_ring(b: _Builder, rng: np.random.Generator) -> list[int]:
    size = int(rng.choice([5, 6]))
    members = [b.add_atom("C", budget=4, aromatic=False) for _ in range(size)]
    for i in range(size):
        b.add_bond(members[i], members[(i + 1) % size], BondOrder.SINGLE)
    return members


def _fused_aromatic(b: _Builder, rng: np.random.Generator) -> list[int]:
    """Naphthalene-style fusion: a second aromatic ring sharing one bond."""
    first = _aromatic_ring(b, rng, allow_hetero=False)
    i = int(rng.integers(len(first)))
    shared_a, shared_b = first[i], first[(i + 1) % len(first)]
    if b.free[shared_a] < 1 or b.free[shared_b] < 1:
        return first
    new = [b.add_atom("C", budget=3, aromatic=True) for _ in range(4)]
    chain = [shared_a] + new + [shared_b]
    for x, y in zip(chain, chain[1:]):
        b.add_bond(x, y, BondOrder.AROMATIC)
    return first + new


_CHAIN_ELEMENTS = [("C", 4, 8), ("N", 3, 2), ("O", 2, 2), ("S", 2, 1)]
_TERMINALS = ["F", "Cl", "Br", "O", "N"]
# The cumulative table that ``rng.choice(elements, p=weights / weights.sum())``
# searches with its one ``rng.random()`` draw, computed as it computes it, so
# a bisection of the same draw picks the same element.
_CHAIN_WEIGHTS = np.array([w for _, _, w in _CHAIN_ELEMENTS], dtype=float)
_CHAIN_CDF = (_CHAIN_WEIGHTS / _CHAIN_WEIGHTS.sum()).cumsum()
_CHAIN_CDF = (_CHAIN_CDF / _CHAIN_CDF[-1]).tolist()


def _grow_chain(b: _Builder, rng: np.random.Generator, anchor: int, length: int) -> None:
    current = anchor
    for _ in range(length):
        if b.free[current] <= 0:
            return
        element, budget, _ = _CHAIN_ELEMENTS[bisect.bisect_right(_CHAIN_CDF, rng.random())]
        order = BondOrder.SINGLE
        if element == "C" and b.free[current] >= 2 and rng.random() < 0.15:
            order = BondOrder.DOUBLE
        new = b.add_atom(element, budget=budget)
        b.add_bond(current, new, order)
        current = new


def _decorate(b: _Builder, rng: np.random.Generator, n_substituents: int) -> None:
    for _ in range(n_substituents):
        slots = b.open_slots()
        if not slots:
            return
        anchor = int(rng.choice(slots))
        if rng.random() < 0.4:
            element = str(rng.choice(_TERMINALS))
            budget = {"F": 1, "Cl": 1, "Br": 1, "O": 2, "N": 3}[element]
            new = b.add_atom(element, budget=budget)
            b.add_bond(anchor, new, BondOrder.SINGLE)
        else:
            _grow_chain(b, rng, anchor, int(rng.integers(1, 4)))


def random_molecule(
    rng: np.random.Generator, min_heavy: int = 3, max_heavy: int = 12
) -> Molecule:
    """One random valid molecule with a heavy-atom count in the given range.

    Every molecule has at least two heavy atoms, so a range that holds no
    count of two or more raises ``ValueError`` instead of retrying forever.
    """
    if max_heavy < max(2, min_heavy):
        raise ValueError(f"no molecule has {min_heavy} to {max_heavy} heavy atoms")
    while True:
        b = _Builder()
        roll = rng.random()
        if max_heavy >= 10 and roll < 0.15:
            _fused_aromatic(b, rng)
        elif max_heavy >= 6 and roll < 0.45:
            _aromatic_ring(b, rng)
        elif max_heavy >= 5 and roll < 0.6:
            _saturated_ring(b, rng)
        else:
            first = b.add_atom("C", budget=4)
            _grow_chain(b, rng, first, int(rng.integers(1, max(2, max_heavy - 1))))
        room = max_heavy - len(b.atoms)
        if room > 0:
            _decorate(b, rng, int(rng.integers(0, room + 1)))
        if min_heavy <= len(b.atoms) <= max_heavy:
            return b.finish()


def random_smiles(rng: np.random.Generator, min_heavy: int = 3, max_heavy: int = 12) -> str:
    return canonical_smiles(random_molecule(rng, min_heavy, max_heavy))


def smiles_corpus(
    n: int, seed: int, min_heavy: int = 3, max_heavy: int = 10, unique: bool = False
) -> list[str]:
    """n random valid canonical strings (optionally distinct)."""
    rng = np.random.default_rng(derive_seed("corpus", seed))
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        smiles = random_smiles(rng, min_heavy, max_heavy)
        if unique:
            if smiles in seen:
                continue
            seen.add(smiles)
        out.append(smiles)
    return out


def random_pocket_sequence(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(list(_AMINO_ACIDS), size=length))


def synthetic_complexes(
    n_pockets: int,
    seed: int,
    ligand_counts: tuple[int, int] = (1, 6),
    max_heavy: int = 12,
    with_sequences: bool = False,
) -> list[ComplexRecord]:
    """Deterministic pocket dataset with distinct ligands per pocket."""
    records: list[ComplexRecord] = []
    for i in range(n_pockets):
        pocket_id = f"pocket{i:05d}"
        rng = np.random.default_rng(derive_seed("complex", seed, pocket_id))
        n_ligands = int(rng.integers(ligand_counts[0], ligand_counts[1] + 1))
        ligands: list[str] = []
        seen: set[str] = set()
        while len(ligands) < n_ligands:
            smiles = random_smiles(rng, 3, max_heavy)
            if smiles not in seen:
                seen.add(smiles)
                ligands.append(smiles)
        reference = float(np.round(-5.0 - 5.0 * rng.random(), 2))
        sequence = random_pocket_sequence(rng, int(rng.integers(8, 24))) if with_sequences else None
        homology = HOMOLOGOUS if rng.random() < 0.4 else NON_HOMOLOGOUS
        records.append(
            ComplexRecord(
                pocket_id=pocket_id,
                ligand_smiles=tuple(ligands),
                reference_vina=reference,
                pocket_sequence=sequence,
                homology=homology,
            )
        )
    return records
