"""SMILES reader.

Supports the organic subset, bracket atoms with charge and explicit hydrogen
counts, branches, ring-closure digits (including %nn), dot disconnection and
explicit bond symbols. Stereo marks, isotopes and atom classes are parsed and
dropped with a warning. Aromaticity is syntactic: lowercase atoms and ':'
bonds are accepted and must lie on a ring (a cycle of bonds).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    AromaticityError,
    EmptyInput,
    SmilesError,
    SmilesFeatureWarning,
    SmilesSyntaxError,
    UnclosedBranch,
    UnknownElement,
    UnmatchedRingBond,
    ValenceIssue,
    ValenceViolation,
)
from .model import (
    AROMATIC_ORGANIC,
    KNOWN_ELEMENTS,
    Atom,
    Bond,
    BondOrder,
    Molecule,
    make_molecule,
    max_valence,
)
from .rings import ring_bonds

MAX_INPUT_LENGTH = 4096

_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


@dataclass
class _PendingRing:
    atom: int
    order: BondOrder | None
    offset: int


def parse_smiles(text: str) -> Molecule:
    """Parse ``text`` into a Molecule with aromatic ring membership and valence checked."""
    if text == "":
        raise EmptyInput("empty SMILES", 0)
    if len(text) > MAX_INPUT_LENGTH:
        raise SmilesSyntaxError(f"input longer than {MAX_INPUT_LENGTH} characters", MAX_INPUT_LENGTH)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    bond_keys: set[tuple[int, int]] = set()

    prev_atom: int | None = None
    pending_order: BondOrder | None = None
    pending_offset = -1
    branch_stack: list[tuple[int, int]] = []  # (atom index to return to, offset of '(')
    open_rings: dict[int, _PendingRing] = {}

    def add_bond(a: int, b: int, order: BondOrder, offset: int) -> None:
        key = (a, b) if a < b else (b, a)
        if a == b:
            raise UnmatchedRingBond("ring bond back to the same atom", offset)
        if key in bond_keys:
            raise UnmatchedRingBond(f"duplicate bond between atoms {key[0]} and {key[1]}", offset)
        bond_keys.add(key)
        bonds.append(Bond(key[0], key[1], order))

    def default_order(a: int, b: int) -> BondOrder:
        if atoms[a].aromatic and atoms[b].aromatic:
            return BondOrder.AROMATIC
        return BondOrder.SINGLE

    def attach_atom(atom: Atom, offset: int) -> None:
        nonlocal prev_atom, pending_order, pending_offset
        idx = len(atoms)
        atoms.append(atom)
        if prev_atom is not None:
            order = pending_order if pending_order is not None else default_order(prev_atom, idx)
            add_bond(prev_atom, idx, order, pending_offset if pending_order is not None else offset)
        elif pending_order is not None:
            raise SmilesSyntaxError("bond symbol with no preceding atom", pending_offset)
        pending_order = None
        prev_atom = idx

    def close_ring(num: int, offset: int) -> None:
        nonlocal pending_order
        if prev_atom is None:
            raise SmilesSyntaxError("ring-closure digit before any atom", offset)
        if num in open_rings:
            pending = open_rings.pop(num)
            order = pending.order
            if pending_order is not None:
                if order is not None and order != pending_order:
                    raise UnmatchedRingBond(
                        f"conflicting bond orders for ring closure {num}", offset
                    )
                order = pending_order
            if order is None:
                order = default_order(pending.atom, prev_atom)
            add_bond(pending.atom, prev_atom, order, offset)
        else:
            open_rings[num] = _PendingRing(prev_atom, pending_order, offset)
        pending_order = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        two = text[i : i + 2]
        if two in ("Cl", "Br"):
            attach_atom(Atom(element=two, index=len(atoms), offset=i), i)
            i += 2
        elif ch in "BCNOPSFI":
            attach_atom(Atom(element=ch, index=len(atoms), offset=i), i)
            i += 1
        elif ch in "bcnops":
            attach_atom(Atom(element=ch.upper(), aromatic=True, index=len(atoms), offset=i), i)
            i += 1
        elif ch == "[":
            atom, i = _parse_bracket(text, i, len(atoms))
            attach_atom(atom, atom.offset)
        elif ch in _BOND_SYMBOLS:
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = _BOND_SYMBOLS[ch]
            pending_offset = i
            i += 1
        elif ch in "/\\":
            warnings.warn(
                f"stereo bond mark '{ch}' at offset {i} ignored", SmilesFeatureWarning, stacklevel=2
            )
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = BondOrder.SINGLE
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev_atom is None:
                raise SmilesSyntaxError("branch before any atom", i)
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '('", pending_offset)
            branch_stack.append((prev_atom, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnclosedBranch("unmatched ')'", i)
            if pending_order is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", pending_offset)
            prev_atom = branch_stack.pop()[0]
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                raise SmilesSyntaxError("'%' must be followed by two digits", i)
            close_ring(int(text[i + 1 : i + 3]), i)
            i += 3
        elif ch == ".":
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pending_offset)
            prev_atom = None
            i += 1
        else:
            raise UnknownElement(f"unexpected character {ch!r}", i)

    if branch_stack:
        raise UnclosedBranch("unclosed '('", branch_stack[-1][1])
    if open_rings:
        num, pending = min(open_rings.items())
        raise UnmatchedRingBond(f"ring closure {num} never closed", pending.offset)
    if pending_order is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_offset)
    if not atoms:
        raise EmptyInput("no atoms in input", 0)

    mol = make_molecule(atoms, bonds)
    _check_aromatic_membership(mol)
    issues = validate_valence(mol)
    if issues:
        raise ValenceViolation(issues[0])
    return mol


def try_parse(text: str) -> Molecule | None:
    """Parse if possible, silently: None on any error, feature warnings muted.

    For validity screening of sampled strings, where per-string diagnostics
    are noise.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        try:
            return parse_smiles(text)
        except SmilesError:
            return None


def _parse_bracket(text: str, start: int, index: int) -> tuple[Atom, int]:
    """Parse one bracket atom starting at ``text[start] == '['``; it becomes
    atom ``index``."""
    end = text.find("]", start)
    if end < 0:
        raise SmilesSyntaxError("unterminated bracket atom", start)
    body = text[start + 1 : end]
    i = 0
    n = len(body)

    isotope = 0
    while i < n and body[i].isdigit():
        isotope = isotope * 10 + int(body[i])
        i += 1
    if isotope:
        warnings.warn(
            f"isotope label at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )

    if i >= n:
        raise SmilesSyntaxError("bracket atom without element symbol", start)
    aromatic = False
    sym_offset = start + 1 + i
    if body[i] in AROMATIC_ORGANIC:
        element = body[i].upper()
        aromatic = True
        i += 1
    elif body[i].isupper():
        element = body[i]
        i += 1
        if i < n and body[i].islower() and element + body[i] in KNOWN_ELEMENTS:
            element += body[i]
            i += 1
    else:
        raise UnknownElement(f"unknown element start {body[i]!r}", sym_offset)
    if element not in KNOWN_ELEMENTS:
        raise UnknownElement(f"unknown element {element!r}", sym_offset)

    while i < n and body[i] == "@":
        warnings.warn(
            f"chirality mark at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )
        i += 1

    explicit_h = 0
    if i < n and body[i] == "H":
        i += 1
        if i < n and body[i].isdigit():
            explicit_h = 0
            while i < n and body[i].isdigit():
                explicit_h = explicit_h * 10 + int(body[i])
                i += 1
        else:
            explicit_h = 1

    charge = 0
    if i < n and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        if i < n and body[i].isdigit():
            magnitude = 0
            while i < n and body[i].isdigit():
                magnitude = magnitude * 10 + int(body[i])
                i += 1
        else:
            magnitude = 1
            while i < n and body[i] == symbol:
                magnitude += 1
                i += 1
        charge = sign * magnitude

    if i < n and body[i] == ":":
        i += 1
        if i >= n or not body[i].isdigit():
            raise SmilesSyntaxError("atom class ':' without digits", start + 1 + i)
        while i < n and body[i].isdigit():
            i += 1
        warnings.warn(
            f"atom class at offset {start} ignored", SmilesFeatureWarning, stacklevel=3
        )

    if i != n:
        raise SmilesSyntaxError(f"unexpected {body[i]!r} in bracket atom", start + 1 + i)

    atom = Atom(
        element=element,
        aromatic=aromatic,
        charge=charge,
        explicit_h=explicit_h,
        index=index,
        offset=start,
    )
    return atom, end + 1


def _check_aromatic_membership(mol: Molecule) -> None:
    if not any(atom.aromatic for atom in mol.atoms) and not any(
        bond.order == BondOrder.AROMATIC for bond in mol.bonds
    ):
        return
    on_ring = ring_bonds(mol)
    ring_atoms: set[int] = set()
    for bond, flag in zip(mol.bonds, on_ring):
        if flag:
            ring_atoms.update((bond.a, bond.b))
    for atom in mol.atoms:
        if atom.aromatic and atom.index not in ring_atoms:
            raise AromaticityError(
                f"aromatic atom {atom.index} is not in any ring", atom.offset
            )
    for bond, flag in zip(mol.bonds, on_ring):
        if bond.order == BondOrder.AROMATIC and not flag:
            a = mol.atoms[bond.a]
            raise AromaticityError(
                f"aromatic bond {bond.key()} is not in any ring", a.offset
            )


def validate_valence(mol: Molecule) -> list[ValenceIssue]:
    """Return over-valent atoms (empty list when the molecule is fine).

    Each bond adds its integer order; aromatic bonds add 1 apiece plus one
    extra unit per atom belonging to an aromatic system, so a ring carbon in
    benzene totals 3 and keeps room for one hydrogen. Elements outside the
    valence table are not checked.
    """
    sums = [0] * len(mol.atoms)
    aromatic_member = [atom.aromatic for atom in mol.atoms]
    for bond in mol.bonds:
        order = 1 if bond.order == BondOrder.AROMATIC else int(bond.order)
        sums[bond.a] += order
        sums[bond.b] += order
        if bond.order == BondOrder.AROMATIC:
            aromatic_member[bond.a] = True
            aromatic_member[bond.b] = True

    issues: list[ValenceIssue] = []
    for atom in mol.atoms:
        allowed = max_valence(atom.element, atom.charge)
        if allowed is None:
            continue
        total = sums[atom.index] + atom.explicit_h
        if aromatic_member[atom.index]:
            total += 1
        if total > allowed:
            issues.append(
                ValenceIssue(
                    atom_index=atom.index,
                    element=atom.element,
                    valence=total,
                    allowed=allowed,
                    offset=atom.offset,
                )
            )
    return issues
