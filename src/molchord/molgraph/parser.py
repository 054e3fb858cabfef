"""SMILES reader.

Supports the organic subset, bracket atoms with charge and explicit hydrogen
counts, branches, ring-closure digits (including %nn), dot disconnection and
explicit bond symbols. Stereo marks, isotopes and atom classes are parsed and
dropped with a warning. Aromaticity is syntactic: lowercase atoms and ':'
bonds are accepted and must lie on a ring (a cycle of bonds). SMILES is
ASCII: any other character, a non-ASCII digit too, is a syntax error.
"""

from __future__ import annotations

import warnings

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
    ORGANIC_SUBSET,
    Atom,
    Bond,
    BondOrder,
    Molecule,
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
_SINGLE = BondOrder.SINGLE
_AROMATIC = BondOrder.AROMATIC
# What a bond adds to each end's valence, by order: aromatic bonds add 1.
_VALENCE_OF = (0, 1, 2, 3, 1)
# ``max_valence`` of every element at the charges a bracket atom commonly
# carries; other charges are computed when they occur.
_CAPS = {(e, charge): max_valence(e, charge) for e in KNOWN_ELEMENTS for charge in range(-8, 9)}
# Organic-subset tokens: (element, aromatic).
_ORGANIC = {
    **{e: (e, False) for e in ORGANIC_SUBSET},
    **{e: (e.upper(), True) for e in AROMATIC_ORGANIC},
}
_new = tuple.__new__  # builds an Atom or Bond without its keyword-handling __new__


def _valence_cap(element: str, charge: int) -> int | None:
    key = (element, charge)
    return _CAPS[key] if key in _CAPS else max_valence(element, charge)


def parse_smiles(text: str) -> Molecule:
    """Parse ``text`` into a Molecule with aromatic ring membership and valence checked.

    Atoms are numbered in input order, and each bond is stored with its lower
    atom first. A chain bond always joins a new atom to an earlier one, so
    only ring closures can repeat a bond or close onto their own atom; those
    are checked as they close.
    """
    if text == "":
        raise EmptyInput("empty SMILES", 0)
    if len(text) > MAX_INPUT_LENGTH:
        raise SmilesSyntaxError(f"input longer than {MAX_INPUT_LENGTH} characters", MAX_INPUT_LENGTH)
    if not text.isascii():  # OpenSMILES grammar: ring bonds and counts are ASCII digits
        offset = next(i for i, ch in enumerate(text) if ch > "\x7f")
        raise SmilesSyntaxError(f"non-ASCII character {text[offset]!r}", offset)

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    aromatic: list[bool] = []  # per atom
    chain_parent: list[int] = []  # per atom: the atom its chain bond comes from, or -1
    closures: set[tuple[int, int]] = set()  # ring-closure bonds as (low, high)
    aromatic_symbol = False  # a ':' bond, which may join non-aromatic atoms

    prev = -1  # the atom the next bond starts from, -1 for none
    pending_order: BondOrder | None = None
    pending_offset = -1
    branch_stack: list[tuple[int, int]] = []  # (atom index to return to, offset of '(')
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}  # digit -> (atom, order, offset)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        organic = _ORGANIC.get(ch)
        if organic is not None or ch == "[":
            idx = len(atoms)
            if organic is not None:
                width = 1
                if ch in "CB" and text[i : i + 2] in _ORGANIC:  # Cl, Br
                    organic = _ORGANIC[text[i : i + 2]]
                    width = 2
                element, is_aromatic = organic
                atoms.append(_new(Atom, (element, is_aromatic, 0, 0, idx, i)))
                i += width
            else:
                atom, i = _parse_bracket(text, i, idx)
                atoms.append(atom)
                is_aromatic = atom.aromatic
            aromatic.append(is_aromatic)
            chain_parent.append(prev)
            if prev >= 0:
                if pending_order is None:
                    order = _AROMATIC if is_aromatic and aromatic[prev] else _SINGLE
                else:
                    order = pending_order
                bonds.append(_new(Bond, (prev, idx, order)))
            elif pending_order is not None:
                raise SmilesSyntaxError("bond symbol with no preceding atom", pending_offset)
            pending_order = None
            prev = idx
        elif ch in _BOND_SYMBOLS:
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = _BOND_SYMBOLS[ch]
            pending_offset = i
            aromatic_symbol = aromatic_symbol or ch == ":"
            i += 1
        elif ch in "/\\":
            warnings.warn(
                f"stereo bond mark '{ch}' at offset {i} ignored", SmilesFeatureWarning, stacklevel=2
            )
            if pending_order is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending_order = _SINGLE
            pending_offset = i
            i += 1
        elif ch == "(":
            if prev < 0:
                raise SmilesSyntaxError("branch before any atom", i)
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '('", pending_offset)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnclosedBranch("unmatched ')'", i)
            if pending_order is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", pending_offset)
            prev = branch_stack.pop()[0]
            i += 1
        elif "0" <= ch <= "9" or ch == "%":
            offset = i
            if ch == "%":
                if i + 2 >= n or not ("0" <= text[i + 1] <= "9" and "0" <= text[i + 2] <= "9"):
                    raise SmilesSyntaxError("'%' must be followed by two digits", i)
                num = int(text[i + 1 : i + 3])
                i += 3
            else:
                num = int(ch)
                i += 1
            if prev < 0:
                raise SmilesSyntaxError("ring-closure digit before any atom", offset)
            if num not in open_rings:
                open_rings[num] = (prev, pending_order, offset)
                pending_order = None
                continue
            other, order, _ = open_rings.pop(num)
            if pending_order is not None:
                if order is not None and order != pending_order:
                    raise UnmatchedRingBond(f"conflicting bond orders for ring closure {num}", offset)
                order = pending_order
            if order is None:
                order = _AROMATIC if aromatic[other] and aromatic[prev] else _SINGLE
            if other == prev:
                raise UnmatchedRingBond("ring bond back to the same atom", offset)
            low, high = (other, prev) if other < prev else (prev, other)
            if chain_parent[high] == low or (low, high) in closures:
                raise UnmatchedRingBond(f"duplicate bond between atoms {low} and {high}", offset)
            closures.add((low, high))
            bonds.append(_new(Bond, (low, high, order)))
            pending_order = None
        elif ch == ".":
            if pending_order is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pending_offset)
            prev = -1
            i += 1
        else:
            raise UnknownElement(f"unexpected character {ch!r}", i)

    if branch_stack:
        raise UnclosedBranch("unclosed '('", branch_stack[-1][1])
    if open_rings:
        num, (_, _, offset) = min(open_rings.items())
        raise UnmatchedRingBond(f"ring closure {num} never closed", offset)
    if pending_order is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_offset)
    if not atoms:
        raise EmptyInput("no atoms in input", 0)

    mol = Molecule(atoms, bonds)
    if aromatic_symbol or True in aromatic:
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


def _number(body: str, i: int) -> tuple[int | None, int]:
    """The number the ASCII digits at ``body[i]`` spell (None when there are
    none), and the index after them."""
    j = i
    while j < len(body) and "0" <= body[j] <= "9":
        j += 1
    return (int(body[i:j]) if j > i else None), j


def _parse_bracket(text: str, start: int, index: int) -> tuple[Atom, int]:
    """Parse one bracket atom starting at ``text[start] == '['``; it becomes
    atom ``index``."""
    end = text.find("]", start)
    if end < 0:
        raise SmilesSyntaxError("unterminated bracket atom", start)
    body = text[start + 1 : end]
    n = len(body)

    isotope, i = _number(body, 0)
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
        explicit_h, i = _number(body, i + 1)
        explicit_h = 1 if explicit_h is None else explicit_h

    charge = 0
    if i < n and body[i] in "+-":
        symbol = body[i]
        magnitude, i = _number(body, i + 1)
        if magnitude is None:
            magnitude = 1
            while i < n and body[i] == symbol:
                magnitude += 1
                i += 1
        charge = magnitude if symbol == "+" else -magnitude

    if i < n and body[i] == ":":
        atom_class, i = _number(body, i + 1)
        if atom_class is None:
            raise SmilesSyntaxError("atom class ':' without digits", start + 1 + i)
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
    """Every aromatic atom and bond lies on a ring: atoms in index order
    first, then bonds in bond order."""
    on_ring = ring_bonds(mol)
    ring_atom = [False] * len(mol.atoms)
    for (a, b, _), flag in zip(mol.bonds, on_ring):
        if flag:
            ring_atom[a] = ring_atom[b] = True
    for atom in mol.atoms:
        if atom.aromatic and not ring_atom[atom.index]:
            raise AromaticityError(
                f"aromatic atom {atom.index} is not in any ring", atom.offset
            )
    for bond, flag in zip(mol.bonds, on_ring):
        if bond.order == _AROMATIC and not flag:
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
    sums = [atom.explicit_h + atom.aromatic for atom in mol.atoms]
    in_system = [atom.aromatic for atom in mol.atoms]
    for a, b, order in mol.bonds:
        sums[a] += _VALENCE_OF[order]
        sums[b] += _VALENCE_OF[order]
        if order == _AROMATIC:
            for end in (a, b):
                if not in_system[end]:
                    in_system[end] = True
                    sums[end] += 1

    issues: list[ValenceIssue] = []
    for atom, total in zip(mol.atoms, sums):
        allowed = _valence_cap(atom.element, atom.charge)
        if allowed is not None and total > allowed:
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
