import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molchord.molgraph import (
    AromaticityError,
    Atom,
    Bond,
    BondOrder,
    EmptyInput,
    SmilesError,
    SmilesFeatureWarning,
    SmilesSyntaxError,
    UnclosedBranch,
    UnknownElement,
    UnmatchedRingBond,
    ValenceViolation,
    canonicalize,
    count_fused_rings,
    make_molecule,
    morgan_fingerprint,
    parse_smiles,
    try_canonicalize,
    try_parse,
    validate_valence,
)

from .oracles import component_count, cyclomatic_number, greedy_min_cycle_basis


def test_benzene_counts():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.atoms) == 6
    assert len(mol.bonds) == 6
    assert cyclomatic_number(mol) == 1
    assert all(a.aromatic for a in mol.atoms)
    assert all(b.order == BondOrder.AROMATIC for b in mol.bonds)


def test_naphthalene_counts():
    mol = parse_smiles("c1ccc2ccccc2c1")
    assert len(mol.atoms) == 10
    assert len(mol.bonds) == 11
    assert cyclomatic_number(mol) == 2


def test_branches_and_bonds():
    mol = parse_smiles("CC(=O)O")
    assert len(mol.atoms) == 4
    orders = sorted(int(b.order) for b in mol.bonds)
    assert orders == [1, 1, 2]


def test_dot_disconnection():
    mol = parse_smiles("CC.O")
    assert len(mol.atoms) == 3
    assert len(mol.bonds) == 1
    assert component_count(mol) == 2


def test_two_letter_elements_vs_aromatic_pair():
    assert [a.element for a in parse_smiles("ClBr").atoms] == ["Cl", "Br"]
    mol = parse_smiles("Sc1ccccc1")  # S bonded to an aromatic carbon
    assert mol.atoms[0].element == "S"
    assert not mol.atoms[0].aromatic
    assert sum(a.aromatic for a in mol.atoms) == 6


def test_percent_ring_closure():
    mol = parse_smiles("C%10CCCC%10")
    rings = greedy_min_cycle_basis(len(mol.atoms), [b.key() for b in mol.bonds])
    assert cyclomatic_number(mol) == 1
    assert [len(r) for r in rings] == [5]


def test_explicit_ring_bond_order():
    mol = parse_smiles("C=1CCCCC=1")
    closure = [b for b in mol.bonds if b.order == BondOrder.DOUBLE]
    assert len(closure) == 1


def test_bracket_atoms():
    mol = parse_smiles("[NH4+]")
    atom = mol.atoms[0]
    assert (atom.element, atom.charge, atom.explicit_h) == ("N", 1, 4)
    mol = parse_smiles("[O-]C")
    assert mol.atoms[0].charge == -1
    mol = parse_smiles("[Fe++]")
    assert mol.atoms[0].charge == 2
    mol = parse_smiles("[Fe+2]")
    assert mol.atoms[0].charge == 2


def test_stereo_and_isotope_discarded_with_warning():
    with pytest.warns(SmilesFeatureWarning):
        mol = parse_smiles("C/C=C/C")
    assert len(mol.atoms) == 4
    with pytest.warns(SmilesFeatureWarning):
        mol = parse_smiles("[13C]")
    assert mol.atoms[0].element == "C"
    with pytest.warns(SmilesFeatureWarning):
        mol = parse_smiles("[C@H4]")
    assert mol.atoms[0].explicit_h == 4


@pytest.mark.parametrize(
    "text, exc, offset",
    [
        ("C(", UnclosedBranch, 1),
        ("C)C", UnclosedBranch, 1),
        ("C1CC", UnmatchedRingBond, 1),
        ("C11", UnmatchedRingBond, 2),
        ("Xx", UnknownElement, 0),
        ("C$C", UnknownElement, 1),
        ("", EmptyInput, 0),
        ("CC=", SmilesSyntaxError, 2),
        ("C==C", SmilesSyntaxError, 2),
        ("C(=)C", SmilesSyntaxError, 2),
        ("[C", SmilesSyntaxError, 0),
        ("C%1C", SmilesSyntaxError, 1),
        ("C=1CCCCC#1", UnmatchedRingBond, 9),
    ],
)
def test_error_offsets(text, exc, offset):
    with pytest.raises(exc) as excinfo:
        parse_smiles(text)
    assert excinfo.value.offset == offset


def test_aromatic_atom_requires_ring():
    with pytest.raises(AromaticityError):
        parse_smiles("cc")


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("cc", "aromatic atom 0 is not in any ring", 0),
        ("c1ccccc1.c", "aromatic atom 6 is not in any ring", 9),
        ("CC1CC1c", "aromatic atom 4 is not in any ring", 6),
        ("C1CC1[nH]C", "aromatic atom 3 is not in any ring", 5),
        ("c1cc2ccccc2cc1-c(C)C", "aromatic atom 10 is not in any ring", 15),
        ("c1ccccc1c1ccccc1", "aromatic bond (5, 6) is not in any ring", 6),
        ("c1ccccc1:C", "aromatic bond (5, 6) is not in any ring", 6),
        ("C:C", "aromatic bond (0, 1) is not in any ring", 0),
    ],
)
def test_aromatic_error_messages_and_offsets(text, message, offset):
    # atoms are checked in index order before bonds in bond order
    with pytest.raises(AromaticityError) as excinfo:
        parse_smiles(text)
    assert str(excinfo.value) == f"{message} (offset {offset})"
    assert excinfo.value.offset == offset


def test_aromatic_bond_on_a_ring_of_plain_atoms_accepted():
    assert cyclomatic_number(parse_smiles("C1CC:C1")) == 1


def test_aromatic_bond_between_rings_rejected():
    # without an explicit single bond the inter-ring bond reads as aromatic
    with pytest.raises(AromaticityError):
        parse_smiles("c1ccccc1c1ccccc1")
    mol = parse_smiles("c1ccccc1-c1ccccc1")
    assert len(mol.atoms) == 12


def test_valence_ok_cases():
    assert validate_valence(parse_smiles("C")) == []
    assert validate_valence(parse_smiles("O=C=O")) == []
    assert validate_valence(parse_smiles("C#N")) == []
    assert validate_valence(parse_smiles("c1ccncc1")) == []
    assert validate_valence(parse_smiles("c1ccsc1")) == []


def test_valence_violation_at_atom_zero():
    with pytest.raises(ValenceViolation) as excinfo:
        parse_smiles("C(C)(C)(C)(C)C")
    assert excinfo.value.issue.atom_index == 0
    assert excinfo.value.issue.valence == 5
    mol = make_molecule([Atom("C") for _ in range(6)], [Bond(0, i) for i in range(1, 6)])
    issues = validate_valence(mol)
    assert [i.atom_index for i in issues] == [0]


def test_charge_shifts_valence_cap():
    parse_smiles("[NH4+]")  # ok: cation nitrogen holds 4
    with pytest.raises(ValenceViolation):
        parse_smiles("[NH4]")


def test_aromatic_accounting_rejects_lone_pair_heteroaromatics():
    # The one-extra-unit-per-aromatic-atom rule has no lone-pair special case,
    # so furan/pyrrole style atoms are deliberately rejected.
    with pytest.raises(ValenceViolation):
        parse_smiles("c1ccoc1")
    with pytest.raises(ValenceViolation):
        parse_smiles("c1cc[nH]c1")


def test_max_length_guard():
    with pytest.raises(SmilesSyntaxError):
        parse_smiles("C" * 5000)


def test_try_parse():
    assert try_parse("CCO") is not None
    assert try_parse("C((") is None
    assert try_parse("") is None


def test_fused_count_available_after_parse(small_corpus):
    for smiles in small_corpus[:50]:
        mol = parse_smiles(smiles)
        assert count_fused_rings(mol) >= 0


def test_atoms_and_bonds_are_light_immutable_records():
    atom = Atom("C", True, 1, 2, 3, 4)
    assert atom == Atom(element="C", aromatic=True, charge=1, explicit_h=2, index=3, offset=4)
    assert Atom("N") == Atom("N", False, 0, 0, -1, -1)
    assert hash(atom) == hash(Atom("C", True, 1, 2, 3, 4)) and len({atom, atom._replace()}) == 1
    assert atom[:4] == ("C", True, 1, 2)
    assert Bond(3, 1).order == BondOrder.SINGLE and Bond(3, 1).key() == (1, 3)
    assert Bond(a=1, b=3, order=BondOrder.DOUBLE) == Bond(1, 3, BondOrder.DOUBLE)
    with pytest.raises(AttributeError):
        atom.index = 0


# Non-ASCII digits: superscript two, Arabic-Indic three, Bengali one, fullwidth five.
NON_ASCII_DIGITS = "²٣১５"
SMILES_TEXT = st.text(alphabet="CNOScn()[]=#%+-@H:." + "0123456789" + NON_ASCII_DIGITS, max_size=24)


@given(st.one_of(st.text(), SMILES_TEXT))
@settings(max_examples=500)
@example("C²CC")
@example("[²CH4]")
@example("[CH²]")
@example("C%²²CC%²²")
@example("C১CC১")
def test_any_string_gives_a_molecule_or_a_smiles_error(text):
    try:
        mol = parse_smiles(text)
    except SmilesError:
        mol = None
    else:
        assert text.isascii()  # SMILES is ASCII: no other digit closes a ring
        morgan_fingerprint(mol)
        count_fused_rings(mol)
    try:
        canon = canonicalize(text)
    except SmilesError:
        canon = None
    assert (try_parse(text) is None) == (mol is None)
    assert try_canonicalize(text) == canon
