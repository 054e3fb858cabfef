"""Hypothesis strategies for molecular graphs shared by several test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from molchord.molgraph import Atom, Bond, make_molecule, parse_smiles

NAMED_RING_SYSTEMS = (
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C1CC2CCC1C2",  # norbornane
    "C1CCC2(CC1)CCCC2",  # spiro[4.5]decane
    "c1ccc2cc3ccccc3cc2c1",  # anthracene
    "C1CC2CCC3CCCC4CCC1C2C34",  # fused tetracycle
    "c1ccc(-c2ccccc2)cc1CC1CC1",  # rings joined by bridges
)


@st.composite
def ring_assemblies(draw):
    """Rings grown from a first ring by spiro atoms, fused bonds, bridging
    paths between any two atoms and pendant chains (bridges of the graph),
    sometimes beside a second component, or one of the named ring systems."""
    if draw(st.booleans()):
        return parse_smiles(draw(st.sampled_from(NAMED_RING_SYSTEMS)))
    elements: list[str] = []
    bonds: set[tuple[int, int]] = set()

    def new_atom() -> int:
        elements.append(draw(st.sampled_from("CCCNO")))
        return len(elements) - 1

    def path(a: int, b: int | None, inner: int) -> None:
        prev = a
        for _ in range(inner):
            cur = new_atom()
            bonds.add((prev, cur))
            prev = cur
        if b is not None and b != prev and (min(prev, b), max(prev, b)) not in bonds:
            bonds.add((min(prev, b), max(prev, b)))

    def ring(size: int) -> None:
        first = new_atom()
        path(first, first, size - 1)

    for _ in range(draw(st.integers(1, 2))):  # components
        ring(draw(st.integers(3, 8)))
        for _ in range(draw(st.integers(0, 4))):
            atoms = len(elements)
            a = draw(st.integers(0, atoms - 1))
            op = draw(st.sampled_from(["spiro", "fused", "bridged", "pendant"]))
            if op == "spiro":
                path(a, a, draw(st.integers(2, 6)))
            elif op == "fused":
                a, b = draw(st.sampled_from(sorted(bonds)))
                path(a, b, draw(st.integers(1, 5)))
            elif op == "bridged":
                path(a, draw(st.integers(0, atoms - 1)), draw(st.integers(0, 3)))
            else:
                path(a, None, draw(st.integers(1, 3)))
    atoms = [Atom(element=e) for e in elements]
    return make_molecule(atoms, [Bond(a, b) for a, b in sorted(bonds)])
