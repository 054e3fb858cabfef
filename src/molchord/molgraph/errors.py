"""Parse and validation errors. Every error carries the byte offset it refers to."""

from __future__ import annotations

from typing import NamedTuple


class SmilesError(ValueError):
    """Base class for SMILES parsing/validation failures."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class EmptyInput(SmilesError):
    pass


class SmilesSyntaxError(SmilesError):
    """Structurally invalid input not covered by a more specific error."""


class UnclosedBranch(SmilesError):
    """Unbalanced '(' / ')'."""


class UnmatchedRingBond(SmilesError):
    """Ring-closure digit left open, reused illegally, or with conflicting order."""


class UnknownElement(SmilesError):
    pass


class AromaticityError(SmilesError):
    """Aromatic atom or bond that lies on no ring (no cycle of bonds)."""


class ValenceIssue(NamedTuple):
    """One over-valent atom, returned as data by validate_valence."""

    atom_index: int
    element: str
    valence: float
    allowed: float
    offset: int


class ValenceViolation(SmilesError):
    def __init__(self, issue: ValenceIssue):
        super().__init__(
            f"atom {issue.atom_index} ({issue.element}) has valence "
            f"{issue.valence:g} > {issue.allowed:g}",
            issue.offset,
        )
        self.issue = issue


class SmilesFeatureWarning(UserWarning):
    """Accepted-but-discarded input features (stereo marks, isotopes, atom classes)."""


class CanonicalizationLimit(SmilesError):
    """The canonical-ordering search reached its work cap, or the canonical
    string would need more than 99 ring-closure digits open at once."""
