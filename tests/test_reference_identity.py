"""The integer-array parser, ranking, writer and fingerprint give exactly what
the versions they replaced give.

``tests/oracles.py`` keeps the tuple-keyed parser with its post-parse checks,
``canonical_ranks`` and the writer as first written. Every molecule, error
(class, message and offset), warning, rank, canonical string and fingerprint
bit must be the same, on the large corpus, on its one-character mutants, on
highly symmetric graphs and on the ``import-eval`` benchmark strings.
"""

import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from molchord.molgraph import (
    Atom,
    Bond,
    BondOrder,
    Molecule,
    SmilesSyntaxError,
    canonical_ranks,
    canonical_smiles,
    make_molecule,
    morgan_fingerprint,
    parse_smiles,
    validate_valence,
)

from .oracles import (
    canonical_ranks_reference,
    canonical_smiles_reference,
    morgan_bits_oracle,
    parse_smiles_reference,
    validate_valence_reference,
)
from .test_canonical import symmetric_graphs

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
# Every character the parser treats specially, letters it does not know, and
# two non-ASCII digits (one that int() reads, one that it does not), which the
# parser rejects and the reference, as first written, reads as digits.
MUTANT_ALPHABET = "CNOSPFIBrlcnospH[]()=#:-/\\.%0123456789+@X$ ²٣"


def _outcome(parse, text: str):
    """A parse's molecule or (error class, message, offset), and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except Exception as exc:
            result = (type(exc), str(exc), getattr(exc, "offset", None))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_canonical_form(mol) -> None:
    assert canonical_ranks(mol) == canonical_ranks_reference(mol)
    assert canonical_smiles(mol) == canonical_smiles_reference(mol)


def test_corpus_parses_ranks_and_writes_as_the_reference(large_corpus):
    for text in large_corpus:
        mol = parse_smiles(text)
        assert mol == parse_smiles_reference(text), text
        _assert_same_canonical_form(mol)


def test_one_character_mutants_parse_as_the_reference(large_corpus):
    rnd = random.Random(11)
    outcomes = set()
    for _ in range(3000):
        text = rnd.choice(large_corpus)
        i = rnd.randrange(len(text) + 1)
        ch = rnd.choice(MUTANT_ALPHABET)
        edit = rnd.randrange(3)  # substitute, insert, delete
        mutant = (text[:i] + ch + text[i + 1 :], text[:i] + ch + text[i:], text[:i] + text[i + 1 :])[edit]
        if not mutant.isascii():
            # the reference reads any Unicode digit; the parser rejects the character
            (result, caught), offset = _outcome(parse_smiles, mutant), mutant.index(ch)
            assert result == (SmilesSyntaxError, f"non-ASCII character {ch!r} (offset {offset})",
                              offset) and caught == [], mutant
            outcomes.add("non-ASCII")
            continue
        expected = _outcome(parse_smiles_reference, mutant)
        assert _outcome(parse_smiles, mutant) == expected, mutant
        if isinstance(expected[0], Molecule):
            outcomes.add("parsed")
            _assert_same_canonical_form(expected[0])
        else:
            outcomes.add(expected[0][0].__name__)
    # the mutants reach every failure the parser reports
    assert outcomes >= {
        "parsed", "AromaticityError", "SmilesSyntaxError", "UnclosedBranch", "UnknownElement",
        "UnmatchedRingBond", "ValenceViolation", "non-ASCII",
    }


@given(symmetric_graphs)
def test_symmetric_graphs_rank_and_write_as_the_reference(smiles):
    _assert_same_canonical_form(parse_smiles(smiles))


def test_import_eval_strings_write_and_fingerprint_as_the_reference(tmp_path):
    subprocess.run([sys.executable, str(INPUTS), str(tmp_path), "--seed", "7"], check=True,
                   capture_output=True)
    texts = [json.loads(line)["smiles"] for line in open(tmp_path / "generations.jsonl")]
    texts += [s for line in open(tmp_path / "complexes.jsonl") for s in json.loads(line)["ligand_smiles"]]
    for text in dict.fromkeys(texts):
        mol = parse_smiles(text)
        assert mol == parse_smiles_reference(text), text
        _assert_same_canonical_form(mol)
        assert morgan_fingerprint(mol).bits == morgan_bits_oracle(mol), text


@given(st.integers(0, 2**32 - 1))
def test_valence_issues_match_the_reference(seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 10)
    atoms = [
        Atom(rnd.choice("CNOSPB") if rnd.random() < 0.9 else "Fe", rnd.random() < 0.3,
             rnd.choice([0, 0, 0, 1, -1, 2, -9, 9]), rnd.choice([0, 0, 1, 3]))
        for _ in range(n)
    ]
    pairs = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(rnd.randint(0, 3 * n)) if n > 1}
    bonds = [Bond(a, b, rnd.choice(list(BondOrder))) for a, b in sorted(pairs)]
    mol = make_molecule(atoms, bonds)
    assert validate_valence(mol) == validate_valence_reference(mol)
