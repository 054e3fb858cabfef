"""Token vocabulary for the sequence model.

Character-level over the SMILES alphabet, with the two-letter halogens kept
as single tokens plus BOS/EOS/PAD. A ``ModelConfig`` may list other tokens;
tokenization is greedy longest-match, which is unambiguous because no
multi-character token shares a prefix with a single-character one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BOS = "<bos>"
EOS = "<eos>"
PAD = "<pad>"

SMILES_CHARS = (
    "Cl", "Br",
    "B", "C", "N", "O", "P", "S", "F", "I", "H",
    "b", "c", "n", "o", "p", "s",
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
    "(", ")", "[", "]", "=", "#", ":", "+", "-", ".", "/", "\\", "@", "%",
)


class TokenOutOfVocab(ValueError):
    def __init__(self, piece: str, position: int):
        super().__init__(f"cannot tokenize {piece!r} at position {position}")
        self.piece = piece
        self.position = position


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for special in (BOS, EOS, PAD):
            if special not in self.index:
                raise ValueError(f"vocabulary missing {special}")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self.index[BOS]

    @property
    def eos_id(self) -> int:
        return self.index[EOS]

    @property
    def pad_id(self) -> int:
        return self.index[PAD]

    def encode(self, text: str) -> tuple[int, ...]:
        ids: list[int] = []
        i = 0
        while i < len(text):
            two = text[i : i + 2]
            if len(two) == 2 and two in self.index:
                ids.append(self.index[two])
                i += 2
            elif text[i] in self.index:
                ids.append(self.index[text[i]])
                i += 1
            else:
                raise TokenOutOfVocab(text[i], i)
        return tuple(ids)

    def decode(self, ids: tuple[int, ...] | list[int]) -> str:
        """The text of ``ids``; BOS, EOS and PAD are left out."""
        special = {self.bos_id, self.eos_id, self.pad_id}
        parts = []
        for tid in ids:
            if not 0 <= tid < self.size:
                raise TokenOutOfVocab(f"<id {tid}>", -1)
            if tid in special:
                continue
            parts.append(self.tokens[tid])
        return "".join(parts)

    def check_ids(self, ids) -> None:
        for tid in ids:
            if not 0 <= tid < self.size:
                raise TokenOutOfVocab(f"<id {tid}>", -1)


def make_vocabulary(tokens: tuple[str, ...] | list[str]) -> Vocabulary:
    tokens = tuple(tokens)
    return Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)})
