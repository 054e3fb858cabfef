"""Interleaved sequences: the pocket's structural block, then its targets.

The model is trained with next-token prediction on the targets only; the
structural vectors are context, never targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .features import PocketFeatures
from .vocab import Vocabulary


@dataclass(frozen=True, eq=False)
class InterleavedSequence:
    features: PocketFeatures
    suffix_ids: tuple[int, ...]  # the target token ids, then EOS

    @property
    def n_struct(self) -> int:
        return self.features.n_tokens


def build_interleaved(
    features: PocketFeatures,
    target_ids: tuple[int, ...] | list[int],
    vocab: Vocabulary,
) -> InterleavedSequence:
    suffix_ids = tuple(target_ids) + (vocab.eos_id,)
    vocab.check_ids(suffix_ids)
    return InterleavedSequence(features=features, suffix_ids=suffix_ids)
