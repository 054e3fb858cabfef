"""Preference-data curation: dataset stratification, rewards, and pair building.

Pockets with more than two distinct ligands go to the supervised pool, the
rest to the preference pool. Preference pockets are kept only when the model's
own candidates are diverse enough, and each kept pocket contributes one
best-vs-worst pair under the fused-ring-penalized reward. ``curate`` runs
the filter and then ``build_pair_set``, the one sample -> score -> pair loop;
the CLI docks through it and the preference experiment scores through it with
a surrogate. Each phase asks its sampler once for every pocket's draws, and
``build_pair_set`` asks its scorer once for every pocket's candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

from .metrics import diversity
from .molgraph import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    Molecule,
    canonicalize,
    count_fused_rings,
    morgan_fingerprint,
    parse_smiles,
    try_canonicalize,
    try_parse,
)

DEFAULT_DIVERSITY_THRESHOLD = 0.8
DEFAULT_FUSED_PENALTY_WEIGHT = 0.5
DEFAULT_FILTER_SAMPLES = 100
FLOWS = ("online", "offline")
SFT_LIGAND_THRESHOLD = 2  # strictly more than this many distinct ligands

# sampler(pocket_ids, n) -> the texts of n draws for each pocket, in pocket order
Sampler = Callable[[Sequence[str], int], Sequence[Sequence[str]]]
# scorer((pocket_id, smiles) requests) -> ((pocket_id, smiles, score) rows and
# (pocket_id, error message) failures, one per molecule, each in request order)
Scorer = Callable[
    [Sequence[tuple[str, str]]],
    tuple[Sequence[tuple[str, str, float]], Sequence[tuple[str, str]]],
]


class DuplicatePocketId(ValueError):
    pass


class TooFewCandidates(ValueError):
    pass


class DegeneratePool(ValueError):
    pass


@dataclass(frozen=True)
class ComplexRecord:
    """One pocket with its ligands and optional side information."""

    pocket_id: str
    ligand_smiles: tuple[str, ...]
    reference_vina: float | None = None
    pocket_sequence: str | None = None
    homology: str | None = None


@dataclass(frozen=True)
class Partition:
    sft_pool: tuple[str, ...]
    dpo_pool: tuple[str, ...]


@dataclass(frozen=True)
class PreferencePair:
    pocket_id: str
    chosen: str
    rejected: str
    reward_chosen: float
    reward_rejected: float

    def __post_init__(self):
        if self.chosen == self.rejected:
            raise ValueError("chosen and rejected molecules must differ")
        if self.reward_chosen < self.reward_rejected:
            raise ValueError("chosen reward below rejected reward")


@dataclass(frozen=True)
class ScoredMolecule:
    smiles: str
    vina: float
    fused_count: int


@dataclass(frozen=True)
class FilterDecision:
    keep: bool
    diversity: float


@dataclass(frozen=True)
class CurationAudit:
    pocket_id: str
    kept: bool
    diversity: float | None
    n_valid: int
    reason: str


@dataclass(frozen=True)
class CurationResult:
    selected: tuple[str, ...]
    audit: tuple[CurationAudit, ...]


def _check_penalty_weight(lam: float) -> None:
    if not 0 <= lam < math.inf:  # rejects NaN as well
        raise ValueError(f"penalty weight must be finite and >= 0, got {lam}")


@dataclass(frozen=True)
class CurateConfig:
    """The ``[curate]`` settings (``lam`` is the ``lambda`` key).

    The ``online`` flow scores the first ``pair_docked`` valid molecules of
    ``pair_candidates`` fresh draws per kept pocket; ``offline`` scores every
    valid molecule of ``filter_samples`` draws.
    """

    filter_samples: int = DEFAULT_FILTER_SAMPLES
    pair_candidates: int = 32
    pair_docked: int = 5
    diversity_threshold: float = DEFAULT_DIVERSITY_THRESHOLD
    lam: float = DEFAULT_FUSED_PENALTY_WEIGHT
    flow: str = "online"

    def __post_init__(self):
        if self.flow not in FLOWS:
            raise ValueError(f"unknown curate flow {self.flow!r}")
        _check_penalty_weight(self.lam)


def partition_dataset(records: Sequence[ComplexRecord]) -> Partition:
    """Split pockets by distinct-ligand multiplicity (duplicates collapse)."""
    seen: set[str] = set()
    sft: list[str] = []
    dpo: list[str] = []
    for record in records:
        if record.pocket_id in seen:
            raise DuplicatePocketId(record.pocket_id)
        seen.add(record.pocket_id)
        distinct = {canonicalize(smiles) for smiles in record.ligand_smiles}
        (sft if len(distinct) > SFT_LIGAND_THRESHOLD else dpo).append(record.pocket_id)
    return Partition(sft_pool=tuple(sorted(sft)), dpo_pool=tuple(sorted(dpo)))


def diversity_filter(
    candidates: Sequence[Molecule],
    threshold: float = DEFAULT_DIVERSITY_THRESHOLD,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> FilterDecision:
    """Keep a set of parsed candidates only when its diversity strictly
    exceeds the threshold."""
    if len(candidates) < 2:
        raise TooFewCandidates(f"{len(candidates)} candidates, need at least 2")
    fps = [morgan_fingerprint(mol, radius, nbits) for mol in candidates]
    measured = diversity(fps)
    return FilterDecision(keep=measured > threshold, diversity=measured)


def reward(vina: float, fused_count: int, lam: float = DEFAULT_FUSED_PENALTY_WEIGHT) -> float:
    """Negated binding score with a penalty for every fused ring beyond two."""
    if not math.isfinite(vina):
        raise ValueError(f"non-finite binding score {vina}")
    if fused_count < 0:
        raise ValueError("fused ring count must be >= 0")
    _check_penalty_weight(lam)
    return -(vina + lam * max(0, fused_count - 2))


def build_preference_pairs(
    pocket_id: str,
    scored: Sequence[ScoredMolecule],
    lam: float = DEFAULT_FUSED_PENALTY_WEIGHT,
) -> PreferencePair:
    """Best-vs-worst pair by reward; ties resolved by smaller canonical string.

    The rejected side never reuses the chosen molecule, so duplicate entries
    of a single molecule cannot produce a degenerate pair.
    """
    if len({s.smiles for s in scored}) < 2:
        raise DegeneratePool(f"pocket {pocket_id}: fewer than 2 distinct molecules")
    rewards = [(reward(s.vina, s.fused_count, lam), s) for s in scored]
    best_reward, chosen = min(rewards, key=lambda pair: (-pair[0], pair[1].smiles))
    worst_candidates = [(r, s) for r, s in rewards if s.smiles != chosen.smiles]
    worst_reward, rejected = min(worst_candidates, key=lambda pair: (pair[0], pair[1].smiles))
    return PreferencePair(
        pocket_id=pocket_id,
        chosen=chosen.smiles,
        rejected=rejected.smiles,
        reward_chosen=best_reward,
        reward_rejected=worst_reward,
    )


def curate_dpo_set(
    pockets: Sequence[str],
    sampler: Sampler,
    n_samples: int = DEFAULT_FILTER_SAMPLES,
    threshold: float = DEFAULT_DIVERSITY_THRESHOLD,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> CurationResult:
    """Diversity-filter preference pockets using the model's own candidates.

    The sampler may emit invalid strings; diversity is measured over the valid
    ones. Pockets that yield fewer than two valid molecules are dropped with
    the reason recorded; a sampler error drops every pocket.
    """
    try:
        drawn = sampler(pockets, n_samples)
    except Exception as exc:  # sampler errors drop the pockets, they are not fatal
        reason = f"sampler error: {exc}"
        return CurationResult((), tuple(CurationAudit(p, False, None, 0, reason) for p in pockets))
    selected: list[str] = []
    audit: list[CurationAudit] = []
    for pocket_id, candidates in zip(pockets, drawn, strict=True):
        valid = [mol for mol in map(try_parse, candidates) if mol is not None]
        if len(valid) < 2:
            audit.append(
                CurationAudit(pocket_id, False, None, len(valid), "fewer than 2 valid molecules")
            )
            continue
        decision = diversity_filter(valid, threshold, radius, nbits)
        measured = decision.diversity
        reason = "kept" if decision.keep else f"diversity {measured:.4f} <= {threshold}"
        audit.append(CurationAudit(pocket_id, decision.keep, measured, len(valid), reason))
        if decision.keep:
            selected.append(pocket_id)
    return CurationResult(selected=tuple(selected), audit=tuple(audit))


def build_pair_set(
    pockets: Sequence[str],
    sampler: Sampler,
    scorer: Scorer,
    n_candidates: int,
    n_scored: int,
    lam: float = DEFAULT_FUSED_PENALTY_WEIGHT,
) -> tuple[list[PreferencePair], list[dict]]:
    """Sample, score and pair each pocket: one best-vs-worst pair per pocket.

    Of ``n_candidates`` draws, the first ``n_scored`` valid ones in sampling
    order go to the scorer as canonical SMILES, duplicates included; a draw
    that does not parse or canonicalize counts as invalid. Every pocket's
    draws come from one sampler call and every pocket's candidates go to one
    scorer call. Every pocket gets status rows, in pocket order: ``too few
    valid candidates``, one ``dock failure: <error>`` per failed molecule,
    ``fewer than 2 scored molecules`` or ``paired``.
    """
    drawn = sampler(pockets, n_candidates)
    candidates = {  # lazily: no draw past the n_scored-th valid one is canonicalized
        pocket_id: list(islice((c for c in map(try_canonicalize, texts) if c is not None),
                               n_scored))
        for pocket_id, texts in zip(pockets, drawn, strict=True)
    }
    scored: dict[str, list[ScoredMolecule]] = {
        p: [] for p in pockets if len(set(candidates[p])) >= 2
    }
    failed: dict[str, list[str]] = {p: [] for p in scored}
    requests = [(p, smiles) for p in scored for smiles in candidates[p]]
    rows, errors = scorer(requests) if requests else ((), ())
    fused: dict[str, int] = {}  # fused-ring count of each distinct scored string
    for pocket_id, smiles, score in rows:
        if smiles not in fused:
            fused[smiles] = count_fused_rings(parse_smiles(smiles))
        scored[pocket_id].append(ScoredMolecule(smiles, score, fused[smiles]))
    for pocket_id, error in errors:
        failed[pocket_id].append(error)

    pairs: list[PreferencePair] = []
    log: list[dict] = []
    for pocket_id in pockets:
        if pocket_id not in scored:
            log.append({"pocket_id": pocket_id, "status": "too few valid candidates"})
            continue
        log.extend({"pocket_id": pocket_id, "status": f"dock failure: {e}"}
                   for e in failed[pocket_id])
        if len({s.smiles for s in scored[pocket_id]}) < 2:
            log.append({"pocket_id": pocket_id, "status": "fewer than 2 scored molecules"})
            continue
        pairs.append(build_preference_pairs(pocket_id, scored[pocket_id], lam=lam))
        log.append({"pocket_id": pocket_id, "status": "paired"})
    return pairs, log


def curate(
    pockets: Sequence[str],
    filter_sampler: Sampler,
    pair_sampler: Sampler,
    scorer: Scorer,
    config: CurateConfig,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> tuple[CurationResult, list[PreferencePair], list[dict]]:
    """Diversity-filter the pockets, then pair each kept one under the
    config's flow. Returns the filter result, the pairs and the pair log."""
    filtered = curate_dpo_set(
        pockets,
        filter_sampler,
        n_samples=config.filter_samples,
        threshold=config.diversity_threshold,
        radius=radius,
        nbits=nbits,
    )
    if config.flow == "online":
        n_candidates, n_scored = config.pair_candidates, config.pair_docked
    else:
        n_candidates = n_scored = config.filter_samples
    pairs, log = build_pair_set(
        filtered.selected,
        pair_sampler,
        scorer,
        n_candidates=n_candidates,
        n_scored=n_scored,
        lam=config.lam,
    )
    return filtered, pairs, log
