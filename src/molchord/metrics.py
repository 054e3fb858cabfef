"""Evaluation suite over scored generations.

``join_scores`` matches each generation to its ``ScoreRecord`` by (pocket_id,
smiles), once, and the pockets it returns hold those records. Per-pocket
metrics are computed first and then averaged unweighted across pockets.
Binding scores are in kcal/mol with lower meaning better; "no worse than the
reference" therefore means less than or equal. QED and the raw
synthesizability score are ingested (they come from external property
calculators), while the gates and the [1,10] -> [0,1] renormalization are
computed here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .molgraph import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    Fingerprint,
    Molecule,
    count_fused_rings,
    fan_out,
    morgan_fingerprint,
    parse_smiles,
    tanimoto,
)

if TYPE_CHECKING:
    from .curation import ComplexRecord
    from .scorers import GenerationRecord

QED_THRESHOLD = 0.25
SA_THRESHOLD = 0.59
VINA_THRESHOLD = -8.18

# One generation's share of a pocket row (parse, fingerprint, its diversity
# pairs) in a 100-generation pocket, measured on a 2-vCPU Xeon VM: 0.14-0.15 ms
# on the import-eval rows (seed 7, one CPU, median of 5 passes).
_ROW_GENERATION_S = 0.00015

HOMOLOGOUS = "homologous"
NON_HOMOLOGOUS = "non_homologous"
UNKNOWN = "unknown"


class TooFewItems(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class MissingReference(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class ScoreCoverageGap(ValueError):
    def __init__(self, pocket_id: str, smiles: str):
        super().__init__(f"generation without a binding score: {pocket_id} {smiles}")
        self.pocket_id = pocket_id
        self.smiles = smiles


class TooFewGenerations(ValueError):
    pass


class UnlabeledPocket(ValueError):
    pass


class EmptyGroup(ValueError):
    pass


@dataclass(frozen=True)
class ScoreRecord:
    """One generated molecule with its ingested scores (a ``scores`` line)."""

    pocket_id: str
    smiles: str
    vina: float
    qed: float | None = None
    sa_origin: float | None = None


@dataclass(frozen=True)
class PocketEval:
    pocket_id: str
    generations: tuple[ScoreRecord, ...]
    reference_vina: float | None = None
    homology: str = UNKNOWN


@dataclass(frozen=True)
class PocketRow:
    pocket_id: str
    n: int
    mean_vina: float
    high_affinity: float | None
    mean_qed: float | None
    mean_sa: float | None
    diversity: float | None
    success_rate: float | None
    fused_ring_mean: float


@dataclass(frozen=True)
class OodSummary:
    homologous_mean: float
    non_homologous_mean: float
    delta: float  # homologous - non-homologous; positive when the model does
    # better (lower scores) on non-homologous pockets


@dataclass(frozen=True)
class FusedRingSummary:
    mean: float
    histogram: dict[int, int]
    n_compounds: int


@dataclass(frozen=True)
class MetricReport:
    mean_vina: float
    high_affinity: float | None
    mean_qed: float | None
    mean_sa: float | None
    diversity: float | None
    success_rate: float | None
    fused_ring_mean: float
    per_pocket: tuple[PocketRow, ...]
    ood: OodSummary | None = None


def join_scores(
    complexes: Iterable[ComplexRecord],
    generations: Iterable[GenerationRecord],
    scores: Iterable[ScoreRecord],
) -> tuple[list[PocketEval], list[GenerationRecord]]:
    """Each generation matched to its score by (pocket_id, smiles).

    Returns the pockets of ``complexes`` that have a scored generation, in
    pocket-id order, each holding its scores in generation order, and the
    generations that have no score, in input order.
    """
    index = {(s.pocket_id, s.smiles): s for s in scores}
    by_pocket: dict[str, list[ScoreRecord]] = {}
    missing = []
    for gen in generations:
        score = index.get((gen.pocket_id, gen.smiles))
        if score is None:
            missing.append(gen)
        else:
            by_pocket.setdefault(gen.pocket_id, []).append(score)
    pockets = [
        PocketEval(c.pocket_id, tuple(by_pocket[c.pocket_id]), c.reference_vina,
                   c.homology or UNKNOWN)
        for c in sorted(complexes, key=lambda c: c.pocket_id)
        if c.pocket_id in by_pocket
    ]
    return pockets, missing


def diversity(fingerprints: Sequence[Fingerprint]) -> float:
    """1 minus the mean pairwise Tanimoto similarity over all n(n-1)/2 pairs.

    Pairs are summed in a canonical order so the result is bit-identical
    under any permutation of the input.
    """
    n = len(fingerprints)
    if n < 2:
        raise TooFewItems("diversity needs at least two fingerprints")
    ordered = sorted(fingerprints, key=lambda f: (f.nbits, f.bits))
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += tanimoto(ordered[i], ordered[j])
    return 1.0 - total / (n * (n - 1) / 2)


def sa_normalize(sa_origin: float) -> float:
    """Map the raw 1..10 synthesizability score (lower better) to [0,1] (higher better)."""
    if not 1.0 <= sa_origin <= 10.0:
        raise OutOfRange(f"raw SA score {sa_origin} outside [1, 10]")
    return (10.0 - sa_origin) / 9.0


def success_gate(qed: float, sa: float, vina: float) -> bool:
    """All three property gates, strict: QED > 0.25, SA > 0.59, vina < -8.18."""
    return qed > QED_THRESHOLD and sa > SA_THRESHOLD and vina < VINA_THRESHOLD


def high_affinity_fraction(gen_vina: Sequence[float], ref_vina: float | None) -> float:
    if ref_vina is None:
        raise MissingReference("no reference binding score for this pocket")
    if not gen_vina:
        raise EmptyInput("no generation scores")
    return sum(1 for v in gen_vina if v <= ref_vina) / len(gen_vina)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def _mean_or_none(values: list[float]) -> float | None:
    return _mean(values) if values else None


def _parse_all(pocket: PocketEval) -> list[Molecule]:
    return [parse_smiles(g.smiles) for g in pocket.generations]


def _sorted_generations(pocket: PocketEval) -> tuple[ScoreRecord, ...]:
    return tuple(
        sorted(
            pocket.generations,
            key=lambda g: (g.smiles, g.vina, g.qed or 0.0, g.sa_origin or 0.0),
        )
    )


def _pocket_row(pocket: PocketEval, radius: int, nbits: int) -> PocketRow:
    if not pocket.generations:
        raise EmptyInput(f"pocket {pocket.pocket_id} has no generations")
    for g in pocket.generations:
        if g.vina is None or not math.isfinite(g.vina):
            raise ScoreCoverageGap(pocket.pocket_id, g.smiles)
    # canonical order keeps every mean bit-identical under input permutations
    pocket = PocketEval(
        pocket.pocket_id, _sorted_generations(pocket), pocket.reference_vina, pocket.homology
    )
    mols = _parse_all(pocket)
    vinas = [g.vina for g in pocket.generations]

    high = None
    if pocket.reference_vina is not None:
        high = high_affinity_fraction(vinas, pocket.reference_vina)

    qeds = [g.qed for g in pocket.generations if g.qed is not None]
    sas = [sa_normalize(g.sa_origin) for g in pocket.generations if g.sa_origin is not None]
    gated = [
        success_gate(g.qed, sa_normalize(g.sa_origin), g.vina)
        for g in pocket.generations
        if g.qed is not None and g.sa_origin is not None
    ]

    div = None
    if len(mols) >= 2:
        fps = [morgan_fingerprint(m, radius, nbits) for m in mols]
        div = diversity(fps)

    return PocketRow(
        pocket_id=pocket.pocket_id,
        n=len(pocket.generations),
        mean_vina=_mean(vinas),
        high_affinity=high,
        mean_qed=_mean_or_none(qeds),
        mean_sa=_mean_or_none(sas),
        diversity=div,
        success_rate=(sum(gated) / len(gated)) if gated else None,
        fused_ring_mean=_mean([count_fused_rings(m) for m in mols]),
    )


def evaluate(
    pockets: Sequence[PocketEval],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> MetricReport:
    """Per-pocket rows plus unweighted cross-pocket means.

    Columns that a pocket cannot provide (no reference score, no property
    values) stay absent for that pocket and are excluded from the mean rather
    than defaulted to zero. Rows are sorted by pocket id, so the report does
    not depend on input order. Rows are computed over shares of the pockets
    across the usable CPUs when that pays (``molgraph.fan_out``); any error is
    the one the first failing pocket in input order raises.
    """
    if not pockets:
        raise EmptyInput("no pockets to evaluate")
    rows = fan_out(
        lambda share: [asdict(_pocket_row(p, radius, nbits)) for p in share],
        pockets,
        sum(len(p.generations) for p in pockets) * _ROW_GENERATION_S,
    )
    rows = sorted((PocketRow(**row) for row in rows), key=lambda r: r.pocket_id)

    ood = None
    labels = {p.homology for p in pockets}
    if labels <= {HOMOLOGOUS, NON_HOMOLOGOUS} and len(labels) == 2:
        ood = ood_report(pockets)

    columns = ("mean_vina", "high_affinity", "mean_qed", "mean_sa", "diversity",
               "success_rate", "fused_ring_mean")
    means = {
        name: _mean_or_none([v for r in rows if (v := getattr(r, name)) is not None])
        for name in columns
    }
    return MetricReport(**means, per_pocket=tuple(rows), ood=ood)


def fused_ring_report(pockets: Sequence[PocketEval], top_k: int = 10) -> FusedRingSummary:
    """Fused-ring statistics over each pocket's top_k best-scoring compounds."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if not pockets:
        raise EmptyInput("no pockets")
    histogram: dict[int, int] = {}
    counts: list[int] = []
    for pocket in pockets:
        if len(pocket.generations) < top_k:
            raise TooFewGenerations(
                f"pocket {pocket.pocket_id} has {len(pocket.generations)} generations, "
                f"need top_k={top_k}"
            )
        for g in pocket.generations:
            if g.vina is None:
                raise ScoreCoverageGap(pocket.pocket_id, g.smiles)
        best = sorted(pocket.generations, key=lambda g: (g.vina, g.smiles))[:top_k]
        for g in best:
            fused = count_fused_rings(parse_smiles(g.smiles))
            counts.append(fused)
            histogram[fused] = histogram.get(fused, 0) + 1
    return FusedRingSummary(
        mean=_mean(counts), histogram=dict(sorted(histogram.items())), n_compounds=len(counts)
    )


def ood_report(pockets: Sequence[PocketEval]) -> OodSummary:
    """Group mean binding scores for homologous vs non-homologous pockets."""
    groups: dict[str, list[float]] = {HOMOLOGOUS: [], NON_HOMOLOGOUS: []}
    pockets = sorted(pockets, key=lambda p: p.pocket_id)
    for pocket in pockets:
        if pocket.homology not in groups:
            raise UnlabeledPocket(f"pocket {pocket.pocket_id} has label {pocket.homology!r}")
        if not pocket.generations or any(g.vina is None for g in pocket.generations):
            raise ScoreCoverageGap(pocket.pocket_id, "<pocket mean>")
        vinas = [g.vina for g in _sorted_generations(pocket)]
        groups[pocket.homology].append(_mean(vinas))
    for label, values in groups.items():
        if not values:
            raise EmptyGroup(f"no pockets labeled {label}")
    homologous = _mean(groups[HOMOLOGOUS])
    non_homologous = _mean(groups[NON_HOMOLOGOUS])
    return OodSummary(
        homologous_mean=homologous,
        non_homologous_mean=non_homologous,
        delta=homologous - non_homologous,
    )
