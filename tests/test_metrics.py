import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from molchord import metrics
from molchord.metrics import (
    EmptyGroup,
    MissingReference,
    OutOfRange,
    PocketEval,
    ScoreCoverageGap,
    ScoreRecord,
    TooFewGenerations,
    TooFewItems,
    UnlabeledPocket,
    diversity,
    evaluate,
    fused_ring_report,
    high_affinity_fraction,
    ood_report,
    sa_normalize,
    success_gate,
)
from molchord.molgraph import (
    Fingerprint,
    WidthMismatch,
    morgan_fingerprint,
    parse_smiles,
    tanimoto,
)

from .oracles import brute_diversity, fingerprint_from_bits


DATA = Path(__file__).parent / "data"


def _fp(bits):
    return fingerprint_from_bits(set(bits), 64)


def test_diversity_identical_is_zero():
    fps = [_fp({1, 2, 3})] * 5
    assert diversity(fps) == 0.0


def test_diversity_disjoint_is_one():
    assert diversity([_fp({1}), _fp({2})]) == 1.0


def test_diversity_mixed_pairwise():
    # pairwise similarities are exactly 2/10, 4/10, 6/10
    a = _fp({0, 1, 2, 3, 9})
    b = _fp({0, 4, 5, 6, 7, 8, 9})
    c = _fp({0, 1, 2, 3, 4, 5, 6, 7, 8})
    assert diversity([a, b, c]) == pytest.approx(1.0 - 1.2 / 3, abs=1e-12)


def test_diversity_too_few():
    with pytest.raises(TooFewItems):
        diversity([_fp({1})])


@given(
    st.lists(st.sets(st.integers(min_value=0, max_value=63), max_size=20), min_size=2,
             max_size=12)
)
def test_diversity_matches_brute_force(sets):
    fps = [_fp(s) for s in sets]
    assert diversity(fps) == pytest.approx(brute_diversity(sets), abs=1e-12)


def _pairwise_tanimoto_diversity(fps):
    """``diversity`` as one ``tanimoto`` call per pair, in the same pair order."""
    ordered = sorted(fps, key=lambda f: (f.nbits, f.bits))
    n = len(ordered)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += tanimoto(ordered[i], ordered[j])
    return 1.0 - total / (n * (n - 1) / 2)


def test_diversity_is_the_pairwise_tanimoto_sum_bit_for_bit():
    rows = (DATA / "generations.jsonl").read_text().splitlines()
    by_pocket: dict[str, list[Fingerprint]] = {}
    for row in map(json.loads, rows):
        fp = morgan_fingerprint(parse_smiles(row["smiles"]))
        by_pocket.setdefault(row["pocket_id"], []).append(fp)
    every = [fp for fps in by_pocket.values() for fp in fps]
    empty = Fingerprint(0)
    cases = [*by_pocket.values(), every, [empty, empty], [empty, *every[:7], empty],
             [every[0]] * 3]
    for fps in cases:
        assert diversity(fps) == _pairwise_tanimoto_diversity(fps)  # ==, not approx


@pytest.mark.parametrize("widths", [(1024, 2048, 4096), (4096, 2048, 2048), (512, 512, 1024)])
def test_diversity_raises_the_width_mismatch_of_the_first_pair(widths):
    smiles = [row["smiles"] for row in map(json.loads, (DATA / "generations.jsonl").open())]
    fps = [morgan_fingerprint(parse_smiles(s), nbits=nbits)
           for nbits in widths for s in smiles[:3]]
    fps.append(Fingerprint(0, widths[-1]))
    with pytest.raises(WidthMismatch) as pairwise:
        _pairwise_tanimoto_diversity(fps)
    with pytest.raises(WidthMismatch, match=f"^{re.escape(str(pairwise.value))}$"):
        diversity(fps)
    with pytest.raises(WidthMismatch, match=f"^{re.escape(str(pairwise.value))}$"):
        diversity(fps[::-1])


def test_sa_normalize_endpoints():
    assert sa_normalize(10.0) == 0.0
    assert sa_normalize(1.0) == 1.0
    assert sa_normalize(5.5) == 0.5


def test_sa_normalize_strictly_decreasing():
    values = [sa_normalize(x) for x in np.linspace(1, 10, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sa_normalize_out_of_range():
    with pytest.raises(OutOfRange):
        sa_normalize(0.5)
    with pytest.raises(OutOfRange):
        sa_normalize(10.5)


def test_success_gate_pass_and_boundaries():
    assert success_gate(0.30, 0.60, -9.0) is True
    assert success_gate(0.25, 0.60, -9.0) is False
    assert success_gate(0.30, 0.59, -9.0) is False
    assert success_gate(0.30, 0.60, -8.18) is False


def test_high_affinity_fraction():
    assert high_affinity_fraction([-9, -8, -7], -8) == pytest.approx(2 / 3)
    assert high_affinity_fraction([-8, -8], -8) == 1.0
    assert high_affinity_fraction([-7, -6], -8) == 0.0
    with pytest.raises(MissingReference):
        high_affinity_fraction([-9], None)


def _pocket(pocket_id="p1", gens=None, ref=-8.0, homology="unknown"):
    gens = gens or [
        ScoreRecord(pocket_id, "CCO", vina=-9.0, qed=0.3, sa_origin=4.6),   # sa -> 0.6
        ScoreRecord(pocket_id, "CCN", vina=-7.0, qed=0.2, sa_origin=3.7),   # sa -> 0.7
    ]
    return PocketEval(pocket_id=pocket_id, generations=tuple(gens), reference_vina=ref,
                      homology=homology)


def test_evaluate_single_pocket_fixture():
    report = evaluate([_pocket()])
    row = report.per_pocket[0]
    assert row.high_affinity == 0.5
    assert row.success_rate == 0.5
    assert row.mean_vina == -8.0
    assert row.mean_qed == pytest.approx(0.25)
    assert row.mean_sa == pytest.approx((0.6 + 0.7) / 2, abs=1e-9)


def test_evaluate_two_identical_pockets_equal_aggregate():
    single = evaluate([_pocket("a")])
    double = evaluate([_pocket("a"), _pocket("b")])
    assert double.mean_vina == single.mean_vina
    assert double.high_affinity == single.high_affinity
    assert double.success_rate == single.success_rate
    assert double.diversity == single.diversity


def test_evaluate_missing_reference_excluded():
    report = evaluate([_pocket("a"), _pocket("b", ref=None)])
    rows = {r.pocket_id: r for r in report.per_pocket}
    assert rows["b"].high_affinity is None
    assert report.high_affinity == rows["a"].high_affinity


def test_evaluate_absent_properties_stay_absent():
    gens = [ScoreRecord("p1", "CCO", vina=-9.0), ScoreRecord("p1", "CCN", vina=-7.0)]
    report = evaluate([_pocket(gens=gens)])
    assert report.mean_qed is None
    assert report.mean_sa is None
    assert report.success_rate is None
    assert report.mean_vina == -8.0


def test_evaluate_permutation_invariant():
    gens = [
        ScoreRecord("b", "c1ccccc1", -10.0, 0.5, 2.0),
        ScoreRecord("b", "CCCC", -6.0, 0.4, 3.0),
        ScoreRecord("b", "CCO", -7.5, 0.3, 4.0),
    ]
    pockets = [_pocket("a"), _pocket("b", gens=gens)]
    fwd = evaluate(pockets)
    assert evaluate(pockets[::-1]) == fwd  # pocket order
    shuffled = [_pocket("a"), _pocket("b", gens=gens[::-1])]
    assert evaluate(shuffled) == fwd  # generation order within a pocket


def test_evaluate_coverage_gap():
    gens = [ScoreRecord("p1", "CCO", vina=None)]
    with pytest.raises(ScoreCoverageGap):
        evaluate([_pocket(gens=gens)])


def test_evaluate_empty():
    with pytest.raises(metrics.EmptyInput):
        evaluate([])


def test_success_implies_high_affinity_when_reference_weak():
    # reference above the binding gate: every success is also high affinity
    gens = [
        ScoreRecord("p1", "CCO", vina=-9.0, qed=0.5, sa_origin=2.0),
        ScoreRecord("p1", "CCN", vina=-8.0, qed=0.5, sa_origin=2.0),
        ScoreRecord("p1", "CCC", vina=-7.0, qed=0.5, sa_origin=2.0),
    ]
    report = evaluate([_pocket(gens=gens, ref=-8.0)])
    row = report.per_pocket[0]
    assert row.success_rate <= row.high_affinity


def test_fused_ring_report_values():
    benzenes = [ScoreRecord("a", "c1ccccc1", vina=-8.0 - i * 0.1) for i in range(4)]
    naphthalenes = [ScoreRecord("b", "c1ccc2ccccc2c1", vina=-9.0 - i * 0.1) for i in range(4)]
    all_benzene = PocketEval("a", tuple(benzenes), reference_vina=None)
    assert fused_ring_report([all_benzene], top_k=4).mean == 0.0
    all_naph = PocketEval("b", tuple(naphthalenes), reference_vina=None)
    summary = fused_ring_report([all_naph], top_k=4)
    assert summary.mean == 2.0
    assert summary.histogram == {2: 4}
    mixed = PocketEval("c", tuple(benzenes + naphthalenes), reference_vina=None)
    assert fused_ring_report([mixed], top_k=8).mean == 1.0


def test_fused_ring_report_top_k_selects_best_scores():
    gens = [ScoreRecord("a", "c1ccc2ccccc2c1", vina=-10.0), ScoreRecord("a", "c1ccccc1", vina=-5.0)]
    summary = fused_ring_report([PocketEval("a", tuple(gens))], top_k=1)
    assert summary.mean == 2.0  # only the best-scoring compound counts


def test_fused_ring_report_full_equals_unfiltered_mean(small_corpus):
    gens = tuple(
        ScoreRecord("a", s, vina=-5.0 - i * 0.01) for i, s in enumerate(small_corpus[:20])
    )
    pocket = PocketEval("a", gens)
    full = fused_ring_report([pocket], top_k=len(gens))
    expected = np.mean(
        [metrics.count_fused_rings(parse_smiles(g.smiles)) for g in gens]
    )
    assert full.mean == pytest.approx(float(expected), abs=1e-12)


def test_fused_ring_report_too_few():
    with pytest.raises(TooFewGenerations):
        fused_ring_report([_pocket()], top_k=10)


@pytest.mark.parametrize("top_k", [0, -2])
def test_fused_ring_report_rejects_top_k_below_one(top_k):
    # 0 divided by zero; -2 reported every compound but each pocket's two worst
    with pytest.raises(ValueError, match="top_k"):
        fused_ring_report([_pocket()], top_k=top_k)


def test_ood_report_reproduces_published_row():
    homologous = PocketEval(
        "h", (ScoreRecord("h", "CCO", vina=-8.49),), homology="homologous"
    )
    non_homologous = PocketEval(
        "n", (ScoreRecord("n", "CCO", vina=-8.66),), homology="non_homologous"
    )
    summary = ood_report([homologous, non_homologous])
    assert summary.delta == pytest.approx(0.17, abs=1e-9)


def test_ood_report_identical_groups_delta_zero():
    pockets = [
        PocketEval("h", (ScoreRecord("h", "CCO", vina=-8.0),), homology="homologous"),
        PocketEval("n", (ScoreRecord("n", "CCO", vina=-8.0),), homology="non_homologous"),
    ]
    assert ood_report(pockets).delta == 0.0


def test_ood_report_errors():
    with pytest.raises(UnlabeledPocket):
        ood_report([_pocket()])
    with pytest.raises(EmptyGroup):
        ood_report([PocketEval("h", (ScoreRecord("h", "CCO", vina=-8.0),),
                               homology="homologous")])


def test_evaluate_includes_ood_when_fully_labeled():
    pockets = [
        _pocket("h", homology="homologous"),
        _pocket("n", homology="non_homologous"),
    ]
    report = evaluate(pockets)
    assert report.ood is not None
    assert report.ood.delta == pytest.approx(0.0, abs=1e-12)
