#!/usr/bin/env python3
"""Run the desk-scale preference-training experiment and print a summary.

Trains the small generator on synthetic pocket/ligand data, builds preference
pairs under the deterministic heavy-atom surrogate score, runs one preference
epoch, and reports how many pockets ended up with better mean sample rewards.
A run whose curation leaves no pair to train on prints one ``error:`` line and
exits 2.
"""

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from molchord.experiment import ExperimentConfig, run_preference_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pockets", type=int, default=200)
    parser.add_argument("--corpus", type=int, default=10_000)
    parser.add_argument("--sft-steps", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        n_pockets=args.pockets,
        corpus_size=args.corpus,
        sft_steps=args.sft_steps,
        seed=args.seed,
    )
    started = time.perf_counter()
    try:
        result = run_preference_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    before = np.array(sorted(result.sft_mean_rewards.values()))
    after = np.array(sorted(result.dpo_mean_rewards.values()))
    summary = {
        "elapsed_s": round(elapsed, 1),
        "config": dataclasses.asdict(cfg),
        "supervised_val_loss": {"start": result.sft_val_start, "best": result.sft_val_best},
        "selected_pockets": result.n_selected_pockets,
        "pairs": {"train": result.n_pairs_train, "held_out": result.n_pairs_held_out},
        "fraction_improved": result.fraction_improved,
        "mean_margin_held_out": result.mean_margin_held_out,
        "mean_reward": {"before": float(before.mean()), "after": float(after.mean())},
    }
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    print(f"done in {summary['elapsed_s']}s")
    print(f"supervised val loss {result.sft_val_start:.3f} -> {result.sft_val_best:.3f}")
    print(f"curation kept {result.n_selected_pockets}/{cfg.n_pockets} pockets")
    print(f"pairs: {result.n_pairs_train} train, {result.n_pairs_held_out} held out")
    print(f"mean sample reward {before.mean():.3f} -> {after.mean():.3f}")
    print(f"pockets improved: {100 * result.fraction_improved:.1f}%")
    print(f"held-out preference margin: {result.mean_margin_held_out:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
