#!/usr/bin/env python3
"""Planted-taxonomy recovery experiment.

Generates a synthetic two-level corpus, deletes one topic from the input
hierarchy, runs the completion pipeline over several seeds, and reports
whether a novel node reappears in the right place with the planted terms,
scored by ``taxoforge.evaluation.score_planted`` at the deleted topic's depth
against the planted terms of its whole subtree.

Usage:
    python scripts/run_planted_recovery.py --delete topic1_2 --seeds 1 2 3 4 5
    python scripts/run_planted_recovery.py --delete topic1 --seeds 1
"""

import argparse

from taxoforge.evaluation import run_planted, score_planted


def run_seed(seed: int, delete: str, verbose: bool = True):
    out, doc_labels, term_labels, elapsed = run_planted(seed, delete)
    sc = score_planted(out, doc_labels, term_labels, delete)
    if verbose:
        print(f"seed={seed} {elapsed:5.1f}s depth={sc['depth']} "
              f"best_recovery={sc['recovery']:.2f} best_node={sc['best_node']} "
              f"novelty_f1={sc['novelty_f1']:.3f}", flush=True)
    return sc["recovery"], sc["novelty_f1"], elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delete", default="topic1_2",
                    help="planted topic name removed from the input hierarchy")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args()

    good = 0
    for seed in args.seeds:
        best, f1, _ = run_seed(seed, args.delete)
        good += best >= 0.7
    print(f"recovery >= 0.7 in {good}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
