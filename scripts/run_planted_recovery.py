#!/usr/bin/env python3
"""Planted-taxonomy recovery experiment.

Generates a synthetic two-level corpus, deletes one topic from the input
hierarchy, runs the completion pipeline over several seeds, and reports
whether a novel node reappears in the right place with the planted terms,
scored by ``taxoforge.evaluation.score_planted`` at the deleted topic's depth
against the planted terms of its whole subtree.

Run from the repository root:

    PYTHONPATH=src python scripts/run_planted_recovery.py --delete topic1_2 --seeds 1 2 3 4 5
    PYTHONPATH=src python scripts/run_planted_recovery.py --delete topic1 --seeds 1
"""

import argparse
import json

from taxoforge.evaluation import run_planted, score_planted


def run_seed(seed: int, delete: str) -> float:
    text, doc_labels, term_labels, elapsed = run_planted(seed, delete)
    sc = score_planted(json.loads(text), doc_labels, term_labels, delete)
    print(f"seed={seed} {elapsed:5.1f}s depth={sc['depth']} "
          f"best_recovery={sc['recovery']:.2f} best_node={sc['best_node']} "
          f"novelty_f1={sc['novelty_f1']:.3f}", flush=True)
    return sc["recovery"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delete", default="topic1_2",
                    help="planted topic name removed from the input hierarchy")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args()

    good = sum(run_seed(seed, args.delete) >= 0.7 for seed in args.seeds)
    print(f"recovery >= 0.7 in {good}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
