#!/usr/bin/env python3
"""Planted-taxonomy recovery experiment.

Generates a synthetic two-level corpus, deletes one topic from the input
hierarchy, runs the completion pipeline over several seeds, and reports
whether a novel node reappears in the right place with the planted terms.

Usage:
    python scripts/run_planted_recovery.py --delete topic1_2 --seeds 1 2 3 4 5
    python scripts/run_planted_recovery.py --delete topic1 --seeds 1
"""

import argparse

from taxoforge.evaluation import (cluster_recovery_score, novelty_detection_metrics,
                                  run_planted)


def run_seed(seed: int, delete: str, verbose: bool = True):
    out, doc_labels, term_labels, elapsed = run_planted(seed, delete)

    planted = {t for t, l in term_labels.items() if l == delete}
    parent = delete.rsplit("_", 1)[0] if "_" in delete else None

    best = 0.0
    novel_under_parent = []
    level1 = out["children"]
    candidates = ([(c1["name"], c2) for c1 in level1 for c2 in c1["children"]]
                  if parent else [(None, c1) for c1 in level1])
    for up, node in candidates:
        if not node["is_novel"]:
            continue
        rec = cluster_recovery_score(node["terms"], planted) if node["terms"] else 0.0
        if parent is None or up == parent:
            novel_under_parent.append((node["name"], rec, len(node["doc_ids"])))
            best = max(best, rec)

    # document-level novelty F1 (meaningful for level-1 deletion)
    truly_novel = {d: (l1 == delete or l2 == delete)
                   for d, (l1, l2) in enumerate(doc_labels)}
    novel_ids, z_doc = set(), {}
    for idx, c in enumerate(level1):
        if c["is_novel"]:
            novel_ids.add(idx)
        for d in c["doc_ids"]:
            z_doc[d] = idx
    _, _, f1 = novelty_detection_metrics(z_doc, novel_ids, truly_novel)

    if verbose:
        print(f"seed={seed} {elapsed:5.1f}s best_recovery={best:.2f} "
              f"novelty_f1={f1:.3f} novel_nodes={novel_under_parent}", flush=True)
    return best, f1, elapsed


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
