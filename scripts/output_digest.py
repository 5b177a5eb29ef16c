#!/usr/bin/env python3
"""SHA-1 of the serialized taxonomy on the benchmark's planted workloads.

For each workload and seed this runs ``taxoforge.evaluation.run_planted``
with the workload's spec, deletion and config, in text term order, and
prints one ``workload seed sha1`` line. The run is in memory;
``perfbench/run.py`` writes the same inputs to files and the worker reads
them back, and ``tests/test_output_digest.py`` checks that both paths give
the program the same corpus, hierarchy and config. Two checkouts that print
the same lines write the same bytes.

Run from the repository root:

    PYTHONPATH=src python scripts/output_digest.py --seeds 1 2 3
    PYTHONPATH=src python scripts/output_digest.py --seeds 1 --workloads planted-l2
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from taxoforge.evaluation import run_planted  # noqa: E402


def output_digest(spec: dict, delete: str, config: dict, seed: int) -> str:
    """SHA-1 hex digest of the serialized output of one planted run."""
    text = run_planted(seed, delete, spec, config, text_order=True)[0]
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=list(WORKLOADS))
    args = ap.parse_args()
    for name in args.workloads:
        wl = WORKLOADS[name]
        for seed in args.seeds:
            digest = output_digest(wl["spec"], wl["delete"], wl["config"], seed)
            print(f"{name} {seed} {digest}", flush=True)


if __name__ == "__main__":
    main()
