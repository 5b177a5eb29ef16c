#!/usr/bin/env python3
"""SHA-1 of the serialized taxonomy on the benchmark's planted workloads.

For each workload and seed this generates the inputs as ``perfbench/run.py``
does (the planted corpus from the seed, the hierarchy with the workload's
topic deleted, the workload's config), writes them to a temporary directory,
reads them back with ``load_corpus``, ``parse_hierarchy`` and
``load_config``, runs ``complete_taxonomy`` and ``serialize``, and prints
one ``workload seed sha1`` line. Two checkouts that print the same lines
write the same bytes.

Run from the repository root:

    PYTHONPATH=src python scripts/output_digest.py --seeds 1 2 3
    PYTHONPATH=src python scripts/output_digest.py --seeds 1 --workloads planted-l2
"""

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

from workloads import WORKLOADS, config_text, partial_hierarchy  # noqa: E402

from taxoforge.corpus import load_corpus  # noqa: E402
from taxoforge.evaluation import (  # noqa: E402
    PlantedCorpusSpec,
    write_synthetic_dataset,
)
from taxoforge.pipeline import complete_taxonomy, load_config  # noqa: E402
from taxoforge.taxonomy import parse_hierarchy, serialize  # noqa: E402


def output_digest(spec: dict, delete: str, config: dict, seed: int) -> str:
    """SHA-1 hex digest of the serialized output of one planted run."""
    with tempfile.TemporaryDirectory() as work:
        write_synthetic_dataset(PlantedCorpusSpec(**spec, seed=seed), work)
        with open(os.path.join(work, "hierarchy_full.txt"), encoding="utf-8") as f:
            partial = partial_hierarchy(f.read(), delete)
        cfg_path = os.path.join(work, "config.txt")
        with open(cfg_path, "w", encoding="utf-8") as f:
            f.write(config_text(config))
        corpus = load_corpus(os.path.join(work, "corpus.txt"))
        cfg = load_config(cfg_path, seed=seed)
        tax = complete_taxonomy(corpus, parse_hierarchy(partial, corpus), cfg)
        text = serialize(tax, corpus, cfg.top_k_output)
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
