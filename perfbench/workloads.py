"""The benchmark's workloads: planted corpus spec, deletion and pipeline config.

Each workload is a planted two-level corpus (from
``taxoforge.evaluation.PlantedCorpusSpec`` with the run's ``--seed``), one
planted topic deleted from the input hierarchy, and a flat ``key=value``
config file in the format ``taxoforge --config`` reads. The program sees
only the generated ``corpus.txt``, ``partial.txt`` and ``config.txt``; the
planted truth stays with the scorer.
"""

# the planted config of acceptance criteria 6 and 7 (dim=8, lr=0.05,
# batch_size=2048 below the root, beta=(5, 5)) with 2 epochs instead of 10,
# so that one run of the pipeline takes seconds and a benchmark run can take
# the median of several: on a shared 2-vCPU machine the CPU speed drifts by
# up to 1.7x over spans of 5-10 s, which a single 35 s run cannot average out
PLANTED_CONFIG = {
    "dim": 8, "epochs": 2, "lr": 0.05, "child_batch_size": 2048,
    "beta1": 5.0, "beta2": 5.0,
}

# "why" says why the workload was chosen; "loads" gives each layer's share
# of one traced run at the parent commit of the benchmark (2-vCPU machine,
# numpy 2.4, scipy 1.17) and what a change to it should move
WORKLOADS = {
    "planted-l2": {
        "spec": {},
        "delete": "topic1_2",
        "config": PLANTED_CONFIG,
        "why": "criterion 6's corpus and deletion: 1 800 docs, 480 terms, "
               "level-2 topic deleted; small-batch SGD in its "
               "per-call-overhead regime",
        "loads": "embedding SGD ~84 % of run_s (vmf.bessel_ratio ~9 %), "
                 "clustering ~14 %: a clustering change can move run_s by "
                 "at most its share here",
    },
    "planted-l1": {
        "spec": {},
        "delete": "topic1",
        "config": PLANTED_CONFIG,
        "why": "criterion 7's corpus and deletion: level-1 topic deleted; "
               "the root splits novel terms with two known children and the "
               "novel level-1 node expands on the zero-known path",
        "loads": "embedding ~85 % (fewer vmf.bessel_ratio calls: no topic/"
                 "kappa step on the zero-known node), clustering ~13 % with "
                 "K* searched over novel kappas only",
    },
    "planted-large": {
        "spec": {"level1_topics": 4, "level2_per_topic": 4,
                 "terms_per_topic": 80, "docs_per_topic": 350},
        "delete": "topic1_2",
        "config": {**PLANTED_CONFIG, "epochs": 1, "window": 2},
        "why": "a larger spec (5 600 docs, 1 600 terms, 0.34 M tokens) with "
               "a light training budget, so corpus statistics and clustering "
               "carry a visible share",
        "loads": "embedding ~48 %, clustering ~47 % (BM25/representativeness "
                 "loop ~30 %, assign_documents ~16 %), corpus stats, postings "
                 "and retrieval ~5 %",
    },
}


def config_text(config: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in config.items())


def partial_hierarchy(full_text: str, delete: str) -> str:
    """Drop the deleted topic (with its sub-topics) from a tab outline."""
    out, skipping = [], False
    for line in full_text.splitlines():
        depth = len(line) - len(line.lstrip("\t"))
        if depth == 0:
            skipping = line.strip() == delete
        if skipping or line.strip() == delete:
            continue
        out.append(line)
    return "\n".join(out) + "\n"
