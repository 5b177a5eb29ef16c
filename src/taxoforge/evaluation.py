"""Planted-corpus generation and recovery metrics."""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterConfig
from .corpus import Corpus, Document
from .embedding import EmbedConfig
from .pipeline import PipelineConfig, complete_taxonomy
from .taxonomy import Taxonomy, parse_hierarchy, serialize
from .vmf import sample_vmf


@dataclass
class PlantedCorpusSpec:
    level1_topics: int = 3
    level2_per_topic: int = 3
    terms_per_topic: int = 40
    docs_per_topic: int = 200
    doc_len: int = 60
    kappa_topic: float = 50.0
    dim: int = 16
    vocab_noise_frac: float = 0.1
    parent_mix: float = 0.1   # fraction of non-noise tokens drawn from the L1 pool
    name_boost: float = 8.0   # frequency multiplier for a topic's name term
    seed: int = 0

    def __post_init__(self):
        if min(self.level1_topics, self.level2_per_topic, self.terms_per_topic,
               self.docs_per_topic, self.doc_len) < 1:
            raise ValueError("all counts must be >= 1")
        if self.kappa_topic <= 0:
            raise ValueError("kappa_topic must be positive")
        if self.name_boost < 1.0:
            raise ValueError("name_boost must be >= 1")


def generate_synthetic_corpus(spec: PlantedCorpusSpec):
    """Plant a two-level topic hierarchy and sample documents from it.

    Topic mean directions are sampled hierarchically on the sphere and each
    topic's term vectors from vMF(mean, kappa_topic). Document tokens come
    from the document's leaf-topic pool (weighted by closeness to the leaf
    mean, with the pool's name term boosted), its level-1 parent pool, and a
    uniform vocabulary noise fraction.

    Returns (corpus, truth_taxonomy, doc_labels, term_labels) where labels
    map to topic names; doc_labels holds (level1 name, level2 name) pairs.
    """
    rng = np.random.default_rng(spec.seed)
    n1, n2 = spec.level1_topics, spec.level2_per_topic

    # orthonormal level-1 means; level-2 means scattered around their parent
    basis = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim)))[0]
    l1_means = basis[:n1]
    l2_means = {i: sample_vmf(l1_means[i], 20.0, n2, rng) for i in range(n1)}

    vocab, pools, term_labels, means = [], {}, {}, {}

    def add_pool(name, mean):
        terms = [name] + [f"{name}_w{k:02d}" for k in range(1, spec.terms_per_topic)]
        start = len(vocab)
        vocab.extend(terms)
        pools[name] = np.arange(start, start + len(terms))
        means[name] = mean
        for t in terms:
            term_labels[t] = name

    l1_names = [f"topic{i}" for i in range(n1)]
    for i, name in enumerate(l1_names):
        add_pool(name, l1_means[i])
        for j in range(n2):
            add_pool(f"{name}_{j}", l2_means[i][j])

    term_vecs = np.empty((len(vocab), spec.dim))
    for name, ids in pools.items():
        term_vecs[ids] = sample_vmf(means[name], spec.kappa_topic, ids.size, rng)

    # within-pool token weights from closeness to the leaf mean
    documents, doc_labels = [], []
    for i, l1 in enumerate(l1_names):
        parent_pool = pools[l1]
        for j in range(n2):
            leaf = f"{l1}_{j}"
            leaf_pool = pools[leaf]
            w_leaf = np.exp(term_vecs[leaf_pool] @ means[leaf])
            w_leaf[0] *= spec.name_boost   # topic names occur often, like real text
            w_leaf /= w_leaf.sum()
            w_par = np.exp(term_vecs[parent_pool] @ means[leaf])
            w_par[0] *= spec.name_boost
            w_par /= w_par.sum()
            for _ in range(spec.docs_per_topic):
                u = rng.random(spec.doc_len)
                tokens = np.empty(spec.doc_len, dtype=np.int64)
                noise = u < spec.vocab_noise_frac
                parent = (~noise) & (u < spec.vocab_noise_frac
                                     + (1 - spec.vocab_noise_frac) * spec.parent_mix)
                leaf_mask = ~(noise | parent)
                tokens[noise] = rng.integers(0, len(vocab), size=int(noise.sum()))
                tokens[parent] = rng.choice(parent_pool, size=int(parent.sum()), p=w_par)
                tokens[leaf_mask] = rng.choice(leaf_pool, size=int(leaf_mask.sum()),
                                               p=w_leaf)
                documents.append(Document(id=len(documents), tokens=tokens))
                doc_labels.append((l1, leaf))

    corpus = Corpus(documents, vocab)
    truth = Taxonomy()
    root = truth.add_node(center_term=None)
    for i, l1 in enumerate(l1_names):
        n_l1 = truth.add_node(center_term=corpus.term_id(l1), parent=root.id)
        n_l1.terms = set(int(t) for t in pools[l1])
        for j in range(n2):
            leaf = f"{l1}_{j}"
            n_l2 = truth.add_node(center_term=corpus.term_id(leaf), parent=n_l1.id)
            n_l2.terms = set(int(t) for t in pools[leaf])
    return corpus, truth, doc_labels, term_labels


def planted_outline(truth: Taxonomy, corpus: Corpus, delete=None) -> list:
    """The planted hierarchy as tab-indented topic names, one per line,
    without the topic named delete and its sub-topics."""
    lines = []
    for l1 in truth.nodes[truth.root].children:
        name1 = corpus.term(truth.nodes[l1].center_term)
        if name1 == delete:
            continue
        lines.append(name1)
        for l2 in truth.nodes[l1].children:
            name2 = corpus.term(truth.nodes[l2].center_term)
            if name2 != delete:
                lines.append("\t" + name2)
    return lines


def planted_pipeline_config(seed: int) -> PipelineConfig:
    # every planted-recovery run: low-dimensional and a higher lr, suited to
    # the small planted corpora; child nodes use smaller batches (more SGD
    # steps on the smaller sub-corpora), and beta=5 widens the novelty gap
    # so topics that sit asymmetrically between the surviving siblings are
    # still flagged
    return PipelineConfig(
        embed=EmbedConfig(dim=8, epochs=10, lr=0.05, seed=seed),
        embed_child=EmbedConfig(dim=8, epochs=10, lr=0.05, batch_size=2048,
                                seed=seed),
        cluster=ClusterConfig(beta_per_level=(5.0, 5.0), seed=seed),
        seed=seed)


def run_planted(seed: int, delete: str):
    """Generate the standard planted corpus, drop one topic, complete it;
    returns (tree as a dict, doc_labels, term_labels, seconds to complete)."""
    corpus, truth, doc_labels, term_labels = generate_synthetic_corpus(
        PlantedCorpusSpec(seed=seed))
    partial = parse_hierarchy(
        "\n".join(planted_outline(truth, corpus, delete)), corpus)
    t0 = time.perf_counter()
    tax = complete_taxonomy(corpus, partial, planted_pipeline_config(seed))
    elapsed = time.perf_counter() - t0
    out = json.loads(serialize(tax, corpus, 10))
    return out, doc_labels, term_labels, elapsed


def novelty_detection_metrics(z_doc, novel_cluster_ids, labels):
    """Precision/recall/F1 of predicted-novel documents against labels.

    z_doc: doc id -> cluster id (unassigned docs may be absent: predicted
    known). labels: doc id -> True when the doc belongs to a deleted topic.
    """
    novel_ids = set(novel_cluster_ids)
    tp = fp = fn = 0
    for d, is_novel in labels.items():
        pred = z_doc.get(d) in novel_ids
        if pred and is_novel:
            tp += 1
        elif pred and not is_novel:
            fp += 1
        elif is_novel:
            fn += 1
    if tp + fp == 0 and tp + fn == 0:
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def cluster_recovery_score(found_ranked_terms, planted) -> float:
    """Precision of the top-10 (significance-ranked) found terms vs. planted."""
    top = list(found_ranked_terms)[:10]
    if not top or not planted:
        raise ValueError("both term collections must be non-empty")
    planted = set(planted)
    return sum(1 for t in top if t in planted) / len(top)


def write_synthetic_dataset(spec: PlantedCorpusSpec, out_dir: str):
    corpus, truth, doc_labels, term_labels = generate_synthetic_corpus(spec)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "corpus.txt"), "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            f.write(" ".join(corpus.term(int(t)) for t in doc.tokens) + "\n")
    with open(os.path.join(out_dir, "hierarchy_full.txt"), "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in planted_outline(truth, corpus))
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as f:
        json.dump({
            "spec": spec.__dict__,
            "doc_labels": doc_labels,
            "term_labels": term_labels,
        }, f, indent=2)


def _collect_nodes(node, depth=0, out=None):
    out = [] if out is None else out
    out.append((node, depth))
    for c in node["children"]:
        _collect_nodes(c, depth + 1, out)
    return out


def score_prediction(pred_path: str, truth_path: str) -> dict:
    """Compare a serialized output taxonomy against planted ground truth."""
    with open(pred_path, encoding="utf-8") as f:
        pred = json.load(f)
    with open(truth_path, encoding="utf-8") as f:
        truth = json.load(f)
    doc_labels = truth["doc_labels"]
    term_labels = truth["term_labels"]
    nodes = _collect_nodes(pred)
    known_names = {n["name"] for n, _ in nodes if not n["is_novel"]}
    # a doc is truly novel when any level of its planted lineage is missing
    # from the known (input-hierarchy) nodes of the prediction
    labels = {d: (l1 not in known_names or l2 not in known_names)
              for d, (l1, l2) in enumerate(doc_labels)}
    z_doc, novel_ids = {}, set()
    for idx, (node, depth) in enumerate(nodes):
        if depth == 0:
            continue
        if node["is_novel"]:
            novel_ids.add(idx)
        for d in node["doc_ids"]:
            if depth == 1:
                z_doc[d] = idx
    precision, recall, f1 = novelty_detection_metrics(z_doc, novel_ids, labels)
    recoveries = []
    for idx, (node, depth) in enumerate(nodes):
        if not node["is_novel"]:
            continue
        by_topic = {}
        for t in node["terms"]:
            lab = term_labels.get(t)
            if lab:
                by_topic[lab] = by_topic.get(lab, 0) + 1
        if not by_topic:
            continue
        best = max(sorted(by_topic), key=lambda k: by_topic[k])
        planted = {t for t, lab in term_labels.items() if lab == best}
        recoveries.append({
            "node": node["name"], "matched_topic": best,
            "recovery": cluster_recovery_score(node["terms"], planted),
        })
    return {
        "novelty_precision": precision,
        "novelty_recall": recall,
        "novelty_f1": f1,
        "novel_nodes": recoveries,
    }


def run_eval_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="taxoforge-eval",
        description="Synthetic corpus generation and recovery scoring.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_synth = sub.add_parser("synth", help="generate a planted corpus")
    p_synth.add_argument("--spec", required=True, help="JSON file of spec fields")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_score = sub.add_parser("score", help="score a predicted taxonomy")
    p_score.add_argument("--pred", required=True)
    p_score.add_argument("--truth", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            with open(args.spec, encoding="utf-8") as f:
                spec = PlantedCorpusSpec(**json.load(f))
            write_synthetic_dataset(spec, args.out)
        else:
            report = score_prediction(args.pred, args.truth)
            print(json.dumps(report, indent=2))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"taxoforge-eval: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_eval_cli())
