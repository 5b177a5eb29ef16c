"""Planted-corpus generation, planted-recovery runs and their scoring."""

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


def score_planted(tree: dict, doc_labels, term_labels: dict, delete: str) -> dict:
    """Score one serialized output against the planted truth, at the depth of
    the deleted topic.

    recovery: the best top-10 precision of a novel node directly under the
    deleted topic's parent (best_node), against the planted terms of the
    deleted topic's whole subtree; 0 (and best_node None) when there is no
    such node. Novelty precision/recall/F1 count a document as predicted
    novel when a novel node at depth <= the deleted topic's depth holds it,
    and as novel when it belongs to the deleted subtree.
    """
    parent_of = _topic_parents(doc_labels)
    if delete not in parent_of:
        raise ValueError(f"{delete!r} is not a planted topic")
    parent = parent_of[delete]
    depth = 1 if parent is None else 2
    subtree = {t for t, p in parent_of.items() if delete in (t, p)}
    planted = {term for term, lab in term_labels.items() if lab in subtree}

    siblings = tree["children"] if parent is None else [
        g for c in tree["children"] if c["name"] == parent and not c["is_novel"]
        for g in c["children"]]
    recovery, best = 0.0, None
    for c in siblings:
        top = c["terms"][:10]
        if c["is_novel"] and top:
            rec = sum(t in planted for t in top) / len(top)
            if best is None or rec > recovery:
                recovery, best = rec, c["name"]

    predicted, level = set(), tree["children"]
    for _ in range(depth):
        predicted.update(d for c in level if c["is_novel"] for d in c["doc_ids"])
        level = [g for c in level for g in c["children"]]
    actual = {d for d, (l1, l2) in enumerate(doc_labels)
              if l1 in subtree or l2 in subtree}
    tp = len(predicted & actual)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(actual)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return {"depth": depth, "recovery": recovery, "best_node": best,
            "novelty_precision": precision, "novelty_recall": recall,
            "novelty_f1": f1}


def _topic_parents(doc_labels) -> dict:
    """Planted topic name -> its parent's name (None for a level-1 topic)."""
    parent_of = {}
    for l1, l2 in doc_labels:
        parent_of[l1] = None
        parent_of[l2] = l1
    return parent_of


def _deleted_topics(tree: dict, doc_labels) -> list:
    """Planted topics missing from a prediction: no known node carries the
    topic's name, and its parent is a known node (or it is a level-1 topic)."""
    known, stack = set(), list(tree["children"])
    while stack:
        node = stack.pop()
        if not node["is_novel"]:
            known.add(node["name"])
        stack.extend(node["children"])
    return [t for t, p in _topic_parents(doc_labels).items()
            if t not in known and (p is None or p in known)]


def run_eval_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="taxoforge-eval",
        description="Synthetic corpus generation and recovery scoring.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_synth = sub.add_parser("synth", help="generate a planted corpus")
    p_synth.add_argument("--spec", required=True, help="JSON file of spec fields")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_score = sub.add_parser("score", help="score a predicted taxonomy per deleted topic")
    p_score.add_argument("--pred", required=True)
    p_score.add_argument("--truth", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            with open(args.spec, encoding="utf-8") as f:
                spec = PlantedCorpusSpec(**json.load(f))
            write_synthetic_dataset(spec, args.out)
        else:
            with open(args.pred, encoding="utf-8") as f:
                tree = json.load(f)
            with open(args.truth, encoding="utf-8") as f:
                truth = json.load(f)
            labels = truth["doc_labels"]
            report = {t: score_planted(tree, labels, truth["term_labels"], t)
                      for t in _deleted_topics(tree, labels)}
            print(json.dumps(report, indent=2))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"taxoforge-eval: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_eval_cli())
