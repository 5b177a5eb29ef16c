"""Planted-corpus generation, planted-recovery runs and their scoring."""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .corpus import Corpus, corpus_from_lines, read_lines
from .pipeline import PipelineConfig, check_field_types, complete_taxonomy
from .taxonomy import parse_hierarchy, serialize
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
        check_field_types(self)   # a JSON spec can hold any type
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.level1_topics, self.level2_per_topic, self.terms_per_topic,
               self.docs_per_topic, self.doc_len) < 1:
            raise ValueError("all counts must be >= 1")
        # NaN fails every comparison: a NaN kappa would never accept a draw
        if not (math.isfinite(self.kappa_topic) and self.kappa_topic > 0):
            raise ValueError(f"kappa_topic must be finite and > 0, "
                             f"got {self.kappa_topic}")
        # level-1 means are distinct rows of an orthonormal dim x dim basis
        if self.dim < max(2, self.level1_topics):
            raise ValueError(f"dim must be >= max(2, level1_topics="
                             f"{self.level1_topics}), got {self.dim}")
        for name in ("vocab_noise_frac", "parent_mix"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # also rejects nan
                raise ValueError(f"{name} must be in [0, 1], "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.name_boost) and self.name_boost >= 1.0):
            raise ValueError(f"name_boost must be finite and >= 1, "
                             f"got {self.name_boost}")


def generate_synthetic_corpus(spec: PlantedCorpusSpec):
    """Plant a two-level topic hierarchy and sample documents from it.

    Topic mean directions are sampled hierarchically on the sphere and each
    topic's term vectors from vMF(mean, kappa_topic). Document tokens come
    from the document's leaf-topic pool (weighted by closeness to the leaf
    mean, with the pool's name term boosted), its level-1 parent pool, and a
    uniform vocabulary noise fraction.

    Returns (corpus, doc_labels, term_labels) where labels map to topic
    names; doc_labels holds (level1 name, level2 name) pairs.
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

    # within-pool token weights from closeness to the leaf mean; one row per document
    rows = np.empty((n1 * n2 * spec.docs_per_topic, spec.doc_len), dtype=np.int32)
    doc_labels = []
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
                tokens = rows[len(doc_labels)]
                noise = u < spec.vocab_noise_frac
                parent = (~noise) & (u < spec.vocab_noise_frac
                                     + (1 - spec.vocab_noise_frac) * spec.parent_mix)
                leaf_mask = ~(noise | parent)
                tokens[noise] = rng.integers(0, len(vocab), size=int(noise.sum()))
                tokens[parent] = rng.choice(parent_pool, size=int(parent.sum()), p=w_par)
                tokens[leaf_mask] = rng.choice(leaf_pool, size=int(leaf_mask.sum()),
                                               p=w_leaf)
                doc_labels.append((l1, leaf))

    offsets = np.arange(rows.shape[0] + 1, dtype=np.int64) * spec.doc_len
    return Corpus(rows.ravel(), offsets, vocab), doc_labels, term_labels


def _topic_parents(doc_labels) -> dict:
    """Planted topic name -> its parent's name (None for a level-1 topic),
    in the order the topics first appear."""
    parent_of = {}
    for l1, l2 in doc_labels:
        parent_of[l1] = None
        parent_of[l2] = l1
    return parent_of


def planted_outline(doc_labels, delete=None) -> list:
    """The planted hierarchy as tab-indented topic names, one per line,
    without the topic named delete and its sub-topics."""
    return [name if parent is None else "\t" + name
            for name, parent in _topic_parents(doc_labels).items()
            if delete is None or delete not in (name, parent)]


# every planted-recovery run: low-dimensional and a higher lr, suited to
# the small planted corpora; child nodes use smaller batches (more SGD
# steps on the smaller sub-corpora), and beta=5 widens the novelty gap so
# topics that sit asymmetrically between the surviving siblings are still
# flagged
PLANTED_CONFIG = {"dim": 8, "epochs": 10, "lr": 0.05, "child_batch_size": 2048,
                  "beta1": 5.0, "beta2": 5.0}


def run_planted(seed: int, delete: str, spec=None, config=PLANTED_CONFIG,
                text_order=False):
    """Generate a planted corpus, drop one topic, complete it; returns
    (serialized tree, doc_labels, term_labels, seconds to complete).

    spec holds PlantedCorpusSpec fields but seed, config ``--config`` keys;
    text_order reads the corpus back from its lines, in the CLI's term ids.
    """
    corpus, doc_labels, term_labels = generate_synthetic_corpus(
        PlantedCorpusSpec(**(spec or {}), seed=seed))
    if delete not in _topic_parents(doc_labels):
        raise ValueError(f"{delete!r} is not a planted topic")
    outline = planted_outline(doc_labels, delete)
    if text_order:
        corpus = corpus_from_lines(_corpus_lines(corpus))
    partial = parse_hierarchy("\n".join(outline), corpus)
    cfg = PipelineConfig(**config, seed=seed)
    t0 = time.perf_counter()
    tax = complete_taxonomy(corpus, partial, cfg)
    elapsed = time.perf_counter() - t0
    return serialize(tax, corpus, cfg.top_k), doc_labels, term_labels, elapsed


def _corpus_lines(corpus: Corpus) -> list:
    """One line of space-separated terms per document."""
    tokens, bounds = corpus.tokens.tolist(), corpus.offsets.tolist()
    return [" ".join(map(corpus.vocab.__getitem__, tokens[a:b])) + "\n"
            for a, b in zip(bounds, bounds[1:])]


def write_synthetic_dataset(spec: PlantedCorpusSpec, out_dir: str):
    corpus, doc_labels, term_labels = generate_synthetic_corpus(spec)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "corpus.txt"), "w", encoding="utf-8") as f:
        f.writelines(_corpus_lines(corpus))
    with open(os.path.join(out_dir, "hierarchy_full.txt"), "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in planted_outline(doc_labels))
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


# what the scorer reads of each node below a prediction's root, and the
# type of each entry of its terms and doc_ids
NODE_KEYS = {"name": str, "is_novel": bool, "terms": list, "doc_ids": list,
             "children": list}
NODE_ITEMS = {"terms": str, "doc_ids": int}


def _require(obj, keys: dict, where: str) -> None:
    """obj is a JSON object holding each key, with a value of its type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in keys.items():
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
        if not isinstance(obj[key], kind):
            raise ValueError(f"{where}: {key} must be a {kind.__name__}, "
                             f"got {type(obj[key]).__name__}")


def _require_items(items, kind, where: str) -> None:
    """Every entry of items is a kind; a bool is not an int."""
    for item in items:
        if not isinstance(item, kind) or isinstance(item, bool):
            raise ValueError(f"{where} must hold {kind.__name__} values, got {item!r}")


def _read_json(path: str, keys: dict) -> dict:
    """The JSON object in path; an error names the file."""
    try:
        data = json.loads("".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    _require(data, keys, path)
    return data


def _read_spec(path: str) -> PlantedCorpusSpec:
    """The PlantedCorpusSpec whose fields path holds; an error names the file."""
    data = _read_json(path, {})
    unknown = sorted(set(data) - {f.name for f in fields(PlantedCorpusSpec)})
    if unknown:
        raise ValueError(f"{path}: unknown fields: {', '.join(unknown)}")
    try:
        return PlantedCorpusSpec(**data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_prediction(path: str) -> dict:
    """A serialized tree whose every node below the root holds NODE_KEYS."""
    tree = _read_json(path, {"children": list})
    stack = [(tree, "root")]
    while stack:
        node, name = stack.pop()
        for child in node["children"]:
            where = f"{path}: a child of {name!r}"
            _require(child, NODE_KEYS, where)
            for key, kind in NODE_ITEMS.items():
                _require_items(child[key], kind, f"{where}: {key}")
            stack.append((child, child["name"]))
    return tree


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
            write_synthetic_dataset(_read_spec(args.spec), args.out)
        else:
            tree = _read_prediction(args.pred)
            truth = _read_json(args.truth, {"doc_labels": list, "term_labels": dict})
            labels = truth["doc_labels"]
            if not all(isinstance(p, list) and len(p) == 2 for p in labels):
                raise ValueError(f"{args.truth}: doc_labels must hold "
                                 f"[topic, sub-topic] pairs")
            _require_items((t for p in labels for t in p), str,
                           f"{args.truth}: doc_labels")
            _require_items(truth["term_labels"].values(), str,
                           f"{args.truth}: term_labels")
            report = {t: score_planted(tree, labels, truth["term_labels"], t)
                      for t in _deleted_topics(tree, labels)}
            print(json.dumps(report, indent=2))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"taxoforge-eval: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_eval_cli())


if __name__ == "__main__":
    main()
