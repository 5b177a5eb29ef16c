"""Recursive taxonomy completion: per-node embedding, clustering, expansion."""

import argparse
import collections
import csv
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .clustering import cluster_node
from .corpus import Corpus, compute_term_stats, load_corpus, read_lines
from .embedding import BATCH_SIZE, NEIGHBORS_M, retrieve_local_corpus, train_node_embedding
from .taxonomy import Taxonomy, insert_children, parse_hierarchy, serialize, subtree_keywords


@dataclass
class PipelineConfig:
    """The run's settings; every field but seed is a config key."""
    dim: int = 50
    window: int = 5
    epochs: int = 10
    lr: float = 0.025
    # sub-corpora below the root are much smaller; nodes below the root may
    # train on smaller batches (more SGD steps); the root trains on BATCH_SIZE
    child_batch_size: int = BATCH_SIZE
    beta1: float = 1.5   # novelty beta at the root (level 0)
    beta2: float = 3.0   # novelty beta at every level below
    min_terms: int = 50
    min_docs: int = 20
    top_k: int = 10
    seed: int = 0   # node n trains and clusters with seed + 7919 * n

    def __post_init__(self):
        # bool is an int to Python, a float count (NaN too) would fail deep
        # inside numpy, and a string fails a comparison with a TypeError
        for f in fields(self):
            value = getattr(self, f.name)
            real = f.type is float
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if real else int):
                raise ValueError(f"{f.name} must be {'a number' if real else 'an int'}, "
                                 f"got {value!r}")
        # the checks of the float fields are written so that NaN fails them
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.dim < 2:
            raise ValueError("embedding dimension (dim) must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.child_batch_size < 1:
            raise ValueError("child_batch_size must be >= 1")
        if not (1.0 <= self.beta1 < np.inf and 1.0 <= self.beta2 < np.inf):
            raise ValueError("beta (beta1, beta2) must be finite and >= 1")
        # a node without documents has no term statistics to cluster
        if self.min_docs < 1:
            raise ValueError(f"min_docs must be >= 1, got {self.min_docs}")
        if self.min_terms < 0:
            raise ValueError(f"min_terms must be >= 0, got {self.min_terms}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def top_k_output(self):
        """top_k, under the name the benchmark harness reads."""
        return self.top_k


# key -> type; the run seed is set by --seed
CONFIG_KEYS = {f.name: f.type for f in fields(PipelineConfig) if f.name != "seed"}


def complete_taxonomy(corpus: Corpus, partial: Taxonomy, cfg: PipelineConfig,
                      debug_dir=None) -> Taxonomy:
    """Breadth-first expansion of the partial hierarchy over the corpus.

    A node is expanded only under at least two known sub-topics, so the
    tree grows at most one level below the input hierarchy.
    """
    tax = partial
    root = tax.nodes[tax.root]
    root.terms = np.arange(corpus.num_terms)
    root.docs = np.arange(corpus.num_docs)

    # each entry carries its parent's trained space, for local-corpus retrieval
    queue = collections.deque([(tax.root, 0, None)])
    while queue:
        node_id, depth, parent_space = queue.popleft()
        node = tax.nodes[node_id]
        if _unmet_conditions(node, cfg):
            continue
        local_docs = retrieve_local_corpus(node, parent_space, corpus, NEIGHBORS_M)
        keywords = subtree_keywords(tax, node_id)
        centers = {c: tax.nodes[c].center_term for c in node.children}
        seed = cfg.seed + 7919 * node_id
        batch_size = BATCH_SIZE if depth == 0 else cfg.child_batch_size
        space = train_node_embedding(local_docs, node.terms, keywords, cfg,
                                     batch_size, corpus, centers, seed)

        # passed, not kept: the statistics (40 B per nonzero) must not stay
        # alive through the next node's training
        named = {n.center_term for n in tax.nodes.values()}
        beta = cfg.beta1 if depth == 0 else cfg.beta2
        sc = cluster_node(space, compute_term_stats(corpus, node.docs, space.term_ids),
                          beta, seed, named)

        insert_children(tax, node_id, sc.known, sc.novel)
        queue.extend((child, depth + 1, space) for child in node.children)

        if debug_dir:
            _dump_node_debug(debug_dir, node_id, sc, space, corpus)
    return tax


def _unmet_conditions(node, cfg: PipelineConfig) -> list:
    """The expansion conditions node fails, by name; empty if it expands.

    Novel children are inserted only by expanding, so every child of a
    node not yet expanded is a known sub-topic.
    """
    return [name for name, ok in (
        ("fewer than two known sub-topics", len(node.children) >= 2),
        ("min_terms", len(node.terms) >= cfg.min_terms),
        ("min_docs", len(node.docs) >= cfg.min_docs)) if not ok]


def _dump_node_debug(debug_dir, node_id, sc, space, corpus):
    os.makedirs(debug_dir, exist_ok=True)
    path = os.path.join(debug_dir, f"node_{node_id}_terms.csv")
    novel = set(sc.novel_terms.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        # a term may hold commas and quotes: the writer quotes it
        rows = csv.writer(f, lineterminator="\n")
        rows.writerow(["term", "significance", "slot", "is_novel_term"])
        for t, sig, slot in zip(space.term_ids.tolist(), sc.sig_scores.tolist(),
                                sc.z_term.tolist()):
            rows.writerow([corpus.vocab[t], f"{sig:.6f}", slot, int(t in novel)])
    space.dump(os.path.join(debug_dir, f"node_{node_id}_embedding.txt"), corpus)


def load_config(path, seed=0, workers=1) -> PipelineConfig:
    """Flat key=value overrides on top of the defaults.

    Training is single-threaded; ``workers`` must be 1 and stays only
    because the benchmark harness (``perfbench/worker.py``) passes it.
    """
    if workers != 1:
        raise ValueError("workers must be 1: training is single-threaded")
    overrides = {}
    first_line = {}   # key -> line it is set on
    if path:
        for lineno, line in enumerate(read_lines(path), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value")
            key, val = (x.strip() for x in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{where}: unknown key {key!r}")
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{where}: key {key!r} repeats the key of "
                                 f"line {first_line[key]}")
            typ = CONFIG_KEYS[key]
            try:
                overrides[key] = typ(val)
            except ValueError:
                raise ValueError(f"{where}: {key} expects {typ.__name__}, "
                                 f"got {val!r}") from None
    return PipelineConfig(**overrides, seed=seed)


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="taxoforge",
        description="Complete a partial topic taxonomy over a tokenized corpus.")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--hierarchy", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--integrity", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump-debug", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        corpus = load_corpus(args.corpus, integrity_path=args.integrity)
        partial = parse_hierarchy("".join(read_lines(args.hierarchy)), corpus,
                                  path=args.hierarchy)
        tax = complete_taxonomy(corpus, partial, cfg, debug_dir=args.dump_debug)
        root = tax.nodes[tax.root]
        unmet = _unmet_conditions(root, cfg)
        if unmet:
            print(f"taxoforge: warning: the root was not expanded "
                  f"({', '.join(unmet)}): "
                  f"{len(root.children)} top-level topics (at least 2), "
                  f"{len(root.terms)} terms (min_terms={cfg.min_terms}), "
                  f"{len(root.docs)} documents (min_docs={cfg.min_docs}); "
                  f"the input topics get no documents", file=sys.stderr)
        text = serialize(tax, corpus, cfg.top_k)  # raises before --out exists
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"taxoforge: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_cli())
