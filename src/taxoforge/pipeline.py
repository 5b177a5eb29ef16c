"""Recursive taxonomy completion: per-node embedding, clustering, expansion."""

import argparse
import collections
import dataclasses
import os
import sys
from dataclasses import dataclass, field

from .clustering import ClusterConfig, cluster_node
from .corpus import Corpus, compute_term_stats, load_corpus
from .embedding import EmbedConfig, retrieve_local_corpus, train_node_embedding
from .taxonomy import Taxonomy, insert_children, parse_hierarchy, serialize, subtree_keywords


@dataclass
class PipelineConfig:
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    # sub-corpora below the root are much smaller and their sibling topics
    # far closer; they may use their own embedding settings
    embed_child: EmbedConfig | None = None
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    max_depth: int | None = None   # None: depth of the input hierarchy
    min_terms: int = 50
    min_docs: int = 20
    top_k_output: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_terms < self.cluster.k_star_max:
            raise ValueError("min_terms must cover the largest novel K searched")


def complete_taxonomy(corpus: Corpus, partial: Taxonomy, cfg: PipelineConfig,
                      debug_dir=None) -> Taxonomy:
    """Breadth-first expansion of the partial hierarchy over the corpus."""
    tax = partial
    max_depth = cfg.max_depth
    if max_depth is None:
        max_depth = max(1, tax.max_depth())
    if tax.max_depth() > max_depth:
        raise ValueError("input hierarchy is deeper than max_depth")

    root = tax.nodes[tax.root]
    root.terms = set(range(corpus.num_terms))
    root.docs = set(range(corpus.num_docs))

    spaces = {}  # node id -> trained space, for child local-corpus retrieval
    queue = collections.deque([(tax.root, 0)])
    while queue:
        node_id, depth = queue.popleft()
        node = tax.nodes[node_id]
        if depth >= max_depth or len(node.terms) < cfg.min_terms \
                or len(node.docs) < cfg.min_docs:
            continue
        parent_space = spaces.get(node.parent)
        local_docs = retrieve_local_corpus(node, parent_space, corpus,
                                           cfg.embed.neighbors_m)
        keywords = subtree_keywords(tax, node_id)
        centers = {c: tax.nodes[c].center_term for c in node.children}
        base_embed = cfg.embed if depth == 0 or cfg.embed_child is None \
            else cfg.embed_child
        embed_cfg = dataclasses.replace(base_embed, seed=cfg.seed + 7919 * node_id)
        space = train_node_embedding(local_docs, node.terms, keywords,
                                     embed_cfg, corpus, centers=centers)
        spaces[node_id] = space

        stats = compute_term_stats(corpus, node.docs)
        cluster_cfg = dataclasses.replace(cfg.cluster, seed=cfg.seed + 7919 * node_id)
        known_centers = {s: centers[key] for s, key in enumerate(space.topic_order)}
        sc = cluster_node(node.terms, node.docs, space, stats, corpus,
                          cluster_cfg, level=depth, known_centers=known_centers)

        results = []
        all_keywords = set().union(*keywords.values()) if keywords else set()
        for s, key in enumerate(space.topic_order):
            if s not in sc.known_updates:
                continue
            anchors, params = sc.known_updates[s]
            # sub-tree topic names surely belong to their own sub-topic
            anchors = (set(anchors) - all_keywords) | keywords[key]
            results.append((tax.nodes[key].center_term, anchors,
                            sc.known_docs.get(s, set()), False, params))
        for (center, anchors, params), docs in zip(sc.novel_clusters, sc.novel_docs):
            anchors = set(anchors) - all_keywords
            if not anchors or not docs:
                continue
            if center not in anchors:
                center = min(anchors)
            results.append((center, anchors, docs, True, params))
        insert_children(tax, node_id, results)

        for child in tax.nodes[node_id].children:
            cnode = tax.nodes[child]
            cnode.term_scores = {t: sc.sig_scores.get(t, 0.0) for t in cnode.terms}
            queue.append((child, depth + 1))

        if debug_dir:
            _dump_node_debug(debug_dir, node_id, node, sc, space, corpus)
    return tax


def _dump_node_debug(debug_dir, node_id, node, sc, space, corpus):
    os.makedirs(debug_dir, exist_ok=True)
    path = os.path.join(debug_dir, f"node_{node_id}_terms.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("term,significance,slot,is_novel_term\n")
        for t in sorted(node.terms):
            slot = sc.z_term.get(t, -1)
            f.write(f"{corpus.term(t)},{sc.sig_scores.get(t, 0.0):.6f},"
                    f"{slot},{int(t in sc.novel_terms)}\n")
    space.dump(os.path.join(debug_dir, f"node_{node_id}_embedding.txt"),
               corpus, topic_names={k: str(k) for k in space.topic_order})


CONFIG_KEYS = {
    "dim": ("embed", "dim", int),
    "window": ("embed", "window", int),
    "margin": ("embed", "margin", float),
    "negatives": ("embed", "negatives", int),
    "epochs": ("embed", "epochs", int),
    "lr": ("embed", "lr", float),
    "batch_size": ("embed", "batch_size", int),
    "M": ("embed", "neighbors_m", int),
    "beta1": ("cluster", "beta1", float),
    "beta2": ("cluster", "beta2", float),
    "temperature": ("cluster", "temperature", float),
    "tau_sig": ("cluster", "tau_sig", float),
    "kmax_novel": ("cluster", "k_star_max", int),
    "bm25_k1": ("cluster", "bm25_k1", float),
    "bm25_b": ("cluster", "bm25_b", float),
    "child_dim": ("child", "dim", int),
    "child_margin": ("child", "margin", float),
    "child_negatives": ("child", "negatives", int),
    "child_epochs": ("child", "epochs", int),
    "child_lr": ("child", "lr", float),
    "child_batch_size": ("child", "batch_size", int),
    "max_depth": ("", "max_depth", int),
    "min_terms": ("", "min_terms", int),
    "min_docs": ("", "min_docs", int),
    "top_k": ("", "top_k_output", int),
}


def load_config(path, seed=0, workers=1) -> PipelineConfig:
    """Flat key=value overrides on top of the defaults.

    Training is single-threaded; ``workers`` must be 1 and stays only
    because the benchmark harness (``perfbench/worker.py``) passes it.
    """
    if workers != 1:
        raise ValueError("workers must be 1: training is single-threaded")
    embed_kw, cluster_kw, top_kw, child_kw = {}, {}, {}, {}
    betas = {}
    if path:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, val = (x.strip() for x in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise ValueError(f"config line {lineno}: unknown key {key!r}")
                group, attr, typ = CONFIG_KEYS[key]
                if key in ("beta1", "beta2"):
                    betas[key] = float(val)
                elif group == "embed":
                    embed_kw[attr] = typ(val)
                elif group == "child":
                    child_kw[attr] = typ(val)
                elif group == "cluster":
                    cluster_kw[attr] = typ(val)
                else:
                    top_kw[attr] = typ(val)
    if betas:
        default = ClusterConfig().beta_per_level
        cluster_kw["beta_per_level"] = (betas.get("beta1", default[0]),
                                        betas.get("beta2", default[1]))
    embed_child = None
    if child_kw:
        embed_child = EmbedConfig(seed=seed, **{**embed_kw, **child_kw})
    return PipelineConfig(
        embed=EmbedConfig(seed=seed, **embed_kw),
        embed_child=embed_child,
        cluster=ClusterConfig(seed=seed, **cluster_kw),
        seed=seed, **top_kw)


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
        with open(args.hierarchy, encoding="utf-8") as f:
            partial = parse_hierarchy(f.read(), corpus)
        tax = complete_taxonomy(corpus, partial, cfg, debug_dir=args.dump_debug)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(serialize(tax, corpus, cfg.top_k_output))
            f.write("\n")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"taxoforge: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_cli())
