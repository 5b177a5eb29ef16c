"""Novelty-adaptive clustering for one taxonomy node.

Sub-topics are addressed by integer slots: known sub-topics occupy slots
0..K-1 in the embedding space's topic order, novel clusters follow. Ties in
any argmax break toward the lowest slot.

Sums over documents (the tf-idf vote, BM25, occurrence counts) are ordered
``np.bincount`` passes over the nonzeros of the node's count rows. bincount
adds each weight in array order into a float64 zero, so every cell has the
bits of a loop doing ``out[cell] += w`` over the same nonzeros. A sparse
matrix product gives the same sums up to rounding but fixes no order, and
a last-bit change here moves kappa and can change which topics a run
recovers.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, TermStats
from .embedding import EmbeddingSpace
from .vmf import VmfParams, estimate_vmf


class UndefinedNoveltyError(ValueError):
    pass


@dataclass
class ClusterConfig:
    beta_per_level: tuple = (1.5, 3.0)
    temperature: float = 0.1
    tau_sig: float = 0.3
    k_star_min: int = 1
    k_star_max: int = 5
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-9
    kmeans_restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if any(b < 1.0 for b in self.beta_per_level):
            raise ValueError("beta must be >= 1")
        if not 0.0 <= self.tau_sig <= 1.0:
            raise ValueError("tau_sig must lie in [0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    def beta(self, level: int) -> float:
        return self.beta_per_level[min(level, len(self.beta_per_level) - 1)]


@dataclass
class SubtopicClustering:
    """Full clustering result for one node."""

    z_term: dict                      # term id -> slot
    z_doc: dict                       # doc id -> slot (pre-anchor pass)
    known_terms: set
    novel_terms: set
    novel_clusters: list              # (center term, anchor set, VmfParams)
    known_updates: dict               # slot -> (anchor set, VmfParams)
    k_star: int
    known_docs: dict = field(default_factory=dict)   # slot -> doc set (post-anchor)
    novel_docs: list = field(default_factory=list)   # aligned with novel_clusters
    sig_scores: dict = field(default_factory=dict)   # term id -> significance
    warnings: set = field(default_factory=set)       # slots left with only their center


def novelty_scores(space: EmbeddingSpace, term_ids, temperature: float) -> np.ndarray:
    """1 - max softmax over known sub-topics of cos(t, s)/T, vectorized."""
    k = space.num_topics
    if k == 0:
        raise UndefinedNoveltyError("node has no known sub-topics")
    rows = np.asarray([space.row_of[int(t)] for t in term_ids])
    sims = space.target[rows] @ space.topic_vecs.T / temperature
    sims -= sims.max(axis=1, keepdims=True)
    soft = np.exp(sims)
    soft /= soft.sum(axis=1, keepdims=True)
    return 1.0 - soft.max(axis=1)


def novelty_score(t, space: EmbeddingSpace, temperature: float) -> float:
    return float(novelty_scores(space, [t], temperature)[0])


def novelty_threshold(k_c: int, beta: float) -> float:
    """(1 - 1/K)^beta; larger beta lowers the threshold."""
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if k_c < 2:
        raise ValueError("known/novel split needs at least 2 known sub-topics")
    return (1.0 - 1.0 / k_c) ** beta


def split_terms(terms, space: EmbeddingSpace, cfg: ClusterConfig, level: int):
    """Partition node terms into (known, novel); boundary scores go novel."""
    term_arr = sorted(int(t) for t in terms)
    tau = novelty_threshold(space.num_topics, cfg.beta(level))
    scores = novelty_scores(space, term_arr, cfg.temperature)
    known = {t for t, s in zip(term_arr, scores) if s < tau}
    novel = set(term_arr) - known
    return known, novel


def assign_known_terms(known, space: EmbeddingSpace) -> dict:
    """Each known term -> slot of its closest known sub-topic vector."""
    if not known:
        return {}
    term_arr = sorted(int(t) for t in known)
    rows = np.asarray([space.row_of[t] for t in term_arr])
    sims = space.target[rows] @ space.topic_vecs.T
    return {t: int(s) for t, s in zip(term_arr, sims.argmax(axis=1))}


def spherical_kmeans(vectors, k: int, cfg: ClusterConfig, seed=None,
                     return_history=False):
    """Spherical k-means maximizing sum of cosines to unit mean directions."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n < k:
        raise ValueError(f"{n} vectors cannot form {k} clusters")
    seed = cfg.seed if seed is None else seed
    best = None
    for r in range(max(1, cfg.kmeans_restarts)):
        rng = np.random.default_rng(seed + r)
        assign, means, history = _kmeans_once(vectors, k, cfg, rng)
        if best is None or history[-1] > best[2][-1]:
            best = (assign, means, history)
    assign, means, history = best
    if return_history:
        return assign, means, history
    return assign, means


def _kmeans_once(vectors, k, cfg, rng):
    n = vectors.shape[0]
    means = vectors[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    history = []
    for _ in range(cfg.kmeans_max_iter):
        sims = vectors @ means.T
        new_assign = sims.argmax(axis=1)
        # re-seed empty clusters with the point least aligned to its own mean
        for kk in range(k):
            if not (new_assign == kk).any():
                own = sims[np.arange(n), new_assign]
                worst = int(np.argmin(own))
                new_assign[worst] = kk
                sims[worst] = -np.inf  # keep it pinned this round
        converged = (new_assign == assign).all()
        assign = new_assign
        for kk in range(k):
            member = vectors[assign == kk].sum(axis=0)
            norm = np.linalg.norm(member)
            if norm > 0:
                means[kk] = member / norm
        obj = float((vectors * means[assign]).sum())
        history.append(obj)
        if converged or (len(history) > 1 and
                         abs(history[-1] - history[-2]) < cfg.kmeans_tol):
            break
    return assign, means, history


def assign_documents(docs, z_term, stats: TermStats, n_slots: int) -> dict:
    """Eq-style tf-idf vote: doc -> argmax slot; zero-weight docs unassigned.

    Documents outside stats are skipped; the result is keyed in ascending
    doc id order. A document's slot scores are summed over its nonzeros in
    term-id order.
    """
    if not z_term:
        return {}
    doc_arr = np.unique(np.fromiter(docs, dtype=np.int64))
    rows = stats.rows(doc_arr)
    doc_arr, rows = doc_arr[rows >= 0], rows[rows >= 0]
    slot_of = np.full(stats.counts.shape[1], -1, dtype=np.int64)
    slot_of[list(z_term)] = list(z_term.values())
    width = max(n_slots, int(slot_of.max()) + 1)
    sub = stats.counts[rows]
    slot = slot_of[sub.indices]
    on = slot >= 0
    row = np.repeat(np.arange(rows.size), np.diff(sub.indptr))[on]
    cols, vals = sub.indices[on], sub.data[on]
    scores = np.bincount(row * width + slot[on], weights=vals * stats.idf[cols],
                         minlength=rows.size * width).reshape(rows.size, width)
    keep = scores.max(axis=1, initial=0.0) > 0.0
    return dict(zip(doc_arr[keep].tolist(),
                    scores[keep].argmax(axis=1).tolist()))


def _bm25_matrix(term_arr, subcorpora, stats: TermStats, k1: float, b: float):
    """BM25(t, D_s) and occurrence counts for every node term x sub-corpus.

    term_arr holds distinct term ids; subcorpora[s] lists the doc ids of
    slot s, all in stats. Returns (bm25, tf), both (n_terms, n_slots); tf
    counts the term's occurrences in the slot's documents. Every cell is
    summed over the slot's documents in their listed order, then over each
    document's terms in id order.
    """
    term_arr = np.asarray(term_arr, dtype=np.int64)
    n_slots = len(subcorpora)
    n_cells = term_arr.size * n_slots
    sizes = [len(docs) for docs in subcorpora]
    doc_arr = np.fromiter((d for docs in subcorpora for d in docs),
                          dtype=np.int64, count=sum(sizes))
    rows = stats.rows(doc_arr)
    if (rows < 0).any():
        raise KeyError(f"document {int(doc_arr[rows < 0][0])} is not in the "
                       "statistics' subset")
    sub = stats.counts[rows]
    per_row = np.diff(sub.indptr)
    pos = np.full(stats.counts.shape[1], -1, dtype=np.int64)
    pos[term_arr] = np.arange(term_arr.size)
    term_idx = pos[sub.indices]
    on = term_idx >= 0
    slot = np.repeat(np.repeat(np.arange(n_slots), sizes), per_row)[on]
    dl = np.repeat(stats.doc_len[rows], per_row)[on]
    cols, vals = sub.indices[on], sub.data[on]
    cells = term_idx[on] * n_slots + slot
    denom = vals + k1 * (1.0 - b + b * dl / stats.avg_doc_len)
    contrib = stats.idf[cols] * vals * (k1 + 1.0) / denom
    shape = (term_arr.size, n_slots)
    bm25 = np.bincount(cells, weights=contrib, minlength=n_cells).reshape(shape)
    tf = np.bincount(cells, weights=vals, minlength=n_cells).reshape(shape)
    return bm25, tf


def _rep_matrix(term_arr, subcorpora, stats: TermStats, corpus: Corpus,
                k1: float, b: float):
    """Representativeness (integrity x distinctiveness x popularity)^(1/3)."""
    term_arr = np.asarray(term_arr)
    bm25, tf = _bm25_matrix(term_arr, subcorpora, stats, k1, b)
    # distinctiveness in the log domain: exp(bm25_s - log(1 + sum_s' exp bm25_s'))
    from scipy.special import logsumexp
    log_denom = np.logaddexp(0.0, logsumexp(bm25, axis=1))
    dis = np.exp(bm25 - log_denom[:, None])
    # popularity: log(1 + tf) / log(total node-term occurrences in the slot)
    pop = np.zeros_like(bm25)
    total = tf.sum(axis=0)
    used = total > 1
    pop[:, used] = np.log(tf[:, used] + 1.0) / np.log(total[used])
    integ = corpus.integrity[term_arr][:, None]
    return np.cbrt(integ * dis * pop)


def _subcorpora(z_doc, n_slots):
    subs = [[] for _ in range(n_slots)]
    for d, s in z_doc.items():
        subs[s].append(d)
    return subs


def significance_scores(term_arr, vecs, means, rep):
    """max_s clip(cos, 0) * rep and its argmax; inputs aligned on term_arr."""
    rel = np.clip(vecs @ means.T, 0.0, None)
    prod = rel * rep
    return prod.max(axis=1), prod.argmax(axis=1)


def significance_score(t, term_arr, vecs, means, rep):
    sig, arg = significance_scores(term_arr, vecs, means, rep)
    i = list(term_arr).index(int(t))
    return float(sig[i]), int(arg[i])


def select_anchor_terms(z_term, scores, tau_sig, n_slots, known_centers=None):
    """Per slot: assigned terms with significance >= tau_sig.

    Known sub-topic center terms are always retained. Returns (anchors,
    warning slots) where a warning marks a known slot left with nothing but
    its center.
    """
    anchors = [set() for _ in range(n_slots)]
    for t, s in z_term.items():
        if scores.get(t, 0.0) >= tau_sig:
            anchors[s].add(t)
    warnings = set()
    if known_centers:
        for s, center in known_centers.items():
            if not (anchors[s] - {center}):
                warnings.add(s)
            anchors[s].add(center)
    return anchors, warnings


def select_novel_k(novel_terms, known_assign, known_centers, space: EmbeddingSpace,
                   stats: TermStats, node_terms, node_docs, corpus: Corpus,
                   cfg: ClusterConfig) -> SubtopicClustering:
    """Pick the novel cluster count K* minimizing the stdev of concentrations.

    For each candidate K* the clustering/assignment/anchor/vMF chain is
    re-run; known sub-topics contribute their (re-estimated) kappas too.
    Zero-known nodes use the stdev over novel kappas only.
    """
    k_known = space.num_topics if known_assign or known_centers else 0
    novel_arr = sorted(int(t) for t in novel_terms)
    if novel_arr:
        candidates = [k for k in range(cfg.k_star_min, cfg.k_star_max + 1)
                      if k <= len(novel_arr)]
        if not candidates:
            candidates = [len(novel_arr)]
    else:
        candidates = [0]

    novel_vecs = (space.target[[space.row_of[t] for t in novel_arr]]
                  if novel_arr else np.zeros((0, space.dim)))
    best = None
    for k_star in candidates:
        if k_star > 0:
            assign, means = spherical_kmeans(novel_vecs, k_star, cfg,
                                             seed=cfg.seed + k_star)
            novel_assign = {t: k_known + int(a) for t, a in zip(novel_arr, assign)}
        else:
            means = np.zeros((0, space.dim))
            novel_assign = {}
        cand = _evaluate_candidate(novel_assign, means, k_star, known_assign,
                                   known_centers, space, stats, node_terms,
                                   node_docs, corpus, cfg)
        if best is None or cand["stdev"] < best["stdev"] - 1e-12:
            best = cand
    return _finalize_clustering(best, known_assign, known_centers, space,
                                stats, node_docs, cfg)


def _evaluate_candidate(novel_assign, novel_means, k_star, known_assign,
                        known_centers, space, stats, node_terms, node_docs,
                        corpus, cfg):
    k_known = space.num_topics if known_assign or known_centers else 0
    n_slots = k_known + k_star
    z_term = dict(known_assign)
    z_term.update(novel_assign)
    z_doc = assign_documents(node_docs, z_term, stats, n_slots)
    subcorpora = _subcorpora(z_doc, n_slots)
    term_arr = np.asarray(sorted(int(t) for t in node_terms))
    rows = [space.row_of[int(t)] for t in term_arr]
    vecs = space.target[rows]
    means = (np.vstack([space.topic_vecs[:k_known], novel_means])
             if n_slots else np.zeros((0, space.dim)))
    rep = _rep_matrix(term_arr, subcorpora, stats, corpus, cfg.bm25_k1, cfg.bm25_b)
    sig, _ = significance_scores(term_arr, vecs, means, rep)
    scores = {int(t): float(v) for t, v in zip(term_arr, sig)}
    anchors, warnings = select_anchor_terms(z_term, scores, cfg.tau_sig,
                                            n_slots, known_centers)
    assigned = [set() for _ in range(n_slots)]
    for t, s in z_term.items():
        assigned[s].add(t)
    vmfs, kappas = [], []
    for s in range(n_slots):
        pool = anchors[s] if len(anchors[s]) >= 2 else (anchors[s] | assigned[s])
        if len(pool) >= 1:
            pv = space.target[[space.row_of[int(t)] for t in sorted(pool)]]
            params = estimate_vmf(pv, space.dim)
        else:
            params = estimate_vmf(np.zeros((1, space.dim)), space.dim)
        vmfs.append(params)
        kappas.append(params.kappa)
    pool_kappas = kappas if k_known else kappas[k_known:]
    stdev = float(np.std(pool_kappas)) if pool_kappas else 0.0
    return {
        "k_star": k_star, "z_term": z_term, "z_doc": z_doc, "anchors": anchors,
        "vmfs": vmfs, "stdev": stdev, "means": means, "scores": scores,
        "warnings": warnings, "novel_means": novel_means,
    }


def _finalize_clustering(cand, known_assign, known_centers, space, stats,
                         node_docs, cfg) -> SubtopicClustering:
    k_known = space.num_topics if known_assign or known_centers else 0
    k_star = cand["k_star"]
    n_slots = k_known + k_star
    anchors = cand["anchors"]

    # cleaned document assignment from anchor terms only, inherited by children
    z_anchor = {t: s for s in range(n_slots) for t in anchors[s]}
    z_doc2 = assign_documents(node_docs, z_anchor, stats, n_slots)
    doc_sets = [set() for _ in range(n_slots)]
    for d, s in z_doc2.items():
        doc_sets[s].add(d)

    known_updates = {s: (anchors[s], cand["vmfs"][s]) for s in range(k_known)}
    known_docs = {s: doc_sets[s] for s in range(k_known)}
    novel_clusters, novel_docs = [], []
    order = []
    for j in range(k_star):
        s = k_known + j
        aset = anchors[s]
        if not aset:
            continue
        mean = cand["novel_means"][j]
        arr = sorted(aset)
        sims = space.target[[space.row_of[t] for t in arr]] @ mean
        center = int(arr[int(np.argmax(sims))])
        order.append((len(aset), s, center, aset, cand["vmfs"][s]))
    order.sort(key=lambda x: (-x[0], x[1]))
    for _, s, center, aset, params in order:
        novel_clusters.append((center, aset, params))
        novel_docs.append(doc_sets[s])

    return SubtopicClustering(
        z_term=cand["z_term"], z_doc=cand["z_doc"],
        known_terms=set(known_assign), novel_terms=set(cand["z_term"]) - set(known_assign),
        novel_clusters=novel_clusters, known_updates=known_updates,
        k_star=k_star, known_docs=known_docs, novel_docs=novel_docs,
        sig_scores=cand["scores"], warnings=cand["warnings"],
    )


def cluster_node(node_terms, node_docs, space: EmbeddingSpace, stats: TermStats,
                 corpus: Corpus, cfg: ClusterConfig, level: int,
                 known_centers=None) -> SubtopicClustering:
    """Known/novel split plus the full K* search for one node.

    Nodes with fewer than 2 known sub-topics are routed through the
    unsupervised path (every term is treated as novel).
    """
    if space.num_topics >= 2:
        known, novel = split_terms(node_terms, space, cfg, level)
        known_assign = assign_known_terms(known, space)
    else:
        known_assign = {}
        known_centers = None
        novel = set(int(t) for t in node_terms)
    return select_novel_k(novel, known_assign, known_centers or {}, space,
                          stats, node_terms, node_docs, corpus, cfg)
