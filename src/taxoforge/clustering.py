"""Novelty-adaptive clustering for one taxonomy node.

A node's terms are the rows of its trained embedding space: row i is
``space.term_ids[i]``, in ascending id order. A term's novelty, slot,
significance and anchor membership are arrays over those rows; term ids
appear only in the result's anchor sets and novel centers.

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

The order is fixed by the node's term statistics (``TermStats``), built
once per node: their nonzeros run by document in ascending id order, then
by term in ascending id order. So a document's vote for a slot is summed
over its terms in id order, and a (term, slot) BM25 or occurrence cell
over the slot's documents in ascending id order. Every K* candidate, and
the final re-assignment by anchor terms, reads the same statistics; cells
a candidate does not keep (terms with no slot, documents with no slot) go
to a spare last column that is dropped.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import TermStats
from .embedding import EmbeddingSpace
from .vmf import estimate_vmf

KMEANS_TOL = 1e-9   # k-means stops once its objective moves less than this
KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 4  # the best objective over this many seeded starts wins

TEMPERATURE = 0.1   # T: softmax temperature of the novelty score
TAU_SIG = 0.3       # tau: significance a term needs to anchor its cluster
K_STAR_MAX = 5      # largest novel cluster count K* searched


@dataclass
class SubtopicClustering:
    """Full clustering result for one node.

    Per-term arrays run over the rows of the node's embedding space. known
    and novel hold each child as it is inserted (see child_split).
    """

    z_term: np.ndarray       # slot of each row
    novel_terms: np.ndarray  # ids of the terms split off as novel, ascending
    known: list         # (child key, terms, docs, kappa) per known slot, in slot order
    novel: list         # (center term, terms, docs, kappa) per kept novel slot, by
                        # anchor count (keywords included) descending, ties in slot order
    k_star: int
    sig_scores: np.ndarray   # significance of each row
    warnings: set       # known slots left with only their center


def novelty_scores(space: EmbeddingSpace, temperature: float) -> np.ndarray:
    """1 - max softmax over known sub-topics of cos(t, s)/T, per row."""
    sims = space.target @ space.topic_vecs.T / temperature
    sims -= sims.max(axis=1, keepdims=True)
    soft = np.exp(sims)
    soft /= soft.sum(axis=1, keepdims=True)
    return 1.0 - soft.max(axis=1)


def novelty_threshold(k_c: int, beta: float) -> float:
    """(1 - 1/K)^beta; larger beta lowers the threshold.

    beta >= 1 is PipelineConfig's check of beta1 and beta2.
    """
    if k_c < 2:
        raise ValueError("known/novel split needs at least 2 known sub-topics")
    return (1.0 - 1.0 / k_c) ** beta


def split_terms(space: EmbeddingSpace, beta: float) -> np.ndarray:
    """Novel mask over the rows; a score at the threshold counts as novel."""
    tau = novelty_threshold(space.num_topics, beta)
    return novelty_scores(space, TEMPERATURE) >= tau


def assign_known_terms(space: EmbeddingSpace, rows) -> np.ndarray:
    """Slot of the closest known sub-topic vector, for each of the rows."""
    # a product over the rows themselves: rows of the full product can
    # differ from it in the last bit
    return (space.target[rows] @ space.topic_vecs.T).argmax(axis=1)


def spherical_kmeans(vectors, k: int, seed: int):
    """Spherical k-means maximizing sum of cosines to unit mean directions.

    Restart r starts from the generator seeded with seed + r. Needs at
    least k vectors (select_novel_k caps K* at its novel row count).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    best = None
    for r in range(KMEANS_RESTARTS):
        rng = np.random.default_rng(seed + r)
        assign, means, history = _kmeans_once(vectors, k, rng)
        if best is None or history[-1] > best[2][-1]:
            best = (assign, means, history)
    return best[0], best[1]


def _kmeans_once(vectors, k, rng):
    n = vectors.shape[0]
    means = vectors[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    history = []
    for _ in range(KMEANS_MAX_ITER):
        sims = vectors @ means.T
        new_assign = sims.argmax(axis=1)
        # re-seed each empty cluster with the point least aligned to its own
        # mean among those whose cluster keeps another member; a moved point
        # is alone in its new cluster, so it is never taken twice
        counts = np.bincount(new_assign, minlength=k)
        for kk in np.flatnonzero(counts == 0):
            spare = np.flatnonzero(counts[new_assign] >= 2)
            worst = spare[np.argmin(sims[spare, new_assign[spare]])]
            counts[new_assign[worst]] -= 1
            counts[kk] = 1
            new_assign[worst] = kk
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
                         abs(history[-1] - history[-2]) < KMEANS_TOL):
            break
    return assign, means, history


def assign_documents(view: TermStats, z_term, n_slots: int) -> np.ndarray:
    """Eq-style tf-idf vote: the argmax slot of each document of the view.

    z_term holds the slot of each term position of the view, in [0, n_slots],
    n_slots for a term with no slot. Returns one slot per view.doc_ids entry,
    n_slots for a document with no positive vote (unassigned).
    """
    z_term = np.asarray(z_term)
    doc_slot = np.full(view.doc_ids.size, n_slots, dtype=np.int64)
    if n_slots == 0:
        return doc_slot
    width = n_slots + 1
    scores = np.bincount(view.row * width + z_term[view.pos], weights=view.vote,
                         minlength=view.doc_ids.size * width)
    scores = scores.reshape(-1, width)[:, :n_slots]
    keep = scores.max(axis=1, initial=0.0) > 0.0
    doc_slot[keep] = scores[keep].argmax(axis=1)
    return doc_slot


def _bm25_matrix(view: TermStats, doc_slot, n_slots: int):
    """BM25(t, D_s) and occurrence counts for every node term x slot.

    doc_slot holds the slot of each view document, n_slots for none.
    Returns (bm25, tf), both (n_terms, n_slots); tf counts the term's
    occurrences in the slot's documents.
    """
    width = n_slots + 1
    cells = view.pos * width + doc_slot[view.row]
    n_cells = view.term_arr.size * width

    def cell_sums(weights):
        out = np.bincount(cells, weights=weights, minlength=n_cells)
        return np.ascontiguousarray(out.reshape(-1, width)[:, :n_slots])

    return cell_sums(view.bm25), cell_sums(view.count)


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) of a finite 2-D array, in scipy 1.17's
    logsumexp arithmetic: the entries tying a row's max leave the shifted
    sum and enter as a count. A row without entries gives -inf."""
    if a.shape[1] == 0:
        return np.full(a.shape[0], -np.inf)
    a_max = a.max(axis=1, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=1, keepdims=True, dtype=np.float64)
    s = np.exp(np.where(tied, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def _rep_matrix(view: TermStats, doc_slot, n_slots: int):
    """Representativeness (integrity x distinctiveness x popularity)^(1/3)
    of every node term (rows) in every slot (columns)."""
    bm25, tf = _bm25_matrix(view, doc_slot, n_slots)
    # distinctiveness in the log domain: exp(bm25_s - log(1 + sum_s' exp bm25_s'))
    log_denom = np.logaddexp(0.0, _logsumexp_rows(bm25))
    dis = np.exp(bm25 - log_denom[:, None])
    # popularity: log(1 + tf) / log(total node-term occurrences in the slot)
    pop = np.zeros_like(bm25)
    total = tf.sum(axis=0)
    used = total > 1
    pop[:, used] = np.log(tf[:, used] + 1.0) / np.log(total[used])
    return np.cbrt(view.integrity[:, None] * dis * pop)


def significance_scores(vecs, means, rep):
    """max_s clip(cos, 0) * rep per row of vecs; rep is aligned on vecs."""
    return (np.clip(vecs @ means.T, 0.0, None) * rep).max(axis=1)


def select_anchor_terms(z_term, scores, tau_sig, n_slots, centers):
    """Per slot: the rows it holds with significance >= tau_sig.

    z_term and scores run over rows. centers[s] is the center row of known
    slot s; it is always an anchor of its slot, and may also anchor the
    slot z_term gives it. Returns (anchors, warning slots): anchors is an
    (n_slots, rows) mask, and a warning marks a known slot left with
    nothing but its center.
    """
    centers = np.asarray(centers, dtype=np.int64)
    known = np.arange(centers.size)
    rows = np.flatnonzero(scores >= tau_sig)
    anchors = np.zeros((n_slots, z_term.size), dtype=bool)
    anchors[z_term[rows], rows] = True
    own = anchors[known, centers]
    others = np.bincount(z_term[rows], minlength=n_slots)[known] - own
    anchors[known, centers] = True
    return anchors, set(np.flatnonzero(others == 0).tolist())


def select_novel_k(z_known, space: EmbeddingSpace, stats: TermStats,
                   seed: int, named) -> SubtopicClustering:
    """Pick the novel cluster count K* minimizing the stdev of concentrations.

    z_known holds the known slot of each row, -1 for a novel row. The
    known slots are the topics of the space, with their center rows; the
    novel slots follow. For each candidate K* the clustering/assignment/
    anchor/vMF chain is re-run, and the stdev is taken over the kappas of
    all slots, known (re-estimated) and novel. stats holds the term
    statistics of the node's documents over the rows of the space, read by
    every candidate. Candidate K* clusters the novel rows by spherical
    k-means seeded with seed + K*. named holds the ids of the terms that
    already name a node of the tree; no novel center is one of them.
    """
    k_known = space.num_topics
    novel_rows = np.flatnonzero(z_known < 0)
    novel_vecs = space.target[novel_rows]
    n_novel = novel_rows.size
    candidates = range(1, min(K_STAR_MAX, n_novel) + 1) if n_novel else [0]
    best = None
    for k_star in candidates:
        n_slots = k_known + k_star
        z_term = z_known.copy()
        if k_star > 0:
            assign, means = spherical_kmeans(novel_vecs, k_star, seed + k_star)
            z_term[novel_rows] = k_known + assign
        else:
            means = np.zeros((0, space.dim))
        doc_slot = assign_documents(stats, z_term, n_slots)
        rep = _rep_matrix(stats, doc_slot, n_slots)
        sig = significance_scores(
            space.target, np.vstack([space.topic_vecs, means]), rep)
        anchors, warnings = select_anchor_terms(z_term, sig, TAU_SIG, n_slots,
                                                space.center_rows)
        kappas = []
        for s in range(n_slots):
            # never empty: a known slot anchors its center, k-means fills a novel one
            pool = anchors[s] if anchors[s].sum() >= 2 else anchors[s] | (z_term == s)
            kappas.append(estimate_vmf(space.target[pool]))
        stdev = float(np.std(kappas))
        if best is None or stdev < best[0] - 1e-12:
            best = (stdev, k_star, means, z_term, sig, anchors, warnings, kappas)
    _, k_star, means, z_term, sig, anchors, warnings, kappas = best

    # cleaned document assignment from anchor terms only, inherited by
    # children; a row anchoring two slots (a known center) votes for the higher
    n_slots = k_known + k_star
    z_anchor = np.full(z_term.size, n_slots)
    for s in range(n_slots):
        z_anchor[anchors[s]] = s
    doc_slot = assign_documents(stats, z_anchor, n_slots)
    docs = [stats.doc_ids[doc_slot == s] for s in range(n_slots)]
    known, novel = child_split(space, anchors, sig, docs, kappas, means, named)
    return SubtopicClustering(
        z_term=z_term, novel_terms=space.term_ids[novel_rows], known=known,
        novel=novel, k_star=k_star, sig_scores=sig, warnings=warnings)


def child_split(space: EmbeddingSpace, anchors, sig, docs, kappas, means, named):
    """What each child inherits: (known, novel) as in SubtopicClustering.

    The space's k_known topics are slots 0..k_known-1. Slot s has the
    anchor rows anchors[s], document ids docs[s], kappa kappas[s] and, if
    novel, mean direction means[s - k_known]. A child's terms are its
    anchor rows less every keyword row of the space, plus a known child's
    own keyword rows, ranked by sig descending, ties by id. A novel slot
    left with no terms or documents is dropped; a novel center is the
    anchor closest to the mean, or the lowest term if that is a keyword.
    A center in named (a term that already names a node) gives way to the
    slot's term closest to the mean that names none; a slot whose terms
    all name a node is dropped.
    """
    k_known = space.num_topics
    keyword = np.zeros((k_known, space.term_ids.size), dtype=bool)
    for k, rows in enumerate(space.keyword_rows):
        keyword[k, rows] = True
    terms = anchors & ~keyword.any(axis=0)
    terms[:k_known] |= keyword

    def ranked(rows):
        return space.term_ids[rows[np.lexsort((rows, -sig[rows]))]]

    known = [(space.topic_order[s], ranked(np.flatnonzero(terms[s])), docs[s],
              kappas[s]) for s in range(k_known)]
    novel = []
    for s in sorted(range(k_known, anchors.shape[0]), key=lambda s: -anchors[s].sum()):
        rows = np.flatnonzero(terms[s])
        if not rows.size or not docs[s].size:
            continue
        # a product over the anchor rows themselves: rows of the full
        # product can differ from it in the last bit
        pool = np.flatnonzero(anchors[s])
        center = pool[np.argmax(space.target[pool] @ means[s - k_known])]
        if not terms[s, center]:
            center = rows[0]
        if space.term_ids[center] in named:
            free = rows[[t not in named for t in space.term_ids[rows].tolist()]]
            if not free.size:
                continue
            center = free[np.argmax(space.target[free] @ means[s - k_known])]
        novel.append((int(space.term_ids[center]), ranked(rows), docs[s], kappas[s]))
    return known, novel


def cluster_node(space: EmbeddingSpace, stats: TermStats, beta: float,
                 seed: int, named) -> SubtopicClustering:
    """Known/novel split plus the full K* search for one node.

    The node's terms are the rows of space, and stats holds their
    statistics over the node's documents; beta is the node's novelty beta.
    The split needs at least 2 known sub-topics; with fewer it raises
    ValueError (the pipeline expands no such node). named holds the ids of
    the terms that already name a node.
    """
    z_known = np.full(space.term_ids.size, -1, dtype=np.int64)
    known = np.flatnonzero(~split_terms(space, beta))
    z_known[known] = assign_known_terms(space, known)
    return select_novel_k(z_known, space, stats, seed, named)
