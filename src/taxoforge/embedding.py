"""Locally discriminative spherical term embedding.

Per taxonomy node this trains unit-norm target/context vectors by projected
SGD on a three-part objective: a skip-gram hinge with negative sampling,
a hinge repulsion between sub-topic vectors, and a vMF attraction pulling
keyword terms toward their sub-topic vector (gated while cos < margin).
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, context_pair_arrays
from .vmf import KAPPA_MAX, bessel_ratio, log_norm_const

# Negative sampling. GUIDE_BUCKETS is a power of two, so u * GUIDE_BUCKETS is
# exact and bucket j = floor(u * GUIDE_BUCKETS) satisfies j / GUIDE_BUCKETS
# <= u. SAMPLE_CHUNK pair rows are drawn per rng.random call, which bounds
# the sampler's scratch memory; the draws equal one whole-epoch call.
GUIDE_BUCKETS = 1 << 16
SAMPLE_CHUNK = 1 << 16


@dataclass
class EmbedConfig:
    dim: int = 50
    margin: float = 0.3
    window: int = 5
    negatives: int = 2
    epochs: int = 10
    lr: float = 0.025
    neighbors_m: int = 100     # M: local-corpus retrieval neighbors
    batch_size: int = 8192

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ValueError("margin must lie in (0, 1)")
        if self.negatives < 1:
            raise ValueError("need at least one negative sample")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dim < 2:
            raise ValueError("embedding dimension (dim) must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if self.neighbors_m < 0:
            raise ValueError(f"M (neighbors_m) must be >= 0, got {self.neighbors_m}")


class EmbeddingSpace:
    """Trained vectors for one node: per-term target/context plus sub-topic vMF.

    Row i holds term term_ids[i]; term_ids ascend, and row_of maps a
    vocabulary id to its row (-1 for a term without one), in int16 when
    2n <= 32 767 and int32 above; the trainer's pair rows take its dtype.
    params stacks the n target rows over the n context rows; target and
    context are views of it. Sub-topic topic_order[k] has its center term
    on row center_rows[k], its keywords on keyword_rows[k]. The trainer
    steps the space in place.
    """

    def __init__(self, term_ids, row_of, params, topic_order, topic_vecs,
                 topic_kappa, center_rows, keyword_rows):
        self.term_ids = np.asarray(term_ids)
        self.row_of = row_of
        self.params = params
        self.target = params[:self.term_ids.size]
        self.context = params[self.term_ids.size:]
        self.topic_order = list(topic_order)
        self.topic_vecs = topic_vecs
        self.topic_kappa = topic_kappa
        self.center_rows = np.asarray(center_rows, dtype=np.int64)
        self.keyword_rows = [np.asarray(rows, dtype=np.int64) for rows in keyword_rows]

    @property
    def dim(self):
        return self.params.shape[1]

    @property
    def num_topics(self):
        return len(self.topic_order)

    def dump(self, path, corpus: Corpus, topic_names=None):
        """Text dump: one line per term, topic vectors prefixed __topic__."""
        with open(path, "w", encoding="utf-8") as f:
            for i, t in enumerate(self.term_ids):
                vec = " ".join(f"{x:.6f}" for x in self.target[i])
                f.write(f"{corpus.term(int(t))} {vec}\n")
            for k, key in enumerate(self.topic_order):
                name = topic_names[key] if topic_names else str(key)
                vec = " ".join(f"{x:.6f}" for x in self.topic_vecs[k])
                f.write(f"__topic__{name} {vec}\n")


@dataclass
class Batch:
    """One evaluation batch of positive pairs and negatives.

    Indices are rows into the space's target/context arrays.
    """

    pos_t: np.ndarray
    pos_c: np.ndarray
    neg_c: np.ndarray                  # (P, negatives)


def _unit(x, axis=-1):
    return x / np.linalg.norm(x, axis=axis, keepdims=True)


def _scatter_unit(x, rows, idx, w):
    """Add column len(x) + i of w to row idx[i] of x; rescale rows to unit norm.

    w is (dim, x.shape[0] + len(idx)): the updates column-major after
    x.shape[0] columns that this function fills with x's rows. rows must
    hold every row idx names; a row in rows that no update names is
    rescaled as it is. Equal bit for bit to
    ``np.add.at(x, idx, w[:, x.shape[0]:].T)`` followed by ``_unit`` on the
    rows. np.bincount sums its weights in index order, so seeding every
    row's bin with the row's current value and then feeding the updates in
    order gives np.add.at's left-to-right sums; it costs
    O((len(x) + len(idx)) * dim) where np.add.at pays a per-element dispatch.
    """
    n_rows = x.shape[0]
    # one contiguous row of weights per column: np.bincount copies a strided one
    w[:, :n_rows] = x.T
    bins = np.concatenate([np.arange(n_rows), idx])
    acc = np.empty(x.shape)
    for j in range(x.shape[1]):
        acc[:, j] = np.bincount(bins, weights=w[j], minlength=n_rows)
    x[rows] = _unit(acc[rows])


def _negative_table(counts):
    """Cumulative distribution of counts ** 0.75 over rows, and its guide table.

    cum is 1.0 from the last row with a positive count on: the rounded
    cumulative sum can end below 1.0, and a draw above it would select row n.
    guide[j] is the first row with cum >= j / GUIDE_BUCKETS, except that
    guide[0] is the first row with a positive count: a draw of exactly 0.0
    would otherwise select a zero-count row 0.
    """
    probs = counts ** 0.75
    cum = np.cumsum(probs / probs.sum())
    drawn = np.flatnonzero(counts)
    cum[drawn[-1]:] = 1.0
    guide = np.searchsorted(cum, np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS)
    guide[0] = drawn[0]
    return cum, guide


def _draw_rows(cum, guide, u):
    """The first row with cum >= u, for draws u in [0, 1), by guide-table lookup.

    Equal to np.searchsorted(cum, u) for u > 0; u == 0.0 gives the first
    row with a positive count. The answer is at or after the guide entry of
    u's bucket; each draw walks forward from there while cum < u.
    """
    idx = guide[(u * GUIDE_BUCKETS).astype(np.intp)]
    behind = np.flatnonzero(cum[idx] < u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cum[idx[behind]] < u[behind]]
    return idx


def objective_value(space: EmbeddingSpace, batch: Batch, cfg: EmbedConfig) -> float:
    """Summed objective on the batch and the space's keyword rows."""
    m = cfg.margin
    val = 0.0
    if batch.pos_t.size:
        t = space.target[batch.pos_t]
        vp = space.context[batch.pos_c]
        vn = space.context[batch.neg_c]
        sp = np.einsum("pd,pd->p", t, vp)
        sn = np.einsum("pd,pnd->pn", t, vn)
        val += float(np.maximum(sn - sp[:, None] + m, 0.0).sum())
    s = space.topic_vecs
    k_cnt = space.num_topics
    if k_cnt >= 2:
        sims = s @ s.T
        iu = np.triu_indices(k_cnt, 1)
        val += float(np.maximum(sims[iu] - m, 0.0).sum())
    for k, rows in enumerate(space.keyword_rows):
        if len(rows) == 0:
            continue
        sims = space.target[rows] @ s[k]
        gate = sims < m
        if gate.any():
            log_c = log_norm_const(float(space.topic_kappa[k]), space.dim)
            val -= float((log_c + space.topic_kappa[k] * sims[gate]).sum())
    return val


def retrieve_local_corpus(node, space: EmbeddingSpace | None, corpus: Corpus,
                          m_neighbors: int) -> set:
    """Node documents plus documents containing the top-M neighbors of its center."""
    if space is None or node.center_term is None:
        return set(range(corpus.num_docs))
    docs = set(node.docs)
    center = int(space.row_of[node.center_term])
    if m_neighbors <= 0 or center < 0:
        return docs
    sims = space.target @ space.target[center]
    sims[center] = -np.inf
    top = min(m_neighbors, len(sims) - 1)
    order = np.argsort(-sims)[:top]
    for row in order:
        docs.update(corpus.docs_containing(int(space.term_ids[row])).tolist())
    return docs


def _pair_rows(corpus: Corpus, docs, window, row_of):
    """Target and context rows of the docs' skip-gram pairs, in row_of's dtype.

    row_of maps a vocabulary id to its row (-1 for none). Tokens are mapped
    to rows before pairing, so the pairs are built in row_of's dtype. Pairs
    with a term that has no row are dropped; when every pair is kept, the
    paired arrays are returned as they are.
    """
    tokens, lengths = corpus.doc_tokens(sorted(docs))
    tr, cr = context_pair_arrays(row_of[tokens], lengths, window)
    keep = tr >= 0
    keep &= cr >= 0
    if keep.all():
        return tr, cr
    return tr[keep], cr[keep]


def train_node_embedding(docs, terms, keywords, cfg: EmbedConfig,
                         corpus: Corpus, centers, seed: int) -> EmbeddingSpace:
    """Train a node-local embedding space.

    docs: document ids of the local sub-corpus; terms: term ids with vectors;
    keywords: sub-topic key -> keyword term set (may be empty); centers:
    sub-topic key -> center term, used to initialize sub-topic vectors;
    seed: seeds the initialization, the pair order and the negatives.
    """
    if not docs:
        raise ValueError("cannot train on an empty document set")
    term_ids = np.asarray(sorted(int(t) for t in terms))
    n = term_ids.size
    rng = np.random.default_rng(seed)
    # target rows 0..n-1 over context rows n..2n-1; one matrix to gather from
    # and scatter into
    params = np.empty((2 * n, cfg.dim))
    params[:n] = _unit(rng.standard_normal((n, cfg.dim)))
    params[n:] = _unit(rng.standard_normal((n, cfg.dim)))
    # int16 while it holds every params row and the -1 marker, which halves
    # the per-pair table of a node with at most 16 383 terms
    row_dtype = np.int16 if 2 * n <= np.iinfo(np.int16).max else np.int32
    row_of = np.full(corpus.num_terms, -1, dtype=row_dtype)
    row_of[term_ids] = np.arange(n)

    topic_order = sorted(keywords)
    center_rows = row_of[np.asarray([centers[key] for key in topic_order],
                                    dtype=np.int64)]
    if (center_rows < 0).any():
        raise ValueError("a sub-topic center is not a node term")
    keyword_rows = [row_of[np.asarray(sorted(keywords[key]), dtype=np.int64)]
                    for key in topic_order]
    if any((rows < 0).any() for rows in keyword_rows):
        raise ValueError("a sub-topic keyword is not a node term")
    space = EmbeddingSpace(term_ids, row_of, params, topic_order,
                           params[center_rows], np.ones(len(topic_order)),
                           center_rows, keyword_rows)
    _sgd_epochs(space, docs, corpus, cfg, rng)
    return space


def _sgd_epochs(space: EmbeddingSpace, docs, corpus: Corpus, cfg: EmbedConfig, rng):
    """cfg.epochs passes of projected SGD over the docs' pairs, in place.

    A space with no pairs keeps its seeded initialization. Each pair is one
    row of a table in row_of's dtype: its target row, its context row, then
    this epoch's negatives, all rows of params; one np.take gathers a batch.
    """
    tr, cr = _pair_rows(corpus, docs, cfg.window, space.row_of)
    n, n_pairs = space.term_ids.size, tr.size
    if n_pairs == 0:
        return
    cum, guide = _negative_table(np.bincount(cr, minlength=n).astype(np.float64))
    table = np.empty((n_pairs, 2 + cfg.negatives), dtype=space.row_of.dtype)
    table[:, 0] = tr
    table[:, 1] = cr
    table[:, 1] += n
    del tr, cr
    negs = table[:, 2:]

    n_batches = math.ceil(n_pairs / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    step = 0
    for _ in range(cfg.epochs):
        # the order and generator state of rng.permutation(n_pairs), in int32
        perm = np.arange(n_pairs, dtype=np.int32)
        rng.shuffle(perm)
        for start in range(0, n_pairs, SAMPLE_CHUNK):
            chunk = negs[start:start + SAMPLE_CHUNK]
            chunk[:] = (_draw_rows(cum, guide, rng.random(chunk.size))
                        + n).reshape(chunk.shape)
        for b in range(n_batches):
            pb = np.take(table, perm[b * cfg.batch_size:(b + 1) * cfg.batch_size],
                         axis=0)
            lr = cfg.lr * max(1.0 - step / total_steps, 1e-4)
            sgd_batch(space, pb[:, 0], pb[:, 1], pb[:, 2:], lr, cfg.margin)
            step += 1
        # freed before the next epoch allocates its own
        del perm
        space.params[:] = _unit(space.params)
        if space.num_topics:
            space.topic_vecs[:] = _unit(space.topic_vecs)


def sgd_batch(space: EmbeddingSpace, tb, cb, nb, lr, margin):
    """One projected SGD step on pairs (tb[p], cb[p]) with negatives nb[p].

    The indices are rows of space.params: cb and nb are context rows, i.e.
    already offset by n. The step gathers the rows at once, adds the hinge
    gradients through one _scatter_unit, which also puts every touched row
    back on the sphere, then runs the topic/kappa step. Target and context
    rows are disjoint bins of one scatter, so each row gets the same
    left-to-right sum as a target scatter followed by a context scatter:
    target updates in pair order, then positive contexts in pair order,
    then negatives in (pair, negative) order.

    Only the updates that can be nonzero are fed: the target and
    positive-context updates of pairs with an active hinge, and the
    negative-context updates of active (pair, negative) terms. The others
    are exact zeros (+0.0 or -0.0), and skipping them moves no bit:
    np.bincount starts every bin at +0.0, and a round-to-nearest sum is
    -0.0 only when both addends are, so no bin ever holds -0.0 (whatever
    the stored rows hold), and x + (+-0.0) == x for every other x. Every
    row the batch names is still rescaled, even one only zero updates touch.
    """
    params, dim = space.params, space.dim
    n_p, n_neg = nb.shape
    idx = np.concatenate([tb, cb, nb.ravel()])
    vecs = np.take(params, idx, axis=0)
    t = vecs[:n_p]
    vp = vecs[n_p:2 * n_p]
    vn = vecs[2 * n_p:].reshape(n_p, n_neg, dim)
    sn = np.einsum("pd,pnd->pn", t, vn)
    sp = np.einsum("pd,pd->p", t, vp)
    hit = (sn - sp[:, None] + margin) > 0.0
    # a float mask: einsum over a bool operand is several times slower
    act = hit.astype(np.float64)
    # act.sum(axis=1), which is slow on a short axis; sums of 0 and 1
    # are exact in any order
    n_act = act @ np.ones(n_neg)
    g_t = np.einsum("pn,pnd->pd", act, vn) - n_act[:, None] * vp
    pa = np.flatnonzero(n_act > 0.0)    # pairs with an active hinge
    na = np.flatnonzero(hit)            # active (pair, negative) terms
    n_rows = params.shape[0]
    a, b = n_rows + pa.size, n_rows + 2 * pa.size
    w = np.empty((dim, b + na.size))
    # np.take: fancy indexing gathers rows several times slower
    np.multiply(np.take(g_t, pa, axis=0).T, -lr, out=w[:, n_rows:a])
    np.multiply(np.take(t, pa, axis=0).T, lr * n_act[pa], out=w[:, a:b])
    # an active term's factor is -lr * 1.0 == -lr
    np.multiply(np.take(t, na // n_neg, axis=0).T, -lr, out=w[:, b:])
    touched = np.flatnonzero(np.bincount(idx, minlength=n_rows))
    _scatter_unit(params, touched,
                  np.concatenate([tb[pa], cb[pa], nb.ravel()[na]]), w)
    _topic_step(space, lr, margin)


def _topic_step(space: EmbeddingSpace, lr, margin):
    """Repulsion between sub-topic vectors and the gated keyword pull.

    Work that would add only zeros is skipped, which moves no bit: the
    repulsion matmul runs only when some pair of topics is closer than
    the margin, the Bessel ratios are computed on the first open
    keyword gate, and kappa moves only when a gate was open.
    """
    s = space.topic_vecs
    k_cnt = s.shape[0]
    if k_cnt == 0:
        return
    target, kappa = space.target, space.topic_kappa
    g_s = np.zeros_like(s)
    if k_cnt >= 2:
        sims = s @ s.T
        active = np.triu(sims - margin > 0.0, 1)
        if active.any():
            g_s += (active | active.T) @ s
    ratios = None
    g_k = np.zeros(k_cnt)
    for k, rows in enumerate(space.keyword_rows):
        if len(rows) == 0:
            continue
        tk = target[rows]
        kw_sims = tk @ s[k]
        gate = kw_sims < margin
        if not gate.any():
            continue
        if ratios is None:
            ratios = bessel_ratio(kappa, space.dim)
        kap = kappa[k]
        g_s[k] += -kap * tk[gate].sum(axis=0)
        target[rows[gate]] += lr * kap * s[k]
        target[rows[gate]] = _unit(target[rows[gate]])
        g_k[k] = gate.sum() * ratios[k] - kw_sims[gate].sum()
    s -= lr * g_s
    s[:] = _unit(s)
    if ratios is not None:
        kappa -= lr * g_k
        np.clip(kappa, 0.0, KAPPA_MAX, out=kappa)


def sample_batch(space: EmbeddingSpace, docs, cfg: EmbedConfig, corpus: Corpus,
                 rng, max_pairs=2048) -> Batch:
    """A fixed held-out batch over the node's documents, for objective tracking."""
    tr, cr = _pair_rows(corpus, docs, cfg.window, space.row_of)
    if tr.size > max_pairs:
        pick = rng.choice(tr.size, size=max_pairs, replace=False)
        tr, cr = tr[pick], cr[pick]
    negs = rng.integers(0, space.term_ids.size, size=(tr.size, cfg.negatives))
    return Batch(pos_t=tr, pos_c=cr, neg_c=negs)
