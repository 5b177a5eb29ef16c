"""Locally discriminative spherical term embedding.

Per taxonomy node this trains unit-norm target/context vectors by projected
SGD on a three-part objective: a skip-gram hinge with negative sampling,
a hinge repulsion between sub-topic vectors, and a vMF attraction pulling
keyword terms toward their sub-topic vector (gated while cos < margin).
"""

import math

import numpy as np

from .corpus import Corpus, context_pair_arrays
from .vmf import KAPPA_MAX, bessel_ratio

# Negative sampling. GUIDE_BUCKETS is a power of two, so u * GUIDE_BUCKETS is
# exact and bucket j = floor(u * GUIDE_BUCKETS) satisfies j / GUIDE_BUCKETS
# <= u. SAMPLE_CHUNK pair rows are drawn per rng.random call, which bounds
# the sampler's scratch memory; the draws equal one whole-epoch call.
GUIDE_BUCKETS = 1 << 16
SAMPLE_CHUNK = 1 << 16
# a pair's index takes the high 32 bits of its int64 record and must keep
# the record positive
MAX_PAIRS = (1 << 31) - 1
# the topic step's screen of the keyword gates: a cosine this far from the
# margin has the same side in any summation order (rows of unit norm)
SCREEN_TOL = 1e-9

MARGIN = 0.3        # m: margin of the skip-gram and repulsion hinges and the keyword gate
NEGATIVES = 2       # negative context samples per skip-gram pair
NEIGHBORS_M = 100   # M: center-term neighbors whose documents join a node's local corpus
BATCH_SIZE = 8192   # SGD pairs per batch at the root


class EmbeddingSpace:
    """Trained vectors for one node: per-term target/context plus sub-topic vMF.

    Row i holds term term_ids[i]; term_ids ascend, and row_of maps a
    vocabulary id to its row (-1 for a term without one), in int16 when
    2n <= 32 767 and int32 above; the trainer's pair rows take its dtype.
    params stacks the n target rows over the n context rows; target and
    context are views of it. Sub-topic topic_order[k] has its center term
    on row center_rows[k], its keywords on keyword_rows[k]; the keyword
    rows of two sub-topics are disjoint. keyword_all concatenates those
    rows and keyword_topic names each one's sub-topic. The trainer steps
    the space in place.
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
        sizes = [rows.size for rows in self.keyword_rows]
        self.keyword_all = np.concatenate([np.zeros(0, dtype=np.int64),
                                           *self.keyword_rows])
        self.keyword_topic = np.repeat(np.arange(len(sizes)), sizes)

    @property
    def dim(self):
        return self.params.shape[1]

    @property
    def num_topics(self):
        return len(self.topic_order)

    def dump(self, path, corpus: Corpus):
        """Text dump: one line per term, then one per sub-topic vector named
        __topic__ and its center term."""
        with open(path, "w", encoding="utf-8") as f:
            for i, t in enumerate(self.term_ids):
                vec = " ".join(f"{x:.6f}" for x in self.target[i])
                f.write(f"{corpus.vocab[int(t)]} {vec}\n")
            for row, topic in zip(self.center_rows, self.topic_vecs):
                vec = " ".join(f"{x:.6f}" for x in topic)
                f.write(f"__topic__{corpus.vocab[int(self.term_ids[row])]} {vec}\n")


def _unit(x, axis=-1):
    # np.linalg.norm's arithmetic for real input, without its wrapper
    return x / np.sqrt(np.add.reduce(x * x, axis, keepdims=True))


def _scatter_unit(x, rows, idx, w):
    """Add column len(x) + i of w to row idx[i] of x; rescale rows to unit norm.

    w is (dim, x.shape[0] + len(idx)): the updates column-major after
    x.shape[0] columns that this function fills with x's rows. rows must
    hold every row idx names, ascending and without repeats; a row in rows
    that no update names is rescaled as it is. When rows is every row of x,
    the whole matrix is rescaled at once, with the same per-row reduction
    and no gather or scatter of rows. Equal bit for bit to
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
    if rows.size == n_rows:
        x[:] = _unit(acc)
    else:
        x[rows] = _unit(acc[rows])


def _negative_table(counts, dtype):
    """Cumulative distribution of counts ** 0.75 over rows, and its guide
    table in dtype, which must hold len(counts).

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
    guide = np.searchsorted(
        cum, np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS).astype(dtype)
    guide[0] = drawn[0]
    return cum, guide


def _draw_rows(cum, guide, u):
    """The first row with cum >= u, for draws u in [0, 1), by guide-table lookup.

    Equal to np.searchsorted(cum, u) for u > 0, in guide's dtype; u == 0.0
    gives the first row with a positive count. The answer is at or after
    the guide entry of u's bucket; each draw walks forward from there while
    cum < u.
    """
    idx = guide[(u * GUIDE_BUCKETS).astype(np.intp)]
    behind = np.flatnonzero(cum[idx] < u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cum[idx[behind]] < u[behind]]
    return idx


def retrieve_local_corpus(node, space: EmbeddingSpace | None, corpus: Corpus,
                          m_neighbors: int) -> np.ndarray:
    """Ascending int64 ids of the node documents plus the documents
    containing the top-M neighbors of its center in space, the parent's
    trained space; the root (space None) gets every document."""
    if space is None:
        return np.arange(corpus.num_docs)
    # an empty tuple as an index would select every document
    docs = np.asarray(node.docs, dtype=np.int64)
    center = int(space.row_of[node.center_term])
    if m_neighbors <= 0 or center < 0:
        return docs
    local = np.zeros(corpus.num_docs, dtype=bool)
    local[docs] = True
    sims = space.target @ space.target[center]
    sims[center] = -np.inf
    for row in np.argsort(-sims)[:min(m_neighbors, len(sims) - 1)]:
        local[corpus.docs_containing(int(space.term_ids[row]))] = True
    return np.flatnonzero(local)


def _pair_rows(corpus: Corpus, docs, window, row_of):
    """Target and context rows of the docs' skip-gram pairs, in row_of's dtype.

    row_of maps a vocabulary id to its row (-1 for none). Tokens are mapped
    to rows before pairing, so the pairs are built in row_of's dtype. Pairs
    with a term that has no row are dropped; when every pair is kept, the
    paired arrays are returned as they are.
    """
    tokens, lengths = corpus.doc_tokens(docs)
    tr, cr = context_pair_arrays(row_of[tokens], lengths, window)
    keep = tr >= 0
    keep &= cr >= 0
    if keep.all():
        return tr, cr
    return tr[keep], cr[keep]


def train_node_embedding(docs, terms, keywords, cfg, batch_size: int,
                         corpus: Corpus, centers, seed: int) -> EmbeddingSpace:
    """Train a node-local embedding space.

    docs: ascending ids of the local sub-corpus's documents; terms: term
    ids with vectors; keywords: sub-topic key -> keyword term set (may be
    empty); cfg: the run's PipelineConfig, of which the trainer reads dim,
    window, epochs and lr; batch_size: SGD pairs per batch; centers:
    sub-topic key -> center term, used to initialize sub-topic vectors;
    seed: seeds the initialization, pairs and negatives.
    """
    if len(docs) == 0:
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
    # np.bincount, not np.unique, which imports numpy.ma
    if (np.bincount(space.keyword_all) > 1).any():
        raise ValueError("a keyword belongs to two sub-topics")
    _sgd_epochs(space, docs, corpus, cfg, batch_size, rng)
    return space


def _sgd_epochs(space: EmbeddingSpace, docs, corpus: Corpus, cfg, batch_size, rng):
    """cfg.epochs passes of projected SGD over the docs' pairs, in place.

    A space with no pairs keeps its seeded initialization. Each pair is
    one int64 record: its index in the high 32 bits, its target row below
    them and, when rows are int16, its context row (offset by n) in the
    low 16 bits; int32 rows keep the context rows in pair order beside the
    records. Each epoch shuffles the records in place, which gives the
    order and generator state of rng.permutation(pairs), and a later epoch
    first sorts them back into pair order by their index. So a batch is a
    contiguous slice of records, which it unpacks into its own rows. The
    negatives are drawn in pair order into a (pairs, negatives) array in
    row_of's dtype; each batch gathers its own by the records' index, with
    the int32 context rows.
    """
    tr, cr = _pair_rows(corpus, docs, cfg.window, space.row_of)
    n, n_pairs = space.term_ids.size, tr.size
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"a node has {n_pairs} skip-gram pairs; the trainer "
                         f"takes at most {MAX_PAIRS}")
    if n_pairs == 0:
        return
    row_dtype = space.row_of.dtype
    cum, guide = _negative_table(np.bincount(cr, minlength=n).astype(np.float64),
                                 row_dtype)
    packed = row_dtype == np.int16
    cr += n
    rec = np.empty(n_pairs, dtype=np.int64)
    # in chunks: a whole-array int64 temporary would add 8 B per pair
    for s in range(0, n_pairs, SAMPLE_CHUNK):
        e = min(s + SAMPLE_CHUNK, n_pairs)
        r = np.arange(s, e, dtype=np.int64)
        r <<= 32
        if packed:
            r |= tr[s:e].astype(np.int64) << 16
            r |= cr[s:e]
        else:
            r |= tr[s:e]
        rec[s:e] = r
    del r, tr
    if packed:
        del cr
    negs = np.empty((n_pairs, NEGATIVES), dtype=row_dtype)

    total_steps = cfg.epochs * math.ceil(n_pairs / batch_size)
    step = 0
    for epoch in range(cfg.epochs):
        if epoch:
            rec.sort()
        rng.shuffle(rec)
        for s in range(0, n_pairs, SAMPLE_CHUNK):
            out = negs[s:s + SAMPLE_CHUNK].reshape(-1)   # a view
            np.add(_draw_rows(cum, guide, rng.random(out.size)), n, out=out)
        for s in range(0, n_pairs, batch_size):
            batch = rec[s:s + batch_size]
            sel = batch >> 32
            # astype keeps the low bits of each record
            if packed:
                tb = (batch >> 16).astype(row_dtype)
                cb = batch.astype(row_dtype)
            else:
                tb = batch.astype(row_dtype)
                cb = np.take(cr, sel)
            lr = cfg.lr * max(1.0 - step / total_steps, 1e-4)
            sgd_batch(space, tb, cb, np.take(negs, sel, axis=0), lr)
            step += 1
        space.params[:] = _unit(space.params)
        space.topic_vecs[:] = _unit(space.topic_vecs)


def sgd_batch(space: EmbeddingSpace, tb, cb, nb, lr):
    """One projected SGD step on pairs (tb[p], cb[p]) with negatives nb[p].

    The indices are rows of space.params: cb and nb are context rows, i.e.
    already offset by n. The step gathers the rows at once, adds the hinge
    gradients through one _scatter_unit, which also puts every touched row
    back on the sphere, then runs the topic/kappa step. Target and context
    rows are disjoint bins of one scatter, so each row gets the same
    left-to-right sum as a target scatter followed by a context scatter:
    target updates in pair order, then positive contexts in pair order,
    then negatives in (pair, negative) order.

    Only the updates that can be nonzero are computed and fed: the target
    and positive-context updates of pairs with an active hinge, and the
    negative-context updates of active (pair, negative) terms. A target
    gradient row is computed from that pair's rows alone, so computing it
    for the active pairs only gives each of them the same bits. The others
    are exact zeros (+0.0 or -0.0), and skipping them moves no bit:
    np.bincount starts every bin at +0.0, and a round-to-nearest sum is
    -0.0 only when both addends are, so no bin ever holds -0.0 (whatever
    the stored rows hold), and x + (+-0.0) == x for every other x. Every
    row the batch names is still rescaled, even one only zero updates touch.
    A contiguous nb costs no copy.
    """
    params, dim = space.params, space.dim
    n_p, n_neg = nb.shape
    nr = nb.ravel()
    idx = np.concatenate([tb, cb, nr])
    vecs = np.take(params, idx, axis=0)
    t = vecs[:n_p]
    vp = vecs[n_p:2 * n_p]
    vn = vecs[2 * n_p:].reshape(n_p, n_neg, dim)
    sn = np.einsum("pd,pnd->pn", t, vn)
    sp = np.einsum("pd,pd->p", t, vp)
    # (sn - sp[:, None] + MARGIN) > 0.0, without two temporaries
    sn -= sp[:, None]
    sn += MARGIN
    hit = sn > 0.0
    # a float mask: einsum over a bool operand is several times slower
    act = hit.astype(np.float64)
    # act.sum(axis=1), which is slow on a short axis; sums of 0 and 1
    # are exact in any order
    n_act = act @ np.ones(n_neg)
    pa = np.flatnonzero(n_act > 0.0)    # pairs with an active hinge
    na = np.flatnonzero(hit)            # active (pair, negative) terms
    # np.take: fancy indexing gathers rows several times slower
    n_act_a = np.take(n_act, pa)
    g_t = (np.einsum("pn,pnd->pd", np.take(act, pa, axis=0),
                     np.take(vn, pa, axis=0))
           - n_act_a[:, None] * np.take(vp, pa, axis=0))
    n_rows = params.shape[0]
    a, b = n_rows + pa.size, n_rows + 2 * pa.size
    w = np.empty((dim, b + na.size))
    np.multiply(g_t.T, -lr, out=w[:, n_rows:a])
    np.multiply(np.take(t, pa, axis=0).T, lr * n_act_a, out=w[:, a:b])
    # an active term's factor is -lr * 1.0 == -lr
    np.multiply(np.take(t, na // n_neg, axis=0).T, -lr, out=w[:, b:])
    touched = np.flatnonzero(np.bincount(idx, minlength=n_rows))
    _scatter_unit(params, touched, np.concatenate([tb[pa], cb[pa], nr[na]]), w)
    _topic_step(space, lr)


def _topic_step(space: EmbeddingSpace, lr):
    """Repulsion between sub-topic vectors and the gated keyword pull.

    Work that would add only zeros is skipped, which moves no bit: the
    repulsion matmul runs only when some pair of topics is closer than
    the margin, the Bessel ratios are computed on the first open keyword
    gate, and kappa moves only when a gate was open. One einsum screens
    every keyword's cosine to its topic; only a topic with a keyword below
    MARGIN + SCREEN_TOL recomputes its cosines exactly. The keyword rows
    are disjoint, so no topic's pull moves a row the screen read for
    another topic.
    """
    s = space.topic_vecs
    k_cnt = s.shape[0]
    target, kappa = space.target, space.topic_kappa
    g_s = np.zeros_like(s)
    hot = s @ s.T > MARGIN
    hot.flat[::k_cnt + 1] = False   # no topic repels itself
    if hot.any():
        active = np.triu(hot)
        g_s += (active | active.T) @ s
    screen = np.einsum("kd,kd->k", np.take(target, space.keyword_all, axis=0),
                       np.take(s, space.keyword_topic, axis=0))
    check = np.zeros(k_cnt, dtype=bool)
    check[space.keyword_topic[screen < MARGIN + SCREEN_TOL]] = True
    ratios = None
    g_k = np.zeros(k_cnt)
    for k, rows in enumerate(space.keyword_rows):
        if not check[k]:
            continue
        tk = target[rows]
        kw_sims = tk @ s[k]
        gate = kw_sims < MARGIN
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
