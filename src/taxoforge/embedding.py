"""Locally discriminative spherical term embedding.

Per taxonomy node this trains unit-norm target/context vectors by projected
SGD on a three-part objective: a skip-gram hinge with negative sampling,
a hinge repulsion between sub-topic vectors, and a vMF attraction pulling
keyword terms toward their sub-topic vector (gated while cos < margin).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, context_pair_arrays
from .vmf import KAPPA_MAX, bessel_ratio, log_norm_const


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
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ValueError("margin must lie in (0, 1)")
        if self.negatives < 1:
            raise ValueError("need at least one negative sample")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class EmbeddingSpace:
    """Trained vectors for one node: per-term target/context plus sub-topic vMF."""

    def __init__(self, term_ids, target, context, topic_order, topic_vecs,
                 topic_kappa, dim):
        self.term_ids = np.asarray(term_ids)
        self.row_of = {int(t): i for i, t in enumerate(self.term_ids)}
        self.target = target
        self.context = context
        self.topic_order = list(topic_order)
        self.topic_vecs = topic_vecs
        self.topic_kappa = topic_kappa
        self.dim = dim

    @property
    def num_topics(self):
        return len(self.topic_order)

    def has_term(self, term_id):
        return int(term_id) in self.row_of

    def vec(self, term_id):
        return self.target[self.row_of[int(term_id)]]

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
    """One evaluation batch: positive pairs, negatives, and keyword rows.

    Indices are rows into the space's target/context arrays; keyword_rows is
    aligned with the space's topic order.
    """

    pos_t: np.ndarray
    pos_c: np.ndarray
    neg_c: np.ndarray                  # (P, negatives)
    keyword_rows: list = field(default_factory=list)


def _unit(x, axis=-1):
    return x / np.linalg.norm(x, axis=axis, keepdims=True)


def _scatter_unit(x, idx, vals):
    """Add vals[i] to row idx[i] of x, then rescale the touched rows to unit norm.

    Equal bit for bit to ``np.add.at(x, idx, vals)`` followed by ``_unit`` on
    the ``np.unique(idx)`` rows. np.bincount sums its weights in index order,
    so seeding each touched row's bin with the row's current value and then
    feeding the updates in order gives np.add.at's left-to-right sums; it
    costs O(len(idx) * dim) where np.add.at pays a per-element dispatch.
    """
    touched = np.zeros(x.shape[0], dtype=bool)
    touched[idx] = True
    rows = np.flatnonzero(touched)
    first = np.arange(rows.size)
    slot = np.empty(x.shape[0], dtype=np.intp)
    slot[rows] = first
    bins = np.concatenate([first, slot[idx]])
    weights = np.concatenate([x[rows], vals])
    acc = np.empty((rows.size, x.shape[1]))
    for j in range(x.shape[1]):
        acc[:, j] = np.bincount(bins, weights=weights[:, j], minlength=rows.size)
    x[rows] = _unit(acc)


def objective_value(space: EmbeddingSpace, batch: Batch, cfg: EmbedConfig) -> float:
    """Summed objective on the batch; deterministic given batch and space."""
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
    for k, rows in enumerate(batch.keyword_rows):
        if rows is None or len(rows) == 0:
            continue
        sims = space.target[rows] @ s[k]
        gate = sims < m
        if gate.any():
            log_c = log_norm_const(float(space.topic_kappa[k]), space.dim)
            val -= float((log_c + space.topic_kappa[k] * sims[gate]).sum())
    return val


def dense_gradients(space: EmbeddingSpace, batch: Batch, cfg: EmbedConfig):
    """Analytic gradients of objective_value w.r.t. all parameters.

    Returns (g_target, g_context, g_topic, g_kappa) as dense arrays matching
    the space's storage. Intended for verification on small spaces.
    """
    m = cfg.margin
    g_t = np.zeros_like(space.target)
    g_v = np.zeros_like(space.context)
    g_s = np.zeros_like(space.topic_vecs)
    g_k = np.zeros_like(space.topic_kappa)
    if batch.pos_t.size:
        t = space.target[batch.pos_t]
        vp = space.context[batch.pos_c]
        vn = space.context[batch.neg_c]
        sp = np.einsum("pd,pd->p", t, vp)
        sn = np.einsum("pd,pnd->pn", t, vn)
        act = (sn - sp[:, None] + m) > 0.0
        n_act = act.sum(axis=1).astype(np.float64)
        np.add.at(g_t, batch.pos_t,
                  np.einsum("pn,pnd->pd", act, vn) - n_act[:, None] * vp)
        np.add.at(g_v, batch.pos_c, -n_act[:, None] * t)
        np.add.at(g_v, batch.neg_c.ravel(),
                  (act[:, :, None] * t[:, None, :]).reshape(-1, space.dim))
    s = space.topic_vecs
    k_cnt = space.num_topics
    if k_cnt >= 2:
        sims = s @ s.T
        active = np.triu(sims - m > 0.0, 1)
        both = active | active.T
        g_s += both @ s
    for k, rows in enumerate(batch.keyword_rows):
        if rows is None or len(rows) == 0:
            continue
        rows = np.asarray(rows)
        tk = space.target[rows]
        sims = tk @ s[k]
        gate = sims < m
        if gate.any():
            kap = float(space.topic_kappa[k])
            np.add.at(g_t, rows[gate],
                      np.repeat(-kap * s[k][None, :], int(gate.sum()), axis=0))
            g_s[k] += -kap * tk[gate].sum(axis=0)
            g_k[k] += float(gate.sum()) * bessel_ratio(kap, space.dim) - sims[gate].sum()
    return g_t, g_v, g_s, g_k


def retrieve_local_corpus(node, space: EmbeddingSpace | None, corpus: Corpus,
                          m_neighbors: int) -> set:
    """Node documents plus documents containing the top-M neighbors of its center."""
    if space is None or node.center_term is None:
        return set(range(corpus.num_docs))
    docs = set(node.docs)
    if m_neighbors <= 0 or not space.has_term(node.center_term):
        return docs
    q = space.vec(node.center_term)
    sims = space.target @ q
    sims[space.row_of[node.center_term]] = -np.inf
    top = min(m_neighbors, len(sims) - 1)
    order = np.argsort(-sims)[:top]
    for row in order:
        docs.update(corpus.docs_containing(int(space.term_ids[row])).tolist())
    return docs


def train_node_embedding(docs, terms, keywords, cfg: EmbedConfig,
                         corpus: Corpus, centers=None) -> EmbeddingSpace:
    """Train a node-local embedding space.

    docs: document ids of the local sub-corpus; terms: term ids with vectors;
    keywords: sub-topic key -> keyword term set (may be empty); centers:
    sub-topic key -> center term, used to initialize sub-topic vectors.
    """
    if not docs:
        raise ValueError("cannot train on an empty document set")
    if cfg.dim < 2:
        raise ValueError("embedding dimension must be >= 2")
    for key, kws in keywords.items():
        if not set(kws) <= set(terms):
            raise ValueError(f"keywords of sub-topic {key} are not all node terms")

    term_ids = np.asarray(sorted(int(t) for t in terms))
    n = term_ids.size
    rng = np.random.default_rng(cfg.seed)
    target = _unit(rng.standard_normal((n, cfg.dim)))
    context = _unit(rng.standard_normal((n, cfg.dim)))

    topic_order = sorted(keywords)
    if centers is None:
        centers = {key: min(keywords[key]) for key in topic_order}
    vocab_to_row = np.full(corpus.num_terms, -1, dtype=np.int64)
    vocab_to_row[term_ids] = np.arange(n)
    topic_vecs = np.stack([target[vocab_to_row[centers[key]]].copy()
                           for key in topic_order]) if topic_order else np.zeros((0, cfg.dim))
    topic_kappa = np.ones(len(topic_order))
    keyword_rows = [vocab_to_row[np.asarray(sorted(keywords[key]))]
                    for key in topic_order]

    doc_objs = [corpus.documents[d] for d in sorted(docs)]
    t_all, c_all = context_pair_arrays(doc_objs, cfg.window)
    tr = vocab_to_row[t_all]
    cr = vocab_to_row[c_all]
    keep = (tr >= 0) & (cr >= 0)
    tr, cr = tr[keep], cr[keep]
    n_pairs = tr.size
    if n_pairs == 0:
        # nothing to train on; return the seeded initialization
        return EmbeddingSpace(term_ids, target, context, topic_order,
                              topic_vecs, topic_kappa, cfg.dim)

    counts = np.bincount(cr, minlength=n).astype(np.float64)
    probs = counts ** 0.75
    cum = np.cumsum(probs / probs.sum())

    n_batches = math.ceil(n_pairs / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    state = _TrainState(target, context, topic_vecs, topic_kappa,
                        keyword_rows, cfg)
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n_pairs)
        negs = np.searchsorted(cum, rng.random((n_pairs, cfg.negatives)))
        for b in range(n_batches):
            sl = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cfg.lr * max(1.0 - step / total_steps, 1e-4)
            state.sgd_batch(tr[sl], cr[sl], negs[sl], lr)
            step += 1
        target[:] = _unit(target)
        context[:] = _unit(context)
        if len(topic_order):
            topic_vecs[:] = _unit(topic_vecs)
    return EmbeddingSpace(term_ids, target, context, topic_order, topic_vecs,
                          topic_kappa, cfg.dim)


class _TrainState:
    """The arrays one node's SGD updates in place, and the per-batch step.

    sgd_batch takes one projected SGD step on a batch of (target, context,
    negatives) row triples: it adds the hinge gradients through
    _scatter_unit, which also puts every touched row back on the sphere,
    then runs the topic/kappa step.
    """

    def __init__(self, target, context, topic_vecs, topic_kappa, keyword_rows, cfg):
        self.target = target
        self.context = context
        self.topic_vecs = topic_vecs
        self.topic_kappa = topic_kappa
        self.keyword_rows = keyword_rows
        self.cfg = cfg
        self.dim = target.shape[1]

    def sgd_batch(self, tb, cb, nb, lr):
        m = self.cfg.margin
        t = self.target[tb]
        vp = self.context[cb]
        vn = self.context[nb]
        sn = np.einsum("pd,pnd->pn", t, vn)
        sp = np.einsum("pd,pd->p", t, vp)
        # a float mask: einsum over a bool operand is several times slower
        act = ((sn - sp[:, None] + m) > 0.0).astype(np.float64)
        n_act = act.sum(axis=1)
        g_t = np.einsum("pn,pnd->pd", act, vn) - n_act[:, None] * vp
        _scatter_unit(self.target, tb, -lr * g_t)
        # positive-context updates first, then the negatives, as two
        # successive np.add.at calls would apply them
        _scatter_unit(self.context, np.concatenate([cb, nb.ravel()]),
                      np.concatenate([lr * n_act[:, None] * t,
                                      (-lr * act[:, :, None] * t[:, None, :])
                                      .reshape(-1, self.dim)]))
        self._topic_step(lr)

    def _topic_step(self, lr):
        s = self.topic_vecs
        k_cnt = s.shape[0]
        if k_cnt == 0:
            return
        m = self.cfg.margin
        g_s = np.zeros_like(s)
        if k_cnt >= 2:
            sims = s @ s.T
            active = np.triu(sims - m > 0.0, 1)
            g_s += (active | active.T) @ s
        ratios = bessel_ratio(self.topic_kappa, self.dim)
        g_k = np.zeros(k_cnt)
        for k, rows in enumerate(self.keyword_rows):
            if len(rows) == 0:
                continue
            tk = self.target[rows]
            kw_sims = tk @ s[k]
            gate = kw_sims < m
            if not gate.any():
                continue
            kap = self.topic_kappa[k]
            g_s[k] += -kap * tk[gate].sum(axis=0)
            self.target[rows[gate]] += lr * kap * s[k]
            self.target[rows[gate]] = _unit(self.target[rows[gate]])
            g_k[k] = gate.sum() * ratios[k] - kw_sims[gate].sum()
        s -= lr * g_s
        s[:] = _unit(s)
        self.topic_kappa -= lr * g_k
        np.clip(self.topic_kappa, 0.0, KAPPA_MAX, out=self.topic_kappa)


def sample_batch(space: EmbeddingSpace, docs, cfg: EmbedConfig, corpus: Corpus,
                 keywords=None, rng=None, max_pairs=2048) -> Batch:
    """A fixed held-out batch over the node's documents, for objective tracking."""
    rng = rng or np.random.default_rng(cfg.seed + 1)
    doc_objs = [corpus.documents[d] for d in sorted(docs)]
    t_all, c_all = context_pair_arrays(doc_objs, cfg.window)
    vocab_to_row = np.full(corpus.num_terms, -1, dtype=np.int64)
    vocab_to_row[space.term_ids] = np.arange(space.term_ids.size)
    tr = vocab_to_row[t_all]
    cr = vocab_to_row[c_all]
    keep = (tr >= 0) & (cr >= 0)
    tr, cr = tr[keep], cr[keep]
    if tr.size > max_pairs:
        pick = rng.choice(tr.size, size=max_pairs, replace=False)
        tr, cr = tr[pick], cr[pick]
    negs = rng.integers(0, space.term_ids.size, size=(tr.size, cfg.negatives))
    keyword_rows = []
    if keywords:
        for key in space.topic_order:
            keyword_rows.append(vocab_to_row[np.asarray(sorted(keywords[key]))])
    return Batch(pos_t=tr, pos_c=cr, neg_c=negs, keyword_rows=keyword_rows)
