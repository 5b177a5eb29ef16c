"""Objective value, analytic gradients, and the spherical trainer."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import taxoforge.embedding as embedding
from taxoforge.corpus import Corpus, corpus_from_lines
from taxoforge.embedding import (
    BATCH_SIZE,
    GUIDE_BUCKETS,
    MARGIN,
    SAMPLE_CHUNK,
    EmbeddingSpace,
    _draw_rows,
    _negative_table,
    _pair_rows,
    _scatter_unit,
    _topic_step,
    _unit,
    retrieve_local_corpus,
    sgd_batch,
    train_node_embedding,
)
from taxoforge.pipeline import PipelineConfig
from taxoforge.taxonomy import TopicNode, parse_hierarchy, subtree_keywords
from taxoforge.vmf import KAPPA_MAX, bessel_ratio

from test_corpus import loop_pair_arrays, random_corpus
from test_vmf import log_norm_const


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def make_space(rng, n_terms=12, dim=6, n_topics=3):
    """A random space with three random keyword rows per topic."""
    return EmbeddingSpace(
        term_ids=np.arange(n_terms),
        row_of=np.arange(n_terms, dtype=np.int32),
        params=np.vstack([unit_rows(rng.standard_normal((n_terms, dim))),
                          unit_rows(rng.standard_normal((n_terms, dim)))]),
        topic_order=list(range(n_topics)),
        topic_vecs=unit_rows(rng.standard_normal((n_topics, dim))),
        topic_kappa=rng.uniform(0.5, 5.0, size=n_topics),
        center_rows=np.arange(n_topics),
        keyword_rows=[rng.choice(n_terms, size=3, replace=False)
                      for _ in range(n_topics)],
    )


def space_over(params, topic_vecs, topic_kappa, keyword_rows):
    """The space of the n = len(params) // 2 terms whose rows params stacks,
    as the SGD step functions update it."""
    n, k_cnt = params.shape[0] // 2, topic_vecs.shape[0]
    return EmbeddingSpace(np.arange(n), np.arange(n, dtype=np.int32), params,
                          range(k_cnt), topic_vecs, topic_kappa,
                          np.zeros(k_cnt, dtype=np.int64), keyword_rows)


@dataclass
class Batch:
    """One evaluation batch of positive pairs and negatives.

    Indices are rows into the space's target/context arrays.
    """

    pos_t: np.ndarray
    pos_c: np.ndarray
    neg_c: np.ndarray                  # (P, negatives)


def objective_value(space: EmbeddingSpace, batch: Batch) -> float:
    """Summed objective on the batch and the space's keyword rows."""
    m = MARGIN
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


def sample_batch(space: EmbeddingSpace, docs, cfg: PipelineConfig, corpus: Corpus,
                 rng, max_pairs=2048) -> Batch:
    """A fixed held-out batch over the node's documents, for objective tracking."""
    tr, cr = _pair_rows(corpus, docs, cfg.window, space.row_of)
    if tr.size > max_pairs:
        pick = rng.choice(tr.size, size=max_pairs, replace=False)
        tr, cr = tr[pick], cr[pick]
    negs = rng.integers(0, space.term_ids.size, size=(tr.size, embedding.NEGATIVES))
    return Batch(pos_t=tr, pos_c=cr, neg_c=negs)


def make_batch(rng, space, n_pairs=8, negatives=2):
    n = space.term_ids.size
    return Batch(
        pos_t=rng.integers(0, n, size=n_pairs),
        pos_c=rng.integers(0, n, size=n_pairs),
        neg_c=rng.integers(0, n, size=(n_pairs, negatives)),
    )


def naive_objective(space, batch):
    """Independent scalar re-implementation of the three-part objective."""
    m = MARGIN
    val = 0.0
    for p in range(batch.pos_t.size):
        t = space.target[batch.pos_t[p]]
        vp = space.context[batch.pos_c[p]]
        for j in range(batch.neg_c.shape[1]):
            vn = space.context[batch.neg_c[p, j]]
            val += max(float(t @ vn) - float(t @ vp) + m, 0.0)
    for i in range(space.num_topics):
        for j in range(i + 1, space.num_topics):
            val += max(float(space.topic_vecs[i] @ space.topic_vecs[j]) - m, 0.0)
    for k, rows in enumerate(space.keyword_rows):
        kap = float(space.topic_kappa[k])
        log_c = log_norm_const(kap, space.dim)
        for r in rows:
            sim = float(space.target[r] @ space.topic_vecs[k])
            if sim < m:
                val -= log_c + kap * sim
    return val


def dense_gradients(space: EmbeddingSpace, batch: Batch):
    """Analytic gradients of objective_value w.r.t. all parameters.

    Returns (g_target, g_context, g_topic, g_kappa) as dense arrays matching
    the space's storage: the oracle for finite differences and the trainer's
    sparse step, on small spaces.
    """
    m = MARGIN
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
    for k, rows in enumerate(space.keyword_rows):
        if len(rows) == 0:
            continue
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


# --- config ---


NAN = float("nan")


@pytest.mark.parametrize("field,value", [("dim", 1), ("epochs", 0),
                                         ("lr", 0.0), ("lr", -0.1),
                                         ("lr", NAN), ("lr", float("inf")),
                                         ("window", NAN), ("dim", NAN),
                                         ("epochs", NAN), ("min_docs", NAN),
                                         ("top_k", NAN), ("dim", 2.5),
                                         ("child_batch_size", True)])
def test_config_training_values_validated(field, value):
    # epochs=0 used to train nothing and return the random initialization;
    # a NaN or float count would fail inside numpy
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


# --- objective value ---


def test_objective_zero_when_all_inactive():
    # [TRIVIAL] hinges off and every keyword similarity >= m -> value 0
    dim = 4
    e = np.eye(dim)
    space = EmbeddingSpace(
        term_ids=np.arange(2), row_of=np.arange(2),
        params=np.vstack([e[:2], -e[2:4]]),
        topic_order=[0, 1], topic_vecs=np.stack([e[0], e[1]]),
        topic_kappa=np.ones(2), center_rows=[0, 1], keyword_rows=[[0], [1]])
    batch = Batch(pos_t=np.array([0]), pos_c=np.array([0]),
                  neg_c=np.array([[1]]))
    # t0.vneg - t0.vpos + m = 0 - 0 + 0.3 > 0 would activate; use aligned pos
    space.context = np.stack([e[0], -e[0]])  # vpos = t0, vneg = -t0
    assert objective_value(space, batch) == 0.0


def test_objective_single_pair_hand_value():
    # [TRIVIAL] t.vneg=0, t.vpos=1, m=0.3 -> [0 - 1 + 0.3]+ = 0
    e = np.eye(3)
    space = EmbeddingSpace(
        term_ids=np.arange(2), row_of=np.arange(2),
        params=np.vstack([e[:2], e[0], e[2]]),
        topic_order=[], topic_vecs=np.zeros((0, 3)),
        topic_kappa=np.zeros(0), center_rows=[], keyword_rows=[])
    batch = Batch(pos_t=np.array([0]), pos_c=np.array([0]),
                  neg_c=np.array([[1]]))
    assert objective_value(space, batch) == 0.0
    # flip roles: t.vpos=0, t.vneg=1 -> [1 - 0 + 0.3]+ = 1.3
    batch2 = Batch(pos_t=np.array([0]), pos_c=np.array([1]),
                   neg_c=np.array([[0]]))
    assert objective_value(space, batch2) == pytest.approx(1.3)


def test_objective_matches_naive_reimplementation():
    # [DERIVED] naive re-evaluation oracle on random batches
    for seed in range(5):
        rng = np.random.default_rng(seed)
        space = make_space(rng)
        batch = make_batch(rng, space)
        assert objective_value(space, batch) == pytest.approx(
            naive_objective(space, batch), rel=1e-12)


# --- gradients ---


def _safe_instance(seed, margin=MARGIN, eps=1e-3):
    """Random space/batch with all hinge and gate activations away from 0."""
    rng = np.random.default_rng(seed)
    space = make_space(rng)
    batch = make_batch(rng, space)
    t = space.target[batch.pos_t]
    sp = np.einsum("pd,pd->p", t, space.context[batch.pos_c])
    sn = np.einsum("pd,pnd->pn", t, space.context[batch.neg_c])
    margins = [np.abs(sn - sp[:, None] + margin).min()]
    s = space.topic_vecs
    iu = np.triu_indices(space.num_topics, 1)
    margins.append(np.abs((s @ s.T)[iu] - margin).min())
    for k, rows in enumerate(space.keyword_rows):
        margins.append(np.abs(space.target[rows] @ s[k] - margin).min())
    return (space, batch) if min(margins) > eps else None


def collect_instances(n, start_seed=0):
    out, seed = [], start_seed
    while len(out) < n:
        inst = _safe_instance(seed)
        if inst is not None:
            out.append(inst)
        seed += 1
    return out


def test_gradients_match_finite_differences():
    # [DERIVED] central finite-difference oracle, relative error < 1e-4
    h = 1e-6
    for space, batch in collect_instances(5):
        g_t, g_v, g_s, g_k = dense_gradients(space, batch)
        for arr, grad in ((space.target, g_t), (space.context, g_v),
                          (space.topic_vecs, g_s), (space.topic_kappa, g_k)):
            fd = np.zeros_like(grad)
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = objective_value(space, batch)
                flat[i] = orig - h
                dn = objective_value(space, batch)
                flat[i] = orig
                fd.ravel()[i] = (up - dn) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom < 1e-4


def test_gradient_zero_for_satisfied_keyword():
    # [TRIVIAL] keyword with t.s >= m contributes no gradient
    e = np.eye(4)
    space = EmbeddingSpace(
        term_ids=np.arange(2), row_of=np.arange(2), params=e.copy(),
        topic_order=[0], topic_vecs=e[:1].copy(),
        topic_kappa=np.ones(1), center_rows=[0],
        keyword_rows=[[0]])  # t0 . s0 = 1 >= m
    batch = Batch(pos_t=np.empty(0, dtype=int), pos_c=np.empty(0, dtype=int),
                  neg_c=np.empty((0, 1), dtype=int))
    g_t, g_v, g_s, g_k = dense_gradients(space, batch)
    assert not g_t.any() and not g_v.any() and not g_s.any() and not g_k.any()


def test_gradient_zero_for_separated_topics():
    # [TRIVIAL] s_i . s_j <= m -> no repulsion gradient
    e = np.eye(4)
    space = EmbeddingSpace(
        term_ids=np.arange(1), row_of=np.arange(1),
        params=np.vstack([e[:1], e[:1]]),
        topic_order=[0, 1], topic_vecs=np.stack([e[1], e[2]]),
        topic_kappa=np.ones(2), center_rows=[0, 0], keyword_rows=[[], []])
    batch = Batch(pos_t=np.empty(0, dtype=int), pos_c=np.empty(0, dtype=int),
                  neg_c=np.empty((0, 1), dtype=int))
    _, _, g_s, _ = dense_gradients(space, batch)
    assert not g_s.any()


# --- SGD step ---


def add_at_then_unit(x, idx, vals):
    out = x.copy()
    np.add.at(out, idx, vals)
    rows = np.unique(idx)
    out[rows] = _unit(out[rows])
    return out


@pytest.mark.parametrize("n_rows,n_idx,n_distinct", [
    (50, 4000, 7),      # heavy repetition: ~570 updates per touched row
    (30, 600, 30),      # every row touched
    (40, 25, 1),        # a single row
    (200, 300, 200),    # sparse: most rows untouched or touched once
])
def test_scatter_unit_bit_equal_to_add_at(n_rows, n_idx, n_distinct):
    rng = np.random.default_rng(n_rows + n_idx)
    for dim in (1, 3, 8, 50):
        x = unit_rows(rng.standard_normal((n_rows, dim)))
        pool = rng.choice(n_rows, size=n_distinct, replace=False)
        if n_distinct == n_rows:
            idx = np.concatenate([pool, rng.integers(0, n_rows, n_idx - n_rows)])
            rng.shuffle(idx)
        else:
            idx = rng.choice(pool, size=n_idx)
        vals = rng.standard_normal((n_idx, dim)) * 10.0 ** rng.uniform(-4, 0)
        expected = add_at_then_unit(x, idx, vals)
        got = x.copy()
        w = np.empty((dim, n_rows + n_idx))
        w[:, n_rows:] = vals.T
        _scatter_unit(got, np.unique(idx), idx, w)
        assert np.array_equal(got, expected)


def counts_with_cum_below_one(zero_rows=()):
    """Counts whose rounded cumulative distribution ends below 1.0."""
    rng = np.random.default_rng(0)
    while True:
        counts = rng.integers(1, 1000, size=50).astype(np.float64)
        counts[list(zero_rows)] = 0.0
        probs = counts ** 0.75
        if np.cumsum(probs / probs.sum())[-1] < 1.0:
            return counts


def test_negative_table_ends_at_one():
    # zero rows inside and at the end
    counts = counts_with_cum_below_one(zero_rows=(3, 10, 48, 49))
    cum, guide = _negative_table(counts, np.int16)
    assert cum[47:].tolist() == [1.0, 1.0, 1.0]
    probs = counts ** 0.75
    raw = np.cumsum(probs / probs.sum())
    assert raw[47] < 1.0
    assert np.array_equal(cum[:47], raw[:47])
    assert guide.size == GUIDE_BUCKETS
    # the largest draw below 1 selects the last row drawn, not row n
    assert _draw_rows(cum, guide, np.array([np.nextafter(1.0, 0.0)]))[0] == 47


@pytest.mark.parametrize("kind", ["skewed", "zeros", "flat"])
def test_draw_rows_equals_searchsorted(kind):
    rng = np.random.default_rng(7)
    if kind == "skewed":
        counts = counts_with_cum_below_one()
        counts[0] = 1e6
    elif kind == "zeros":
        counts = rng.integers(0, 5, size=300).astype(np.float64)
        counts[0] = 1.0
        counts[-20:] = 0.0
    else:   # ~15 rows per bucket: long walks from the guide entry
        counts = np.ones(1_000_000)
    # the trainer's row dtype: int16 up to 16 383 rows
    dtype = np.int16 if 2 * counts.size <= np.iinfo(np.int16).max else np.int32
    cum, guide = _negative_table(counts, dtype)
    assert guide.dtype == dtype
    edges = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
    u = np.concatenate([
        rng.random(200_000),
        cum[cum < 1.0],                         # exactly on a row's cum
        np.nextafter(cum[cum < 1.0], 0.0),      # just below it
        np.nextafter(cum[cum < 1.0], 1.0),      # just above it
        edges, np.nextafter(edges[1:], 0.0),    # bucket edges
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    got = _draw_rows(cum, guide, u)
    assert got.dtype == dtype
    assert np.array_equal(got, np.searchsorted(cum, u))
    drawn = np.unique(got[u > 0.0])
    assert counts[drawn].all()                  # zero-count rows never drawn
    assert drawn.max() < counts.size


def test_draw_rows_zero_draw_skips_zero_count_first_row():
    # np.searchsorted(cum, 0.0) is 0, a row with no count
    cum, guide = _negative_table(np.array([0.0, 3.0, 1.0]), np.int16)
    assert _draw_rows(cum, guide, np.array([0.0, 1e-300]))[0] == 1
    assert _draw_rows(cum, guide, np.array([1e-300]))[0] == 1


@pytest.mark.parametrize("packed", [True, False], ids=["int16-rows", "int32-rows"])
@pytest.mark.parametrize("n", [1, 2, 7, 65_537])
def test_record_shuffle_equals_permutation(n, packed):
    # the trainer shuffles int64 records, a pair's index in the high 32 bits
    # over its rows, in place of rng.permutation(n), and sorts them back
    bits = np.random.default_rng(n).integers(0, 1 << 15, size=(n, 2))
    # int16 rows: target and context row side by side; int32: one row
    low = bits[:, 0] << 16 | bits[:, 1] if packed else bits[:, 0] << 15 | bits[:, 1]
    rec = np.arange(n, dtype=np.int64) << 32 | low
    want = rec.copy()
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    a.shuffle(rec)
    assert np.array_equal(rec >> 32, b.permutation(n))
    assert a.bit_generator.state == b.bit_generator.state
    rec.sort()
    assert np.array_equal(rec, want)


def test_sgd_batch_matches_dense_gradient_step():
    # [DERIVED] one step with no topics is x - lr * grad, renormalised on
    # the rows the batch touches; untouched rows keep their exact bits
    rng = np.random.default_rng(4)
    n, lr = 40, 0.05
    space = make_space(rng, n_terms=n, dim=6, n_topics=0)
    batch = Batch(pos_t=rng.integers(0, 15, size=64),
                  pos_c=rng.integers(5, 25, size=64),
                  neg_c=rng.integers(10, 30, size=(64, 3)))
    g_t, g_v, _, _ = dense_gradients(space, batch)
    assert g_t.any() and g_v.any()
    params = np.concatenate([space.target, space.context])
    target, context = params[:n], params[n:]
    sgd_batch(space_over(params, space.topic_vecs, space.topic_kappa, []),
              batch.pos_t, batch.pos_c + n, batch.neg_c + n, lr)
    for new, old, grad, rows in (
            (target, space.target, g_t, np.unique(batch.pos_t)),
            (context, space.context, g_v,
             np.unique(np.concatenate([batch.pos_c, batch.neg_c.ravel()])))):
        untouched = np.setdiff1d(np.arange(n), rows)
        assert untouched.size
        assert np.array_equal(new[untouched], old[untouched])
        np.testing.assert_allclose(new[rows], _unit(old[rows] - lr * grad[rows]),
                                   rtol=0, atol=1e-12)


# --- trainer ---


def two_topic_corpus():
    rng = np.random.default_rng(0)
    a_terms = [f"alpha{i}" for i in range(8)]
    b_terms = [f"beta{i}" for i in range(8)]
    lines = []
    for _ in range(60):
        lines.append(" ".join(rng.choice(a_terms, size=12)) + "\n")
        lines.append(" ".join(rng.choice(b_terms, size=12)) + "\n")
    return corpus_from_lines(lines)


TRAINED_SEED = 3   # the seed of the trained fixture


@pytest.fixture(scope="module")
def trained():
    corpus = two_topic_corpus()
    tax = parse_hierarchy("alpha0\n\talpha1\nbeta0\n\tbeta1", corpus)
    keywords = subtree_keywords(tax, tax.root)
    centers = {k: tax.nodes[k].center_term for k in keywords}
    cfg = PipelineConfig(dim=8, epochs=8, lr=0.05)
    space = train_node_embedding(range(corpus.num_docs),
                                 range(corpus.num_terms),
                                 keywords, cfg, BATCH_SIZE, corpus, centers,
                                 TRAINED_SEED)
    return corpus, tax, keywords, cfg, space


def test_trainer_rejects_bad_inputs():
    corpus = corpus_from_lines(["a b\n"])
    with pytest.raises(ValueError):
        train_node_embedding([], [0, 1], {}, PipelineConfig(dim=4), BATCH_SIZE,
                             corpus, {}, 0)
    with pytest.raises(ValueError, match="keyword"):
        train_node_embedding([0], [0], {7: {1}}, PipelineConfig(dim=4),
                             BATCH_SIZE, corpus, {7: 0}, 0)
    with pytest.raises(ValueError, match="center"):
        train_node_embedding([0], [0], {7: {0}}, PipelineConfig(dim=4),
                             BATCH_SIZE, corpus, {7: 1}, 0)


def test_trainer_rejects_a_keyword_of_two_sub_topics():
    # the topic step screens every keyword gate before any pull moves a
    # row, which holds only while no row is two sub-topics' keyword
    corpus = corpus_from_lines(["a b\n"])
    with pytest.raises(ValueError, match="two sub-topics"):
        train_node_embedding([0], [0, 1], {7: {0, 1}, 8: {1}},
                             PipelineConfig(dim=4), BATCH_SIZE, corpus,
                             {7: 0, 8: 1}, 0)


def test_trainer_rejects_more_pairs_than_a_record_can_index(monkeypatch):
    # read-only views of 2**31 pairs allocate nothing; the check comes
    # before any per-pair array
    n_pairs = embedding.MAX_PAIRS + 1
    rows = np.broadcast_to(np.int16(0), (n_pairs,))
    monkeypatch.setattr(embedding, "_pair_rows", lambda *args: (rows, rows))
    corpus = corpus_from_lines(["a b\n"])
    with pytest.raises(ValueError, match=f"a node has {n_pairs} skip-gram pairs"):
        train_node_embedding([0], [0, 1], {}, PipelineConfig(dim=4), BATCH_SIZE,
                             corpus, {}, 0)


def test_trainer_records_center_rows():
    # one center row and one keyword row array per topic, in topic order;
    # row i holds term term_ids[i]
    corpus = corpus_from_lines(["a b c d\n", "d c b a\n"])
    keywords = {5: {1, 3}, 2: {0}}
    space = train_node_embedding([0, 1], [3, 0, 1], keywords,
                                 PipelineConfig(dim=4), BATCH_SIZE, corpus,
                                 centers={5: 3, 2: 0}, seed=0)
    assert space.term_ids.tolist() == [0, 1, 3]
    assert space.topic_order == [2, 5]
    assert space.center_rows.tolist() == [0, 2]
    assert [rows.tolist() for rows in space.keyword_rows] == [[0], [1, 2]]


def reference_step(target, context, tb, cb, nb, lr, m):
    """The hinge step as two np.add.at scatters, each followed by _unit.

    Every pair and every (pair, negative) term is scattered, active or not.
    """
    t, vp, vn = target[tb], context[cb], context[nb]
    sn = np.einsum("pd,pnd->pn", t, vn)
    sp = np.einsum("pd,pd->p", t, vp)
    act = ((sn - sp[:, None] + m) > 0.0).astype(np.float64)
    n_act = act.sum(axis=1)
    g_t = np.einsum("pn,pnd->pd", act, vn) - n_act[:, None] * vp
    target[:] = add_at_then_unit(target, tb, -lr * g_t)
    context[:] = add_at_then_unit(
        context, np.concatenate([cb, nb.ravel()]),
        np.concatenate([lr * n_act[:, None] * t,
                        (-lr * act[:, :, None] * t[:, None, :])
                        .reshape(-1, target.shape[1])]))


def test_sgd_batch_bit_equal_with_rows_only_inactive_pairs_touch():
    # rows that only inactive hinges touch get no update, but are still
    # rescaled; rows are off the sphere so that a skipped rescale shows
    rng = np.random.default_rng(8)
    n, dim, lr = 30, 5, 0.05
    target = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, (n, 1))
    context = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, (n, 1))
    # pair 0: target 0, context 1, negatives 2 and 3, all inactive
    target[0] = [2.0, 0.0, 0.0, 0.0, 0.5]
    context[1] = [1.5, 0.0, 0.0, 0.0, 0.0]
    context[2] = [0.0, 1.3, 0.0, 0.0, 0.0]
    context[3] = [0.0, 0.0, -0.7, 0.0, 0.0]
    tb = np.concatenate([[0], rng.integers(4, n, 200)])
    cb = np.concatenate([[1], rng.integers(4, n, 200)])
    nb = np.concatenate([[[2, 3]], rng.integers(4, n, (200, 2))])
    expected_t, expected_c = target.copy(), context.copy()
    reference_step(expected_t, expected_c, tb, cb, nb, lr, MARGIN)
    params = np.concatenate([target, context])
    sgd_batch(space_over(params, np.zeros((0, dim)), np.zeros(0), []),
              tb, cb + n, nb + n, lr)
    assert np.array_equal(params[:n], expected_t)
    assert np.array_equal(params[n:], expected_c)
    # the inactive pair's rows were rescaled, not left as they were
    assert np.array_equal(params[0], _unit(target[0]))
    assert np.array_equal(params[n + 1:n + 4], _unit(context[1:4]))
    assert not np.array_equal(params[0], target[0])
    # the batch has inactive pairs, and active pairs with an inactive term
    t, vp = target[tb], context[cb]
    sn = np.einsum("pd,pnd->pn", t, context[nb])
    act = sn - np.einsum("pd,pd->p", t, vp)[:, None] + MARGIN > 0.0
    assert not act.any(axis=1).all()
    assert (act.any(axis=1) & ~act.all(axis=1)).any()


def hinge_batch(seed, kind, n_neg, every_row):
    """Rows off the sphere and a batch of 60 pairs whose hinges are all
    inactive ("none"), all active ("all") or mixed ("mixed").

    For "none" and "all" the targets lie near +e0, positive contexts
    (even rows) near +e0 or -e0 and negatives (odd rows) opposite them.
    With every_row the batch names every target and context row, so
    _scatter_unit rescales the whole matrix; else rows 0 and n - 1 of
    each are left out and must keep their bits.
    """
    rng = np.random.default_rng(seed)
    n, dim, n_p = 10, 5, 60
    target = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, (n, 1))
    context = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, (n, 1))
    used = np.arange(n) if every_row else np.arange(1, n - 1)
    pos = neg = used
    if kind != "mixed":
        sign = 1.0 if kind == "none" else -1.0
        axis = np.eye(dim)[0]
        target = 0.05 * target + axis * rng.uniform(0.5, 2.0, (n, 1))
        context = (0.05 * context + axis * rng.uniform(0.5, 2.0, (n, 1))
                   * np.where(np.arange(n) % 2, -sign, sign)[:, None])
        pos, neg = used[used % 2 == 0], used[used % 2 == 1]
    # each used row is named at least once
    tb = rng.permutation(np.resize(used, n_p))
    cb = rng.permutation(np.resize(pos, n_p))
    nb = rng.permutation(np.resize(neg, n_p * n_neg)).reshape(n_p, n_neg)
    return target, context, tb, cb, nb


@pytest.mark.parametrize("every_row", [True, False], ids=["every-row", "some-rows"])
@pytest.mark.parametrize("n_neg", [1, 2, 3])
@pytest.mark.parametrize("kind", ["none", "all", "mixed"])
def test_sgd_batch_bit_equal_to_reference_step(kind, n_neg, every_row):
    n, lr, m = 10, 0.05, MARGIN
    target, context, tb, cb, nb = hinge_batch(n_neg, kind, n_neg, every_row)
    t, vp = target[tb], context[cb]
    act = (np.einsum("pd,pnd->pn", t, context[nb])
           - np.einsum("pd,pd->p", t, vp)[:, None] + m > 0.0)
    if kind == "none":
        assert not act.any()
    elif kind == "all":
        assert act.all()
    else:
        hinge = act.any(axis=1)
        assert hinge.any() and not hinge.all()
        # with several negatives, also an active pair with an inactive term
        assert n_neg == 1 or (hinge & ~act.all(axis=1)).any()
    named = np.union1d(tb, n + np.concatenate([cb, nb.ravel()]))
    assert (named.size == 2 * n) == every_row
    expected_t, expected_c = target.copy(), context.copy()
    reference_step(expected_t, expected_c, tb, cb, nb, lr, m)
    params = np.concatenate([target, context])
    sgd_batch(space_over(params, np.zeros((0, target.shape[1])), np.zeros(0), []),
              tb, cb + n, nb + n, lr)
    assert np.array_equal(params[:n], expected_t)
    assert np.array_equal(params[n:], expected_c)
    # every named row is back on the sphere, every other keeps its bits
    old = np.concatenate([target, context])
    unnamed = np.setdiff1d(np.arange(2 * n), named)
    assert np.array_equal(params[unnamed], old[unnamed])
    assert np.abs(np.linalg.norm(params[named], axis=1) - 1.0).max() < 1e-12


def reference_topic_step(state, lr, m):
    """The topic/kappa step of a space as a plain loop: every Bessel ratio
    computed, the repulsion matmul run and kappa updated on every step,
    gates open or not."""
    s = state.topic_vecs
    k_cnt = s.shape[0]
    if k_cnt == 0:
        return
    g_s = np.zeros_like(s)
    if k_cnt >= 2:
        sims = s @ s.T
        active = np.triu(sims - m > 0.0, 1)
        g_s += (active | active.T) @ s
    ratios = bessel_ratio(state.topic_kappa, state.dim)
    g_k = np.zeros(k_cnt)
    for k, rows in enumerate(state.keyword_rows):
        if len(rows) == 0:
            continue
        tk = state.target[rows]
        kw_sims = tk @ s[k]
        gate = kw_sims < m
        if not gate.any():
            continue
        kap = state.topic_kappa[k]
        g_s[k] += -kap * tk[gate].sum(axis=0)
        state.target[rows[gate]] += lr * kap * s[k]
        state.target[rows[gate]] = _unit(state.target[rows[gate]])
        g_k[k] = gate.sum() * ratios[k] - kw_sims[gate].sum()
    s -= lr * g_s
    s[:] = _unit(s)
    state.topic_kappa -= lr * g_k
    np.clip(state.topic_kappa, 0.0, KAPPA_MAX, out=state.topic_kappa)


def topic_state(seed, n=20, dim=5, k_cnt=3, closed=(), far=False):
    """A space with keyword rows per topic; the keywords of the topics in
    closed sit on their topic vector (gate shut), and with far the topic
    vectors are orthogonal (no repulsion)."""
    rng = np.random.default_rng(seed)
    params = unit_rows(rng.standard_normal((2 * n, dim)))
    topic_vecs = (np.eye(dim)[:k_cnt].copy() if far
                  else unit_rows(rng.standard_normal((k_cnt, dim)) + 2.0))
    # disjoint keyword sets, so shutting one topic's gates leaves the others
    keyword_rows = list(np.sort(rng.permutation(n)[:3 * k_cnt].reshape(k_cnt, 3)))
    for k in closed:
        params[keyword_rows[k]] = topic_vecs[k]
    kappa = rng.uniform(0.5, 30.0, size=k_cnt)
    return space_over(params, topic_vecs, kappa, keyword_rows)


def copy_state(state):
    return space_over(state.params.copy(), state.topic_vecs.copy(),
                      state.topic_kappa.copy(),
                      [r.copy() for r in state.keyword_rows])


def step_matches_reference(state, lr):
    """Step state by _topic_step and a copy by the reference; both must
    end with the same bits."""
    want = copy_state(state)
    _topic_step(state, lr)
    reference_topic_step(want, lr, MARGIN)
    for got, expected in ((state.params, want.params),
                          (state.topic_vecs, want.topic_vecs),
                          (state.topic_kappa, want.topic_kappa)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("closed,far,edge,k_cnt", [
    ((), False, None, 3), ((0,), False, None, 3), ((1, 2), True, None, 3),
    ((0, 1, 2), False, None, 3), ((0, 1, 2), True, None, 3),
    ((0, 1, 2), True, -1, 3), ((0, 1, 2), True, 0, 3), ((0, 1, 2), True, 1, 3),
    ((), False, None, 0), ((), False, None, 1), ((0,), False, None, 1)],
    ids=["open", "one-shut", "two-shut-far", "all-shut", "all-shut-far",
         "edge-below", "edge-at", "edge-above", "no-topics", "one-topic-open",
         "one-topic-shut"])
def test_topic_step_bit_equal_to_reference(closed, far, edge, k_cnt):
    # edge: one keyword of topic 0 sits at cosine MARGIN to it, moved by
    # that many ulps, inside the screen's band: the exact loop decides.
    # With 0 or 1 topics the step runs its general code: no topic pair
    # to repel, and no keyword at all for 0
    for seed in range(20):
        state = topic_state(seed, k_cnt=k_cnt, closed=closed, far=far)
        if edge is not None:
            cos = MARGIN if edge == 0 else np.nextafter(MARGIN, edge)
            row = state.keyword_rows[0][0]
            # topic 0 is e0, so the exact cosine is cos
            state.target[row] = [cos, 0.0, 0.0, np.sqrt(1.0 - cos * cos), 0.0]
            assert state.target[row] @ state.topic_vecs[0] == cos
        kappa = state.topic_kappa.copy()
        step_matches_reference(state, 0.05)
        if edge is not None:
            # the gate opens below the margin only, and kappa moves with it
            assert (state.topic_kappa[0] != kappa[0]) == (edge < 0)


def test_topic_step_with_every_gate_shut_skips_bessel_ratio(monkeypatch):
    calls = []

    def counted(kappa, dim):
        calls.append(dim)
        return bessel_ratio(kappa, dim)

    monkeypatch.setattr(embedding, "bessel_ratio", counted)
    state = topic_state(3, closed=(0, 1, 2))
    kappa = state.topic_kappa.copy()
    _topic_step(state, 0.05)
    assert calls == []
    assert state.topic_kappa.tobytes() == kappa.tobytes()
    # one open gate: one call for the step, and kappa moves
    state = topic_state(3, closed=(0, 2))
    kappa = state.topic_kappa.copy()
    _topic_step(state, 0.05)
    assert calls == [state.dim]
    assert state.topic_kappa[1] != kappa[1]
    assert state.topic_kappa[[0, 2]].tobytes() == kappa[[0, 2]].tobytes()


def reference_train(docs, terms, keywords, cfg, batch_size, corpus, centers,
                    seed):
    """The trainer as a plain loop, the oracle for train_node_embedding.

    Pairs built one document at a time, np.searchsorted negatives drawn for
    the whole epoch at once, three int64 gathers per batch, np.add.at
    followed by _unit for each scatter, and the topic step without skips.
    """
    term_ids = np.asarray(sorted(int(t) for t in terms))
    n = term_ids.size
    rng = np.random.default_rng(seed)
    target = _unit(rng.standard_normal((n, cfg.dim)))
    context = _unit(rng.standard_normal((n, cfg.dim)))
    # the topic step updates the target view of the space's one matrix
    params = np.concatenate([target, context])
    target, context = params[:n], params[n:]
    topic_order = sorted(keywords)
    vocab_to_row = np.full(corpus.num_terms, -1, dtype=np.int64)
    vocab_to_row[term_ids] = np.arange(n)
    topic_vecs = np.stack([target[vocab_to_row[centers[key]]].copy()
                           for key in topic_order]) if topic_order else np.zeros((0, cfg.dim))
    topic_kappa = np.ones(len(topic_order))
    keyword_rows = [vocab_to_row[np.asarray(sorted(keywords[key]))]
                    for key in topic_order]
    documents = corpus.documents
    t_all, c_all = loop_pair_arrays([documents[d] for d in sorted(docs)], cfg.window)
    tr, cr = vocab_to_row[t_all], vocab_to_row[c_all]
    keep = (tr >= 0) & (cr >= 0)
    tr, cr = tr[keep], cr[keep]
    probs = np.bincount(cr, minlength=n).astype(np.float64) ** 0.75
    cum = np.cumsum(probs / probs.sum())
    state = space_over(params, topic_vecs, topic_kappa, keyword_rows)
    m = MARGIN
    n_batches = -(-tr.size // batch_size)
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(tr.size)
        negs = np.searchsorted(cum, rng.random((tr.size, embedding.NEGATIVES)))
        for b in range(n_batches):
            sl = perm[b * batch_size:(b + 1) * batch_size]
            tb, cb, nb = tr[sl], cr[sl], negs[sl]
            lr = cfg.lr * max(1.0 - step / (cfg.epochs * n_batches), 1e-4)
            reference_step(target, context, tb, cb, nb, lr, m)
            reference_topic_step(state, lr, m)
            step += 1
        target[:] = _unit(target)
        context[:] = _unit(context)
        topic_vecs[:] = _unit(topic_vecs)
    return target, context, topic_vecs, topic_kappa


@pytest.mark.parametrize("negatives,batch_size,docs,known,wide,epochs", [
    (1, 700, 120, True, False, 2),      # batch size does not divide the pair count
    (3, 512, 120, True, False, 2),
    (2, 8192, 1200, True, False, 2),    # more pairs than one sampling chunk
    (2, 700, 120, False, False, 2),     # no known sub-topics: no topic/kappa step
    (2, 700, 120, True, True, 2),       # more than 16 383 terms: int32 rows
    (2, 700, 120, True, False, 3),      # the records sorted back twice
], ids=["1-700-120", "3-512-120", "2-8192-1200", "no-known", "wide-int32",
        "3-epochs"])
def test_trainer_bit_equal_to_reference_loop(negatives, batch_size, docs, known,
                                             wide, epochs, monkeypatch):
    monkeypatch.setattr(embedding, "NEGATIVES", negatives)
    rng = np.random.default_rng(negatives)
    vocab = [f"w{i}" for i in range(60)]
    lines = [" ".join(rng.choice(vocab[:35] if d % 2 else vocab[25:], size=14))
             + "\n" for d in range(docs)]
    if wide:
        # 16 400 more terms in two-token documents put first: the w terms
        # get the last rows, so their context rows do not fit in int16
        lines = [f"x{i} x{i + 1}\n" for i in range(0, 16_400, 2)] + lines
    corpus = corpus_from_lines(lines)
    tax = parse_hierarchy("w0\n\tw1\nw40\n\tw41", corpus)
    keywords = subtree_keywords(tax, tax.root) if known else {}
    centers = {k: tax.nodes[k].center_term for k in keywords}
    # the node has fewer terms than the corpus: pairs with an outside term drop
    terms = [t for t in range(corpus.num_terms) if corpus.vocab[t] != "w7"]
    cfg = PipelineConfig(dim=5, epochs=epochs, lr=0.05, window=3)
    n_pairs = loop_pair_arrays(corpus.documents, cfg.window)[0].size
    assert n_pairs % batch_size
    assert (n_pairs > SAMPLE_CHUNK) == (docs > 1000)
    all_docs = range(corpus.num_docs)
    space = train_node_embedding(all_docs, terms, keywords, cfg, batch_size,
                                 corpus, centers, 11)
    tr, cr = _pair_rows(corpus, all_docs, cfg.window, space.row_of)
    assert tr.dtype == cr.dtype == (np.int32 if wide else np.int16)
    assert (cr.max() + len(terms) > np.iinfo(np.int16).max) == wide
    expected = reference_train(all_docs, terms, keywords, cfg, batch_size,
                               corpus, centers, 11)
    for got, want in zip((space.target, space.context, space.topic_vecs,
                          space.topic_kappa), expected):
        assert np.array_equal(got, want)


def test_trainer_unit_norms(trained):
    _, _, _, _, space = trained
    assert np.abs(np.linalg.norm(space.target, axis=1) - 1.0).max() < 1e-6
    assert np.abs(np.linalg.norm(space.context, axis=1) - 1.0).max() < 1e-6
    assert np.abs(np.linalg.norm(space.topic_vecs, axis=1) - 1.0).max() < 1e-6
    assert np.all(space.topic_kappa >= 0.0)


def test_trainer_improves_heldout_objective(trained):
    corpus, tax, keywords, cfg, space = trained
    batch = sample_batch(space, range(corpus.num_docs), cfg, corpus,
                         np.random.default_rng(TRAINED_SEED + 1))
    after = objective_value(space, batch)
    rng = np.random.default_rng(TRAINED_SEED)
    init = EmbeddingSpace(
        term_ids=space.term_ids, row_of=space.row_of,
        params=np.vstack([unit_rows(rng.standard_normal(space.target.shape)),
                          unit_rows(rng.standard_normal(space.context.shape))]),
        topic_order=space.topic_order,
        topic_vecs=unit_rows(rng.standard_normal(space.topic_vecs.shape)),
        topic_kappa=np.ones(space.num_topics), center_rows=space.center_rows,
        keyword_rows=space.keyword_rows)
    before = objective_value(init, batch)
    assert after < before


def test_trainer_keyword_attraction_pulls_toward_own_topic(trained):
    corpus, tax, keywords, cfg, space = trained
    # each topic's keywords end up closer to it than the other topic's do
    for k, key in enumerate(space.topic_order):
        rows = np.searchsorted(space.term_ids, sorted(keywords[key]))
        own = float((space.target[rows] @ space.topic_vecs[k]).mean())
        other = [o for o in range(space.num_topics) if o != k][0]
        cross_rows = np.searchsorted(space.term_ids,
                                     sorted(keywords[space.topic_order[other]]))
        cross = float((space.target[cross_rows] @ space.topic_vecs[k]).mean())
        assert own > 0.1  # random unit vectors in dim 8 would sit near 0
        assert own > cross + 0.2


def test_trainer_topics_repelled(trained):
    _, _, _, cfg, space = trained
    sim = float(space.topic_vecs[0] @ space.topic_vecs[1])
    assert sim <= MARGIN + 1e-3


def test_trainer_deterministic_single_worker(trained):
    corpus, tax, keywords, cfg, space = trained
    centers = {k: tax.nodes[k].center_term for k in keywords}
    space2 = train_node_embedding(range(corpus.num_docs),
                                  range(corpus.num_terms),
                                  keywords, cfg, BATCH_SIZE, corpus, centers,
                                  TRAINED_SEED)
    assert np.array_equal(space.target, space2.target)
    assert np.array_equal(space.context, space2.context)
    assert np.array_equal(space.topic_vecs, space2.topic_vecs)
    assert np.array_equal(space.topic_kappa, space2.topic_kappa)


def traced_peak(fn):
    """fn's result and its tracemalloc peak in bytes above the memory
    traced when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_trainer_memory_per_pair(monkeypatch):
    # a 480-term node (int16 rows) with about 1 M pairs, two epochs: the
    # per-pair memory is one int64 record (8 B: the pair's index over its
    # target and context rows) and the 2 negatives in int16 (4 B). int32
    # rows (8 + 4 + 8 B), a sorted copy of the records in place of the
    # in-place sort (8 B), the pair rows kept beside the records (2-4 B) or
    # records built through whole-array int64 temporaries break the 13 B
    # bound. The fixed allowance is the guide table, one sampling chunk's
    # draws, and one batch's rows, negatives, gathers and scatter weights,
    # about 1.2 MiB at dim 8, batch 1024 and 4 096-row chunks (at batch
    # 8192 and full chunks it is about 6.7 MiB)
    monkeypatch.setattr(embedding, "SAMPLE_CHUNK", 1 << 12)
    monkeypatch.setattr(embedding, "NEGATIVES", 2)
    rng = np.random.default_rng(0)
    corpus = corpus_from_lines([" ".join(f"t{t}" for t in row)
                                for row in rng.integers(0, 480, (1050, 100))])
    docs, terms = range(corpus.num_docs), range(corpus.num_terms)
    cfg = PipelineConfig(dim=8, epochs=2, window=5)
    row_of = np.arange(corpus.num_terms, dtype=np.int16)
    (tr, _), rows_peak = traced_peak(
        lambda: _pair_rows(corpus, docs, cfg.window, row_of))
    n_pairs = tr.size
    assert 1_000_000 < n_pairs < 1_050_000
    # every pair kept: the paired rows (4 B) and the keep mask with one
    # temporary (2 B), no kept copies (another 4 B)
    assert rows_peak < 7.5 * n_pairs + (1 << 20)
    del tr
    space, train_peak = traced_peak(
        lambda: train_node_embedding(docs, terms, {}, cfg, 1024, corpus, {}, 1))
    assert space.row_of.dtype == np.int16
    assert train_peak < 13 * n_pairs + 2 * (1 << 20)


def test_trainer_no_pairs_returns_initialization():
    corpus = corpus_from_lines(["a\n", "b\n"])  # one-token docs: no pairs
    space = train_node_embedding([0, 1], [0, 1], {}, PipelineConfig(dim=4),
                                 BATCH_SIZE, corpus, {}, 9)
    assert np.abs(np.linalg.norm(space.target, axis=1) - 1.0).max() < 1e-9


def test_embedding_dump_format(tmp_path, trained):
    corpus, tax, keywords, cfg, space = trained
    path = tmp_path / "space.txt"
    space.dump(path, corpus)
    lines = path.read_text().splitlines()
    assert len(lines) == space.term_ids.size + space.num_topics
    names = [f"__topic__{corpus.vocab[tax.nodes[k].center_term]}"
             for k in space.topic_order]
    assert [ln.split()[0] for ln in lines[space.term_ids.size:]] == names
    assert len(lines[0].split()) == 1 + space.dim


# --- local corpus retrieval ---


def test_local_corpus_m_zero_is_node_docs(trained):
    corpus, tax, keywords, cfg, space = trained
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.docs = np.array([0, 2])
    assert retrieve_local_corpus(node, space, corpus, 0).tolist() == [0, 2]


def test_local_corpus_center_without_a_row_is_node_docs(trained):
    corpus, tax, keywords, cfg, space = trained
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.docs = np.array([0])
    # spaces without the center's row: one whose ids skip it, and one
    # whose ids all lie below it
    for keep in (space.term_ids != node.center_term,
                 space.term_ids < node.center_term):
        row_of = np.full(corpus.num_terms, -1, dtype=np.int32)
        row_of[space.term_ids[keep]] = np.arange(keep.sum())
        sub = EmbeddingSpace(
            term_ids=space.term_ids[keep], row_of=row_of,
            params=np.vstack([space.target[keep], space.context[keep]]),
            topic_order=[], topic_vecs=np.zeros((0, space.dim)),
            topic_kappa=np.zeros(0), center_rows=[], keyword_rows=[])
        assert retrieve_local_corpus(node, sub, corpus, 1).tolist() == [0]


def test_local_corpus_root_gets_all_docs(trained):
    corpus, tax, _, _, _ = trained
    root = tax.nodes[tax.root]
    assert retrieve_local_corpus(root, None, corpus, 100).tolist() == list(
        range(corpus.num_docs))


def test_local_corpus_includes_top_neighbor_docs(trained):
    # [DERIVED] exhaustive cosine-ranking oracle for the top-1 neighbor
    corpus, tax, keywords, cfg, space = trained
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.docs = np.array([0])
    got = retrieve_local_corpus(node, space, corpus, 1)
    row = int(np.searchsorted(space.term_ids, node.center_term))
    assert space.term_ids[row] == node.center_term
    sims = space.target @ space.target[row]
    sims[row] = -np.inf
    best = int(space.term_ids[int(np.argmax(sims))])
    expected = {0} | set(int(d) for d in corpus.docs_containing(best))
    assert got.tolist() == sorted(expected)


def set_union_local_corpus(node, space, corpus, m_neighbors):
    """Oracle: the node documents and each top-M neighbor's postings,
    gathered in a Python set."""
    if space is None:
        return set(range(corpus.num_docs))
    docs = set(node.docs)
    center = int(space.row_of[node.center_term])
    if m_neighbors <= 0 or center < 0:
        return docs
    sims = space.target @ space.target[center]
    sims[center] = -np.inf
    for row in np.argsort(-sims)[:min(m_neighbors, len(sims) - 1)]:
        docs.update(corpus.docs_containing(int(space.term_ids[row])).tolist())
    return docs


@pytest.mark.parametrize("seed", range(20))
def test_local_corpus_equals_set_union(seed):
    # spaces over a random subset of the terms, so some centers have no
    # row; node documents as an array, a list, or the empty tuple a node
    # starts with
    corpus, rng = random_corpus(seed)
    n = int(rng.integers(2, corpus.num_terms + 1))
    term_ids = np.sort(rng.choice(corpus.num_terms, size=n, replace=False))
    row_of = np.full(corpus.num_terms, -1, dtype=np.int32)
    row_of[term_ids] = np.arange(n)
    space = EmbeddingSpace(
        term_ids=term_ids, row_of=row_of,
        params=unit_rows(rng.standard_normal((2 * n, 4))), topic_order=[],
        topic_vecs=np.zeros((0, 4)), topic_kappa=np.zeros(0), center_rows=[],
        keyword_rows=[])
    n_docs = int(rng.integers(0, corpus.num_docs // 2))
    docs = np.sort(rng.choice(corpus.num_docs, size=n_docs, replace=False))
    centers = [int(term_ids[0]), int(rng.integers(corpus.num_terms))]
    if n < corpus.num_terms:
        centers.append(int(np.setdiff1d(np.arange(corpus.num_terms), term_ids)[0]))
    for center in centers:
        for node_docs in (docs, docs.tolist(), ()):
            node = TopicNode(id=1, center_term=center, docs=node_docs)
            for m in (0, 1, 3, n - 1, 100):
                got = retrieve_local_corpus(node, space, corpus, m)
                assert got.dtype == np.int64
                assert np.all(got[1:] > got[:-1])
                assert got.tolist() == sorted(
                    set_union_local_corpus(node, space, corpus, m))
    root = TopicNode(id=0, center_term=None)
    got = retrieve_local_corpus(root, None, corpus, 100)
    assert got.dtype == np.int64
    assert got.tolist() == sorted(set_union_local_corpus(root, None, corpus, 100))
