"""Objective value, analytic gradients, and the spherical trainer."""

import numpy as np
import pytest

from taxoforge.corpus import corpus_from_lines
from taxoforge.embedding import (
    Batch,
    EmbedConfig,
    EmbeddingSpace,
    _scatter_unit,
    _TrainState,
    _unit,
    dense_gradients,
    objective_value,
    retrieve_local_corpus,
    sample_batch,
    train_node_embedding,
)
from taxoforge.taxonomy import parse_hierarchy, subtree_keywords


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def make_space(rng, n_terms=12, dim=6, n_topics=3):
    return EmbeddingSpace(
        term_ids=np.arange(n_terms),
        target=unit_rows(rng.standard_normal((n_terms, dim))),
        context=unit_rows(rng.standard_normal((n_terms, dim))),
        topic_order=list(range(n_topics)),
        topic_vecs=unit_rows(rng.standard_normal((n_topics, dim))),
        topic_kappa=rng.uniform(0.5, 5.0, size=n_topics),
        dim=dim,
    )


def make_batch(rng, space, n_pairs=8, negatives=2):
    n = space.term_ids.size
    keyword_rows = [rng.choice(n, size=3, replace=False)
                    for _ in range(space.num_topics)]
    return Batch(
        pos_t=rng.integers(0, n, size=n_pairs),
        pos_c=rng.integers(0, n, size=n_pairs),
        neg_c=rng.integers(0, n, size=(n_pairs, negatives)),
        keyword_rows=keyword_rows,
    )


def naive_objective(space, batch, cfg):
    """Independent scalar re-implementation of the three-part objective."""
    from taxoforge.vmf import log_norm_const
    m = cfg.margin
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
    for k, rows in enumerate(batch.keyword_rows):
        kap = float(space.topic_kappa[k])
        log_c = log_norm_const(kap, space.dim)
        for r in rows:
            sim = float(space.target[r] @ space.topic_vecs[k])
            if sim < m:
                val -= log_c + kap * sim
    return val


# --- config ---


def test_config_margin_validated():
    with pytest.raises(ValueError):
        EmbedConfig(margin=0.0)
    with pytest.raises(ValueError):
        EmbedConfig(margin=1.0)


def test_config_negatives_validated():
    with pytest.raises(ValueError):
        EmbedConfig(negatives=0)


# --- objective value ---


def test_objective_zero_when_all_inactive():
    # [TRIVIAL] hinges off and every keyword similarity >= m -> value 0
    dim = 4
    e = np.eye(dim)
    space = EmbeddingSpace(
        term_ids=np.arange(2),
        target=e[:2].copy(), context=-e[2:4].copy(),
        topic_order=[0, 1], topic_vecs=np.stack([e[0], e[1]]),
        topic_kappa=np.ones(2), dim=dim)
    batch = Batch(pos_t=np.array([0]), pos_c=np.array([0]),
                  neg_c=np.array([[1]]),
                  keyword_rows=[np.array([0]), np.array([1])])
    cfg = EmbedConfig(dim=dim, margin=0.3)
    # t0.vneg - t0.vpos + m = 0 - 0 + 0.3 > 0 would activate; use aligned pos
    space.context = np.stack([e[0], -e[0]])  # vpos = t0, vneg = -t0
    assert objective_value(space, batch, cfg) == 0.0


def test_objective_single_pair_hand_value():
    # [TRIVIAL] t.vneg=0, t.vpos=1, m=0.3 -> [0 - 1 + 0.3]+ = 0
    e = np.eye(3)
    space = EmbeddingSpace(
        term_ids=np.arange(2), target=e[:2].copy(),
        context=np.stack([e[0], e[2]]),
        topic_order=[], topic_vecs=np.zeros((0, 3)),
        topic_kappa=np.zeros(0), dim=3)
    batch = Batch(pos_t=np.array([0]), pos_c=np.array([0]),
                  neg_c=np.array([[1]]))
    assert objective_value(space, batch, EmbedConfig(dim=3)) == 0.0
    # flip roles: t.vpos=0, t.vneg=1 -> [1 - 0 + 0.3]+ = 1.3
    batch2 = Batch(pos_t=np.array([0]), pos_c=np.array([1]),
                   neg_c=np.array([[0]]))
    assert objective_value(space, batch2, EmbedConfig(dim=3)) == pytest.approx(1.3)


def test_objective_matches_naive_reimplementation():
    # [DERIVED] naive re-evaluation oracle on random batches
    cfg = EmbedConfig(dim=6)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        space = make_space(rng)
        batch = make_batch(rng, space)
        assert objective_value(space, batch, cfg) == pytest.approx(
            naive_objective(space, batch, cfg), rel=1e-12)


# --- gradients ---


def _safe_instance(seed, margin=0.3, eps=1e-3):
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
    for k, rows in enumerate(batch.keyword_rows):
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
    cfg = EmbedConfig(dim=6)
    h = 1e-6
    for space, batch in collect_instances(5):
        g_t, g_v, g_s, g_k = dense_gradients(space, batch, cfg)
        for arr, grad in ((space.target, g_t), (space.context, g_v),
                          (space.topic_vecs, g_s), (space.topic_kappa, g_k)):
            fd = np.zeros_like(grad)
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = objective_value(space, batch, cfg)
                flat[i] = orig - h
                dn = objective_value(space, batch, cfg)
                flat[i] = orig
                fd.ravel()[i] = (up - dn) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom < 1e-4


def test_gradient_zero_for_satisfied_keyword():
    # [TRIVIAL] keyword with t.s >= m contributes no gradient
    e = np.eye(4)
    space = EmbeddingSpace(
        term_ids=np.arange(2), target=e[:2].copy(), context=e[2:4].copy(),
        topic_order=[0], topic_vecs=e[:1].copy(),
        topic_kappa=np.ones(1), dim=4)
    batch = Batch(pos_t=np.empty(0, dtype=int), pos_c=np.empty(0, dtype=int),
                  neg_c=np.empty((0, 1), dtype=int),
                  keyword_rows=[np.array([0])])  # t0 . s0 = 1 >= m
    g_t, g_v, g_s, g_k = dense_gradients(space, batch, EmbedConfig(dim=4))
    assert not g_t.any() and not g_v.any() and not g_s.any() and not g_k.any()


def test_gradient_zero_for_separated_topics():
    # [TRIVIAL] s_i . s_j <= m -> no repulsion gradient
    e = np.eye(4)
    space = EmbeddingSpace(
        term_ids=np.arange(1), target=e[:1].copy(), context=e[:1].copy(),
        topic_order=[0, 1], topic_vecs=np.stack([e[1], e[2]]),
        topic_kappa=np.ones(2), dim=4)
    batch = Batch(pos_t=np.empty(0, dtype=int), pos_c=np.empty(0, dtype=int),
                  neg_c=np.empty((0, 1), dtype=int), keyword_rows=[[], []])
    _, _, g_s, _ = dense_gradients(space, batch, EmbedConfig(dim=4))
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
        _scatter_unit(got, idx, vals)
        assert np.array_equal(got, expected)


def test_sgd_batch_matches_dense_gradient_step():
    # [DERIVED] one step with no topics is x - lr * grad, renormalised on
    # the rows the batch touches; untouched rows keep their exact bits
    rng = np.random.default_rng(4)
    cfg = EmbedConfig(dim=6, margin=0.3)
    n, lr = 40, 0.05
    space = make_space(rng, n_terms=n, dim=6, n_topics=0)
    batch = Batch(pos_t=rng.integers(0, 15, size=64),
                  pos_c=rng.integers(5, 25, size=64),
                  neg_c=rng.integers(10, 30, size=(64, 3)))
    g_t, g_v, _, _ = dense_gradients(space, batch, cfg)
    assert g_t.any() and g_v.any()
    target, context = space.target.copy(), space.context.copy()
    state = _TrainState(target, context, space.topic_vecs, space.topic_kappa,
                        [], cfg)
    state.sgd_batch(batch.pos_t, batch.pos_c, batch.neg_c, lr)
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


@pytest.fixture(scope="module")
def trained():
    corpus = two_topic_corpus()
    tax = parse_hierarchy("alpha0\n\talpha1\nbeta0\n\tbeta1", corpus)
    keywords = subtree_keywords(tax, tax.root)
    centers = {k: tax.nodes[k].center_term for k in keywords}
    cfg = EmbedConfig(dim=8, epochs=8, lr=0.05, seed=3)
    space = train_node_embedding(range(corpus.num_docs),
                                 range(corpus.num_terms),
                                 keywords, cfg, corpus, centers=centers)
    return corpus, tax, keywords, cfg, space


def test_trainer_rejects_bad_inputs():
    corpus = corpus_from_lines(["a b\n"])
    with pytest.raises(ValueError):
        train_node_embedding([], [0, 1], {}, EmbedConfig(dim=4), corpus)
    with pytest.raises(ValueError):
        train_node_embedding([0], [0, 1], {}, EmbedConfig(dim=1), corpus)
    with pytest.raises(ValueError):
        train_node_embedding([0], [0], {7: {1}}, EmbedConfig(dim=4), corpus)


def test_trainer_unit_norms(trained):
    _, _, _, _, space = trained
    assert np.abs(np.linalg.norm(space.target, axis=1) - 1.0).max() < 1e-6
    assert np.abs(np.linalg.norm(space.context, axis=1) - 1.0).max() < 1e-6
    assert np.abs(np.linalg.norm(space.topic_vecs, axis=1) - 1.0).max() < 1e-6
    assert np.all(space.topic_kappa >= 0.0)


def test_trainer_improves_heldout_objective(trained):
    corpus, tax, keywords, cfg, space = trained
    batch = sample_batch(space, range(corpus.num_docs), cfg, corpus,
                         keywords=keywords)
    after = objective_value(space, batch, cfg)
    rng = np.random.default_rng(cfg.seed)
    init = EmbeddingSpace(
        term_ids=space.term_ids,
        target=unit_rows(rng.standard_normal(space.target.shape)),
        context=unit_rows(rng.standard_normal(space.context.shape)),
        topic_order=space.topic_order,
        topic_vecs=unit_rows(rng.standard_normal(space.topic_vecs.shape)),
        topic_kappa=np.ones(space.num_topics), dim=space.dim)
    before = objective_value(init, batch, cfg)
    assert after < before


def test_trainer_keyword_attraction_pulls_toward_own_topic(trained):
    corpus, tax, keywords, cfg, space = trained
    # each topic's keywords end up closer to it than the other topic's do
    for k, key in enumerate(space.topic_order):
        rows = [space.row_of[t] for t in keywords[key]]
        own = float((space.target[rows] @ space.topic_vecs[k]).mean())
        other = [o for o in range(space.num_topics) if o != k][0]
        cross_rows = [space.row_of[t]
                      for t in keywords[space.topic_order[other]]]
        cross = float((space.target[cross_rows] @ space.topic_vecs[k]).mean())
        assert own > 0.1  # random unit vectors in dim 8 would sit near 0
        assert own > cross + 0.2


def test_trainer_topics_repelled(trained):
    _, _, _, cfg, space = trained
    sim = float(space.topic_vecs[0] @ space.topic_vecs[1])
    assert sim <= cfg.margin + 1e-3


def test_trainer_deterministic_single_worker(trained):
    corpus, tax, keywords, cfg, space = trained
    centers = {k: tax.nodes[k].center_term for k in keywords}
    space2 = train_node_embedding(range(corpus.num_docs),
                                  range(corpus.num_terms),
                                  keywords, cfg, corpus, centers=centers)
    assert np.array_equal(space.target, space2.target)
    assert np.array_equal(space.context, space2.context)
    assert np.array_equal(space.topic_vecs, space2.topic_vecs)
    assert np.array_equal(space.topic_kappa, space2.topic_kappa)


def test_trainer_no_pairs_returns_initialization():
    corpus = corpus_from_lines(["a\n", "b\n"])  # one-token docs: no pairs
    cfg = EmbedConfig(dim=4, seed=9)
    space = train_node_embedding([0, 1], [0, 1], {}, cfg, corpus)
    assert np.abs(np.linalg.norm(space.target, axis=1) - 1.0).max() < 1e-9


def test_embedding_dump_format(tmp_path, trained):
    corpus, tax, keywords, cfg, space = trained
    path = tmp_path / "space.txt"
    names = {k: corpus.term(tax.nodes[k].center_term) for k in space.topic_order}
    space.dump(path, corpus, topic_names=names)
    lines = path.read_text().splitlines()
    assert len(lines) == space.term_ids.size + space.num_topics
    assert lines[-1].split()[0].startswith("__topic__")
    assert len(lines[0].split()) == 1 + space.dim


# --- local corpus retrieval ---


def test_local_corpus_m_zero_is_node_docs(trained):
    corpus, tax, keywords, cfg, space = trained
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.docs = {0, 2}
    assert retrieve_local_corpus(node, space, corpus, 0) == {0, 2}


def test_local_corpus_root_gets_all_docs(trained):
    corpus, tax, _, _, _ = trained
    root = tax.nodes[tax.root]
    assert retrieve_local_corpus(root, None, corpus, 100) == set(
        range(corpus.num_docs))


def test_local_corpus_includes_top_neighbor_docs(trained):
    # [DERIVED] exhaustive cosine-ranking oracle for the top-1 neighbor
    corpus, tax, keywords, cfg, space = trained
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.docs = {0}
    got = retrieve_local_corpus(node, space, corpus, 1)
    sims = space.target @ space.vec(node.center_term)
    sims[space.row_of[node.center_term]] = -np.inf
    best = int(space.term_ids[int(np.argmax(sims))])
    expected = {0} | set(int(d) for d in corpus.docs_containing(best))
    assert got == expected
