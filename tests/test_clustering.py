"""Novelty scoring, spherical k-means, BM25 significance, K* selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoforge.clustering import (
    ClusterConfig,
    UndefinedNoveltyError,
    _bm25_matrix,
    _rep_matrix,
    _subcorpora,
    assign_documents,
    assign_known_terms,
    cluster_node,
    novelty_scores,
    novelty_threshold,
    select_anchor_terms,
    select_novel_k,
    significance_scores,
    spherical_kmeans,
    split_terms,
)
from taxoforge.corpus import compute_term_stats, corpus_from_lines
from taxoforge.embedding import EmbeddingSpace
from taxoforge.vmf import sample_vmf

from test_corpus import tf


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def space_with(target, topic_vecs):
    target = np.asarray(target, dtype=np.float64)
    return EmbeddingSpace(
        term_ids=np.arange(target.shape[0]),
        target=target, context=target.copy(),
        topic_order=list(range(topic_vecs.shape[0])),
        topic_vecs=np.asarray(topic_vecs, dtype=np.float64),
        topic_kappa=np.ones(topic_vecs.shape[0]),
        dim=target.shape[1])


# --- config validation ---


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(beta_per_level=(0.5,))
    with pytest.raises(ValueError):
        ClusterConfig(tau_sig=1.5)
    with pytest.raises(ValueError):
        ClusterConfig(temperature=0.0)


def test_beta_per_level_lookup():
    cfg = ClusterConfig(beta_per_level=(1.5, 3.0))
    assert cfg.beta(0) == 1.5
    assert cfg.beta(1) == 3.0
    assert cfg.beta(7) == 3.0  # deeper levels reuse the last beta


# --- novelty ---


def novelty_score(t, space, temperature):
    """Novelty of one term: one entry of the pipeline's novelty_scores."""
    return float(novelty_scores(space, [t], temperature)[0])


def test_novelty_equidistant_is_max():
    # [TRIVIAL] K=2, equal cosines -> score 0.5 = 1 - 1/2
    e = np.eye(3)
    sp = space_with(np.array([[0.0, 0.0, 1.0]]), np.stack([e[0], e[1]]))
    assert novelty_score(0, sp, 0.1) == pytest.approx(0.5)


def test_novelty_hand_softmax_value():
    # [DERIVED] K=2, cosines (1.0, 0.0), T=1 -> 1 - e/(e+1) = 0.26894...
    e = np.eye(3)
    sp = space_with(e[:1].copy(), np.stack([e[0], e[1]]))
    expected = 1.0 - np.e / (np.e + 1.0)
    assert novelty_score(0, sp, 1.0) == pytest.approx(expected, abs=1e-9)
    assert novelty_score(0, sp, 1.0) == pytest.approx(0.26894, abs=1e-5)


def test_novelty_range_bound():
    # value always in (0, 1 - 1/K]
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        sp = space_with(unit_rows(rng.standard_normal((50, 6))),
                        unit_rows(rng.standard_normal((k, 6))))
        scores = novelty_scores(sp, range(50), 0.1)
        assert np.all(scores > 0.0)
        assert np.all(scores <= 1.0 - 1.0 / k + 1e-12)


def test_novelty_zero_topics_error():
    sp = space_with(np.eye(3)[:1].copy(), np.zeros((0, 3)))
    with pytest.raises(UndefinedNoveltyError):
        novelty_score(0, sp, 0.1)


def test_threshold_values():
    # [PAPER-pinned] (1 - 1/K)^beta
    assert novelty_threshold(5, 1.0) == 0.8
    assert novelty_threshold(5, 1.5) == pytest.approx(0.8 ** 1.5, abs=1e-12)
    assert novelty_threshold(5, 1.5) == pytest.approx(0.71554, abs=1e-5)
    with pytest.raises(ValueError):
        novelty_threshold(5, 0.9)
    with pytest.raises(ValueError):
        novelty_threshold(1, 1.5)


def test_split_on_mean_directions_no_novel():
    # [TRIVIAL] terms exactly on known means have tiny novelty
    e = np.eye(4)
    sp = space_with(np.stack([e[0], e[0], e[1]]), np.stack([e[0], e[1]]))
    known, novel = split_terms([0, 1, 2], sp, ClusterConfig(), level=0)
    assert known == {0, 1, 2} and novel == set()


def test_split_boundary_goes_novel():
    # a score exactly at the threshold is classified novel
    cfg = ClusterConfig(beta_per_level=(1.0,), temperature=1.0)
    e = np.eye(3)
    sp = space_with(np.array([[0.0, 0.0, 1.0]]), np.stack([e[0], e[1]]))
    # equidistant: score = 0.5 exactly; threshold (1 - 1/2)^1 = 0.5
    known, novel = split_terms([0], sp, cfg, level=0)
    assert novel == {0}


@given(st.floats(1.0, 4.0), st.floats(1.0, 4.0), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_split_monotone_in_beta(b1, b2, seed):
    # [PAPER] larger beta -> lower threshold -> novel set grows
    lo, hi = sorted((b1, b2))
    rng = np.random.default_rng(seed)
    sp = space_with(unit_rows(rng.standard_normal((30, 5))),
                    unit_rows(rng.standard_normal((3, 5))))
    _, novel_lo = split_terms(range(30), sp, ClusterConfig(beta_per_level=(lo,)), 0)
    _, novel_hi = split_terms(range(30), sp, ClusterConfig(beta_per_level=(hi,)), 0)
    assert novel_lo <= novel_hi


def test_split_recovers_planted_novel_mixture():
    # [DERIVED] 3 known vMF bundles + 1 planted-novel bundle
    rng = np.random.default_rng(5)
    dim = 8
    means = unit_rows(np.linalg.qr(rng.standard_normal((dim, dim)))[0][:4])
    vecs, labels = [], []
    for k in range(4):
        vecs.append(sample_vmf(means[k], 50.0, 40, rng))
        labels += [k] * 40
    sp = space_with(np.vstack(vecs), means[:3])
    # raw vMF samples have modest cosine gaps; a unit temperature matches
    # that geometry (the sharp default suits trained embeddings instead)
    cfg = ClusterConfig(temperature=1.0)
    known, novel = split_terms(range(160), sp, cfg, level=0)
    planted = {i for i, l in enumerate(labels) if l == 3}
    assert len(novel & planted) >= 0.9 * len(planted)
    truly_known = set(range(120))
    assert len(known & truly_known) >= 0.9 * len(truly_known)


def test_assign_known_exact_and_ties():
    e = np.eye(4)
    # term 0 sits exactly on topic 2; term 1 ties between slots 1 and 3
    tie = unit_rows((e[1] + e[3])[None, :])[0]
    sp = space_with(np.stack([e[2], tie]), np.stack([e[0], e[1], e[2], e[3]]))
    z = assign_known_terms({0, 1}, sp)
    assert z[0] == 2
    assert z[1] == 1  # lowest slot wins the tie


def test_assign_known_matches_bruteforce():
    # [DERIVED] exhaustive argmax oracle over 200 random terms
    rng = np.random.default_rng(1)
    sp = space_with(unit_rows(rng.standard_normal((200, 7))),
                    unit_rows(rng.standard_normal((4, 7))))
    z = assign_known_terms(range(200), sp)
    for t in range(200):
        sims = [float(sp.target[t] @ sp.topic_vecs[k]) for k in range(4)]
        assert z[t] == int(np.argmax(sims))


# --- spherical k-means ---


def test_kmeans_k1_closed_form():
    # [TRIVIAL] K=1 mean is the normalized vector sum, to 1e-12
    rng = np.random.default_rng(2)
    x = unit_rows(rng.standard_normal((40, 5)))
    _, means = spherical_kmeans(x, 1, ClusterConfig())
    expected = x.sum(axis=0) / np.linalg.norm(x.sum(axis=0))
    assert np.abs(means[0] - expected).max() < 1e-12


def test_kmeans_separates_antipodal_bundles():
    rng = np.random.default_rng(3)
    mu = np.array([1.0, 0.0, 0.0])
    x = np.vstack([sample_vmf(mu, 100.0, 25, rng),
                   sample_vmf(-mu, 100.0, 25, rng)])
    assign, means = spherical_kmeans(x, 2, ClusterConfig())
    assert len(set(assign[:25])) == 1 and len(set(assign[25:])) == 1
    assert assign[0] != assign[25]


def test_kmeans_objective_monotone_50_instances():
    # [DERIVED] per-iteration objective non-decreasing, 50 random instances
    cfg = ClusterConfig(kmeans_restarts=1)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        k = int(rng.integers(1, min(5, n) + 1))
        x = unit_rows(rng.standard_normal((n, 4)))
        _, _, history = spherical_kmeans(x, k, cfg, seed=seed,
                                         return_history=True)
        assert len(history) <= cfg.kmeans_max_iter
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-9)


def test_kmeans_too_few_vectors_error():
    x = np.eye(3)[:2]
    with pytest.raises(ValueError):
        spherical_kmeans(x, 3, ClusterConfig())


# --- document assignment ---


def make_doc_fixture(seed, n_docs=30, n_terms=20):
    rng = np.random.default_rng(seed)
    lines = [" ".join(f"t{int(i)}" for i in rng.integers(0, n_terms,
                                                         rng.integers(2, 10)))
             for _ in range(n_docs)]
    corpus = corpus_from_lines(lines)
    stats = compute_term_stats(corpus, range(corpus.num_docs))
    z_term = {t: int(rng.integers(0, 3)) for t in
              rng.choice(corpus.num_terms, size=corpus.num_terms // 2,
                         replace=False)}
    return corpus, stats, z_term


def test_assign_documents_single_cluster_doc():
    corpus = corpus_from_lines(["a b\n", "c c\n"])
    stats = compute_term_stats(corpus, {0, 1})
    z_term = {0: 1, 1: 1}  # a, b -> slot 1; c unclustered
    z_doc = assign_documents({0, 1}, z_term, stats, 2)
    assert z_doc.get(0) == 1
    assert 1 not in z_doc  # [TRIVIAL] no clustered terms -> unassigned


def test_assign_documents_matches_bruteforce():
    # [DERIVED] naive triple-loop oracle on 100 random fixtures
    for seed in range(100):
        corpus, stats, z_term = make_doc_fixture(seed)
        z_doc = assign_documents(range(corpus.num_docs), z_term, stats, 3)
        for d in range(corpus.num_docs):
            weights = [0.0, 0.0, 0.0]
            for t in corpus.documents[d].tokens.tolist():
                if t in z_term:
                    weights[z_term[t]] += 1 * stats.idf[t]
            # each token contributes tf once per occurrence via tf*idf:
            # recompute exactly as sum over unique terms of tf*idf
            weights = [0.0, 0.0, 0.0]
            for t in set(corpus.documents[d].tokens.tolist()):
                if t in z_term:
                    weights[z_term[t]] += tf(stats, t, d) * stats.idf[t]
            if max(weights) <= 0.0:
                assert d not in z_doc
            else:
                assert z_doc[d] == int(np.argmax(weights))


def test_assign_documents_scale_invariant():
    corpus, stats, z_term = make_doc_fixture(7)
    z1 = assign_documents(range(corpus.num_docs), z_term, stats, 3)
    stats.idf *= 2.0  # same positive factor (exact in floating point)
    z2 = assign_documents(range(corpus.num_docs), z_term, stats, 3)
    assert z1 == z2


def loop_assign_documents(docs, z_term, stats, n_slots):
    """Oracle: the tf-idf vote, one document at a time."""
    z_doc = {}
    if not z_term:
        return z_doc
    max_term = max(z_term) + 1
    slot_arr = np.full(max_term, -1, dtype=np.int64)
    for t, s in z_term.items():
        slot_arr[t] = s
    row_of = {int(d): r for r, d in enumerate(stats.doc_ids)}
    indptr, indices, data = stats.counts.indptr, stats.counts.indices, stats.counts.data
    for d in sorted(docs):
        row = row_of.get(int(d))
        if row is None:
            continue
        cols = indices[indptr[row]:indptr[row + 1]]
        vals = data[indptr[row]:indptr[row + 1]]
        ok = cols < max_term
        cols, vals = cols[ok], vals[ok]
        slots = slot_arr[cols]
        valid = slots >= 0
        if not valid.any():
            continue
        scores = np.bincount(slots[valid], weights=vals[valid] * stats.idf[cols[valid]],
                             minlength=n_slots)
        if scores.max() <= 0.0:
            continue
        z_doc[int(d)] = int(scores.argmax())
    return z_doc


def loop_bm25_matrix(term_arr, subcorpora, stats, k1, b):
    """Oracle: BM25 and occurrence sums, one (document, nonzero) at a time."""
    out = np.zeros((len(term_arr), len(subcorpora)))
    tf_out = np.zeros_like(out)
    col_of = {int(t): i for i, t in enumerate(term_arr)}
    row_of = {int(d): r for r, d in enumerate(stats.doc_ids)}
    indptr, indices, data = stats.counts.indptr, stats.counts.indices, stats.counts.data
    for s, docs in enumerate(subcorpora):
        for d in docs:
            row = row_of[int(d)]
            cols = indices[indptr[row]:indptr[row + 1]]
            vals = data[indptr[row]:indptr[row + 1]]
            denom = vals + k1 * (1.0 - b + b * stats.doc_len[row] / stats.avg_doc_len)
            contrib = stats.idf[cols] * vals * (k1 + 1.0) / denom
            for c, v in zip(cols, contrib):
                i = col_of.get(int(c))
                if i is not None:
                    out[i, s] += v
        if docs:
            rows = [row_of[int(d)] for d in docs]
            sub_counts = np.asarray(stats.counts[rows].sum(axis=0)).ravel()
            tf_out[:, s] = sub_counts[np.asarray(term_arr, dtype=np.int64)]
    return out, tf_out


def loop_rep_matrix(term_arr, subcorpora, stats, corpus, k1, b):
    """Oracle: representativeness with the popularity taken slot by slot."""
    from scipy.special import logsumexp
    term_arr = np.asarray(term_arr)
    bm25 = loop_bm25_matrix(term_arr, subcorpora, stats, k1, b)[0]
    log_denom = np.logaddexp(0.0, logsumexp(bm25, axis=1))
    dis = np.exp(bm25 - log_denom[:, None])
    pop = np.zeros_like(bm25)
    row_of = {int(d): r for r, d in enumerate(stats.doc_ids)}
    for s, docs in enumerate(subcorpora):
        if not docs:
            continue
        rows = [row_of[int(d)] for d in docs]
        sub_counts = np.asarray(stats.counts[rows].sum(axis=0)).ravel()
        total = sub_counts[term_arr].sum()
        if total <= 1:
            continue
        pop[:, s] = np.log(sub_counts[term_arr] + 1.0) / np.log(total)
    integ = corpus.integrity[term_arr][:, None]
    return np.cbrt(integ * dis * pop)


def vote_cases(seed):
    """(stats, docs, z_term, n_slots) variants of one doc fixture: a
    subset with docs outside it, an empty slot, idf-0 terms, no slots."""
    corpus, stats, z_term = make_doc_fixture(seed)
    rng = np.random.default_rng(seed + 500)
    yield stats, range(corpus.num_docs), z_term, 3
    yield stats, range(corpus.num_docs), z_term, 4          # slot 3 empty
    yield stats, range(corpus.num_docs), {}, 0              # n_slots == 0
    subset = rng.choice(corpus.num_docs, size=12, replace=False).tolist()
    sub_stats = compute_term_stats(corpus, subset)
    yield sub_stats, range(corpus.num_docs), z_term, 3      # docs outside stats
    zeroed = compute_term_stats(corpus, range(corpus.num_docs))
    zeroed.idf[rng.choice(corpus.num_terms, size=5, replace=False)] = 0.0
    yield zeroed, range(corpus.num_docs), z_term, 3          # idf-0 terms
    one = compute_term_stats(corpus, [int(subset[0])])        # every idf is 0
    yield one, [int(subset[0])], z_term, 3


def test_assign_documents_bit_equal_to_loop():
    n_unassigned = 0
    for seed in range(100):
        for stats, docs, z_term, n_slots in vote_cases(seed):
            got = assign_documents(docs, z_term, stats, n_slots)
            want = loop_assign_documents(docs, z_term, stats, n_slots)
            assert list(got.items()) == list(want.items())
            n_unassigned += len(stats.doc_ids) - len(got)
    # docs with no clustered term (or only idf-0 ones) occur and stay out
    assert n_unassigned > 0


def test_assign_documents_sums_in_term_order():
    # slot 0 sums 0.1, 0.2, 0.3 in term-id order to 0.6000000000000001 and
    # ties slot 1, so the lowest slot wins; summed in any other order it
    # is 0.6 and slot 1 would win
    corpus = corpus_from_lines(["a b c d\n", "e\n"])
    stats = compute_term_stats(corpus, {0, 1})
    stats.idf[:4] = [0.1, 0.2, 0.3, (0.1 + 0.2) + 0.3]
    z_term = {0: 0, 1: 0, 2: 0, 3: 1}
    assert 0.1 + (0.2 + 0.3) < stats.idf[3]
    assert assign_documents({0, 1}, z_term, stats, 2) == {0: 0}
    assert loop_assign_documents({0, 1}, z_term, stats, 2) == {0: 0}


def test_bm25_and_rep_matrix_bit_equal_to_loop():
    for seed in range(100):
        corpus = make_doc_fixture(seed)[0]
        corpus.integrity[:] = np.random.default_rng(seed).random(corpus.num_terms)
        for stats, docs, z_term, n_slots in vote_cases(seed):
            z_doc = loop_assign_documents(docs, z_term, stats, n_slots)
            subcorpora = _subcorpora(z_doc, n_slots)
            rng = np.random.default_rng(seed)
            term_arr = np.sort(rng.choice(corpus.num_terms,
                                          size=corpus.num_terms // 2 + 1,
                                          replace=False))
            got = _bm25_matrix(term_arr, subcorpora, stats, 1.2, 0.75)
            want = loop_bm25_matrix(term_arr, subcorpora, stats, 1.2, 0.75)
            for g, w in zip(got, want):
                assert g.shape == (term_arr.size, n_slots)
                assert np.array_equal(g, w)
            assert np.array_equal(
                _rep_matrix(term_arr, subcorpora, stats, corpus, 1.2, 0.75),
                loop_rep_matrix(term_arr, subcorpora, stats, corpus, 1.2, 0.75))
    # documents listed out of id order are summed in their listed order
    corpus, stats, _ = make_doc_fixture(3)
    subcorpora = [[5, 1, 9, 2], [], [0, 7, 3]]
    term_arr = np.arange(corpus.num_terms)
    got = _bm25_matrix(term_arr, subcorpora, stats, 1.2, 0.75)
    want = loop_bm25_matrix(term_arr, subcorpora, stats, 1.2, 0.75)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_bm25_matrix_rejects_doc_outside_stats():
    corpus = corpus_from_lines(["a b\n", "c d\n", "a c\n"])
    stats = compute_term_stats(corpus, {0, 1})
    with pytest.raises(KeyError):
        _bm25_matrix([0, 1], [[0], [2]], stats, 1.2, 0.75)


# --- BM25 ---


def bm25_score(t, subcorpus, stats, k1=1.2, b=0.75):
    """BM25 relevance of term t to one document set: one cell of the
    pipeline's _bm25_matrix."""
    return float(_bm25_matrix([t], [list(subcorpus)], stats, k1, b)[0][0, 0])


def reference_bm25(t, subcorpus, corpus, stats, k1, b):
    total = 0.0
    for d in subcorpus:
        tf = corpus.documents[d].tokens.tolist().count(t)
        if tf == 0:
            continue
        dl = corpus.documents[d].tokens.size
        total += stats.idf[t] * tf * (k1 + 1) / (
            tf + k1 * (1 - b + b * dl / stats.avg_doc_len))
    return total


def test_bm25_absent_term_zero():
    corpus = corpus_from_lines(["a b\n", "c d\n"])
    stats = compute_term_stats(corpus, {0, 1})
    assert bm25_score(corpus.term_id("a"), [1], stats) == 0.0


def test_bm25_matches_reference_100_fixtures():
    # [DERIVED] independent straightforward implementation, <= 1e-9
    for seed in range(100):
        corpus, stats, _ = make_doc_fixture(seed, n_docs=15, n_terms=12)
        rng = np.random.default_rng(seed + 1000)
        sub = rng.choice(corpus.num_docs, size=6, replace=False).tolist()
        t = int(rng.integers(0, corpus.num_terms))
        got = bm25_score(t, sub, stats, k1=1.2, b=0.75)
        want = reference_bm25(t, sub, corpus, stats, 1.2, 0.75)
        assert got == pytest.approx(want, abs=1e-9)


# --- representativeness and significance ---


def representativeness(t, s, z_doc, stats, corpus, node_terms, n_slots,
                       k1=1.2, b=0.75):
    """Representativeness of term t in slot s: one cell of _rep_matrix."""
    subcorpora = _subcorpora(z_doc, n_slots)
    term_arr = sorted(int(x) for x in node_terms)
    rep = _rep_matrix(term_arr, subcorpora, stats, corpus, k1, b)
    return float(rep[term_arr.index(int(t)), s])


def test_rep_absent_term_zero():
    # [TRIVIAL] t absent from D_s -> pop = 0 -> rep = 0
    corpus = corpus_from_lines(["a a b\n", "c c d\n"])
    stats = compute_term_stats(corpus, {0, 1})
    z_doc = {0: 0, 1: 1}
    c_id = corpus.term_id("c")
    assert representativeness(c_id, 0, z_doc, stats, corpus,
                              range(corpus.num_terms), 2) == 0.0


def test_rep_single_subtopic_dis_half():
    # [DERIVED] single sub-topic, BM25(t)=0 -> dis = 1/(1+1) = 0.5
    corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    stats = compute_term_stats(corpus, {0, 1})
    z_doc = {0: 0, 1: 0}
    a_id = corpus.term_id("a")
    # df(a)=2 over 2 docs -> idf=0 -> BM25=0 for every term
    got = representativeness(a_id, 0, z_doc, stats, corpus,
                             range(corpus.num_terms), 1)
    total = 6  # all term occurrences in the sub-corpus
    pop = np.log(3 + 1) / np.log(total)
    assert got == pytest.approx((1.0 * 0.5 * pop) ** (1 / 3), rel=1e-9)


def test_rep_uses_integrity():
    corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    corpus.integrity[corpus.term_id("a")] = 0.125
    stats = compute_term_stats(corpus, {0, 1})
    z_doc = {0: 0, 1: 0}
    a_id = corpus.term_id("a")
    base_corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    base = representativeness(a_id, 0, z_doc, stats, base_corpus,
                              range(corpus.num_terms), 1)
    got = representativeness(a_id, 0, z_doc, stats, corpus,
                             range(corpus.num_terms), 1)
    assert got == pytest.approx(base * 0.125 ** (1 / 3), rel=1e-9)


def significance_score(t, term_arr, vecs, means, rep):
    """Significance and best slot of one term: one row of
    significance_scores."""
    sig, arg = significance_scores(term_arr, vecs, means, rep)
    i = list(term_arr).index(int(t))
    return float(sig[i]), int(arg[i])


def test_significance_extremes_and_bruteforce():
    # [TRIVIAL] rel=1, rep=1 -> 1; rep=0 everywhere -> 0
    term_arr = [0, 1]
    vecs = np.eye(3)[:2]
    means = np.eye(3)[:2]
    rep = np.array([[1.0, 0.3], [0.0, 0.0]])
    sig, arg = significance_scores(term_arr, vecs, means, rep)
    assert sig[0] == 1.0 and arg[0] == 0
    assert sig[1] == 0.0
    # [DERIVED] brute-force max over clusters on a random instance
    rng = np.random.default_rng(4)
    vecs = unit_rows(rng.standard_normal((20, 5)))
    means = unit_rows(rng.standard_normal((3, 5)))
    rep = rng.random((20, 3))
    sig, arg = significance_scores(range(20), vecs, means, rep)
    for i in range(20):
        vals = [max(float(vecs[i] @ means[s]), 0.0) * rep[i, s]
                for s in range(3)]
        assert sig[i] == pytest.approx(max(vals), rel=1e-12)
        assert arg[i] == int(np.argmax(vals))
    s0, a0 = significance_score(5, list(range(20)), vecs, means, rep)
    assert s0 == pytest.approx(sig[5]) and a0 == arg[5]


def test_negative_rel_clamped():
    term_arr = [0]
    vecs = -np.eye(3)[:1]
    means = np.eye(3)[:1]
    rep = np.array([[0.8]])
    sig, _ = significance_scores(term_arr, vecs, means, rep)
    assert sig[0] == 0.0


# --- anchor selection ---


def test_anchor_selection_thresholds():
    z_term = {0: 0, 1: 0, 2: 1, 3: 1}
    scores = {0: 0.31, 1: 0.29, 2: 0.30, 3: 0.05}
    anchors, warnings = select_anchor_terms(z_term, scores, 0.3, 2)
    assert anchors[0] == {0}
    assert anchors[1] == {2}  # boundary 0.30 >= tau survives
    assert warnings == set()


def test_anchor_selection_extreme_taus():
    z_term = {0: 0, 1: 0, 2: 1}
    scores = {0: 0.4, 1: 0.6, 2: 0.2}
    anchors, _ = select_anchor_terms(z_term, scores, 0.0, 2)
    assert anchors[0] == {0, 1} and anchors[1] == {2}  # [TRIVIAL] no filtering
    anchors, warnings = select_anchor_terms(z_term, scores, 1.0,
                                            2, known_centers={0: 1, 1: 2})
    assert anchors[0] == {1} and anchors[1] == {2}  # centers retained
    assert warnings == {0, 1}


def test_anchor_center_always_retained():
    z_term = {0: 0, 1: 0}
    scores = {0: 0.9, 1: 0.1}
    anchors, warnings = select_anchor_terms(z_term, scores, 0.3, 1,
                                            known_centers={0: 1})
    assert anchors[0] == {0, 1}
    assert warnings == set()  # slot has a non-center anchor too


# --- K* selection ---


def test_kstar_stdev_prefers_balanced_fixture():
    # [DERIVED] spec example: known kappas {50, 52}; novel {51} vs {10, 90}
    known = np.array([50.0, 52.0])
    assert np.std(np.r_[known, [51.0]]) == pytest.approx(0.8165, abs=1e-4)
    assert np.std(np.r_[known, [10.0, 90.0]]) == pytest.approx(28.2975, abs=1e-4)
    # the K*=1 candidate has the smaller stdev
    assert np.std(np.r_[known, [51.0]]) < np.std(np.r_[known, [10.0, 90.0]])


def _planted_node(seed=0, n_known=2, n_novel=2, kappa=60.0, per=30):
    """Corpus + space with n_known known and n_novel planted novel bundles."""
    rng = np.random.default_rng(seed)
    dim = 8
    means = unit_rows(np.linalg.qr(rng.standard_normal((dim, dim)))[0]
                      [:n_known + n_novel])
    groups = [sample_vmf(means[g], kappa, per, rng)
              for g in range(n_known + n_novel)]
    target = np.vstack(groups)
    n_terms = target.shape[0]
    # one doc per term bundle member referencing terms of its group
    lines = []
    for g in range(n_known + n_novel):
        for i in range(per):
            members = rng.choice(per, size=6) + g * per
            lines.append(" ".join(f"w{int(m)}" for m in members))
    corpus = corpus_from_lines(lines)
    order = [corpus.term_id(f"w{i}") for i in range(n_terms)]
    target_by_vocab = np.empty_like(target)
    target_by_vocab[np.argsort(np.argsort(order))] = target  # keep aligned
    target2 = np.empty_like(target)
    for i in range(n_terms):
        target2[corpus.term_id(f"w{i}")] = target[i]
    sp = EmbeddingSpace(
        term_ids=np.arange(n_terms), target=target2, context=target2.copy(),
        topic_order=list(range(n_known)), topic_vecs=means[:n_known].copy(),
        topic_kappa=np.full(n_known, kappa), dim=dim)
    stats = compute_term_stats(corpus, range(corpus.num_docs))
    labels = {corpus.term_id(f"w{i}"): i // per for i in range(n_terms)}
    return corpus, sp, stats, labels


def test_select_novel_k_recovers_two_planted_clusters():
    # [DERIVED] 2 known + 2 planted novel bundles of matched concentration
    corpus, sp, stats, labels = _planted_node()
    known_assign = {t: g for t, g in labels.items() if g < 2}
    novel = {t for t, g in labels.items() if g >= 2}
    cfg = ClusterConfig(tau_sig=0.0)
    known_centers = {0: min(t for t, g in labels.items() if g == 0),
                     1: min(t for t, g in labels.items() if g == 1)}
    res = select_novel_k(novel, known_assign, known_centers, sp, stats,
                         list(labels), range(corpus.num_docs), corpus, cfg)
    assert res.k_star == 2
    assert len(res.novel_clusters) == 2


def test_select_novel_k_empty_novel_returns_zero():
    corpus, sp, stats, labels = _planted_node()
    known_assign = {t: g for t, g in labels.items() if g < 2}
    cfg = ClusterConfig()
    res = select_novel_k(set(), known_assign, {}, sp, stats,
                         list(labels), range(corpus.num_docs), corpus, cfg)
    assert res.k_star == 0 and res.novel_clusters == []


def test_select_novel_k_capped_by_novel_count():
    corpus, sp, stats, labels = _planted_node()
    known_assign = {t: g for t, g in labels.items() if g < 2}
    novel = set(list({t for t, g in labels.items() if g >= 2})[:3])
    cfg = ClusterConfig(tau_sig=0.0, k_star_max=5)
    res = select_novel_k(novel, known_assign, {}, sp, stats,
                         list(labels), range(corpus.num_docs), corpus, cfg)
    assert res.k_star <= 3


def test_cluster_node_zero_known_path():
    # K_c <= 1 routes through the unsupervised path: everything is novel
    corpus, sp, stats, labels = _planted_node(n_known=0, n_novel=3)
    sp.topic_order = []
    sp.topic_vecs = np.zeros((0, sp.dim))
    sp.topic_kappa = np.zeros(0)
    cfg = ClusterConfig(tau_sig=0.0)
    res = cluster_node(list(labels), range(corpus.num_docs), sp, stats,
                       corpus, cfg, level=0)
    assert res.known_terms == set()
    assert res.novel_terms == set(labels)
    assert res.k_star >= 1


def test_cluster_node_invariants():
    corpus, sp, stats, labels = _planted_node()
    cfg = ClusterConfig(tau_sig=0.2)
    known_centers = {0: min(t for t, g in labels.items() if g == 0),
                     1: min(t for t, g in labels.items() if g == 1)}
    res = cluster_node(list(labels), range(corpus.num_docs), sp, stats,
                       corpus, cfg, level=0, known_centers=known_centers)
    assert res.known_terms | res.novel_terms == set(labels)
    assert res.known_terms & res.novel_terms == set()
    # every emitted anchor passes tau_sig except retained centers
    for s, (anchors, _) in res.known_updates.items():
        for t in anchors:
            if t != known_centers.get(s):
                assert res.sig_scores[t] >= cfg.tau_sig
    for center, anchors, vmf in res.novel_clusters:
        assert center in anchors
        for t in anchors:
            assert res.sig_scores[t] >= cfg.tau_sig
        assert vmf.kappa >= 0.0
