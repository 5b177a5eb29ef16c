"""Novelty scoring, spherical k-means, BM25 significance, K* selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxoforge.clustering as clustering
from taxoforge.clustering import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    _bm25_matrix,
    _kmeans_once,
    _logsumexp_rows,
    _rep_matrix,
    assign_documents,
    assign_known_terms,
    child_split,
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
    """A space whose row i is term i; the split and the known assignment
    read no center or keyword rows, so every topic's center is row 0 and
    it has no keywords."""
    target = np.asarray(target, dtype=np.float64)
    k = topic_vecs.shape[0]
    return EmbeddingSpace(
        term_ids=np.arange(target.shape[0]),
        row_of=np.arange(target.shape[0], dtype=np.int32),
        params=np.vstack([target, target]),
        topic_order=list(range(k)),
        topic_vecs=np.asarray(topic_vecs, dtype=np.float64),
        topic_kappa=np.ones(k),
        center_rows=np.zeros(k, dtype=np.int64),
        keyword_rows=[[]] * k)


def rows_of(mask):
    return set(np.flatnonzero(mask).tolist())


# --- config validation ---


def test_config_validation():
    # the fixed knobs lie in the ranges the clustering needs
    assert 0.0 < clustering.TEMPERATURE < np.inf
    assert 0.0 <= clustering.TAU_SIG <= 1.0
    assert isinstance(clustering.K_STAR_MAX, int) and clustering.K_STAR_MAX >= 1


# --- novelty ---


def novelty_score(t, space, temperature):
    """Novelty of the term at row t: one entry of novelty_scores."""
    return float(novelty_scores(space, temperature)[t])


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
        scores = novelty_scores(sp, 0.1)
        assert np.all(scores > 0.0)
        assert np.all(scores <= 1.0 - 1.0 / k + 1e-12)


def test_threshold_values():
    # [PAPER-pinned] (1 - 1/K)^beta
    assert novelty_threshold(5, 1.0) == 0.8
    assert novelty_threshold(5, 1.5) == pytest.approx(0.8 ** 1.5, abs=1e-12)
    assert novelty_threshold(5, 1.5) == pytest.approx(0.71554, abs=1e-5)
    with pytest.raises(ValueError):
        novelty_threshold(1, 1.5)


def test_split_on_mean_directions_no_novel():
    # [TRIVIAL] terms exactly on known means have tiny novelty
    e = np.eye(4)
    sp = space_with(np.stack([e[0], e[0], e[1]]), np.stack([e[0], e[1]]))
    assert not split_terms(sp, 1.5).any()


def test_split_boundary_goes_novel(monkeypatch):
    # a score exactly at the threshold is classified novel
    monkeypatch.setattr(clustering, "TEMPERATURE", 1.0)
    e = np.eye(3)
    sp = space_with(np.array([[0.0, 0.0, 1.0]]), np.stack([e[0], e[1]]))
    # equidistant: score = 0.5 exactly; threshold (1 - 1/2)^1 = 0.5
    assert split_terms(sp, 1.0).tolist() == [True]


@given(st.floats(1.0, 4.0), st.floats(1.0, 4.0), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_split_monotone_in_beta(b1, b2, seed):
    # [PAPER] larger beta -> lower threshold -> novel set grows
    lo, hi = sorted((b1, b2))
    rng = np.random.default_rng(seed)
    sp = space_with(unit_rows(rng.standard_normal((30, 5))),
                    unit_rows(rng.standard_normal((3, 5))))
    novel_lo = split_terms(sp, lo)
    novel_hi = split_terms(sp, hi)
    assert not (novel_lo & ~novel_hi).any()


def test_split_recovers_planted_novel_mixture(monkeypatch):
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
    monkeypatch.setattr(clustering, "TEMPERATURE", 1.0)
    is_novel = split_terms(sp, 1.5)
    known, novel = rows_of(~is_novel), rows_of(is_novel)
    planted = {i for i, l in enumerate(labels) if l == 3}
    assert len(novel & planted) >= 0.9 * len(planted)
    truly_known = set(range(120))
    assert len(known & truly_known) >= 0.9 * len(truly_known)


def test_assign_known_exact_and_ties():
    e = np.eye(4)
    # term 0 sits exactly on topic 2; term 1 ties between slots 1 and 3
    tie = unit_rows((e[1] + e[3])[None, :])[0]
    sp = space_with(np.stack([e[2], tie]), np.stack([e[0], e[1], e[2], e[3]]))
    z = assign_known_terms(sp, [0, 1])
    assert z[0] == 2
    assert z[1] == 1  # lowest slot wins the tie


def test_assign_known_matches_bruteforce():
    # [DERIVED] exhaustive argmax oracle over 200 random terms
    rng = np.random.default_rng(1)
    sp = space_with(unit_rows(rng.standard_normal((200, 7))),
                    unit_rows(rng.standard_normal((4, 7))))
    z = assign_known_terms(sp, np.arange(200))
    for t in range(200):
        sims = [float(sp.target[t] @ sp.topic_vecs[k]) for k in range(4)]
        assert z[t] == int(np.argmax(sims))


# --- spherical k-means ---


def test_kmeans_k1_closed_form():
    # [TRIVIAL] K=1 mean is the normalized vector sum, to 1e-12
    rng = np.random.default_rng(2)
    x = unit_rows(rng.standard_normal((40, 5)))
    _, means = spherical_kmeans(x, 1, 0)
    expected = x.sum(axis=0) / np.linalg.norm(x.sum(axis=0))
    assert np.abs(means[0] - expected).max() < 1e-12


def test_kmeans_separates_antipodal_bundles():
    rng = np.random.default_rng(3)
    mu = np.array([1.0, 0.0, 0.0])
    x = np.vstack([sample_vmf(mu, 100.0, 25, rng),
                   sample_vmf(-mu, 100.0, 25, rng)])
    assign, means = spherical_kmeans(x, 2, 0)
    assert len(set(assign[:25])) == 1 and len(set(assign[25:])) == 1
    assert assign[0] != assign[25]


def test_kmeans_objective_monotone_50_instances():
    # [DERIVED] per-iteration objective non-decreasing, 50 random instances,
    # every restart of spherical_kmeans (so also the one that wins)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        k = int(rng.integers(1, min(5, n) + 1))
        x = unit_rows(rng.standard_normal((n, 4)))
        for r in range(KMEANS_RESTARTS):
            _, _, history = _kmeans_once(x, k, np.random.default_rng(seed + r))
            assert len(history) <= KMEANS_MAX_ITER
            assert np.all(np.diff(history) >= -1e-9)


def test_kmeans_too_few_vectors_error():
    x = np.eye(3)[:2]
    with pytest.raises(ValueError):
        spherical_kmeans(x, 3, 0)


@pytest.mark.parametrize("x, k", [
    (np.vstack([np.tile([1.0, 0.0], (5, 1)), [0.0, 1.0]]), 4),
    (np.tile([0.6, 0.8], (6, 1)), 3),
], ids=["five-e0-one-e1", "six-copies"])
def test_kmeans_leaves_no_cluster_empty(x, k):
    # repeated points tie, so argmax leaves clusters empty on every
    # iteration and each must take a point another cluster can spare
    for seed in range(100):
        assign, _ = spherical_kmeans(x, k, seed)
        assert np.bincount(assign, minlength=k).min() >= 1, seed


def test_kmeans_every_restart_fills_every_cluster():
    # n >= K points from a few directions, repeats included, K up to n
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dirs = unit_rows(rng.standard_normal((int(rng.integers(1, 4)), 3)))
        n = int(rng.integers(2, 12))
        x = dirs[rng.integers(0, len(dirs), size=n)]
        k = int(rng.integers(1, n + 1))
        for r in range(KMEANS_RESTARTS):
            assign, means, _ = _kmeans_once(x, k, np.random.default_rng(seed + r))
            assert np.bincount(assign, minlength=k).min() >= 1, (seed, r)
            assert np.allclose(np.linalg.norm(means, axis=1), 1.0)


# --- document assignment ---


def slot_array(z_term, term_arr, n_slots):
    """z_term (term id -> slot) as one slot per position of term_arr,
    n_slots for a term without one."""
    pos = {int(t): i for i, t in enumerate(term_arr)}
    z = np.full(len(term_arr), n_slots, dtype=np.int64)
    for t, s in z_term.items():
        z[pos[t]] = s
    return z


def full_stats(corpus, doc_ids):
    """The term statistics of the documents doc_ids over every term, so
    that a nonzero's pos is its term id."""
    return compute_term_stats(corpus, doc_ids, range(corpus.num_terms))


def vote(z_term, stats, n_slots):
    """assign_documents on stats, as doc id -> slot for the assigned
    documents in ascending id order. z_term maps terms of stats.term_arr
    to slots."""
    slots = assign_documents(stats, slot_array(z_term, stats.term_arr, n_slots),
                             n_slots)
    keep = slots < n_slots
    return dict(zip(stats.doc_ids[keep].tolist(), slots[keep].tolist()))


def subcorpora_of(z_doc, n_slots):
    """Each slot's documents, in z_doc's order: the oracles' input."""
    subs = [[] for _ in range(n_slots)]
    for d, s in z_doc.items():
        subs[s].append(d)
    return subs


def slots_of(stats, z_doc, n_slots):
    """The slot of each document of stats, n_slots for one z_doc leaves out."""
    return np.array([z_doc.get(d, n_slots) for d in stats.doc_ids.tolist()],
                    dtype=np.int64)


def make_doc_fixture(seed, n_docs=30, n_terms=20):
    rng = np.random.default_rng(seed)
    lines = [" ".join(f"t{int(i)}" for i in rng.integers(0, n_terms,
                                                         rng.integers(2, 10)))
             for _ in range(n_docs)]
    corpus = corpus_from_lines(lines)
    stats = full_stats(corpus, range(corpus.num_docs))
    z_term = {t: int(rng.integers(0, 3)) for t in
              rng.choice(corpus.num_terms, size=corpus.num_terms // 2,
                         replace=False)}
    return corpus, stats, z_term


def test_assign_documents_single_cluster_doc():
    corpus = corpus_from_lines(["a b\n", "c c\n"])
    stats = full_stats(corpus, [0, 1])
    z_term = {0: 1, 1: 1}  # a, b -> slot 1; c unclustered
    z_doc = vote(z_term, stats, 2)
    assert z_doc.get(0) == 1
    assert 1 not in z_doc  # [TRIVIAL] no clustered terms -> unassigned
    # n_slots itself marks a term with no slot
    assert assign_documents(stats, np.array([2, 2, 0]), 2).tolist() == [2, 0]


def test_assign_documents_matches_bruteforce():
    # [DERIVED] naive triple-loop oracle on 100 random fixtures
    for seed in range(100):
        corpus, stats, z_term = make_doc_fixture(seed)
        idf = loop_idf(corpus, range(corpus.num_docs))
        z_doc = vote(z_term, stats, 3)
        documents = corpus.documents
        for d in range(corpus.num_docs):
            # the sum over unique terms of tf * idf
            weights = [0.0, 0.0, 0.0]
            for t in set(documents[d].tokens.tolist()):
                if t in z_term:
                    weights[z_term[t]] += tf(corpus, t, d) * idf[t]
            if max(weights) <= 0.0:
                assert d not in z_doc
            else:
                assert z_doc[d] == int(np.argmax(weights))


def test_assign_documents_scale_invariant():
    corpus, stats, z_term = make_doc_fixture(7)
    z1 = vote(z_term, stats, 3)
    stats.vote *= 2.0  # same positive factor (exact in floating point)
    z2 = vote(z_term, stats, 3)
    assert z1 == z2


def loop_idf(corpus, doc_ids):
    """Oracle: log(n / df) of every term over the n documents doc_ids, 0
    for a term none of them holds; df counted one document at a time."""
    df = np.zeros(corpus.num_terms, dtype=np.int64)
    documents = corpus.documents
    for d in doc_ids:
        for t in set(documents[d].tokens.tolist()):
            df[t] += 1
    idf = np.zeros(corpus.num_terms)
    present = df > 0
    idf[present] = np.log(len(doc_ids) / df[present])
    return idf


def loop_assign_documents(z_term, corpus, doc_ids, n_slots, idf=None):
    """Oracle: the tf-idf vote, one of the documents doc_ids at a time,
    with idf over doc_ids unless one is given."""
    z_doc = {}
    if not z_term:
        return z_doc
    if idf is None:
        idf = loop_idf(corpus, doc_ids)
    max_term = max(z_term) + 1
    slot_arr = np.full(max_term, -1, dtype=np.int64)
    for t, s in z_term.items():
        slot_arr[t] = s
    documents = corpus.documents
    for d in sorted(doc_ids):
        cols, vals = np.unique(documents[d].tokens, return_counts=True)
        ok = cols < max_term
        cols, vals = cols[ok], vals[ok]
        slots = slot_arr[cols]
        valid = slots >= 0
        if not valid.any():
            continue
        scores = np.bincount(slots[valid], weights=vals[valid] * idf[cols[valid]],
                             minlength=n_slots)
        if scores.max() <= 0.0:
            continue
        z_doc[int(d)] = int(scores.argmax())
    return z_doc


def loop_bm25_matrix(term_arr, subcorpora, corpus, doc_ids, k1, b):
    """Oracle: BM25 and occurrence sums, one (document, term) at a time,
    with idf and the mean document length over the documents doc_ids."""
    idf = loop_idf(corpus, doc_ids)
    documents = corpus.documents
    avg_len = sum(documents[d].tokens.size for d in doc_ids) / len(doc_ids)
    out = np.zeros((len(term_arr), len(subcorpora)))
    tf_out = np.zeros_like(out)
    col_of = {int(t): i for i, t in enumerate(term_arr)}
    for s, docs in enumerate(subcorpora):
        for d in docs:
            cols, vals = np.unique(documents[d].tokens, return_counts=True)
            dl = documents[d].tokens.size
            denom = vals + k1 * (1.0 - b + b * dl / avg_len)
            contrib = idf[cols] * vals * (k1 + 1.0) / denom
            for c, n, v in zip(cols, vals, contrib):
                i = col_of.get(int(c))
                if i is not None:
                    out[i, s] += v
                    tf_out[i, s] += n
    return out, tf_out


def loop_rep_matrix(term_arr, subcorpora, corpus, doc_ids, k1, b):
    """Oracle: representativeness with the popularity taken slot by slot."""
    from scipy.special import logsumexp
    term_arr = np.asarray(term_arr)
    bm25, tf_cells = loop_bm25_matrix(term_arr, subcorpora, corpus, doc_ids, k1, b)
    log_denom = np.logaddexp(0.0, logsumexp(bm25, axis=1))
    dis = np.exp(bm25 - log_denom[:, None])
    pop = np.zeros_like(bm25)
    for s in range(len(subcorpora)):
        total = tf_cells[:, s].sum()
        if total <= 1:
            continue
        pop[:, s] = np.log(tf_cells[:, s] + 1.0) / np.log(total)
    integ = corpus.integrity[term_arr][:, None]
    return np.cbrt(integ * dis * pop)


def vote_cases(seed):
    """(corpus, doc_ids, z_term, n_slots) variants of one doc fixture: a
    document subset, an empty slot, idf-0 terms, no slots."""
    corpus, _, z_term = make_doc_fixture(seed)
    rng = np.random.default_rng(seed + 500)
    every = range(corpus.num_docs)
    yield corpus, every, z_term, 3
    yield corpus, every, z_term, 4          # slot 3 empty
    yield corpus, every, {}, 0              # n_slots == 0
    subset = rng.choice(corpus.num_docs, size=12, replace=False).tolist()
    yield corpus, sorted(subset), z_term, 3   # a document subset
    # five terms appended to every document: each has idf 0
    common = " ".join(corpus.vocab[t] for t in
                      rng.choice(corpus.num_terms, size=5, replace=False))
    zeroed = corpus_from_lines(
        [" ".join(corpus.vocab[t] for t in doc.tokens.tolist()) + " " + common
         for doc in corpus.documents])
    yield zeroed, every, z_term, 3          # idf-0 terms
    yield corpus, [int(subset[0])], z_term, 3   # one document: every idf is 0


def test_assign_documents_bit_equal_to_loop():
    n_unassigned = n_outside = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 900)
        for corpus, doc_ids, z_term, n_slots in vote_cases(seed):
            # the stats also hold terms without a slot, and leave some out
            n_terms = corpus.num_terms
            extra = rng.choice(n_terms, size=n_terms // 3, replace=False)
            term_arr = sorted(set(z_term) | set(extra.tolist()))
            stats = compute_term_stats(corpus, doc_ids, term_arr)
            got = vote(z_term, stats, n_slots)
            want = loop_assign_documents(z_term, corpus, doc_ids, n_slots)
            assert list(got.items()) == list(want.items())
            n_unassigned += len(stats.doc_ids) - len(got)
            n_outside += n_terms - len(term_arr)
    # docs with no clustered term (or only idf-0 ones) occur and stay out
    assert n_unassigned > 0
    assert n_outside > 0


def test_assign_documents_sums_in_term_order():
    # slot 0 sums 0.1, 0.2, 0.3 in term-id order to 0.6000000000000001 and
    # ties slot 1, so the lowest slot wins; summed in any other order it
    # is 0.6 and slot 1 would win
    corpus = corpus_from_lines(["a b c d\n", "e\n"])
    stats = full_stats(corpus, [0, 1])
    idf = np.array([0.1, 0.2, 0.3, (0.1 + 0.2) + 0.3, 0.0])
    stats.vote[:] = stats.count * idf[stats.pos]
    z_term = {0: 0, 1: 0, 2: 0, 3: 1}
    assert 0.1 + (0.2 + 0.3) < idf[3]
    assert vote(z_term, stats, 2) == {0: 0}
    assert loop_assign_documents(z_term, corpus, [0, 1], 2, idf=idf) == {0: 0}


def test_bm25_and_rep_matrix_bit_equal_to_loop():
    n_unassigned = n_outside = 0
    for seed in range(100):
        for corpus, doc_ids, z_term, n_slots in vote_cases(seed):
            corpus.integrity[:] = np.random.default_rng(seed).random(corpus.num_terms)
            z_doc = loop_assign_documents(z_term, corpus, doc_ids, n_slots)
            subcorpora = subcorpora_of(z_doc, n_slots)
            rng = np.random.default_rng(seed)
            term_arr = np.sort(rng.choice(corpus.num_terms,
                                          size=corpus.num_terms // 2 + 1,
                                          replace=False))
            stats = compute_term_stats(corpus, doc_ids, term_arr)
            doc_slot = slots_of(stats, z_doc, n_slots)
            got = _bm25_matrix(stats, doc_slot, n_slots)
            want = loop_bm25_matrix(term_arr, subcorpora, corpus, doc_ids, 1.2, 0.75)
            for g, w in zip(got, want):
                assert g.shape == (term_arr.size, n_slots)
                assert np.array_equal(g, w)
            assert np.array_equal(
                _rep_matrix(stats, doc_slot, n_slots),
                loop_rep_matrix(term_arr, subcorpora, corpus, doc_ids, 1.2, 0.75))
            # the stats hold the nonzeros of term_arr's terms only
            assert np.all(stats.pos < term_arr.size)
            n_unassigned += int((doc_slot == n_slots).sum())
            n_outside += int(np.isin(full_stats(corpus, doc_ids).pos, term_arr,
                                     invert=True).sum())
    # unassigned documents and nonzeros of terms outside term_arr occur
    assert n_unassigned > 0 and n_outside > 0


def logsumexp_cases():
    """2-D arrays for the log-sum-exp check: random, tied maxima,
    constant rows, one column, no column, and entries whose exp overflows."""
    rng = np.random.default_rng(11)
    for shape in ((1, 1), (3, 2), (7, 5), (40, 9), (200, 33)):
        yield rng.normal(scale=3.0, size=shape)
        yield rng.random(shape) * 20.0
    # small integers: most rows tie their max two or more times
    yield rng.integers(0, 3, size=(50, 6)).astype(np.float64)
    yield np.array([[2.5, 2.5, 1.0, 2.5], [-1.0, 0.0, 0.0, -3.0]])
    yield np.full((4, 6), 3.7)                   # all-equal rows
    yield np.zeros((5, 3))                       # all-zero rows
    yield rng.normal(size=(6, 1))                # one column
    yield np.zeros((4, 0))                       # no column
    yield np.zeros((0, 3))                       # no row
    # exp overflows above 709 without the shift by the row max
    yield np.array([[710.0, 720.0, 800.0], [1000.0, 1000.0, 999.0],
                    [709.5, -5.0, 750.25]])
    yield 700.0 + rng.random((20, 4)) * 100.0


def test_logsumexp_rows_bit_equal_to_scipy():
    from scipy.special import logsumexp
    for a in logsumexp_cases():
        got = _logsumexp_rows(a)
        assert got.shape == (a.shape[0],)
        assert np.array_equal(got, logsumexp(a, axis=1)), a


def test_bm25_matrix_sums_documents_in_ascending_id_order():
    # one term in three documents of one slot, with contributions 0.1, 0.2
    # and 0.3 in id order: (0.1 + 0.2) + 0.3 is 0.6000000000000001, the
    # descending sum (0.3 + 0.2) + 0.1 is 0.6
    corpus = corpus_from_lines(["a\n", "a\n", "a\n", "b\n"])
    stats = compute_term_stats(corpus, [0, 1, 2], [0])
    assert stats.doc_ids.tolist() == [0, 1, 2]
    stats.bm25[:] = [0.1, 0.2, 0.3]
    bm25, tf_cells = _bm25_matrix(stats, np.zeros(3, dtype=np.int64), 1)
    assert bm25[0, 0] == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert tf_cells[0, 0] == 3.0


def test_term_stats_read_every_document_of_the_subset():
    corpus = corpus_from_lines(["a b\n", "c d\n", "a c c e\n"])
    corpus.integrity[:] = [0.5, 0.25, 1.0, 0.75, 0.125]
    stats = compute_term_stats(corpus, [0, 2], [0, 1, 4])
    assert stats.doc_ids.tolist() == [0, 2]
    # "c" is not a node term: its nonzero is left out
    assert stats.row.tolist() == [0, 0, 1, 1]
    assert stats.pos.tolist() == [0, 1, 0, 2]
    # BM25 still normalises by the whole document's length: 4 tokens in
    # document 2, against a mean of 3
    log2 = np.log(2.0)
    assert stats.bm25.tolist() == pytest.approx(
        [0.0, log2 * 2.2 / (1.0 + 1.2 * (0.25 + 0.75 * 2 / 3)),
         0.0, log2 * 2.2 / (1.0 + 1.2 * (0.25 + 0.75 * 4 / 3))])
    # one integrity score per node term
    assert stats.integrity.tolist() == [0.5, 0.25, 0.125]
    tf_cells = _bm25_matrix(stats, np.zeros(2, dtype=np.int64), 1)[1]
    assert tf_cells.tolist() == [[2.0], [1.0], [1.0]]


# --- BM25 ---


def bm25_score(t, subcorpus, stats):
    """BM25 relevance of term t to one set of the stats' documents: one
    cell of the pipeline's _bm25_matrix."""
    slots = slots_of(stats, dict.fromkeys(subcorpus, 0), 1)
    bm25 = _bm25_matrix(stats, slots, 1)[0]
    return float(bm25[stats.term_arr.tolist().index(t), 0])


def reference_bm25(t, subcorpus, corpus, doc_ids, k1, b):
    """BM25 of term t over subcorpus, with idf and the mean document
    length over the documents doc_ids, from the documents' tokens."""
    documents = corpus.documents
    docs = [documents[d].tokens.tolist() for d in doc_ids]
    df = sum(t in tokens for tokens in docs)
    idf = np.log(len(docs) / df) if df else 0.0
    avg_dl = sum(len(tokens) for tokens in docs) / len(docs)
    total = 0.0
    for d in subcorpus:
        tf = documents[d].tokens.tolist().count(t)
        if tf == 0:
            continue
        dl = documents[d].tokens.size
        total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avg_dl))
    return total


def test_bm25_absent_term_zero():
    corpus = corpus_from_lines(["a b\n", "c d\n"])
    stats = full_stats(corpus, [0, 1])
    assert bm25_score(corpus.index["a"], [1], stats) == 0.0


def test_bm25_matches_reference_100_fixtures():
    # [DERIVED] independent straightforward implementation, <= 1e-9
    for seed in range(100):
        corpus, stats, _ = make_doc_fixture(seed, n_docs=15, n_terms=12)
        rng = np.random.default_rng(seed + 1000)
        sub = rng.choice(corpus.num_docs, size=6, replace=False).tolist()
        t = int(rng.integers(0, corpus.num_terms))
        got = bm25_score(t, sub, stats)
        want = reference_bm25(t, sub, corpus, range(corpus.num_docs), 1.2, 0.75)
        assert got == pytest.approx(want, abs=1e-9)


# --- representativeness and significance ---


def representativeness(t, s, z_doc, stats, n_slots):
    """Representativeness of term t in slot s: one cell of _rep_matrix."""
    rep = _rep_matrix(stats, slots_of(stats, z_doc, n_slots), n_slots)
    return float(rep[stats.term_arr.tolist().index(int(t)), s])


def test_rep_absent_term_zero():
    # [TRIVIAL] t absent from D_s -> pop = 0 -> rep = 0
    corpus = corpus_from_lines(["a a b\n", "c c d\n"])
    stats = full_stats(corpus, [0, 1])
    z_doc = {0: 0, 1: 1}
    c_id = corpus.index["c"]
    assert representativeness(c_id, 0, z_doc, stats, 2) == 0.0


def test_rep_single_subtopic_dis_half():
    # [DERIVED] single sub-topic, BM25(t)=0 -> dis = 1/(1+1) = 0.5
    corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    stats = full_stats(corpus, [0, 1])
    z_doc = {0: 0, 1: 0}
    a_id = corpus.index["a"]
    # df(a)=2 over 2 docs -> idf=0 -> BM25=0 for every term
    got = representativeness(a_id, 0, z_doc, stats, 1)
    total = 6  # all term occurrences in the sub-corpus
    pop = np.log(3 + 1) / np.log(total)
    assert got == pytest.approx((1.0 * 0.5 * pop) ** (1 / 3), rel=1e-9)


def test_rep_uses_integrity():
    corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    corpus.integrity[corpus.index["a"]] = 0.125
    z_doc = {0: 0, 1: 0}
    a_id = corpus.index["a"]
    base_corpus = corpus_from_lines(["a a b\n", "a b b\n"])
    base = representativeness(a_id, 0, z_doc, full_stats(base_corpus, [0, 1]), 1)
    got = representativeness(a_id, 0, z_doc, full_stats(corpus, [0, 1]), 1)
    assert got == pytest.approx(base * 0.125 ** (1 / 3), rel=1e-9)


def test_significance_extremes_and_bruteforce():
    # [TRIVIAL] rel=1, rep=1 -> 1; rep=0 everywhere -> 0
    vecs = np.eye(3)[:2]
    means = np.eye(3)[:2]
    rep = np.array([[1.0, 0.3], [0.0, 0.0]])
    sig = significance_scores(vecs, means, rep)
    assert sig[0] == 1.0
    assert sig[1] == 0.0
    # [DERIVED] brute-force max over clusters on a random instance
    rng = np.random.default_rng(4)
    vecs = unit_rows(rng.standard_normal((20, 5)))
    means = unit_rows(rng.standard_normal((3, 5)))
    rep = rng.random((20, 3))
    sig = significance_scores(vecs, means, rep)
    for i in range(20):
        vals = [max(float(vecs[i] @ means[s]), 0.0) * rep[i, s]
                for s in range(3)]
        assert sig[i] == pytest.approx(max(vals), rel=1e-12)


def test_negative_rel_clamped():
    vecs = -np.eye(3)[:1]
    means = np.eye(3)[:1]
    rep = np.array([[0.8]])
    sig = significance_scores(vecs, means, rep)
    assert sig[0] == 0.0


# --- anchor selection ---


def anchor_sets(anchors):
    return [rows_of(a) for a in anchors]


def test_anchor_selection_thresholds():
    z_term = np.array([0, 0, 1, 1])
    scores = np.array([0.31, 0.29, 0.30, 0.05])
    anchors, warnings = select_anchor_terms(z_term, scores, 0.3, 2, [])
    assert anchor_sets(anchors) == [{0}, {2}]  # boundary 0.30 >= tau survives
    assert warnings == set()


def test_anchor_selection_extreme_taus():
    z_term = np.array([0, 0, 1])
    scores = np.array([0.4, 0.6, 0.2])
    anchors, _ = select_anchor_terms(z_term, scores, 0.0, 2, [])
    assert anchor_sets(anchors) == [{0, 1}, {2}]  # [TRIVIAL] no filtering
    anchors, warnings = select_anchor_terms(z_term, scores, 1.0, 2, [1, 2])
    assert anchor_sets(anchors) == [{1}, {2}]  # centers retained
    assert warnings == {0, 1}


def test_anchor_center_always_retained():
    z_term = np.array([0, 0])
    scores = np.array([0.9, 0.1])
    anchors, warnings = select_anchor_terms(z_term, scores, 0.3, 1, [1])
    assert anchor_sets(anchors) == [{0, 1}]
    assert warnings == set()  # slot has a non-center anchor too


def test_anchor_center_in_a_second_slot():
    # row 0, the center of known slot 0, sits in slot 1 and passes tau: it
    # anchors both slots, and counts as a non-center anchor of slot 1 only
    z_term = np.array([1, 0, 1, 1])
    scores = np.array([0.9, 0.1, 0.1, 0.1])
    anchors, warnings = select_anchor_terms(z_term, scores, 0.3, 2, [0, 2])
    assert anchor_sets(anchors) == [{0}, {0, 2}]
    assert warnings == {0}


# --- K* selection ---


def test_kstar_stdev_prefers_balanced_fixture():
    # [DERIVED] spec example: known kappas {50, 52}; novel {51} vs {10, 90}
    known = np.array([50.0, 52.0])
    assert np.std(np.r_[known, [51.0]]) == pytest.approx(0.8165, abs=1e-4)
    assert np.std(np.r_[known, [10.0, 90.0]]) == pytest.approx(28.2975, abs=1e-4)
    # the K*=1 candidate has the smaller stdev
    assert np.std(np.r_[known, [51.0]]) < np.std(np.r_[known, [10.0, 90.0]])


def _planted_node(seed=0, n_known=2, n_novel=2, kappa=60.0, per=30):
    """Space with n_known known and n_novel planted novel bundles, and
    its term statistics over every document of a corpus drawn from them."""
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
    order = [corpus.index[f"w{i}"] for i in range(n_terms)]
    target_by_vocab = np.empty_like(target)
    target_by_vocab[np.argsort(np.argsort(order))] = target  # keep aligned
    target2 = np.empty_like(target)
    for i in range(n_terms):
        target2[corpus.index[f"w{i}"]] = target[i]
    labels = {corpus.index[f"w{i}"]: i // per for i in range(n_terms)}
    # a known group's center is its lowest term id, which is its row, and
    # its only keyword, as for a leaf sub-topic
    centers = [min(t for t, lab in labels.items() if lab == g)
               for g in range(n_known)]
    sp = EmbeddingSpace(
        term_ids=np.arange(n_terms), row_of=np.arange(n_terms, dtype=np.int32),
        params=np.vstack([target2, target2]),
        topic_order=list(range(n_known)), topic_vecs=means[:n_known].copy(),
        topic_kappa=np.full(n_known, kappa), center_rows=centers,
        keyword_rows=[[c] for c in centers])
    stats = compute_term_stats(corpus, range(corpus.num_docs), sp.term_ids)
    return sp, stats, labels


def _known_slots(labels, n_known=2):
    """Slot of each row of _planted_node's space: its group if known, -1
    (novel) otherwise."""
    z = np.full(len(labels), -1, dtype=np.int64)
    for t, g in labels.items():
        if g < n_known:
            z[t] = g
    return z


def test_select_novel_k_recovers_two_planted_clusters(monkeypatch):
    # [DERIVED] 2 known + 2 planted novel bundles of matched concentration
    sp, stats, labels = _planted_node()
    monkeypatch.setattr(clustering, "TAU_SIG", 0.0)
    res = select_novel_k(_known_slots(labels), sp, stats, 0, set())
    assert res.k_star == 2
    assert len(res.novel) == 2
    assert len(res.known) == 2


def test_select_novel_k_empty_novel_returns_zero():
    sp, stats, labels = _planted_node()
    z_known = assign_known_terms(sp, np.arange(len(labels)))
    res = select_novel_k(z_known, sp, stats, 0, set())
    assert res.k_star == 0 and res.novel == []
    assert len(res.known) == 2


def test_select_novel_k_capped_by_novel_count(monkeypatch):
    sp, stats, labels = _planted_node()
    z_known = assign_known_terms(sp, np.arange(len(labels)))
    z_known[[t for t, g in labels.items() if g >= 2][:3]] = -1
    monkeypatch.setattr(clustering, "TAU_SIG", 0.0)
    monkeypatch.setattr(clustering, "K_STAR_MAX", 5)
    res = select_novel_k(z_known, sp, stats, 0, set())
    assert 1 <= res.k_star <= 3


@pytest.mark.parametrize("n_known", [0, 1])
def test_cluster_node_needs_two_known_topics(n_known, monkeypatch):
    # the known/novel split is defined from K_c = 2 on; the pipeline
    # expands no node with fewer known sub-topics
    sp, stats, _ = _planted_node(n_known=n_known, n_novel=3)
    monkeypatch.setattr(clustering, "TAU_SIG", 0.0)
    with pytest.raises(ValueError, match="at least 2 known sub-topics"):
        cluster_node(sp, stats, 1.5, seed=0, named=set())


def assert_ranked(terms, sig):
    """terms run by significance descending, ties by id ascending."""
    for a, b in zip(terms[:-1], terms[1:]):
        assert sig[a] > sig[b] or (sig[a] == sig[b] and a < b)


def test_cluster_node_invariants(monkeypatch):
    sp, stats, labels = _planted_node()
    monkeypatch.setattr(clustering, "TAU_SIG", 0.2)
    res = cluster_node(sp, stats, 1.5, seed=0, named=set())
    sig = dict(zip(sp.term_ids.tolist(), res.sig_scores.tolist()))
    centers = sp.term_ids[sp.center_rows].tolist()
    # every term has a slot; exactly the novel terms sit in novel slots
    assert res.z_term.size == len(labels)
    assert 0 <= res.z_term.min() <= res.z_term.max() < 2 + res.k_star
    assert sp.term_ids[res.z_term >= 2].tolist() == res.novel_terms.tolist()
    # every emitted term passes tau_sig except retained centers
    assert len(res.known) == 2
    for s, (key, terms, docs, kappa) in enumerate(res.known):
        assert key == sp.topic_order[s]
        assert centers[s] in terms.tolist()
        for t in terms.tolist():
            if t != centers[s]:
                assert sig[t] >= clustering.TAU_SIG
        assert_ranked(terms.tolist(), sig)
        assert np.all(np.diff(docs) > 0) and kappa >= 0.0
    assert res.novel
    for center, terms, docs, kappa in res.novel:
        assert center in terms.tolist()
        for t in terms.tolist():
            assert sig[t] >= clustering.TAU_SIG
            assert t not in centers   # sub-tree keywords stay with their topic
        assert_ranked(terms.tolist(), sig)
        assert docs.size and kappa >= 0.0


# --- what each child inherits ---


def _hand_built_node():
    """(space, anchors, sig, docs, kappas, means): rows 0..12 hold terms
    100..112; known topics "a" (center row 0, sub-tree keyword row 1) and
    "b" (center row 2, keyword row 3); slots 2..5 are novel."""
    target = np.tile(np.eye(4)[1], (13, 1))
    target[3] = [1.0, 0.0, 0.0, 0.0]       # slot 3's nearest anchor
    target[8] = unit_rows(np.array([0.9, 0.3, 0.0, 0.0]))
    target[7] = unit_rows(np.array([0.5, 0.5, 0.0, 0.0]))
    target[6] = unit_rows(np.array([0.1, 0.9, 0.0, 0.0]))
    target[10] = np.eye(4)[2]              # slot 2's nearest anchor
    row_of = np.full(113, -1, dtype=np.int32)
    row_of[100:] = np.arange(13)
    space = EmbeddingSpace(
        term_ids=np.arange(13) + 100, row_of=row_of,
        params=np.vstack([target, target]),
        topic_order=["a", "b"], topic_vecs=np.eye(4)[:2], topic_kappa=np.ones(2),
        center_rows=[0, 2], keyword_rows=[[0, 1], [2, 3]])
    anchors = np.zeros((6, 13), dtype=bool)
    for s, rows in enumerate([[0, 4], [1, 2, 5], [9, 10, 11], [3, 6, 7, 8],
                              [1], [12]]):
        anchors[s, rows] = True
    sig = np.full(13, 0.5)
    sig[[1, 4, 7, 11]] = 0.7
    sig[0] = 0.2
    docs = [np.array(d, dtype=np.int64) for d in
            [[0, 1], [2], [3], [4, 5], [6], []]]
    means = np.array([np.eye(4)[2], np.eye(4)[0], np.eye(4)[3], np.eye(4)[3]])
    return space, anchors, sig, docs, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], means


def _plain(children):
    return [(c, t.tolist(), d.tolist(), k) for c, t, d, k in children]


def test_child_split_hand_built_node():
    known, novel = child_split(*_hand_built_node(), set())
    assert _plain(known) == [
        # "a" gets back its keyword 101, which slot 1 anchored; ties by id
        ("a", [101, 104, 100], [0, 1], 1.0),
        # "b" loses 101 and keeps its own keyword 103, anchored by slot 3
        ("b", [102, 103, 105], [2], 2.0),
    ]
    assert _plain(novel) == [
        # slot 3 comes first: 4 anchors before its keyword leaves, to slot
        # 2's 3; its nearest anchor, 103, is a keyword, so the center is
        # its lowest remaining id, not the next nearest (108)
        (106, [107, 106, 108], [4, 5], 4.0),
        (110, [111, 109, 110], [3], 3.0),
        # slot 4 (keywords only) and slot 5 (no documents) are dropped
    ]
    # the known centers name nodes too, but no novel slot holds them
    assert _plain(child_split(*_hand_built_node(), {100, 102})[1]) == _plain(novel)


def test_child_split_novel_center_names_no_node():
    # slot 3's center 106 names a node, and so does 108, its term nearest
    # the mean (e0): the center becomes 107; every term of slot 2 names a
    # node, so slot 2 is dropped
    known, novel = child_split(*_hand_built_node(), {106, 108, 109, 110, 111})
    assert _plain(known) == _plain(child_split(*_hand_built_node(), set())[0])
    assert _plain(novel) == [(107, [107, 106, 108], [4, 5], 4.0)]
    # only 106 named: the center is 108, the nearer of 107 and 108
    _, novel = child_split(*_hand_built_node(), {106})
    assert [c for c, *_ in novel] == [108, 110]


def test_assign_known_terms_takes_the_product_over_the_rows():
    # rows on which the two known topics tie in exact arithmetic (s1
    # permutes s0; each row is the unit sum s0 + s1): the last bit decides
    # the argmax, and a product over the rows themselves can round
    # differently from the same rows of the full product
    for seed in range(50):
        rng = np.random.default_rng(seed)
        s0 = unit_rows(rng.standard_normal(50))
        topic_vecs = np.stack([s0, s0[rng.permutation(50)]])
        target = unit_rows(rng.standard_normal((40, 50)))
        rows = np.arange(0, 40, 3)
        target[rows] = unit_rows(topic_vecs.sum(axis=0))
        want = (target[rows] @ topic_vecs.T).argmax(axis=1)
        if not np.array_equal(want, (target @ topic_vecs.T)[rows].argmax(axis=1)):
            break
    else:
        pytest.fail("no case tells the two products apart")
    got = assign_known_terms(space_with(target, topic_vecs), rows)
    assert np.array_equal(got, want)


def test_child_split_novel_center_takes_the_product_over_the_anchor_rows():
    # two anchors of a novel slot hold the same vector, the one closest to
    # the mean: the last bit decides the center, and a product over the
    # anchor rows themselves can round differently from the same rows of
    # the full product
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mean = unit_rows(rng.standard_normal(50))
        target = unit_rows(rng.standard_normal((20, 50)) - 2.0 * mean)
        pool = np.arange(1, 20, 2)
        target[[pool[0], pool[-1]]] = unit_rows(mean + 0.2 * rng.standard_normal(50))
        want = int(pool[np.argmax(target[pool] @ mean)])
        if want != pool[np.argmax((target @ mean)[pool])]:
            break
    else:
        pytest.fail("no case tells the two products apart")
    anchors = np.zeros((1, 20), dtype=bool)
    anchors[0, pool] = True
    _, novel = child_split(space_with(target, np.zeros((0, 50))), anchors,
                           np.zeros(20), [np.array([0])], [1.0], mean[None], set())
    assert novel[0][0] == want
