"""Corpus loading, term statistics, and context-pair extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from taxoforge.corpus import (
    Document,
    EmptyCorpusError,
    EmptyStatsError,
    UnknownDocumentError,
    compute_term_stats,
    context_pair_arrays,
    corpus_from_lines,
    load_corpus,
)
from taxoforge.embedding import EmbedConfig


def tf(stats, term_id, doc_id):
    """Count of a term in one document of the statistics' subset."""
    row = int(stats.rows([doc_id])[0])
    assert row >= 0, f"document {doc_id} is not in the subset"
    return int(stats.counts[row, term_id])


def per_document_counts(corpus, doc_ids):
    """Oracle: the subset count matrix built one document at a time."""
    rows, cols, vals = [], [], []
    for r, d in enumerate(doc_ids):
        uniq, cnt = np.unique(corpus.documents[d].tokens, return_counts=True)
        rows.append(np.full(uniq.size, r, dtype=np.int64))
        cols.append(uniq)
        vals.append(cnt)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(doc_ids), corpus.num_terms), dtype=np.float64)


def per_document_postings(corpus):
    """Oracle: term -> sorted ids of the documents containing it."""
    postings = [[] for _ in corpus.vocab]
    for doc in corpus.documents:
        for t in np.unique(doc.tokens):
            postings[t].append(doc.id)
    return [np.asarray(p, dtype=np.int64) for p in postings]


def random_corpus(seed, n_docs=60, n_terms=25):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(n_terms)]
    return corpus_from_lines([" ".join(rng.choice(vocab, size=rng.integers(1, 15)))
                              for _ in range(n_docs)]), rng


def test_load_two_docs_first_occurrence_vocab(tmp_path):
    # [TRIVIAL] direct tokenization of "a b a\nb c\n"
    p = tmp_path / "corpus.txt"
    p.write_text("a b a\nb c\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert corpus.num_docs == 2
    assert corpus.index == {"a": 0, "b": 1, "c": 2}
    assert corpus.documents[0].tokens.tolist() == [0, 1, 0]
    assert corpus.documents[1].tokens.tolist() == [1, 2]


def test_blank_lines_skipped():
    # [TRIVIAL] degenerate-input rule
    corpus = corpus_from_lines(["a b a\n", "\n", "b c\n"])
    assert corpus.num_docs == 2
    assert corpus.documents[1].tokens.tolist() == [1, 2]


def test_empty_corpus_error():
    with pytest.raises(EmptyCorpusError):
        corpus_from_lines(["\n", "  \n"])


def test_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "missing.txt")


def test_integrity_defaults_to_one():
    corpus = corpus_from_lines(["a b\n"])
    assert np.all(corpus.integrity == 1.0)


def test_integrity_file_loaded(tmp_path):
    c = tmp_path / "c.txt"
    c.write_text("a b c\n", encoding="utf-8")
    s = tmp_path / "s.txt"
    s.write_text("b\t0.25\nzzz\t0.9\n", encoding="utf-8")
    corpus = load_corpus(c, integrity_path=s)
    assert corpus.integrity.tolist() == [1.0, 0.25, 1.0]


def test_vocab_round_trip():
    corpus = corpus_from_lines(["x y z y\n", "w x\n"])
    for tid, term in enumerate(corpus.vocab):
        assert corpus.term_id(term) == tid
        assert corpus.term(tid) == term


def test_docs_containing_sorted():
    corpus = corpus_from_lines(["a b\n", "b c\n", "a a\n"])
    assert corpus.docs_containing(corpus.term_id("a")).tolist() == [0, 2]
    assert corpus.docs_containing(corpus.term_id("b")).tolist() == [0, 1]


def test_docs_containing_matches_per_document_build():
    for seed in range(20):
        corpus, _ = random_corpus(seed)
        want = per_document_postings(corpus)
        for t in range(corpus.num_terms):
            got = corpus.docs_containing(t)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[t])


# --- term statistics ---


def test_stats_hand_counts():
    # [TRIVIAL] tf(a,d0)=2, df(b)=2, idf(b)=log(2/2)=0 on "a b a" / "b c"
    corpus = corpus_from_lines(["a b a\n", "b c\n"])
    stats = compute_term_stats(corpus, {0, 1})
    a, b = corpus.term_id("a"), corpus.term_id("b")
    assert tf(stats, a, 0) == 2
    assert stats.df[b] == 2
    assert stats.idf[b] == 0.0


def test_stats_single_doc_idf_zero():
    # [TRIVIAL] idf(t)=log(1/1)=0 for every term of a single-doc subset
    corpus = corpus_from_lines(["a b a\n", "b c\n"])
    stats = compute_term_stats(corpus, {0})
    for term in ("a", "b"):
        assert stats.idf[corpus.term_id(term)] == 0.0


def test_stats_empty_subset_error():
    corpus = corpus_from_lines(["a b\n"])
    with pytest.raises(EmptyStatsError):
        compute_term_stats(corpus, set())


def test_stats_unknown_doc_id_error():
    corpus = corpus_from_lines(["a b\n", "b c\n"])
    for bad in ({0, 2}, {-1, 1}, [5]):
        with pytest.raises(UnknownDocumentError, match="outside"):
            compute_term_stats(corpus, bad)


def test_stats_counts_match_per_document_build():
    # the subset rows of the root matrix against the old per-document build
    for seed in range(20):
        corpus, rng = random_corpus(seed)
        subset = sorted(rng.choice(corpus.num_docs, size=int(rng.integers(1, 60)),
                                   replace=False).tolist())
        stats = compute_term_stats(corpus, subset)
        want = per_document_counts(corpus, subset)
        assert stats.counts.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(stats.counts, attr), getattr(want, attr))
        assert np.array_equal(stats.doc_len,
                              [corpus.documents[d].tokens.size for d in subset])
        assert stats.rows(subset).tolist() == list(range(len(subset)))


def test_stats_match_bruteforce_recount():
    # [DERIVED] independent nested-loop counter as oracle, random 50-doc subset
    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(30)]
    lines = [" ".join(rng.choice(vocab, size=rng.integers(3, 15)))
             for _ in range(80)]
    corpus = corpus_from_lines(lines)
    subset = sorted(rng.choice(80, size=50, replace=False).tolist())
    stats = compute_term_stats(corpus, subset)

    df = np.zeros(corpus.num_terms, dtype=int)
    total_len = 0
    for d in subset:
        tokens = corpus.documents[d].tokens.tolist()
        total_len += len(tokens)
        for t in set(tokens):
            df[t] += 1
        for t in range(corpus.num_terms):
            assert tf(stats, t, d) == tokens.count(t)
    assert np.array_equal(stats.df, df)
    assert stats.avg_doc_len == pytest.approx(total_len / 50)
    for t in range(corpus.num_terms):
        expected = np.log(50 / df[t]) if df[t] else 0.0
        assert stats.idf[t] == pytest.approx(expected)


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12),
                min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_tf_sums_to_occurrences(token_lists):
    lines = [" ".join(f"w{t}" for t in doc) for doc in token_lists]
    corpus = corpus_from_lines(lines)
    stats = compute_term_stats(corpus, range(corpus.num_docs))
    flat = [t for doc in corpus.documents for t in doc.tokens.tolist()]
    for t in range(corpus.num_terms):
        total = sum(tf(stats, t, d) for d in range(corpus.num_docs))
        assert total == flat.count(t)


# --- context pairs ---


def context_pairs(doc, window):
    """All (target, context) pairs within the window, both directions, one
    token at a time: the oracle for context_pair_arrays."""
    tokens = doc.tokens
    pairs = []
    n = tokens.size
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        for j in range(lo, hi):
            if j != i:
                pairs.append((int(tokens[i]), int(tokens[j])))
    return pairs


def test_single_token_no_pairs():
    corpus = corpus_from_lines(["x\n"])
    assert context_pairs(corpus.documents[0], 1) == []


def test_two_tokens_symmetric_pair():
    corpus = corpus_from_lines(["x y\n"])
    assert sorted(context_pairs(corpus.documents[0], 1)) == [(0, 1), (1, 0)]


def test_window_two_matches_bruteforce():
    # [DERIVED] exhaustive pair enumeration oracle: [a,b,c,d], window 2
    corpus = corpus_from_lines(["a b c d\n"])
    doc = corpus.documents[0]
    pairs = context_pairs(doc, 2)
    expected = []
    for i in range(4):
        for j in range(4):
            if j != i and abs(i - j) <= 2:
                expected.append((int(doc.tokens[i]), int(doc.tokens[j])))
    assert sorted(pairs) == sorted(expected)
    assert len(pairs) == 10


def test_window_below_one_rejected():
    # the trainer's config rejects a window that yields no pairs, and a
    # batch size that yields no batches
    with pytest.raises(ValueError, match="window"):
        EmbedConfig(window=0)
    with pytest.raises(ValueError, match="batch_size"):
        EmbedConfig(batch_size=0)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=20),
       st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_context_pairs_symmetric(tokens, window):
    from collections import Counter

    doc = Document(id=0, tokens=np.asarray(tokens, dtype=np.int64))
    counts = Counter(context_pairs(doc, window))
    for (a, b), n in counts.items():
        assert counts[(b, a)] == n


@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=15),
                min_size=1, max_size=5),
       st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_pair_arrays_match_per_doc_pairs(token_lists, window):
    from collections import Counter

    docs = [Document(id=i, tokens=np.asarray(t, dtype=np.int64))
            for i, t in enumerate(token_lists)]
    t_arr, c_arr = context_pair_arrays(docs, window)
    vector_pairs = Counter(zip(t_arr.tolist(), c_arr.tolist()))
    loop_pairs = Counter(p for d in docs for p in context_pairs(d, window))
    assert vector_pairs == loop_pairs
