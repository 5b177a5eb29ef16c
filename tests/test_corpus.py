"""Corpus loading, term statistics, and context-pair extraction."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import taxoforge.corpus as corpus_mod
from taxoforge.corpus import (
    Document,
    compute_term_stats,
    context_pair_arrays,
    corpus_from_lines,
    load_corpus,
)
from taxoforge.embedding import BATCH_SIZE, _pair_rows
from taxoforge.evaluation import PlantedCorpusSpec, _corpus_lines, generate_synthetic_corpus
from taxoforge.pipeline import PipelineConfig


def tf(corpus, term_id, doc_id):
    """Count of a term in one document, read from its tokens."""
    return corpus.doc_tokens([doc_id])[0].tolist().count(term_id)


def per_document_counts(corpus, doc_ids):
    """Oracle: the subset count matrix built one document at a time."""
    rows, cols, vals = [], [], []
    documents = corpus.documents
    for r, d in enumerate(doc_ids):
        uniq, cnt = np.unique(documents[d].tokens, return_counts=True)
        rows.append(np.full(uniq.size, r, dtype=np.int64))
        cols.append(uniq)
        vals.append(cnt)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(doc_ids), corpus.num_terms), dtype=np.float64)


def per_document_postings(corpus):
    """Oracle: term -> sorted ids of the documents containing it."""
    postings = [[] for _ in corpus.vocab]
    for d, doc in enumerate(corpus.documents):
        for t in np.unique(doc.tokens):
            postings[t].append(d)
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
    with pytest.raises(ValueError, match="no non-empty documents"):
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


@pytest.mark.parametrize("line,message", [
    ("b", "line 2: expected term<TAB>score"),
    ("b\t0.5\textra", "line 2: expected term<TAB>score"),
    ("b\thigh", "line 2: score 'high' is not a number"),
    ("b\tnan", "line 2: score nan is not in [0, 1]"),
    ("b\t-3", "line 2: score -3.0 is not in [0, 1]"),
    ("b\t1.5", "line 2: score 1.5 is not in [0, 1]"),
])
def test_integrity_file_bad_line_names_file_and_line(tmp_path, line, message):
    s = tmp_path / "s.txt"
    s.write_text(f"a\t1.0\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{s} {message}")):
        corpus_from_lines(["a b c\n"], integrity_path=s)


def test_integrity_file_repeated_term_names_term_and_lines(tmp_path):
    # the last score used to win: b would have loaded 0.9
    s = tmp_path / "s.txt"
    s.write_text("b\t0.2\na\t1.0\nb\t0.9\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{s} line 3: term 'b' repeats the term of line 1")):
        corpus_from_lines(["a b c\n"], integrity_path=s)


def test_vocab_round_trip():
    corpus = corpus_from_lines(["x y z y\n", "w x\n"])
    for tid, term in enumerate(corpus.vocab):
        assert corpus.index[term] == tid
        assert corpus.vocab[tid] == term


def setdefault_loader(lines):
    """Oracle: (vocab, token ids per document) assigned one token at a time."""
    index = {}
    documents = []
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        documents.append([index.setdefault(tok, len(index)) for tok in tokens])
    return list(index), documents


def assert_token_store(corpus, documents):
    """corpus holds the listed documents' token ids end to end, flat."""
    assert corpus.tokens.dtype == np.int32 and corpus.offsets.dtype == np.int64
    assert corpus.tokens.tolist() == [t for doc in documents for t in doc]
    assert corpus.offsets.tolist() == np.cumsum([0] + [len(d) for d in documents]).tolist()
    assert corpus.num_docs == len(documents)


def assert_loads_as_oracle(lines):
    corpus = corpus_from_lines(lines)
    vocab, documents = setdefault_loader(lines)
    assert corpus.vocab == vocab
    assert corpus.index == {t: i for i, t in enumerate(vocab)}
    assert type(corpus.index) is dict
    assert_token_store(corpus, documents)


@pytest.mark.parametrize("lines", [
    ["a b a\r\n", "b c\r\n", "c\r\n"],                 # CRLF endings
    ["a\tb\u00a0c\n", "c\u3000a  b\n", "\td\u00a0\n"],  # other spaces
    ["a b\n", "   \n", "\t\u3000\u00a0\r\n", "\n", "b c"],  # blank lines
    ["x x x y x\n", "y y\n", "z x y z\n"],              # repeats
])
def test_loader_matches_setdefault_oracle(lines):
    assert_loads_as_oracle(lines)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab c\t\u00a0\u3000\r\n", max_size=12),
                min_size=1, max_size=8))
def test_loader_matches_setdefault_oracle_random(lines):
    if not any(line.split() for line in lines):
        return
    assert_loads_as_oracle(lines)


def test_loader_retains_under_six_bytes_per_token():
    # the flat int32 store (4 B a token), 8 B of offsets a document and the
    # vocabulary: about 5 B a token on 60-token documents. Per-document
    # int64 arrays, each in its own object, retain about 12
    lines = _corpus_lines(generate_synthetic_corpus(PlantedCorpusSpec(seed=1))[0])
    n_tokens = sum(len(line.split()) for line in lines)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        corpus = corpus_from_lines(lines)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert corpus.num_docs == len(lines)
    assert retained < 6 * n_tokens


def test_unseen_term_id_raises_and_adds_nothing():
    corpus = corpus_from_lines(["a b\n", "b c\n"])
    with pytest.raises(KeyError):
        corpus.index["unseen"]
    assert corpus.num_terms == 3
    assert "unseen" not in corpus.index


def test_crlf_file_loads_as_lf_file(tmp_path):
    text = "a b a\n\nb\tc d\n  \nd a\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    want, got = load_corpus(lf), load_corpus(crlf)
    assert got.vocab == want.vocab and got.index == want.index
    assert want.num_docs == 3
    assert_token_store(got, [doc.tokens.tolist() for doc in want.documents])


def test_token_array_lays_documents_end_to_end():
    for seed in range(20):
        corpus, rng = random_corpus(seed)
        tokens, offsets = corpus.tokens, corpus.offsets
        assert tokens.dtype == np.int32 and offsets.dtype == np.int64
        assert offsets[0] == 0 and offsets[-1] == tokens.size
        documents = corpus.documents
        assert len(documents) == corpus.num_docs
        for d, doc in enumerate(documents):
            # a view of the flat store, not a copy
            assert np.shares_memory(doc.tokens, tokens)
            assert tokens[offsets[d]:offsets[d + 1]].tolist() == doc.tokens.tolist()
        subset = sorted(rng.choice(corpus.num_docs, size=int(rng.integers(1, 60)),
                                   replace=False).tolist())
        sub_tokens, lengths = corpus.doc_tokens(subset)
        assert sub_tokens.dtype == np.int32
        assert lengths.tolist() == [documents[d].tokens.size for d in subset]
        assert sub_tokens.tolist() == [t for d in subset
                                       for t in documents[d].tokens.tolist()]
        # the counts are built from the array, which stays as it was
        before = tokens.copy()
        corpus.counts()
        assert np.array_equal(corpus.tokens, before)


def test_docs_containing_sorted():
    corpus = corpus_from_lines(["a b\n", "b c\n", "a a\n"])
    assert corpus.docs_containing(corpus.index["a"]).tolist() == [0, 2]
    assert corpus.docs_containing(corpus.index["b"]).tolist() == [0, 1]


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
    # [TRIVIAL] on "a b a" / "b c": idf(a) = idf(c) = log(2/1), idf(b) = 0;
    # document lengths 3 and 2, mean 2.5
    corpus = corpus_from_lines(["a b a\n", "b c\n"])
    stats = compute_term_stats(corpus, [0, 1], [0, 1, 2])
    assert stats.row.tolist() == [0, 0, 1, 1]
    assert stats.pos.tolist() == [0, 1, 1, 2]     # a b | b c
    assert stats.count.tolist() == [2, 1, 1, 1]
    log2 = np.log(2.0)
    assert stats.vote.tolist() == pytest.approx([2 * log2, 0.0, 0.0, log2])

    def bm25(idf, tf, dl):
        return idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / 2.5))
    assert stats.bm25.tolist() == pytest.approx(
        [bm25(log2, 2, 3), 0.0, 0.0, bm25(log2, 1, 2)])


def test_stats_single_doc_idf_zero():
    # [TRIVIAL] idf(t)=log(1/1)=0 for every term of a single-doc subset
    corpus = corpus_from_lines(["a b a\n", "b c\n"])
    stats = compute_term_stats(corpus, [0], [0, 1, 2])
    assert stats.pos.tolist() == [0, 1]
    assert stats.vote.tolist() == [0.0, 0.0]
    assert stats.bm25.tolist() == [0.0, 0.0]


def test_stats_counts_match_per_document_build():
    # the subset rows of the root matrix against the old per-document build
    for seed in range(20):
        corpus, rng = random_corpus(seed)
        subset = sorted(rng.choice(corpus.num_docs, size=int(rng.integers(1, 60)),
                                   replace=False).tolist())
        stats = compute_term_stats(corpus, subset, range(corpus.num_terms))
        want = per_document_counts(corpus, subset)
        assert stats.doc_ids.tolist() == subset
        assert np.array_equal(stats.row, np.repeat(np.arange(len(subset)),
                                                   np.diff(want.indptr)))
        # every term is a node term: a nonzero's position is its term id
        assert np.array_equal(stats.pos, want.indices)
        assert np.array_equal(stats.count, want.data)
        # fewer node terms keep only their own nonzeros, each with the
        # values it has over every term
        term_arr = np.flatnonzero(rng.random(corpus.num_terms) < 0.5)
        part = compute_term_stats(corpus, subset, term_arr)
        kept = np.isin(want.indices, term_arr)
        pos_of = {t: i for i, t in enumerate(term_arr.tolist())}
        assert part.pos.tolist() == [pos_of[t] for t in want.indices[kept].tolist()]
        assert np.all(part.pos < term_arr.size)
        for attr in ("row", "count", "vote", "bm25"):
            assert np.array_equal(getattr(part, attr), getattr(stats, attr)[kept])
        assert np.array_equal(part.integrity, corpus.integrity[term_arr])


def test_stats_match_bruteforce_recount():
    # [DERIVED] independent nested-loop counter as oracle, random 50-doc subset
    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(30)]
    lines = [" ".join(rng.choice(vocab, size=rng.integers(3, 15)))
             for _ in range(80)]
    corpus = corpus_from_lines(lines)
    subset = sorted(rng.choice(80, size=50, replace=False).tolist())
    stats = compute_term_stats(corpus, subset, range(corpus.num_terms))

    df = np.zeros(corpus.num_terms, dtype=int)
    total_len = 0
    documents = corpus.documents
    for d in subset:
        tokens = documents[d].tokens.tolist()
        total_len += len(tokens)
        for t in set(tokens):
            df[t] += 1
    avg_len = total_len / 50
    # one (count, vote, BM25) per nonzero, by document, then by term
    count, vote, bm25 = [], [], []
    for d in subset:
        tokens = documents[d].tokens.tolist()
        for t in sorted(set(tokens)):
            n = tf(corpus, t, d)
            idf = np.log(50 / df[t])
            count.append(n)
            vote.append(n * idf)
            bm25.append(idf * n * 2.2 / (n + 1.2 * (0.25 + 0.75 * len(tokens) / avg_len)))
    assert stats.count.tolist() == count
    assert stats.vote.tolist() == pytest.approx(vote, rel=1e-12)
    assert stats.bm25.tolist() == pytest.approx(bm25, rel=1e-12)


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12),
                min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_tf_sums_to_occurrences(token_lists):
    lines = [" ".join(f"w{t}" for t in doc) for doc in token_lists]
    corpus = corpus_from_lines(lines)
    stats = compute_term_stats(corpus, range(corpus.num_docs),
                               range(corpus.num_terms))
    flat = [t for doc in corpus.documents for t in doc.tokens.tolist()]
    totals = np.bincount(stats.pos, weights=stats.count, minlength=corpus.num_terms)
    for t in range(corpus.num_terms):
        assert totals[t] == flat.count(t)


# --- context pairs ---


def loop_pair_arrays(documents, window):
    """Oracle: context_pair_arrays one document and one offset at a time.

    For each document and each offset k < its length: the pairs
    (tokens[:-k], tokens[k:]), then (tokens[k:], tokens[:-k]).
    """
    t_parts, c_parts = [], []
    for doc in documents:
        tokens = doc.tokens
        for k in range(1, window + 1):
            if tokens.size <= k:
                break
            a, b = tokens[:-k], tokens[k:]
            t_parts.extend((a, b))
            c_parts.extend((b, a))
    if not t_parts:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.concatenate(t_parts), np.concatenate(c_parts)


def pair_arrays_of(documents, window):
    """context_pair_arrays on the documents' tokens laid end to end."""
    lengths = [doc.tokens.size for doc in documents]
    tokens = (np.concatenate([doc.tokens for doc in documents]) if documents
              else np.empty(0, dtype=np.int64))
    return context_pair_arrays(tokens, lengths, window)


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
    # the config rejects a window that yields no pairs, and a batch size
    # that yields no batches; the root's batch size is a constant
    with pytest.raises(ValueError, match="window"):
        PipelineConfig(window=0)
    with pytest.raises(ValueError, match="batch_size"):
        PipelineConfig(child_batch_size=0)
    assert BATCH_SIZE >= 1


@given(st.lists(st.integers(0, 6), min_size=1, max_size=20),
       st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_context_pairs_symmetric(tokens, window):
    from collections import Counter

    doc = Document(tokens=np.asarray(tokens, dtype=np.int64))
    counts = Counter(context_pairs(doc, window))
    for (a, b), n in counts.items():
        assert counts[(b, a)] == n


@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=15),
                min_size=1, max_size=5),
       st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_pair_arrays_match_per_doc_pairs(token_lists, window):
    from collections import Counter

    docs = [Document(tokens=np.asarray(t, dtype=np.int64)) for t in token_lists]
    t_arr, c_arr = pair_arrays_of(docs, window)
    vector_pairs = Counter(zip(t_arr.tolist(), c_arr.tolist()))
    loop_pairs = Counter(p for d in docs for p in context_pairs(d, window))
    assert vector_pairs == loop_pairs


@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=9),
                min_size=1, max_size=8),
       st.integers(1, 6), st.sampled_from([1, 3, 7, corpus_mod.PAIR_CHUNK]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_pair_arrays_order_equals_per_doc_loop(token_lists, window, chunk, data):
    # 1-token documents, documents no longer than the window, a subset with
    # gaps, terms without a row (-1), pairs gathered over several chunks,
    # and both row dtypes of the trainer all occur
    corpus = corpus_from_lines([" ".join(f"w{t}" for t in doc)
                                for doc in token_lists])
    subset = data.draw(st.lists(st.sampled_from(range(corpus.num_docs)),
                                unique=True))
    rowless = data.draw(st.sets(st.sampled_from(range(corpus.num_terms))))
    term_ids = np.asarray([t for t in range(corpus.num_terms) if t not in rowless],
                          dtype=np.int64)
    dtype = data.draw(st.sampled_from([np.int16, np.int32]))
    vocab_to_row = np.full(corpus.num_terms, -1, dtype=dtype)
    vocab_to_row[term_ids] = np.arange(term_ids.size)
    documents = corpus.documents
    row_docs = [Document(vocab_to_row[documents[d].tokens]) for d in sorted(subset)]
    want_t, want_c = loop_pair_arrays(row_docs, window)
    tokens, lengths = corpus.doc_tokens(sorted(subset))
    with mock.patch.object(corpus_mod, "PAIR_CHUNK", chunk):
        got_t, got_c = context_pair_arrays(vocab_to_row[tokens], lengths, window)
    assert got_t.dtype == got_c.dtype == dtype
    assert got_t.tolist() == want_t.tolist()
    assert got_c.tolist() == want_c.tolist()
    # pairs touching a -1 row are kept by pairing, and dropped by
    # _pair_rows, order and dtype kept
    keep = (want_t >= 0) & (want_c >= 0)
    tr, cr = _pair_rows(corpus, sorted(subset), window, vocab_to_row)
    assert tr.dtype == cr.dtype == dtype
    assert tr.tolist() == want_t[keep].tolist()
    assert cr.tolist() == want_c[keep].tolist()


def test_pair_arrays_order_hand_example():
    # documents [a b c] and [d]; window 2: offset 1 forward then backward,
    # then offset 2; the 1-token document has none
    t_arr, c_arr = context_pair_arrays(np.array([0, 1, 2, 3]), [3, 1], 2)
    assert list(zip(t_arr.tolist(), c_arr.tolist())) == [
        (0, 1), (1, 2), (1, 0), (2, 1), (0, 2), (2, 0)]
    empty_t, empty_c = context_pair_arrays(np.array([5], dtype=np.int32), [1], 3)
    assert empty_t.size == empty_c.size == 0
