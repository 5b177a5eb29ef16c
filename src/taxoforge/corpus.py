"""Pre-tokenized corpus loading, vocabulary, and frequency statistics."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np


# context_pair_arrays gathers this many pairs at a time
PAIR_CHUNK = 1 << 16
BM25_K1 = 1.2   # the standard BM25 term-frequency saturation
BM25_B = 0.75   # the standard BM25 document-length normalisation


@dataclass
class Document:
    tokens: np.ndarray  # term ids, in order


class Corpus:
    """Documents plus a dense term-string <-> term-id vocabulary.

    Per-term integrity scores default to 1.0 when no score file is given.
    Immutable after construction, which is what makes caching safe: the
    flat token array (``token_array``), the root count matrix (``counts``)
    and the postings (``docs_containing``) are built from all documents on
    first use and kept. None is built on load, so loading pays nothing for
    a statistic a run may not need.
    """

    def __init__(self, documents, vocab, integrity=None):
        self.documents = documents
        self.vocab = list(vocab)  # id -> string
        self.index = {t: i for i, t in enumerate(self.vocab)}
        if integrity is None:
            integrity = np.ones(len(self.vocab))
        self.integrity = np.asarray(integrity, dtype=np.float64)
        self._tokens = None
        self._counts = None
        self._postings = None

    @property
    def num_terms(self):
        return len(self.vocab)

    @property
    def num_docs(self):
        return len(self.documents)

    def token_array(self):
        """(tokens, offsets): every document's tokens end to end, built once.

        tokens is int32; document d is tokens[offsets[d]:offsets[d + 1]],
        and offsets (int64, num_docs + 1 entries) gives every length.
        """
        if self._tokens is None:
            lengths = np.fromiter((d.tokens.size for d in self.documents),
                                  dtype=np.int64, count=self.num_docs)
            offsets = np.zeros(self.num_docs + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            tokens = np.concatenate([d.tokens for d in self.documents],
                                    dtype=np.int32, casting="same_kind")
            self._tokens = (tokens, offsets)
        return self._tokens

    def doc_tokens(self, doc_ids):
        """(tokens, lengths) of the listed documents, laid end to end in
        the listed order; tokens is int32."""
        tokens, offsets = self.token_array()
        gather, lengths = _gather_ranges(offsets, doc_ids)
        return tokens[gather], lengths

    def counts(self):
        """The root (num_docs, num_terms) term-count matrix, built once, as
        CSR arrays (indptr, terms, counts).

        Document d's nonzeros are terms[indptr[d]:indptr[d + 1]] (int32,
        ascending) with their counts, integers held in float64 and so
        exact in any summation order.
        """
        if self._counts is None:
            tokens, offsets = self.token_array()
            # one key per token, ordered by document, then by term
            keys, count = np.unique(
                _row_of(offsets) * self.num_terms + tokens, return_counts=True)
            indptr = np.zeros(self.num_docs + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys // self.num_terms,
                                  minlength=self.num_docs), out=indptr[1:])
            self._counts = (indptr, (keys % self.num_terms).astype(np.int32),
                            count.astype(np.float64))
        return self._counts

    def docs_containing(self, term_id):
        """Sorted array of ids of documents containing the term."""
        if self._postings is None:
            indptr, terms, _ = self.counts()
            # one key term * num_docs + doc per nonzero, sorted by term,
            # then by document; the remainder leaves the document
            doc_ids = terms * np.int64(self.num_docs)
            doc_ids += _row_of(indptr)
            doc_ids.sort()
            starts = np.searchsorted(
                doc_ids, np.arange(self.num_terms + 1) * self.num_docs)
            doc_ids %= self.num_docs
            self._postings = (starts, doc_ids)
        starts, doc_ids = self._postings
        return doc_ids[starts[term_id]:starts[term_id + 1]]


def _row_of(offsets):
    """The row of every entry of the ranges offsets[i]:offsets[i + 1]."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _gather_ranges(offsets, ids):
    """(index, lengths): the indices of the ranges offsets[i]:offsets[i + 1]
    of the listed ids, laid end to end in the listed order."""
    ids = np.asarray(ids, dtype=np.int64)
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    # position j of range i reads starts[i] + j
    gather = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    gather += np.arange(gather.size)
    return gather, lengths


def load_corpus(path, integrity_path=None) -> Corpus:
    """Load a whitespace-tokenized corpus, one document per non-empty line.

    Multi-word phrases are expected pre-joined with underscores; this never
    splits or normalizes tokens.
    """
    with open(path, encoding="utf-8-sig") as f:
        lines = f.readlines()
    return corpus_from_lines(lines, integrity_path=integrity_path)


def corpus_from_lines(lines, integrity_path=None) -> Corpus:
    # term -> id, in first-occurrence order: an unseen term's lookup stores
    # and returns the next id, so a line's ids come from C with no Python
    # code run per token
    index = defaultdict()
    index.default_factory = index.__len__
    documents = []
    for line in lines:
        tokens = line.split()
        if tokens:
            documents.append(Document(tokens=np.fromiter(
                map(index.__getitem__, tokens), np.int64, count=len(tokens))))
    vocab = list(index)
    if not documents:
        raise ValueError("corpus contains no non-empty documents")
    integrity = None
    if integrity_path is not None:
        integrity = np.ones(len(vocab))
        first_line = {}   # term -> line it is scored on
        with open(integrity_path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                where = f"{integrity_path} line {lineno}"
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(f"{where}: expected term<TAB>score")
                term, score = fields
                try:
                    score = float(score)
                except ValueError:
                    raise ValueError(f"{where}: score {score!r} is not a number") from None
                if not 0.0 <= score <= 1.0:  # also rejects nan
                    raise ValueError(f"{where}: score {score} is not in [0, 1]")
                if first_line.setdefault(term, lineno) != lineno:
                    raise ValueError(f"{where}: term {term!r} repeats the "
                                     f"term of line {first_line[term]}")
                if term in index:
                    integrity[index[term]] = score
    return Corpus(documents, vocab, integrity)


@dataclass
class TermStats:
    """The count rows of a node's documents over its terms, flattened.

    One entry per nonzero of a node term in the documents' count rows, by
    document in ascending id order, then by term in ascending id order.
    idf and BM25 are taken over those documents only; BM25's document
    lengths count every token.
    """

    doc_ids: np.ndarray    # the documents, ascending
    term_arr: np.ndarray   # the node's terms, ascending
    row: np.ndarray        # index in doc_ids of the nonzero's document
    count: np.ndarray      # the term's count in the document
    vote: np.ndarray       # count x idf: the nonzero's tf-idf vote
    bm25: np.ndarray       # the nonzero's BM25 contribution
    pos: np.ndarray        # index of the term in term_arr
    integrity: np.ndarray  # integrity score of each term of term_arr


def compute_term_stats(corpus: Corpus, doc_subset, term_arr) -> TermStats:
    """Term statistics of the documents doc_subset over the node terms
    term_arr, both strictly ascending ids.

    idf(t) = log(|subset| / df(t)) with df over the subset only. The
    counts are the subset's rows of the corpus's root count matrix.
    """
    doc_ids = np.asarray(doc_subset, dtype=np.int64)
    term_arr = np.asarray(term_arr, dtype=np.int64)
    if doc_ids.size == 0:
        raise ValueError("document subset is empty")
    for ids, bound, what in ((doc_ids, corpus.num_docs, "document"),
                             (term_arr, corpus.num_terms, "node term")):
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError(f"{what} ids are not strictly ascending")
        if ids.size and (ids[0] < 0 or ids[-1] >= bound):
            raise ValueError(f"{what} ids {ids[0]}..{ids[-1]} reach outside [0, {bound})")
    indptr, cols, count = corpus.counts()
    gather, row_nnz = _gather_ranges(indptr, doc_ids)
    pos_of = np.full(corpus.num_terms, -1, dtype=np.int64)
    pos_of[term_arr] = np.arange(term_arr.size)
    pos = pos_of[cols[gather]]
    node = pos >= 0   # the nonzeros of node terms
    pos, count = pos[node], count[gather[node]]
    row = np.repeat(np.arange(doc_ids.size), row_nnz)[node]
    doc_len = np.diff(corpus.token_array()[1])[doc_ids]
    # every stored count is >= 1, so a term's nonzeros are its documents
    df = np.bincount(pos, minlength=term_arr.size)
    idf = np.log(doc_ids.size / np.maximum(df, 1))[pos]
    denom = count + BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len[row] / float(doc_len.mean()))
    return TermStats(doc_ids=doc_ids, term_arr=term_arr, row=row, count=count,
                     vote=count * idf,
                     bm25=idf * count * (BM25_K1 + 1.0) / denom,
                     pos=pos, integrity=corpus.integrity[term_arr])


def context_pair_arrays(tokens, lengths, window: int):
    """Skip-gram (targets, contexts) of documents laid end to end in tokens.

    Document i is the next lengths[i] entries of tokens. Order: document by
    document; within one, offset k = 1..window; for each k, the pairs
    (tokens[j], tokens[j + k]) by position j, then (tokens[j + k], tokens[j])
    by position j. A document of at most k tokens has no pairs at offset k.
    Both outputs have tokens' dtype. Every (document, k, direction) block
    reads a contiguous range of tokens, so each output is a gather of
    tokens through the blocks' ranges laid end to end.
    """
    tokens = np.asarray(tokens)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    ks = np.arange(1, window + 1)
    # per (document, k, direction) block: its length, and where its targets
    # and contexts start in tokens (tokens[j] from the document's start,
    # tokens[j + k] from k further on)
    size = np.repeat(np.maximum(lengths[:, None] - ks, 0), 2, axis=1).ravel()
    near = np.repeat(starts, window)[:, None]
    far = (starts[:, None] + ks).reshape(-1, 1)
    t_from = np.hstack([near, far]).ravel()
    c_from = np.hstack([far, near]).ravel()
    end = np.cumsum(size)
    n_pairs = int(size.sum())
    # output pair i of a block reads tokens[from + (i - block start)]
    t_shift, c_shift = t_from - (end - size), c_from - (end - size)
    targets = np.empty(n_pairs, dtype=tokens.dtype)
    contexts = np.empty(n_pairs, dtype=tokens.dtype)
    # whole blocks, about PAIR_CHUNK pairs at a time: bounds the index arrays
    cuts = np.concatenate([
        [0], np.searchsorted(end, np.arange(PAIR_CHUNK, n_pairs, PAIR_CHUNK),
                             side="right"), [size.size]])
    # cuts is non-decreasing: drop its repeats (np.unique would import
    # numpy.ma)
    cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    for b0, b1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        first, last = int(end[b0] - size[b0]), int(end[b1 - 1])
        at = np.arange(first, last)
        for shift, out in ((t_shift, targets), (c_shift, contexts)):
            src = np.repeat(shift[b0:b1], size[b0:b1])
            src += at
            np.take(tokens, src, out=out[first:last])
    return targets, contexts
