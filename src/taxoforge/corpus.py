"""Pre-tokenized corpus loading, vocabulary, and frequency statistics."""

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np


# context_pair_arrays gathers this many pairs at a time
PAIR_CHUNK = 1 << 16
BM25_K1 = 1.2   # the standard BM25 term-frequency saturation
BM25_B = 0.75   # the standard BM25 document-length normalisation


@dataclass
class Document:
    tokens: np.ndarray  # term ids, in order


class Corpus:
    """Documents as one flat token array, and a dense term <-> id vocabulary.

    tokens (int32) holds every document's term ids end to end: document d
    is tokens[offsets[d]:offsets[d + 1]], and offsets (int64, num_docs + 1
    entries) gives every length. Per-term integrity scores default to 1.0
    when no score file is given. Immutable after construction, which is
    what makes caching safe: the root count matrix (``counts``) and the
    postings (``docs_containing``) are built from all documents on first
    use and kept. Neither is built on load, so loading pays nothing for a
    statistic a run may not need.
    """

    def __init__(self, tokens, offsets, vocab, integrity=None):
        self.tokens = np.asarray(tokens, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.vocab = list(vocab)  # id -> string
        self.index = {t: i for i, t in enumerate(self.vocab)}
        if integrity is None:
            integrity = np.ones(len(self.vocab))
        self.integrity = np.asarray(integrity, dtype=np.float64)
        self._counts = None
        self._postings = None

    @property
    def num_terms(self):
        return len(self.vocab)

    @property
    def num_docs(self):
        return self.offsets.size - 1

    @property
    def documents(self):
        """Every document, viewing its range of tokens. Built anew on each
        call: bind it once outside a loop over documents. The package reads
        tokens and offsets; only the benchmark worker and the tests'
        oracles read this."""
        return [Document(t) for t in np.split(self.tokens, self.offsets[1:-1])]

    def doc_tokens(self, doc_ids):
        """(tokens, lengths) of the listed documents, laid end to end in
        the listed order; tokens is int32."""
        gather, lengths = _gather_ranges(self.offsets, doc_ids)
        return self.tokens[gather], lengths

    def counts(self):
        """The root (num_docs, num_terms) term-count matrix, built once, as
        CSR arrays (indptr, terms, counts).

        Document d's nonzeros are terms[indptr[d]:indptr[d + 1]] (int32,
        ascending) with their counts, integers held in float64 and so
        exact in any summation order.
        """
        if self._counts is None:
            # one key per token, ordered by document, then by term
            keys, count = np.unique(
                _row_of(self.offsets) * self.num_terms + self.tokens, return_counts=True)
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


def read_lines(path):
    """The lines of the UTF-8 text file path, one at a time, as text mode
    reads them: a leading BOM dropped, every line ending read as "\\n".
    A byte that is not UTF-8 is an error naming the file and its line."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            yield from f
    except UnicodeDecodeError:
        # the reader decodes in chunks, so its position is no file offset:
        # decode the bytes whole (a BOM is UTF-8 too) to find the byte
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line = before.count(b"\n") + 1
            raise ValueError(f"{path} line {line}: byte 0x{data[exc.start]:02x} "
                             f"is not UTF-8") from None
        raise


def load_corpus(path, integrity_path=None) -> Corpus:
    """Load a whitespace-tokenized corpus, one document per non-empty line.

    Multi-word phrases are expected pre-joined with underscores; this never
    splits or normalizes tokens.
    """
    return corpus_from_lines(read_lines(path), integrity_path=integrity_path)


def corpus_from_lines(lines, integrity_path=None) -> Corpus:
    # term -> id, in first-occurrence order: an unseen term's lookup stores
    # and returns the next id, so the ids come from C with no Python code
    # run per token; split records every line's token count on the way
    index = defaultdict()
    index.default_factory = index.__len__
    lengths = []

    def split(line):
        tokens = line.split()
        lengths.append(len(tokens))
        return tokens

    tokens = np.fromiter(map(index.__getitem__,
                             chain.from_iterable(map(split, lines))), np.int32)
    # the lookup's bound method refers to index: a reference cycle, which
    # would keep every term string until the garbage collector runs
    index.default_factory = None
    lengths = np.fromiter(filter(None, lengths), np.int64)  # a blank line is no document
    if not lengths.size:
        raise ValueError("corpus contains no non-empty documents")
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    vocab = list(index)
    integrity = None
    if integrity_path is not None:
        integrity = np.ones(len(vocab))
        first_line = {}   # term -> line it is scored on
        for lineno, line in enumerate(read_lines(integrity_path), 1):
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
    return Corpus(tokens, offsets, vocab, integrity)


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
    term_arr, both strictly ascending ids of the corpus, doc_subset not
    empty. It sorts and checks nothing: the pipeline passes a node's
    documents (at least min_docs of them) and its space's sorted term ids.

    idf(t) = log(|subset| / df(t)) with df over the subset only. The
    counts are the subset's rows of the corpus's root count matrix.
    """
    doc_ids = np.asarray(doc_subset, dtype=np.int64)
    term_arr = np.asarray(term_arr, dtype=np.int64)
    indptr, cols, count = corpus.counts()
    gather, row_nnz = _gather_ranges(indptr, doc_ids)
    pos_of = np.full(corpus.num_terms, -1, dtype=np.int64)
    pos_of[term_arr] = np.arange(term_arr.size)
    pos = pos_of[cols[gather]]
    node = pos >= 0   # the nonzeros of node terms
    pos, count = pos[node], count[gather[node]]
    row = np.repeat(np.arange(doc_ids.size), row_nnz)[node]
    doc_len = np.diff(corpus.offsets)[doc_ids]
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
