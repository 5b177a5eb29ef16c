"""Pre-tokenized corpus loading, vocabulary, and frequency statistics."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse


class EmptyCorpusError(ValueError):
    pass


class EmptyStatsError(ValueError):
    pass


class UnknownDocumentError(ValueError):
    """A document id outside [0, num_docs) of the corpus."""


@dataclass
class Document:
    id: int
    tokens: np.ndarray  # term ids, in order


class Corpus:
    """Documents plus a dense term-string <-> term-id vocabulary.

    Per-term integrity scores default to 1.0 when no score file is given.
    Immutable after construction, which is what makes caching safe: the
    root count matrix (``counts``) and the postings (``docs_containing``)
    are built from all documents on first use and kept. Neither is built
    on load, so loading pays nothing for a statistic a run may not need.
    """

    def __init__(self, documents, vocab, integrity=None):
        self.documents = documents
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
        return len(self.documents)

    def term(self, term_id):
        return self.vocab[term_id]

    def term_id(self, term):
        return self.index[term]

    def counts(self) -> sparse.csr_matrix:
        """The root (num_docs, num_terms) term-count matrix, built once.

        Row d counts the tokens of ``documents[d]``; each row's column
        indices are sorted, so a row's nonzeros come in term-id order.
        Counts are integers held in float64, exact in any summation order.
        """
        if self._counts is None:
            lengths = np.fromiter((d.tokens.size for d in self.documents),
                                  dtype=np.int64, count=self.num_docs)
            indptr = np.zeros(self.num_docs + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            tokens = np.concatenate([d.tokens for d in self.documents])
            counts = sparse.csr_matrix(
                (np.ones(tokens.size), tokens, indptr),
                shape=(self.num_docs, self.num_terms))
            counts.sum_duplicates()  # also sorts each row's column indices
            self._counts = counts
        return self._counts

    def docs_containing(self, term_id):
        """Sorted array of ids of documents containing the term."""
        if self._postings is None:
            by_term = self.counts().tocsc()  # row indices come out sorted
            self._postings = (by_term.indptr,
                              by_term.indices.astype(np.int64))
        indptr, doc_ids = self._postings
        return doc_ids[indptr[term_id]:indptr[term_id + 1]]


def load_corpus(path, integrity_path=None) -> Corpus:
    """Load a whitespace-tokenized corpus, one document per non-empty line.

    Multi-word phrases are expected pre-joined with underscores; this never
    splits or normalizes tokens.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    return corpus_from_lines(lines, integrity_path=integrity_path)


def corpus_from_lines(lines, integrity_path=None) -> Corpus:
    vocab = []
    index = {}
    documents = []
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        ids = np.empty(len(tokens), dtype=np.int64)
        for k, tok in enumerate(tokens):
            tid = index.get(tok)
            if tid is None:
                tid = len(vocab)
                index[tok] = tid
                vocab.append(tok)
            ids[k] = tid
        documents.append(Document(id=len(documents), tokens=ids))
    if not documents:
        raise EmptyCorpusError("corpus contains no non-empty documents")
    integrity = None
    if integrity_path is not None:
        integrity = np.ones(len(vocab))
        with open(integrity_path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                term, score = line.split("\t")
                if term in index:
                    integrity[index[term]] = float(score)
    return Corpus(documents, vocab, integrity)


@dataclass
class TermStats:
    """Term/document frequency statistics over one document subset."""

    doc_ids: np.ndarray          # sorted subset doc ids; row r is doc_ids[r]
    counts: sparse.csr_matrix    # (n_subset_docs, vocab) term counts
    df: np.ndarray               # document frequency over the subset
    idf: np.ndarray              # log(n/df); 0 where df == 0 (term absent)
    doc_len: np.ndarray          # per subset row
    avg_doc_len: float
    n_docs: int

    def rows(self, doc_ids) -> np.ndarray:
        """Row in counts of each doc id, in the given order; -1 where the
        document is not in the subset."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64).reshape(-1)
        rows = np.searchsorted(self.doc_ids, doc_ids)
        rows[rows == self.n_docs] = 0
        return np.where(self.doc_ids[rows] == doc_ids, rows, -1)


def compute_term_stats(corpus: Corpus, doc_subset) -> TermStats:
    """Frequency statistics restricted to doc_subset.

    idf(t) = log(|subset| / df(t)) with df over the subset only; terms absent
    from the subset get df 0 and idf 0. The counts are the subset's rows of
    the corpus's root count matrix.
    """
    doc_ids = np.asarray(sorted(doc_subset), dtype=np.int64)
    if doc_ids.size == 0:
        raise EmptyStatsError("document subset is empty")
    if doc_ids[0] < 0 or doc_ids[-1] >= corpus.num_docs:
        raise UnknownDocumentError(
            f"document ids {doc_ids[0]}..{doc_ids[-1]} reach outside "
            f"[0, {corpus.num_docs})")
    counts = corpus.counts()[doc_ids]
    doc_len = np.fromiter((corpus.documents[d].tokens.size for d in doc_ids),
                          dtype=np.int64, count=doc_ids.size)
    df = np.asarray((counts > 0).sum(axis=0)).ravel()
    idf = np.zeros(corpus.num_terms)
    present = df > 0
    idf[present] = np.log(doc_ids.size / df[present])
    return TermStats(
        doc_ids=doc_ids,
        counts=counts,
        df=df,
        idf=idf,
        doc_len=doc_len,
        avg_doc_len=float(doc_len.mean()),
        n_docs=int(doc_ids.size),
    )


def context_pair_arrays(documents, window: int):
    """Vectorized context pairs over many documents: (targets, contexts)."""
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
