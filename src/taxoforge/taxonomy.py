"""Topic tree: parsing the partial hierarchy, keyword sets, serialization."""

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .corpus import Corpus


@dataclass
class TopicNode:
    id: int
    center_term: int | None          # None only for the root
    children: list = field(default_factory=list)
    terms: Sequence = ()             # term ids, in output order (center aside)
    docs: Sequence = ()              # document ids, ascending
    is_novel: bool = False
    kappa: float | None = None       # vMF concentration, set by the pipeline


class Taxonomy:
    """Tree of topic nodes; single root, single parent per node."""

    def __init__(self):
        self.nodes = {}
        self.root = None
        self._next_id = 0

    def add_node(self, center_term, parent=None, is_novel=False) -> TopicNode:
        node = TopicNode(id=self._next_id, center_term=center_term,
                         is_novel=is_novel)
        self._next_id += 1
        self.nodes[node.id] = node
        if parent is None:
            if self.root is not None:
                raise ValueError("taxonomy already has a root")
            self.root = node.id
        else:
            self.nodes[parent].children.append(node.id)
        return node

    def subtree_ids(self, node_id):
        out = [node_id]
        for c in self.nodes[node_id].children:
            out.extend(self.subtree_ids(c))
        return out


def normalize_name(name: str) -> str:
    return name.strip().lower().replace(" ", "_")


def parse_hierarchy(text: str, corpus: Corpus, path=None) -> Taxonomy:
    """Parse a tab-indented outline of topic names into a taxonomy.

    Tab depth equals tree depth, and a line indented with anything but
    tabs is rejected; the root is implicit. A name is looked up with its
    spaces as underscores, first as written and then lower-cased
    (normalize_name). No normalized name repeats. An error names path,
    the file text was read from, when it is given.
    """
    at = f"{path} line" if path else "line"
    tax = Taxonomy()
    root = tax.add_node(center_term=None)
    stack = [root.id]  # stack[d] = last node at depth d (root at 0), None if unknown
    unknown = []
    first_line = {}   # name -> line it first appears on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        name = raw.lstrip("\t")
        depth = len(raw) - len(name)
        if name[:1].isspace():
            # normalize_name would strip it, and the line land at a wrong depth
            raise ValueError(f"{at} {lineno}: indent with tabs only")
        written, name = name.strip().replace(" ", "_"), normalize_name(name)
        if depth + 1 > len(stack):
            raise ValueError(
                f"{at} {lineno}: indentation jumps more than one level")
        if first_line.setdefault(name, lineno) != lineno:
            raise ValueError(f"{at} {lineno}: topic {name!r} repeats "
                             f"the topic of line {first_line[name]}")
        tid = corpus.index.get(written, corpus.index.get(name))
        if tid is None:
            unknown.append(name)
        del stack[depth + 1:]
        if tid is None or stack[depth] is None:
            # an unknown name keeps its depth, with no node for it or below it
            stack.append(None)
            continue
        node = tax.add_node(center_term=tid, parent=stack[depth])
        node.terms = [tid]
        stack.append(node.id)
    if unknown:
        msg = "topic names not in vocabulary: " + ", ".join(unknown)
        raise ValueError(f"{path}: {msg}" if path else msg)
    return tax


def subtree_keywords(tax: Taxonomy, node_id: int) -> dict:
    """Per child of node_id: center terms of the whole sub-tree under it."""
    node = tax.nodes[node_id]
    out = {}
    seen = {}
    for child in node.children:
        # only the root has no center term, and it is in no child's sub-tree
        kws = {tax.nodes[nid].center_term for nid in tax.subtree_ids(child)}
        for t in kws:
            if t in seen:
                raise ValueError(
                    f"center term {t} appears under two sibling sub-trees")
            seen[t] = child
        out[child] = kws
    return out


def insert_children(tax: Taxonomy, parent: int, known, novel) -> None:
    """Apply one node's clustering output to the tree.

    known: (child id, terms, docs, kappa) per existing child, updated in
    place. novel: (center term, terms, docs, kappa) per new child, appended
    to the parent's children in order. terms and docs are stored as given.
    """
    for child, terms, docs, kappa in known:
        node = tax.nodes[child]
        node.terms, node.docs, node.kappa = terms, docs, kappa
    centers = {tax.nodes[c].center_term for c in tax.nodes[parent].children}
    for center, terms, docs, kappa in novel:
        if center in centers:
            raise ValueError(
                f"novel center term {center} collides with an existing child")
        node = tax.add_node(center_term=center, parent=parent, is_novel=True)
        node.terms, node.docs, node.kappa = terms, docs, kappa
        centers.add(center)


def serialize(tax: Taxonomy, corpus: Corpus, top_k: int) -> str:
    """JSON dump of the tree; per node top_k terms, center first, in stored order.

    The root lists no terms: it has no center term, and its term set is
    what it trains on, not a ranking.
    """
    return json.dumps(_encode(tax, corpus, top_k, tax.root), indent=2)


def _encode(tax: Taxonomy, corpus: Corpus, top_k: int, node_id: int) -> dict:
    """A node and its subtree as serialize writes them. Not nested in
    serialize: a nested function that calls itself is a reference cycle,
    which would keep tax and corpus alive until the garbage collector runs."""
    node = tax.nodes[node_id]
    name = corpus.vocab[node.center_term] if node.center_term is not None else "root"
    if node.kappa is not None and not math.isfinite(node.kappa):  # NaN is not JSON
        raise ValueError(f"node {name!r} has a non-finite kappa {node.kappa}")
    terms = [] if node.center_term is None else [int(t) for t in node.terms]
    if node.center_term in terms:
        terms.remove(node.center_term)
        terms.insert(0, node.center_term)
    return {
        "name": name,
        "is_novel": node.is_novel,
        "terms": [corpus.vocab[t] for t in terms[:top_k]],
        "doc_ids": [int(d) for d in node.docs],
        "kappa": node.kappa,
        "children": [_encode(tax, corpus, top_k, c) for c in node.children],
    }
