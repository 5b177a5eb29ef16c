"""Output checks and planted-truth scoring for the benchmark.

Self-contained on purpose: the benchmark judges the program's JSON output
with its own code, so a change to ``taxoforge.evaluation`` cannot change how
a run is scored.
"""


def check_tree(tree, n_docs, kappa_max, known_paths=()):
    """Problems with one serialized taxonomy; an empty list means well-formed.

    Every node has the serializer's keys; doc ids are sorted, distinct, in
    range and a subset of the parent's; a non-root node's name is its first
    term; kappa is null or within [0, kappa_max]; every node of the input
    hierarchy (``known_paths``: tuples of names from the root) is present and
    not novel.
    """
    problems = []
    found = {}

    def visit(node, path, parent_docs):
        where = "/".join(path) or "root"
        keys = {"name", "is_novel", "terms", "doc_ids", "kappa", "children"}
        if not isinstance(node, dict) or set(node) != keys:
            problems.append(f"{where}: malformed node")
            return
        docs = node["doc_ids"]
        if (any(not isinstance(d, int) or not 0 <= d < n_docs for d in docs)
                or docs != sorted(set(docs))):
            problems.append(f"{where}: doc_ids not sorted, distinct and in range")
        if path:
            found[path] = node["is_novel"]
            if not set(docs) <= parent_docs:
                problems.append(f"{where}: doc_ids not a subset of the parent's")
            if not node["terms"] or node["terms"][0] != node["name"]:
                problems.append(f"{where}: name is not the first term")
        kappa = node["kappa"]
        if kappa is not None and not 0.0 <= kappa <= kappa_max:
            problems.append(f"{where}: kappa {kappa} outside [0, {kappa_max}]")
        for child in node["children"]:
            name = child.get("name") if isinstance(child, dict) else None
            visit(child, path + (str(name),), set(docs))

    visit(tree, (), None)
    for path in known_paths:
        if found.get(tuple(path)) is not False:
            problems.append(f"{'/'.join(path)}: input topic missing or novel")
    return problems


def _topic_parents(doc_labels):
    parent = {}
    for l1, l2 in doc_labels:
        parent[l1] = None
        parent[l2] = l1
    return parent


def score(tree, truth, delete):
    """Recovery and novelty F1 of one output at the deleted topic's depth.

    recovery: the best top-10 precision of a novel node directly under the
    deleted topic's parent, against the planted terms of the deleted topic's
    whole subtree (0 when no such novel node exists).
    novelty_f1: document-level F1 of "predicted novel" against "belongs to
    the deleted subtree", where a document is predicted novel when a novel
    node at depth <= the deleted topic's depth holds it.
    known_acc: the share of documents outside the deleted subtree that the
    output places in the known depth-1 node named after their planted
    level-1 topic.
    """
    parent_of = _topic_parents(truth["doc_labels"])
    if delete not in parent_of:
        raise ValueError(f"{delete!r} is not a planted topic")
    parent = parent_of[delete]
    depth = 1 if parent is None else 2
    subtree = {t for t, p in parent_of.items() if t == delete or p == delete}
    planted = {term for term, lab in truth["term_labels"].items() if lab in subtree}

    under = [tree] if parent is None else [
        c for c in tree["children"] if c["name"] == parent and not c["is_novel"]]
    recovery, best = 0.0, None
    for node in under:
        for c in node["children"]:
            top = c["terms"][:10]
            if c["is_novel"] and top:
                rec = sum(t in planted for t in top) / len(top)
                if best is None or rec > recovery:
                    recovery, best = rec, c["name"]

    predicted = set()

    def collect(node, d):
        if d > depth:
            return
        if d > 0 and node["is_novel"]:
            predicted.update(node["doc_ids"])
        for c in node["children"]:
            collect(c, d + 1)

    collect(tree, 0)
    actual = {d for d, (l1, l2) in enumerate(truth["doc_labels"])
              if l1 in subtree or l2 in subtree}
    tp = len(predicted & actual)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(actual) if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    docs_of = {c["name"]: set(c["doc_ids"]) for c in tree["children"]
               if not c["is_novel"]}
    kept = [(d, l1) for d, (l1, l2) in enumerate(truth["doc_labels"])
            if d not in actual]
    placed = sum(d in docs_of.get(l1, ()) for d, l1 in kept)
    return {"depth": depth, "recovery": recovery, "best_node": best,
            "novelty_precision": precision, "novelty_recall": recall,
            "novelty_f1": f1, "known_acc": placed / len(kept) if kept else 1.0}
