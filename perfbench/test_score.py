"""Tests of the benchmark's scorer and output checks on a hand-built tree.

Run with: python3 -m pytest perfbench/test_score.py
"""

import copy

import pytest

from score import check_tree, score

# planted truth: topics a, b, each with two level-2 sub-topics, two docs each
TRUTH = {
    "doc_labels": [["a", "a_0"], ["a", "a_0"], ["a", "a_1"], ["a", "a_1"],
                   ["b", "b_0"], ["b", "b_0"], ["b", "b_1"], ["b", "b_1"]],
    "term_labels": {t: t.split("_w")[0] for t in [
        "a", "a_w01", "a_0", "a_0_w01", "a_1", "a_1_w01",
        "b", "b_w01", "b_0", "b_0_w01", "b_1", "b_1_w01"]},
}


def node(name, docs, children=(), novel=False, terms=None, kappa=None):
    return {"name": name, "is_novel": novel, "terms": terms or [name],
            "doc_ids": list(docs), "kappa": kappa, "children": list(children)}


def level2_tree():
    """a_1 deleted; a novel node under a recovers it, docs 2-3."""
    return node("root", range(8), [
        node("a", range(4), [
            node("a_0", [0, 1], kappa=5.0),
            node("a_1_w01", [2, 3], novel=True,
                 terms=["a_1_w01", "a_1", "a_0_w01"], kappa=7.0),
        ], kappa=3.0),
        node("b", range(4, 8), [node("b_0", [4, 5]), node("b_1", [6, 7])]),
    ], terms=["a", "b"])


def level1_tree():
    """a deleted; a novel depth-1 node holds docs 0-2, a depth-2 one doc 6."""
    return node("root", range(8), [
        node("b", range(4, 8), [
            node("b_0", [4, 5]), node("b_1", [6]),
            node("b_x", [7], novel=True, terms=["b_x", "b_w01"]),
        ]),
        node("a_0", [0, 1, 2], novel=True,
             terms=["a_0", "a_0_w01", "a_w01", "b_w01"]),
    ], terms=["b"])


def test_level2_deletion_scored_at_depth_2():
    sc = score(level2_tree(), TRUTH, "a_1")
    assert sc["depth"] == 2
    assert sc["best_node"] == "a_1_w01"
    assert sc["recovery"] == pytest.approx(2 / 3)
    assert sc["novelty_f1"] == 1.0
    assert sc["known_acc"] == 1.0


def test_level1_deletion_counts_whole_subtree_terms():
    sc = score(level1_tree(), TRUTH, "a")
    assert sc["depth"] == 1
    # a_0, a_0_w01, a_w01 are in a's subtree; against a's own pool only 1/4
    assert sc["recovery"] == pytest.approx(3 / 4)
    # the depth-2 novel node under b is below the scored depth
    assert sc["novelty_precision"] == 1.0
    assert sc["novelty_recall"] == pytest.approx(3 / 4)
    assert sc["novelty_f1"] == pytest.approx(6 / 7)
    assert sc["known_acc"] == 1.0


def test_no_novel_node_scores_zero():
    tree = level2_tree()
    tree["children"][0]["children"].pop()
    sc = score(tree, TRUTH, "a_1")
    assert sc["recovery"] == 0.0 and sc["best_node"] is None
    assert sc["novelty_f1"] == 0.0


def test_unknown_deleted_topic_rejected():
    with pytest.raises(ValueError):
        score(level2_tree(), TRUTH, "c")


KNOWN_L2 = [("a",), ("a", "a_0"), ("b",), ("b", "b_0"), ("b", "b_1")]


def test_well_formed_tree_passes():
    assert check_tree(level2_tree(), 8, 1000.0, KNOWN_L2) == []


@pytest.mark.parametrize("edit, message", [
    (lambda t: t["children"][0]["children"][1]["doc_ids"].append(5),
     "not a subset of the parent's"),
    (lambda t: t["children"][1]["terms"].reverse() or
     t["children"][1]["terms"].insert(0, "b_w01"), "name is not the first term"),
    (lambda t: t["children"][0].update(kappa=1000.5), "outside [0, 1000.0]"),
    (lambda t: t["children"][0].update(kappa=-1.0), "outside [0, 1000.0]"),
    (lambda t: t["children"][1]["children"].pop(), "b/b_1: input topic missing"),
    (lambda t: t["children"][1]["children"][0].update(is_novel=True),
     "b/b_0: input topic missing or novel"),
    (lambda t: t["children"][0].update(doc_ids=[3, 2, 1, 0]), "not sorted"),
    (lambda t: t.update(doc_ids=list(range(9))), "in range"),
    (lambda t: t["children"][0].pop("kappa"), "a: malformed node"),
])
def test_check_tree_flags(edit, message):
    tree = copy.deepcopy(level2_tree())
    edit(tree)
    problems = check_tree(tree, 8, 1000.0, KNOWN_L2)
    assert any(message in p for p in problems), problems
