"""Planted-corpus generator, the planted-run scorer, and the eval CLI."""

import json

import numpy as np
import pytest

from taxoforge.evaluation import (
    PlantedCorpusSpec,
    generate_synthetic_corpus,
    run_eval_cli,
    score_planted,
    write_synthetic_dataset,
)


def small_spec(**kw):
    base = dict(level1_topics=2, level2_per_topic=2, terms_per_topic=6,
                docs_per_topic=10, doc_len=20, dim=8, seed=0)
    base.update(kw)
    return PlantedCorpusSpec(**base)


# --- generator ---


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(level1_topics=0)
    with pytest.raises(ValueError):
        small_spec(kappa_topic=0.0)
    with pytest.raises(ValueError):
        small_spec(name_boost=0.5)


def test_generator_shapes_and_labels():
    spec = small_spec()
    corpus, truth, doc_labels, term_labels = generate_synthetic_corpus(spec)
    n_topics = 2 + 2 * 2  # L1 pools plus leaf pools
    assert corpus.num_terms == n_topics * 6
    assert corpus.num_docs == 2 * 2 * 10
    assert len(doc_labels) == corpus.num_docs
    assert set(term_labels.values()) == {
        "topic0", "topic0_0", "topic0_1", "topic1", "topic1_0", "topic1_1"}
    # first term of each pool is the topic name itself
    for name in ("topic0", "topic1_1"):
        assert term_labels[name] == name


def test_generator_truth_tree_structure():
    spec = small_spec()
    corpus, truth, _, _ = generate_synthetic_corpus(spec)
    root = truth.nodes[truth.root]
    assert len(root.children) == 2
    for c in root.children:
        assert len(truth.nodes[c].children) == 2
        assert len(truth.nodes[c].terms) == 6


def test_generator_deterministic():
    a = generate_synthetic_corpus(small_spec())
    b = generate_synthetic_corpus(small_spec())
    assert a[2] == b[2]
    for da, db in zip(a[0].documents, b[0].documents):
        assert np.array_equal(da.tokens, db.tokens)


def test_generator_doc_tokens_match_labels():
    # most non-noise tokens of a doc come from its leaf or parent pool
    spec = small_spec(vocab_noise_frac=0.0, docs_per_topic=20)
    corpus, truth, doc_labels, term_labels = generate_synthetic_corpus(spec)
    for d, (l1, l2) in enumerate(doc_labels):
        for t in corpus.documents[d].tokens:
            assert term_labels[corpus.term(int(t))] in (l1, l2)


def test_generator_parent_mix_fraction():
    spec = small_spec(vocab_noise_frac=0.0, parent_mix=0.3,
                      docs_per_topic=50, doc_len=60)
    corpus, truth, doc_labels, term_labels = generate_synthetic_corpus(spec)
    n_parent = n_total = 0
    for d, (l1, l2) in enumerate(doc_labels):
        for t in corpus.documents[d].tokens:
            n_total += 1
            n_parent += term_labels[corpus.term(int(t))] == l1
    assert n_parent / n_total == pytest.approx(0.3, abs=0.03)


def test_generator_name_boost_raises_name_frequency():
    low = small_spec(name_boost=1.0, docs_per_topic=40)
    high = small_spec(name_boost=16.0, docs_per_topic=40)

    def name_rate(spec):
        corpus, _, doc_labels, term_labels = generate_synthetic_corpus(spec)
        hits = total = 0
        for d, (l1, l2) in enumerate(doc_labels):
            for t in corpus.documents[d].tokens:
                total += 1
                hits += corpus.term(int(t)) in (l1, l2)
        return hits / total

    assert name_rate(high) > 2 * name_rate(low)


# --- scorer, on hand-built trees ---

# planted truth: topics a, b, each with sub-topics _0 and _1 of two documents
# each; every topic has its name and nine more terms
DOC_LABELS = [("a", "a_0"), ("a", "a_0"), ("a", "a_1"), ("a", "a_1"),
              ("b", "b_0"), ("b", "b_0"), ("b", "b_1"), ("b", "b_1")]
TERM_LABELS = {f"{topic}{suffix}": topic
               for topic in ("a", "a_0", "a_1", "b", "b_0", "b_1")
               for suffix in [""] + [f"_w{k:02d}" for k in range(1, 10)]}


def pool(topic, n=10):
    return [topic] + [f"{topic}_w{k:02d}" for k in range(1, n)]


def node(name, docs, children=(), novel=False, terms=None):
    return {"name": name, "is_novel": novel, "terms": terms or [name],
            "doc_ids": list(docs), "kappa": None, "children": list(children)}


def level2_tree(novel_under_a=True):
    """a_1 deleted. Under a: a weaker novel node, then one holding a_1's
    documents and terms; under b a novel node takes document 6."""
    novel = [node("a_0_w01", [], novel=True, terms=pool("a_0")[1:5] + pool("a_1")[:4]),
             node("a_1", [2, 3], novel=True, terms=pool("a_1"))]
    return node("root", range(8), [
        node("a", range(4), [node("a_0", [0, 1])] + (novel if novel_under_a else [])),
        node("b", range(4, 8), [node("b_0", [4, 5]), node("b_1", [7]),
                                node("b_x", [6], novel=True, terms=["b_x"])]),
    ])


def test_score_planted_level2_deletion_at_depth_2():
    sc = score_planted(level2_tree(), DOC_LABELS, TERM_LABELS, "a_1")
    assert sc["depth"] == 2
    assert sc["best_node"] == "a_1" and sc["recovery"] == 1.0
    # depth-2 novel nodes count: docs 2, 3 (right) and 6 (wrong)
    assert sc["novelty_precision"] == pytest.approx(2 / 3)
    assert sc["novelty_recall"] == 1.0
    assert sc["novelty_f1"] == pytest.approx(0.8)


def test_score_planted_level1_deletion_counts_whole_subtree_terms():
    # the novel node holds only sub-topic terms of a, none of a's own pool
    tree = node("root", range(8), [
        node("b", range(4, 8), [node("b_0", [4, 5]), node("b_1", [6]),
                                node("b_x", [7], novel=True, terms=["b_x"])]),
        node("a_0", range(4), novel=True, terms=pool("a_0", 5) + pool("a_1", 5)),
    ])
    sc = score_planted(tree, DOC_LABELS, TERM_LABELS, "a")
    assert sc["depth"] == 1
    assert sc["best_node"] == "a_0" and sc["recovery"] == 1.0
    # the depth-2 novel node under b is below the scored depth
    assert (sc["novelty_precision"], sc["novelty_recall"], sc["novelty_f1"]) \
        == (1.0, 1.0, 1.0)


def test_score_planted_no_novel_node_under_parent():
    tree = level2_tree(novel_under_a=False)
    sc = score_planted(tree, DOC_LABELS, TERM_LABELS, "a_1")
    # the novel node under b is not under the deleted topic's parent
    assert sc["recovery"] == 0.0 and sc["best_node"] is None
    # its document (6) is not in the deleted subtree
    assert (sc["novelty_precision"], sc["novelty_recall"], sc["novelty_f1"]) \
        == (0.0, 0.0, 0.0)
    # no novel node at all: nothing predicted novel
    tree["children"][1]["children"].pop()
    sc = score_planted(tree, DOC_LABELS, TERM_LABELS, "a_1")
    assert (sc["recovery"], sc["best_node"], sc["novelty_f1"]) == (0.0, None, 0.0)


def test_score_planted_unknown_topic_rejected():
    for delete in ("c", "a_w01", "a_2"):
        with pytest.raises(ValueError, match="not a planted topic"):
            score_planted(level2_tree(), DOC_LABELS, TERM_LABELS, delete)


def confusion_fixture():
    """a deleted; docs 0, 1, 4 belong to it. The novel node x holds docs 0
    (tp) and 2 (fp); b holds 1 and 4 (fn); doc 3 is unassigned (tn)."""
    doc_labels = [("a", "a_0"), ("a", "a_0"), ("b", "b_0"), ("b", "b_0"),
                  ("a", "a_1")]
    # top 10 of x: 7 planted terms and 3 others; the 11th is planted too
    terms = pool("a_0", 4) + pool("a_1", 3) + ["x1", "x2", "x3", "a_w01"]
    tree = node("root", range(5), [
        node("b", [1, 4], [node("b_0", [1])]),
        node("x", [0, 2], novel=True, terms=terms),
    ])
    return score_planted(tree, doc_labels, TERM_LABELS, "a")


def test_novelty_metrics_confusion_fixture():
    sc = confusion_fixture()
    assert sc["novelty_precision"] == pytest.approx(1 / 2)
    assert sc["novelty_recall"] == pytest.approx(1 / 3)
    assert sc["novelty_f1"] == pytest.approx(2 * (1 / 2) * (1 / 3) / (1 / 2 + 1 / 3))


def test_cluster_recovery_top10_precision():
    sc = confusion_fixture()
    assert sc["best_node"] == "x"
    assert sc["recovery"] == pytest.approx(0.7)


# --- dataset round trip and scoring ---


def score_cli(tmp_path, capsys, pred, truth_path):
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    assert run_eval_cli(["score", "--pred", str(pred_path),
                         "--truth", str(truth_path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_write_dataset_and_score_roundtrip(tmp_path, capsys):
    spec = small_spec()
    out = tmp_path / "data"
    write_synthetic_dataset(spec, str(out))
    corpus_lines = (out / "corpus.txt").read_text().splitlines()
    assert len(corpus_lines) == 40
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["doc_labels"]) == 40
    hierarchy = (out / "hierarchy_full.txt").read_text()
    assert "topic0\n\ttopic0_0\n\ttopic0_1\n" in hierarchy

    # a perfect "prediction": the full truth tree with true doc assignments
    docs_of = {}
    for d, (l1, l2) in enumerate(truth["doc_labels"]):
        docs_of.setdefault(l1, []).append(d)
        docs_of.setdefault(l2, []).append(d)
    pred = node("root", [], [
        node(l1, docs_of[l1],
             [node(l2, docs_of[l2]) for l2 in (f"{l1}_0", f"{l1}_1")])
        for l1 in ("topic0", "topic1")])
    # nothing deleted, nothing to score
    assert score_cli(tmp_path, capsys, pred, out / "truth.json") == {}


def test_score_cli_reports_each_deleted_topic(tmp_path, capsys):
    spec = small_spec()
    out = tmp_path / "data"
    write_synthetic_dataset(spec, str(out))
    truth = json.loads((out / "truth.json").read_text())
    t11_terms = sorted(t for t, l in truth["term_labels"].items()
                       if l == "topic1_1")
    t11_docs = [d for d, (l1, l2) in enumerate(truth["doc_labels"])
                if l2 == "topic1_1"]
    t1_docs = [d for d, (l1, _) in enumerate(truth["doc_labels"])
               if l1 == "topic1"]
    # topic0 (with its sub-topics) and topic1_1 are missing; a novel node
    # under topic1 holds topic1_1's documents and terms, and is named after
    # its top term, which is topic1_1's name
    pred = node("root", [], [
        node("topic1", t1_docs, [
            node("topic1_0", []),
            node("topic1_1", t11_docs, novel=True, terms=t11_terms),
        ]),
    ])
    report = score_cli(tmp_path, capsys, pred, out / "truth.json")
    assert list(report) == ["topic0", "topic1_1"]
    rec = report["topic1_1"]
    assert rec["depth"] == 2 and rec["best_node"] == "topic1_1"
    assert rec["recovery"] == 1.0 and rec["novelty_f1"] == 1.0
    rec = report["topic0"]
    assert rec["depth"] == 1 and rec["best_node"] is None
    assert rec["recovery"] == 0.0 and rec["novelty_f1"] == 0.0


# --- CLI ---


def test_eval_cli_synth_and_score(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        level1_topics=2, level2_per_topic=2, terms_per_topic=6,
        docs_per_topic=5, doc_len=15, dim=8, seed=1)))
    out = tmp_path / "data"
    assert run_eval_cli(["synth", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
    assert (out / "corpus.txt").exists()
    # an empty prediction: both level-1 topics are missing; their
    # sub-topics go with them
    report = score_cli(tmp_path, capsys, node("root", []), out / "truth.json")
    assert list(report) == ["topic0", "topic1"]
    assert all(r["depth"] == 1 and r["recovery"] == 0.0 and r["best_node"] is None
               for r in report.values())


def test_eval_cli_error_exit_code(tmp_path):
    assert run_eval_cli(["score", "--pred", str(tmp_path / "nope.json"),
                         "--truth", str(tmp_path / "nope2.json")]) == 1
