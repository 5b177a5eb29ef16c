"""Planted-corpus generator, the planted-run scorer, and the eval CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from taxoforge import evaluation
from taxoforge.evaluation import (
    PLANTED_CONFIG,
    PlantedCorpusSpec,
    generate_synthetic_corpus,
    run_eval_cli,
    run_planted,
    score_planted,
    write_synthetic_dataset,
)
from taxoforge.pipeline import PipelineConfig, load_config

from test_pipeline import with_bad_second_line


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


@pytest.mark.parametrize("field, value, extra", [
    ("kappa_topic", float("nan"), {}),
    ("kappa_topic", float("inf"), {}),
    ("dim", 1, {}),
    ("dim", 2, {"level1_topics": 3}),
    ("vocab_noise_frac", 1.5, {}),
    ("vocab_noise_frac", float("nan"), {}),
    ("parent_mix", 2.0, {}),
    ("parent_mix", -0.1, {}),
    ("name_boost", float("nan"), {}),
    ("name_boost", float("inf"), {}),
    # a spec file can hold any JSON type: each fails naming its field, not
    # deep inside numpy
    ("level1_topics", 2.5, {}),
    ("docs_per_topic", "10", {}),
    ("seed", -1, {}),
    ("doc_len", True, {}),
    ("dim", None, {}),
    ("kappa_topic", "50", {}),
    ("parent_mix", False, {}),
])
def test_spec_rejects_bad_values(tmp_path, capsys, field, value, extra):
    with pytest.raises(ValueError, match=field):
        small_spec(**{field: value, **extra})
    # from a spec file it fails at once (a NaN kappa would hang the sampler)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({field: value, **extra}))
    assert run_eval_cli(["synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"taxoforge-eval: error: {spec_path}: {field} must ")
    assert not (tmp_path / "out").exists()


def test_generator_shapes_and_labels():
    spec = small_spec()
    corpus, doc_labels, term_labels = generate_synthetic_corpus(spec)
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
    _, doc_labels, term_labels = generate_synthetic_corpus(spec)
    parent_of = evaluation._topic_parents(doc_labels)
    level1 = [t for t, p in parent_of.items() if p is None]
    assert len(level1) == 2
    for c in level1:
        assert sum(p == c for p in parent_of.values()) == 2
        assert sum(lab == c for lab in term_labels.values()) == 6


def test_generator_deterministic():
    a = generate_synthetic_corpus(small_spec())
    b = generate_synthetic_corpus(small_spec())
    assert a[1] == b[1]
    assert np.array_equal(a[0].tokens, b[0].tokens)
    assert np.array_equal(a[0].offsets, b[0].offsets)


def test_generator_doc_tokens_match_labels():
    # most non-noise tokens of a doc come from its leaf or parent pool
    spec = small_spec(vocab_noise_frac=0.0, docs_per_topic=20)
    corpus, doc_labels, term_labels = generate_synthetic_corpus(spec)
    for (l1, l2), doc in zip(doc_labels, corpus.documents):
        for t in doc.tokens:
            assert term_labels[corpus.vocab[int(t)]] in (l1, l2)


def test_generator_parent_mix_fraction():
    spec = small_spec(vocab_noise_frac=0.0, parent_mix=0.3,
                      docs_per_topic=50, doc_len=60)
    corpus, doc_labels, term_labels = generate_synthetic_corpus(spec)
    n_parent = n_total = 0
    for (l1, l2), doc in zip(doc_labels, corpus.documents):
        for t in doc.tokens:
            n_total += 1
            n_parent += term_labels[corpus.vocab[int(t)]] == l1
    assert n_parent / n_total == pytest.approx(0.3, abs=0.03)


def test_generator_name_boost_raises_name_frequency():
    low = small_spec(name_boost=1.0, docs_per_topic=40)
    high = small_spec(name_boost=16.0, docs_per_topic=40)

    def name_rate(spec):
        corpus, doc_labels, term_labels = generate_synthetic_corpus(spec)
        hits = total = 0
        for (l1, l2), doc in zip(doc_labels, corpus.documents):
            for t in doc.tokens:
                total += 1
                hits += corpus.vocab[int(t)] in (l1, l2)
        return hits / total

    assert name_rate(high) > 2 * name_rate(low)


# --- planted runs ---


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_planted_config_is_criteria_6_and_7s_config(tmp_path, seed):
    want = PipelineConfig(dim=8, epochs=10, lr=0.05, child_batch_size=2048,
                          beta1=5.0, beta2=5.0, seed=seed)
    assert PipelineConfig(**PLANTED_CONFIG, seed=seed) == want
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in PLANTED_CONFIG.items()))
    assert load_config(str(path), seed=seed) == want


def test_run_planted_rejects_an_unknown_topic_before_training(monkeypatch):
    def fail(*args):
        raise AssertionError("complete_taxonomy called")

    monkeypatch.setattr(evaluation, "complete_taxonomy", fail)
    with pytest.raises(ValueError, match="'topic9' is not a planted topic"):
        run_planted(1, "topic9", spec={"docs_per_topic": 5})


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


def test_committed_dataset_is_the_generators_output(tmp_path):
    # data/synthetic_small is what write_synthetic_dataset makes of the spec
    # its truth.json records, byte for byte
    data = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                        "synthetic_small")
    with open(os.path.join(data, "truth.json"), encoding="utf-8") as f:
        spec = PlantedCorpusSpec(**json.load(f)["spec"])
    write_synthetic_dataset(spec, str(tmp_path))
    for name in ("corpus.txt", "hierarchy_full.txt", "truth.json"):
        with open(os.path.join(data, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read(), name


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


@pytest.mark.parametrize("flag", ["pred", "truth", "spec"])
def test_eval_cli_names_the_file_and_line_of_a_byte_not_utf8(tmp_path, capsys, flag):
    write_synthetic_dataset(small_spec(), str(tmp_path))
    (tmp_path / "pred.json").write_text(json.dumps(node("root", []), indent=1))
    (tmp_path / "spec.json").write_text('{\n"seed": 1}\n')
    paths = {name: tmp_path / f"{name}.json" for name in ("pred", "truth", "spec")}
    paths[flag] = with_bad_second_line(paths[flag], tmp_path / f"bad_{flag}.json")
    argv = (["synth", "--spec", str(paths["spec"]), "--out", str(tmp_path / "out")]
            if flag == "spec" else
            ["score", "--pred", str(paths["pred"]), "--truth", str(paths["truth"])])
    assert run_eval_cli(argv) == 1
    assert capsys.readouterr().err == (
        f"taxoforge-eval: error: {paths[flag]} line 2: byte 0xff is not UTF-8\n")


def _termless(name):
    return {k: v for k, v in node(name, []).items() if k != "terms"}


TRUTH = {"doc_labels": [["a", "a_0"]], "term_labels": {"a": "a", "a_0": "a_0"}}


@pytest.mark.parametrize("bad, pred, truth, message", [
    ("pred.json", [], TRUTH, "expected a JSON object, got list"),
    ("pred.json", {"name": "root"}, TRUTH, "missing key 'children'"),
    ("pred.json", node("root", [], [node("a", [], [_termless("a_0")])]), TRUTH,
     "a child of 'a': missing key 'terms'"),
    ("pred.json", node("root", [], [node("a", [], ["a_0"])]), TRUTH,
     "a child of 'a': expected a JSON object, got str"),
    ("pred.json", {"children": {}}, TRUTH, "children must be a list, got dict"),
    ("pred.json", node("root", [], [node("a", [], novel="no")]), TRUTH,
     "a child of 'root': is_novel must be a bool, got str"),
    ("pred.json", "nope", TRUTH, "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("truth.json", node("root", []), {"term_labels": {}},
     "missing key 'doc_labels'"),
    ("truth.json", node("root", []), {**TRUTH, "doc_labels": [["a"]]},
     "doc_labels must hold [topic, sub-topic] pairs"),
    ("truth.json", node("root", []), {**TRUTH, "term_labels": []},
     "term_labels must be a dict, got list"),
    ("truth.json", node("root", []), "{", "not JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    # unchecked, terms that are not strings or documents that are not ints
    # would score 0 without a word
    ("pred.json", node("root", [], [node("a", [0], terms=[1, 2])]), TRUTH,
     "a child of 'root': terms must hold str values, got 1"),
    ("pred.json", node("root", [], [node("a", ["0"])]), TRUTH,
     "a child of 'root': doc_ids must hold int values, got '0'"),
    ("pred.json", node("root", [], [node("a", [], [node("a_0", [0, True])])]),
     TRUTH, "a child of 'a': doc_ids must hold int values, got True"),
    # unchecked, a list label fails deep in the scorer as unhashable
    ("truth.json", node("root", []), {**TRUTH, "doc_labels": [["a", ["a_0"]]]},
     "doc_labels must hold str values, got ['a_0']"),
    ("truth.json", node("root", []), {**TRUTH, "term_labels": {"a": ["a"]}},
     "term_labels must hold str values, got ['a']"),
])
def test_score_cli_names_the_malformed_file(tmp_path, capsys, bad, pred, truth,
                                            message):
    for name, content in (("pred.json", pred), ("truth.json", truth)):
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    assert run_eval_cli(["score", "--pred", str(tmp_path / "pred.json"),
                         "--truth", str(tmp_path / "truth.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"taxoforge-eval: error: {tmp_path / bad}: {message}\n"


@pytest.mark.parametrize("module, prog", [("taxoforge.evaluation", "taxoforge-eval"),
                                          ("taxoforge", "taxoforge")])
def test_python_m_runs_the_cli(module, prog):
    # python -m runs the same command line as the installed script
    src = os.path.dirname(os.path.dirname(os.path.abspath(evaluation.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: {prog} ")
    assert proc.stderr == ""


@pytest.mark.parametrize("content, message", [
    ("[]", "expected a JSON object, got list"),
    ("level1_topics: 2", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"levels": 2, "level1_topics": 2}', "unknown fields: levels"),
    ('{"seed": 1, "topics": 2, "levels": 2}', "unknown fields: levels, topics"),
])
def test_synth_cli_names_the_malformed_spec(tmp_path, capsys, content, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(content)
    assert run_eval_cli(["synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        f"taxoforge-eval: error: {spec_path}: {message}\n"
    assert not (tmp_path / "out").exists()
