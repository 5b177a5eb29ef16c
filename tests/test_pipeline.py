"""End-to-end pipeline behaviour, config parsing, and the CLI."""

import csv
import dataclasses
import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoforge import pipeline
from taxoforge.clustering import cluster_node
from taxoforge.corpus import load_corpus
from taxoforge.embedding import BATCH_SIZE, train_node_embedding
from taxoforge.evaluation import (PlantedCorpusSpec, generate_synthetic_corpus,
                                  planted_outline, write_synthetic_dataset)
from taxoforge.pipeline import (CONFIG_KEYS, PipelineConfig, complete_taxonomy,
                                load_config, run_cli)
from taxoforge.taxonomy import parse_hierarchy, serialize
from taxoforge.vmf import KAPPA_MAX


def tiny_setup(seed=0):
    spec = PlantedCorpusSpec(level1_topics=2, level2_per_topic=2,
                             terms_per_topic=6, docs_per_topic=10,
                             doc_len=20, dim=8, seed=seed)
    corpus, _, _ = generate_synthetic_corpus(spec)
    partial = parse_hierarchy("topic0\ntopic1", corpus)
    cfg = PipelineConfig(dim=8, epochs=2, lr=0.05, min_terms=10, min_docs=5,
                         seed=seed)
    return corpus, partial, cfg


# --- config ---


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="min_terms must be >= 0, got -1"):
        PipelineConfig(min_terms=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        PipelineConfig(seed=-1)
    with pytest.raises(ValueError, match=re.escape("beta (beta1, beta2) must be "
                                                   "finite and >= 1")):
        PipelineConfig(beta1=0.5)


def test_load_config_defaults():
    cfg = load_config(None, seed=7)
    assert cfg == PipelineConfig(seed=7)
    assert load_config(None, seed=7, workers=1) == cfg
    with pytest.raises(ValueError, match="workers"):
        load_config(None, workers=2)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "dim = 16   # embedding size\n"
        "\n"
        "lr=0.1\n"
        "beta2=4.0\n"
        "min_docs=3\n")
    cfg = load_config(str(path))
    assert cfg.dim == 16
    assert cfg.lr == 0.1
    assert (cfg.beta1, cfg.beta2) == (1.5, 4.0)
    assert cfg.min_docs == 3


def test_load_config_top_k_is_the_benchmarks_top_k_output(tmp_path):
    # the benchmark worker serializes with cfg.top_k_output
    path = tmp_path / "cfg.txt"
    path.write_text("top_k=3\n")
    cfg = load_config(str(path), seed=1, workers=1)
    assert cfg.top_k == 3
    assert cfg.top_k_output == 3


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("dimension=16\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(path))


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("dim 16\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(str(path))


@pytest.mark.parametrize("line,field", [("window=0", "window"),
                                        ("batch_size=0", "batch_size"),
                                        ("child_batch_size=0", "batch_size"),
                                        ("epochs=0", "epochs"),
                                        ("lr=0", "lr"),
                                        ("dim=1", "dim"),
                                        ("lr=inf", "lr must be finite"),
                                        ("beta1=inf", "beta .* must be finite"),
                                        ("beta2=inf", "beta .* must be finite"),
                                        ("top_k=-1", "top_k"),
                                        ("beta1=nan", "beta"),
                                        ("beta2=nan", "beta"),
                                        ("min_docs=-4", "min_docs"),
                                        ("min_docs=0", "min_docs must be >= 1, "
                                                       "got 0"),
                                        ("min_terms=-1", "min_terms must be >= 0, "
                                                         "got -1"),
                                        ("dim=abc", "cfg.txt line 1: dim expects "
                                                    "int, got 'abc'"),
                                        ("lr=fast", "cfg.txt line 1: lr expects "
                                                    "float, got 'fast'")])
def test_load_config_rejects_bad_training_values(tmp_path, line, field):
    # batch_size=0 fails as an unknown key: the root's batch is a constant;
    # the pipeline would otherwise train on no pairs, divide by zero deep
    # in the trainer, keep the random initialization as the trained
    # embedding, find no novel term (a NaN beta) or drop terms from every
    # output node (a negative top_k); an infinite lr wrote NaN kappas, and
    # an infinite beta flagged every term as novel and left the known
    # topics without documents; a negative min_terms would silently act as 0,
    # and a node with no documents has no term statistics to cluster; a
    # value of the wrong type is named with its file, line and key
    path = tmp_path / "cfg.txt"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=field):
        load_config(str(path))


def test_load_config_rejects_repeated_key(tmp_path):
    # the last value used to win: dim=8 then dim=4 loaded dim 4
    path = tmp_path / "cfg.txt"
    path.write_text("dim=8\n# a comment\nepochs=2\ndim = 4\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path} line 4: key 'dim' repeats the key of line 1")):
        load_config(str(path))


@pytest.mark.parametrize("line", ["child_dim", "child_margin", "child_negatives",
                                  "child_epochs", "child_lr", "max_depth",
                                  "bm25_k1=-2", "bm25_b=3", "bm25_b=nan",
                                  "margin=0.3", "negatives=2", "M=100",
                                  "temperature=0.1", "tau_sig=0.3",
                                  "kmax_novel=5", "batch_size=8192"])
def test_load_config_rejects_removed_child_keys(tmp_path, line):
    # nodes below the root share every embedding setting but the batch size;
    # no depth limit is needed: only nodes with two known sub-topics expand;
    # BM25 runs with its standard constants k1 = 1.2 and b = 0.75; the
    # margin, negatives and M are constants of the embedding module, and the
    # temperature, tau_sig and the largest K* of the clustering module; the
    # root's SGD batch is the embedding module's BATCH_SIZE
    key, _, value = line.partition("=")
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key}={value or 1}\n")
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        load_config(str(path))


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_each_config_key_sets_one_field(tmp_path, key):
    # a valid value of the key's type that differs from the default sets the
    # field of the key's name and no other
    typ = CONFIG_KEYS[key]
    value = typ("2.5" if key.startswith("beta") else
                {int: "7", float: "0.5"}[typ])
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key}={value}\n")
    got, default = load_config(str(path), seed=3), PipelineConfig(seed=3)
    assert getattr(default, key) != value
    assert got == dataclasses.replace(default, **{key: value})
    assert type(getattr(got, key)) is typ


def test_readme_lists_every_config_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    keys = re.search(r"Keys: `([^`]*)`", text).group(1).split()
    assert sorted(keys) == sorted(CONFIG_KEYS)


# --- complete_taxonomy ---


def test_pipeline_deterministic():
    outs = []
    for _ in range(2):
        corpus, partial, cfg = tiny_setup()
        tax = complete_taxonomy(corpus, partial, cfg)
        outs.append(serialize(tax, corpus, 10))
    assert outs[0] == outs[1]


def test_pipeline_tree_invariants():
    corpus, partial, cfg = tiny_setup()
    tax = complete_taxonomy(corpus, partial, cfg)
    out = json.loads(serialize(tax, corpus, 50))
    child_names = {c["name"] for c in out["children"]}
    assert {"topic0", "topic1"} <= child_names
    # children partition a subset of the parent's docs; terms are disjoint
    root_docs = set(range(corpus.num_docs))
    seen_terms = set()
    for c in out["children"]:
        assert set(c["doc_ids"]) <= root_docs
        terms = set(c["terms"])
        assert not terms & seen_terms
        seen_terms |= terms
    doc_lists = [d for c in out["children"] for d in c["doc_ids"]]
    assert len(doc_lists) == len(set(doc_lists))


@st.composite
def small_planted_runs(draw):
    """A small planted corpus, a random partial outline of its hierarchy
    (any level-1 topic or sub-topic may be missing) and a 1-epoch config."""
    spec = PlantedCorpusSpec(
        level1_topics=draw(st.integers(1, 3)),
        level2_per_topic=draw(st.integers(1, 3)),
        terms_per_topic=draw(st.integers(2, 8)),
        docs_per_topic=draw(st.integers(2, 10)),
        doc_len=draw(st.integers(3, 15)), dim=4,
        seed=draw(st.integers(0, 2**16)))
    corpus, doc_labels, _ = generate_synthetic_corpus(spec)
    outline, keep_parent = [], False
    for line in planted_outline(doc_labels):
        if not line.startswith("\t"):
            keep_parent = draw(st.booleans())
        if keep_parent and (not line.startswith("\t") or draw(st.booleans())):
            outline.append(line)
    seed = draw(st.integers(0, 100))
    cfg = PipelineConfig(
        dim=4, epochs=1, window=2, lr=0.05, child_batch_size=256,
        min_terms=draw(st.integers(1, 20)), min_docs=draw(st.integers(1, 10)),
        seed=seed)
    return corpus, "\n".join(outline), cfg


def _run_small(corpus, outline, cfg):
    tax = complete_taxonomy(corpus, parse_hierarchy(outline, corpus), cfg)
    return serialize(tax, corpus, cfg.top_k)


@given(small_planted_runs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_pipeline_properties_on_small_planted_runs(run):
    corpus, outline, cfg = run
    # the root trains on batches of 256 too, as the nodes below it do
    with mock.patch.object(pipeline, "BATCH_SIZE", 256):
        text = _run_small(corpus, outline, cfg)
        assert _run_small(corpus, outline, cfg) == text
    tree = json.loads(text)
    inputs = [line.strip() for line in outline.splitlines()]
    found, names = [], []
    stack = [(tree, None)]
    while stack:
        node, parent_docs = stack.pop()
        assert set(node) == {"name", "is_novel", "terms", "doc_ids", "kappa",
                             "children"}
        assert node["doc_ids"] == sorted(set(node["doc_ids"]))
        if parent_docs is not None:
            assert set(node["doc_ids"]) <= parent_docs
        if node is not tree:
            names.append(node["name"])
            assert node["terms"][0] == node["name"]
            assert node["kappa"] is None or 0.0 <= node["kappa"] <= KAPPA_MAX
            if not node["is_novel"]:
                found.append(node["name"])
        docs = None if node is tree else set(node["doc_ids"])
        stack.extend((c, docs) for c in node["children"])
    assert sorted(found) == sorted(inputs)
    assert len(set(names)) == len(names)   # no two nodes share a name
    # only a node with two known sub-topics is expanded, and a novel node
    # never is
    stack = [tree]
    while stack:
        node = stack.pop()
        known = [c for c in node["children"] if not c["is_novel"]]
        if node["is_novel"]:
            assert node["children"] == []
        if len(known) < len(node["children"]):
            assert len(known) >= 2
        stack.extend(node["children"])


@pytest.mark.parametrize("child_batch_size", [None, 64])
def test_child_batch_size_below_the_root(monkeypatch, child_batch_size):
    # the root trains with BATCH_SIZE, every node below it with
    # child_batch_size, whose default (None: not set) is BATCH_SIZE
    # topic0 keeps both of its sub-topics, so it is expanded below the root
    corpus, _, cfg = tiny_setup()
    partial = parse_hierarchy("topic0\n\ttopic0_0\n\ttopic0_1\ntopic1", corpus)
    cfg = dataclasses.replace(cfg, min_terms=5, min_docs=5)
    if child_batch_size is not None:
        cfg = dataclasses.replace(cfg, child_batch_size=child_batch_size)
    sizes = []

    def recording(docs, terms, keywords, cfg, batch_size, corpus, centers, seed):
        sizes.append(batch_size)
        return train_node_embedding(docs, terms, keywords, cfg, batch_size,
                                    corpus, centers, seed)

    monkeypatch.setattr(pipeline, "train_node_embedding", recording)
    complete_taxonomy(corpus, partial, cfg)
    child = BATCH_SIZE if child_batch_size is None else child_batch_size
    assert len(sizes) > 1   # some node below the root was expanded
    assert sizes == [BATCH_SIZE] + [child] * (len(sizes) - 1)


def test_beta1_at_the_root_and_beta2_below(monkeypatch):
    # the root's known/novel split uses beta1, every level below it beta2
    corpus, _, cfg = tiny_setup()
    partial = parse_hierarchy("topic0\n\ttopic0_0\n\ttopic0_1\ntopic1", corpus)
    cfg = dataclasses.replace(cfg, beta1=1.5, beta2=3.0, min_terms=5, min_docs=5)
    betas = []

    def recording(space, stats, beta, seed, named):
        betas.append(beta)
        return cluster_node(space, stats, beta, seed, named)

    monkeypatch.setattr(pipeline, "cluster_node", recording)
    complete_taxonomy(corpus, partial, cfg)
    assert len(betas) > 1   # some node below the root was expanded
    assert betas == [1.5] + [3.0] * (len(betas) - 1)


def test_pipeline_skips_small_nodes():
    corpus, partial, cfg = tiny_setup()
    cfg = dataclasses.replace(cfg, min_terms=10_000, min_docs=5)
    tax = complete_taxonomy(corpus, partial, cfg)
    out = json.loads(serialize(tax, corpus, 10))
    # root is below min_terms: the input children survive untouched,
    # with no document assignment and no novel siblings
    assert {c["name"] for c in out["children"]} == {"topic0", "topic1"}
    for c in out["children"]:
        assert not c["is_novel"]
        assert c["doc_ids"] == []
        assert c["children"] == []


def test_node_without_documents_is_not_expanded():
    # the known topic1 (three known sub-topics, 13 terms) ends with no
    # documents; with min_docs=0 it was expanded, and computing the term
    # statistics of its empty document set stopped the whole run
    spec = PlantedCorpusSpec(level1_topics=3, level2_per_topic=3,
                             terms_per_topic=10, docs_per_topic=12,
                             doc_len=20, dim=6, seed=14)
    corpus, doc_labels, _ = generate_synthetic_corpus(spec)
    outline = "\n".join(planted_outline(doc_labels, "topic0_1"))

    def config(min_docs):
        return PipelineConfig(
            dim=4, epochs=1, window=2, lr=0.05, child_batch_size=256,
            beta1=5.0, beta2=5.0, min_terms=5,
            min_docs=min_docs, seed=14)

    with pytest.raises(ValueError, match="min_docs must be >= 1, got 0"):
        config(0)
    with mock.patch.object(pipeline, "BATCH_SIZE", 256):   # the root's too
        tree = json.loads(_run_small(corpus, outline, config(1)))
    topic1 = next(c for c in tree["children"] if c["name"] == "topic1")
    assert topic1["doc_ids"] == []
    assert not any(c["is_novel"] for c in topic1["children"])


def test_pipeline_keeps_known_children_named():
    corpus, partial, cfg = tiny_setup()
    tax = complete_taxonomy(corpus, partial, cfg)
    out = json.loads(serialize(tax, corpus, 10))
    known = [c for c in out["children"] if not c["is_novel"]]
    assert {c["name"] for c in known} == {"topic0", "topic1"}
    for c in known:
        assert c["terms"][0] == c["name"]   # center term listed first


# --- CLI ---


@pytest.fixture()
def dataset(tmp_path):
    spec = PlantedCorpusSpec(level1_topics=2, level2_per_topic=2,
                             terms_per_topic=6, docs_per_topic=10,
                             doc_len=20, dim=8, seed=0)
    out = tmp_path / "data"
    write_synthetic_dataset(spec, str(out))
    hier = tmp_path / "partial.txt"
    hier.write_text("topic0\ntopic1\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dim=8\nepochs=2\nlr=0.05\nmin_terms=10\nmin_docs=5\n")
    return out, hier, cfg


def test_cli_end_to_end(dataset, tmp_path, capsys):
    out, hier, cfg = dataset
    result = tmp_path / "taxonomy.json"
    rc = run_cli(["--corpus", str(out / "corpus.txt"),
                  "--hierarchy", str(hier), "--config", str(cfg),
                  "--out", str(result), "--seed", "1"])
    assert rc == 0
    assert capsys.readouterr().err == ""   # the root expanded: no warning
    tree = json.loads(result.read_text())
    assert {c["name"] for c in tree["children"]} >= {"topic0", "topic1"}


def test_cli_dump_debug(dataset, tmp_path):
    out, hier, cfg = dataset
    result = tmp_path / "taxonomy.json"
    debug = tmp_path / "debug"
    rc = run_cli(["--corpus", str(out / "corpus.txt"),
                  "--hierarchy", str(hier), "--config", str(cfg),
                  "--out", str(result), "--dump-debug", str(debug)])
    assert rc == 0
    files = {p.name for p in debug.iterdir()}
    assert "node_0_terms.csv" in files
    assert "node_0_embedding.txt" in files
    header = (debug / "node_0_terms.csv").read_text().splitlines()[0]
    assert header == "term,significance,slot,is_novel_term"


def test_cli_dump_debug_quotes_terms(dataset, tmp_path):
    # a term may hold commas and quotes: each row still reads back as four
    # fields, with the term whole
    out, hier, cfg = dataset
    odd = 'w,"3'
    lines = [[odd if t == "topic0_w01" else t for t in line.split()]
             for line in (out / "corpus.txt").read_text().splitlines()]
    corpus = tmp_path / "odd.txt"
    corpus.write_text("".join(" ".join(line) + "\n" for line in lines))
    debug = tmp_path / "debug"
    rc = run_cli(["--corpus", str(corpus), "--hierarchy", str(hier),
                  "--config", str(cfg), "--out", str(tmp_path / "taxonomy.json"),
                  "--dump-debug", str(debug)])
    assert rc == 0
    with open(debug / "node_0_terms.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert all(len(row) == 4 for row in rows)
    # the root's rows are the whole vocabulary, odd term included
    assert sorted(row[0] for row in rows[1:]) == sorted(set(corpus.read_text().split()))
    assert odd in {row[0] for row in rows}


def test_cli_warns_when_root_not_expanded(tmp_path, capsys):
    # 36 distinct terms, below the default min_terms of 50
    data = "data/synthetic_small"
    result = tmp_path / "taxonomy.json"
    rc = run_cli(["--corpus", f"{data}/corpus.txt",
                  "--hierarchy", f"{data}/partial.txt",
                  "--out", str(result), "--seed", "1"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "warning: the root was not expanded" in err
    assert "36 terms (min_terms=50)" in err
    assert "(min_docs=20)" in err
    tree = json.loads(result.read_text())
    assert all(not c["doc_ids"] for c in tree["children"])


def test_cli_warns_when_root_has_one_topic(tmp_path, capsys):
    # big enough to expand, but the novelty split needs two known topics:
    # the root is left as it is, without a novel copy of topic0
    data = "data/synthetic_small"
    hier = tmp_path / "partial.txt"
    hier.write_text("topic0\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("dim=8\nepochs=2\nmin_terms=10\nmin_docs=5\n")
    result = tmp_path / "taxonomy.json"
    rc = run_cli(["--corpus", f"{data}/corpus.txt", "--hierarchy", str(hier),
                  "--config", str(cfg), "--out", str(result), "--seed", "1"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "the root was not expanded (fewer than two known sub-topics): " \
        "1 top-level topics (at least 2), 36 terms (min_terms=10), " \
        "40 documents (min_docs=5)" in err
    tree = json.loads(result.read_text())
    assert [(c["name"], c["doc_ids"], c["children"])
            for c in tree["children"]] == [("topic0", [], [])]


def test_cli_missing_corpus_is_error(dataset, tmp_path):
    _, hier, cfg = dataset
    rc = run_cli(["--corpus", str(tmp_path / "nope.txt"),
                  "--hierarchy", str(hier),
                  "--out", str(tmp_path / "o.json")])
    assert rc == 1


def test_cli_unknown_topic_is_error(dataset, tmp_path, capsys):
    out, _, cfg = dataset
    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_topic\n")
    rc = run_cli(["--corpus", str(out / "corpus.txt"),
                  "--hierarchy", str(bad),
                  "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"taxoforge: error: {bad}: topic names not in vocabulary: no_such_topic\n"


def test_cli_space_indented_hierarchy_is_error(dataset, tmp_path, capsys):
    out, _, _ = dataset
    bad = tmp_path / "bad.txt"
    bad.write_text("topic0\n    topic0_0\ntopic1\n")
    rc = run_cli(["--corpus", str(out / "corpus.txt"),
                  "--hierarchy", str(bad),
                  "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"taxoforge: error: {bad} line 2: indent with tabs only\n"
    assert not (tmp_path / "o.json").exists()


def test_cli_blank_corpus_is_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n   \n\t\n\n")
    hier = tmp_path / "partial.txt"
    hier.write_text("topic0\ntopic1\n")
    rc = run_cli(["--corpus", str(corpus), "--hierarchy", str(hier),
                  "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err == \
        "taxoforge: error: corpus contains no non-empty documents\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("cfg_text,integrity,message", [
    ("lr=inf\n", None, "lr must be finite and > 0, got inf"),
    ("beta1=inf\n", None, "beta (beta1, beta2) must be finite"),
    ("beta2=inf\n", None, "beta (beta1, beta2) must be finite"),
    ("dim=8\ndim=4\n", None, "cfg.txt line 2: key 'dim' repeats the key of line 1"),
    ("", "topic0\t0.2\ntopic0\t0.9\n",
     "line 2: term 'topic0' repeats the term of line 1"),
])
def test_cli_rejected_input_leaves_no_output(tmp_path, capsys, cfg_text,
                                             integrity, message):
    data = "data/synthetic_small"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cfg_text)
    args = ["--corpus", f"{data}/corpus.txt", "--hierarchy", f"{data}/partial.txt",
            "--config", str(cfg), "--out", str(tmp_path / "o.json")]
    if integrity is not None:
        (tmp_path / "integrity.tsv").write_text(integrity)
        args += ["--integrity", str(tmp_path / "integrity.tsv")]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("taxoforge: error: ") and message in err
    assert not (tmp_path / "o.json").exists()


def test_cli_non_finite_kappa_leaves_no_output(tmp_path, capsys, monkeypatch):
    # serialized before --out is opened: a failed run writes no empty file
    def nan_kappa(corpus, partial, cfg, debug_dir=None):
        partial.nodes[partial.nodes[partial.root].children[0]].kappa = float("nan")
        return partial

    monkeypatch.setattr(pipeline, "complete_taxonomy", nan_kappa)
    data = "data/synthetic_small"
    rc = run_cli(["--corpus", f"{data}/corpus.txt",
                  "--hierarchy", f"{data}/partial.txt",
                  "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "taxoforge: error: node 'topic0' has a non-finite kappa nan" in err
    assert not (tmp_path / "o.json").exists()


def test_cli_ignores_a_leading_byte_order_mark(dataset, tmp_path):
    # editors on Windows save UTF-8 with a BOM; read as plain UTF-8 it would
    # glue U+FEFF onto the first term, key or topic name
    out, hier, cfg = dataset
    integrity = tmp_path / "integrity.tsv"
    integrity.write_text("topic0\t0.2\ntopic1_0\t0.5\n")
    plain = {"corpus": out / "corpus.txt", "hierarchy": hier, "config": cfg,
             "integrity": integrity}
    bom = {}
    for flag, path in plain.items():
        bom[flag] = tmp_path / f"bom_{path.name}"
        bom[flag].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    results = []
    for name, paths in (("plain", plain), ("bom", bom)):
        result = tmp_path / f"{name}.json"
        args = [a for flag, path in paths.items() for a in (f"--{flag}", str(path))]
        assert run_cli(args + ["--out", str(result), "--seed", "1"]) == 0
        results.append(result.read_bytes())
    assert results[0] == results[1]
    assert not results[0].startswith(b"\xef\xbb\xbf")
    a = load_corpus(str(plain["corpus"]), str(plain["integrity"]))
    b = load_corpus(str(bom["corpus"]), str(bom["integrity"]))
    assert a.vocab == b.vocab
    assert np.array_equal(a.integrity, b.integrity)
    assert a.integrity[a.vocab.index("topic0")] == 0.2


def with_bad_second_line(path, out):
    """Write path's bytes to out behind a BOM, its first line ended by CRLF
    and followed by a line holding the byte 0xff; returns out."""
    first, rest = path.read_bytes().split(b"\n", 1)
    out.write_bytes(b"\xef\xbb\xbf" + first + b"\r\nx\xff\n" + rest)
    return out


@pytest.mark.parametrize("flag", ["corpus", "hierarchy", "config", "integrity"])
def test_cli_names_the_file_and_line_of_a_byte_not_utf8(dataset, tmp_path, capsys,
                                                        flag):
    # the decoder's own message names neither; a BOM is still dropped and
    # a CRLF ending counts as one line
    out, hier, cfg = dataset
    integrity = tmp_path / "integrity.tsv"
    integrity.write_text("topic0\t0.2\ntopic1_0\t0.5\n")
    paths = {"corpus": out / "corpus.txt", "hierarchy": hier, "config": cfg,
             "integrity": integrity}
    paths[flag] = bad = with_bad_second_line(paths[flag], tmp_path / f"bad_{flag}")
    result = tmp_path / "o.json"
    args = [a for name, path in paths.items() for a in (f"--{name}", str(path))]
    assert run_cli(args + ["--out", str(result)]) == 1
    assert capsys.readouterr().err == (
        f"taxoforge: error: {bad} line 2: byte 0xff is not UTF-8\n")
    assert not result.exists()


def test_cli_missing_required_arg_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--corpus", "x.txt"])
    assert exc.value.code == 2
