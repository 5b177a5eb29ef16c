"""End-to-end pipeline behaviour, config parsing, and the CLI."""

import json

import pytest

from taxoforge.clustering import ClusterConfig
from taxoforge.embedding import EmbedConfig
from taxoforge.evaluation import PlantedCorpusSpec, generate_synthetic_corpus, write_synthetic_dataset
from taxoforge.pipeline import PipelineConfig, complete_taxonomy, load_config, run_cli
from taxoforge.taxonomy import parse_hierarchy, serialize


def tiny_setup(seed=0):
    spec = PlantedCorpusSpec(level1_topics=2, level2_per_topic=2,
                             terms_per_topic=6, docs_per_topic=10,
                             doc_len=20, dim=8, seed=seed)
    corpus, truth, _, _ = generate_synthetic_corpus(spec)
    partial = parse_hierarchy("topic0\ntopic1", corpus)
    cfg = PipelineConfig(embed=EmbedConfig(dim=8, epochs=2, lr=0.05, seed=seed),
                         cluster=ClusterConfig(seed=seed),
                         min_terms=10, min_docs=5, seed=seed)
    return corpus, partial, cfg


# --- config ---


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(max_depth=0)
    with pytest.raises(ValueError):
        PipelineConfig(min_terms=3)  # below the largest novel K searched


def test_load_config_defaults():
    cfg = load_config(None, seed=7)
    assert cfg == PipelineConfig(embed=EmbedConfig(seed=7),
                                 cluster=ClusterConfig(seed=7), seed=7)
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
        "tau_sig=0.5\n"
        "max_depth=3\n")
    cfg = load_config(str(path))
    assert cfg.embed.dim == 16
    assert cfg.embed.lr == 0.1
    assert cfg.cluster.beta_per_level == (1.5, 4.0)
    assert cfg.cluster.tau_sig == 0.5
    assert cfg.max_depth == 3


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
                                        ("child_batch_size=0", "batch_size")])
def test_load_config_rejects_bad_training_values(tmp_path, line, field):
    # the pipeline would otherwise train on no pairs, or divide by zero
    # deep in the trainer
    path = tmp_path / "cfg.txt"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=field):
        load_config(str(path))


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


def test_pipeline_respects_max_depth():
    corpus, partial, cfg = tiny_setup()
    cfg = PipelineConfig(embed=cfg.embed, cluster=cfg.cluster,
                         min_terms=10, min_docs=5, seed=cfg.seed, max_depth=1)
    tax = complete_taxonomy(corpus, partial, cfg)
    out = json.loads(serialize(tax, corpus, 10))
    for c in out["children"]:
        assert c["children"] == []


def test_pipeline_rejects_too_deep_input():
    corpus, _, cfg = tiny_setup()
    deep = parse_hierarchy("topic0\n\ttopic0_0", corpus)
    cfg = PipelineConfig(embed=cfg.embed, cluster=cfg.cluster,
                         min_terms=10, min_docs=5, max_depth=1)
    with pytest.raises(ValueError, match="deeper"):
        complete_taxonomy(corpus, deep, cfg)


def test_pipeline_skips_small_nodes():
    corpus, partial, cfg = tiny_setup()
    cfg = PipelineConfig(embed=cfg.embed, cluster=cfg.cluster,
                         min_terms=10_000, min_docs=5, seed=cfg.seed)
    tax = complete_taxonomy(corpus, partial, cfg)
    out = json.loads(serialize(tax, corpus, 10))
    # root is below min_terms: the input children survive untouched,
    # with no document assignment and no novel siblings
    assert {c["name"] for c in out["children"]} == {"topic0", "topic1"}
    for c in out["children"]:
        assert not c["is_novel"]
        assert c["doc_ids"] == []
        assert c["children"] == []


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


def test_cli_end_to_end(dataset, tmp_path):
    out, hier, cfg = dataset
    result = tmp_path / "taxonomy.json"
    rc = run_cli(["--corpus", str(out / "corpus.txt"),
                  "--hierarchy", str(hier), "--config", str(cfg),
                  "--out", str(result), "--seed", "1"])
    assert rc == 0
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
    assert "no_such_topic" in capsys.readouterr().err


def test_cli_missing_required_arg_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--corpus", "x.txt"])
    assert exc.value.code == 2
