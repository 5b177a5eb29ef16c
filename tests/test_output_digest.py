"""scripts/output_digest.py: one SHA-1 line per planted workload and seed;
scripts/run_planted_recovery.py: one score line per planted run."""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

from taxoforge import evaluation
from taxoforge.corpus import load_corpus
from taxoforge.evaluation import planted_outline, write_synthetic_dataset
from taxoforge.pipeline import load_config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# two level-1 topics with two sub-topics each, one deleted: a run takes
# well under a second
TINY = {
    "spec": {"level1_topics": 2, "level2_per_topic": 2, "terms_per_topic": 20,
             "docs_per_topic": 30, "doc_len": 30},
    "delete": "topic1_1",
    "config": {"dim": 4, "epochs": 1, "lr": 0.05, "min_terms": 10,
               "min_docs": 5, "child_batch_size": 512},
}

# SHA-1 of the serialized TINY run at seed 3. A change that moves an output
# bit on purpose updates this value and says why; any other change keeps it.
TINY_SEED3_SHA1 = "50567a143ed5beb3f6d36c9425045b5fb1c90746"

# TINY with three level-1 topics and topic1 deleted. The golden run above
# expands the root and topic0, picks K* = 1 at both and keeps no novel
# cluster; topic1, left with one known sub-topic, is not expanded. At seed
# 3 this one picks K* = 3 and K* = 2, and has known centre terms that also
# anchor a second slot, so it pins the multi-slot paths of the K* search
# and the anchor re-assignment. At topic0 it also drops a novel slot whose
# only term is topic0, the name of the node itself.
WIDE = {**TINY, "spec": {**TINY["spec"], "level1_topics": 3}, "delete": "topic1"}
WIDE_SEED3_SHA1 = "ee3c62654a08df832468fe18a6375cb22168e9a5"

# the seed-1 digest of each benchmark workload: the bytes the benchmark's
# runs write, pinned like the two above
WORKLOAD_SEED1_SHA1 = {
    "planted-l2": "e7d14ef13694aa59f5cb3d5e03c014102702cbc0",
    "planted-l1": "4e809082dfef24cbae8274fa702201933819f258",
    "planted-large": "05ad705a024fb7d2eab29750d4516c4ed1d9c131",
}

# and their seed-2 and seed-3 digests, which the seed-1 runs alone do not
# reach: other corpora, other pair orders, other K* choices
WORKLOAD_SEED23_SHA1 = {
    ("planted-l2", 2): "d051f68b23452320235f055af1bd852e5f0aabdc",
    ("planted-l2", 3): "e80242c5724c40a426da409b2177c5301c2cbaed",
    ("planted-l1", 2): "63a32ad6f2e8f046bc03644b69ac36a194addb0d",
    ("planted-l1", 3): "7f0c6bb729390797e2305ee141f63b6505842c9a",
    ("planted-large", 2): "7624a28f9332839935b4181dca5d602be648805c",
    ("planted-large", 3): "ba2689236bd0f71d0bcee7b87a3873f2c5467997",
}


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def digest_mod():
    return _load("output_digest", "scripts", "output_digest.py")


def test_digest_is_sha1_of_the_serialized_output(digest_mod, monkeypatch):
    texts = []
    real = evaluation.serialize

    def keep(*args):
        texts.append(real(*args))
        return texts[-1]

    monkeypatch.setattr(evaluation, "serialize", keep)
    got = digest_mod.output_digest(TINY["spec"], TINY["delete"],
                                   TINY["config"], seed=3)
    assert got == hashlib.sha1(texts[0].encode("utf-8")).hexdigest()
    # the root was expanded: its children carry a fitted kappa
    assert all(c["kappa"] is not None for c in json.loads(texts[0])["children"])
    assert digest_mod.output_digest(TINY["spec"], TINY["delete"],
                                    TINY["config"], seed=3) == got
    assert digest_mod.output_digest(TINY["spec"], TINY["delete"],
                                    TINY["config"], seed=4) != got


def test_cli_prints_workload_seed_digest(digest_mod, monkeypatch, capsys):
    monkeypatch.setattr(digest_mod, "WORKLOADS", {"tiny": TINY})
    monkeypatch.setattr("sys.argv", ["output_digest.py", "--seeds", "1", "2"])
    digest_mod.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["tiny", "1"], ["tiny", "2"]]
    for line in lines:
        name, seed, digest = line.split()
        assert digest == digest_mod.output_digest(
            TINY["spec"], TINY["delete"], TINY["config"], int(seed))


def test_recovery_script_prints_each_seed_and_the_pass_count(monkeypatch, capsys):
    # canned planted runs with topic1_2 deleted: at seed 1 a novel node under
    # topic1 holds topic1_2's document and terms, at seed 2 none does
    script = _load("run_planted_recovery", "scripts", "run_planted_recovery.py")
    doc_labels = [("topic1", "topic1_1"), ("topic1", "topic1_2")]
    term_labels = {t: t.rsplit("_w", 1)[0] for t in (
        "topic1", "topic1_1", "topic1_2", "topic1_2_w01", "topic1_2_w02")}

    def tree(novel):
        kids = [{"name": "topic1_1", "is_novel": False, "terms": ["topic1_1"],
                 "doc_ids": [0], "children": []}]
        if novel:
            kids.append({"name": "topic1_2_w01", "is_novel": True,
                         "terms": ["topic1_2_w01", "topic1_2", "topic1_2_w02"],
                         "doc_ids": [1], "children": []})
        return json.dumps({"name": "root", "children": [
            {"name": "topic1", "is_novel": False, "terms": ["topic1"],
             "doc_ids": [0, 1], "children": kids}]})

    calls = []

    def run_planted(seed, delete):
        calls.append((seed, delete))
        return tree(seed == 1), doc_labels, term_labels, 1.5

    monkeypatch.setattr(script, "run_planted", run_planted)
    monkeypatch.setattr("sys.argv", ["run_planted_recovery.py", "--delete",
                                     "topic1_2", "--seeds", "1", "2"])
    script.main()
    assert calls == [(1, "topic1_2"), (2, "topic1_2")]
    assert capsys.readouterr().out.splitlines() == [
        "seed=1   1.5s depth=2 best_recovery=1.00 best_node=topic1_2_w01 "
        "novelty_f1=1.000",
        "seed=2   1.5s depth=2 best_recovery=0.00 best_node=None novelty_f1=0.000",
        "recovery >= 0.7 in 1/2 seeds",
    ]


def test_tiny_run_keeps_its_golden_bytes(digest_mod):
    assert digest_mod.output_digest(TINY["spec"], TINY["delete"],
                                    TINY["config"], seed=3) == TINY_SEED3_SHA1


def test_wide_run_keeps_its_golden_bytes(digest_mod):
    assert digest_mod.output_digest(WIDE["spec"], WIDE["delete"],
                                    WIDE["config"], seed=3) == WIDE_SEED3_SHA1


def test_wide_run_names_each_node_once():
    # a node's own center is an ordinary row of its space, so a novel
    # cluster there could be named like the node itself
    text = evaluation.run_planted(3, WIDE["delete"], WIDE["spec"],
                                  WIDE["config"], text_order=True)[0]
    names, stack = [], json.loads(text)["children"]
    while stack:
        node = stack.pop()
        names.append(node["name"])
        stack.extend(node["children"])
    assert sorted(names) == sorted(set(names))
    assert len(names) == 8


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOAD_SEED1_SHA1))
def test_workload_keeps_its_golden_bytes(digest_mod, name):
    wl = _load("perfbench_workloads", "perfbench", "workloads.py").WORKLOADS[name]
    assert digest_mod.output_digest(wl["spec"], wl["delete"], wl["config"],
                                    seed=1) == WORKLOAD_SEED1_SHA1[name]


@pytest.mark.slow
@pytest.mark.parametrize("name,seed", sorted(WORKLOAD_SEED23_SHA1))
def test_workload_keeps_its_seed_2_and_3_bytes(digest_mod, name, seed):
    wl = _load("perfbench_workloads", "perfbench", "workloads.py").WORKLOADS[name]
    assert digest_mod.output_digest(wl["spec"], wl["delete"], wl["config"],
                                    seed) == WORKLOAD_SEED23_SHA1[name, seed]


@pytest.mark.parametrize("name", sorted(WORKLOAD_SEED1_SHA1))
def test_digest_inputs_are_the_benchmarks(tmp_path, monkeypatch, name):
    # the benchmark writes the planted inputs to files and its worker reads
    # them back; the digest builds them in memory: the program sees the same
    # corpus and config either way (the hierarchy: the test below)
    workloads = _load("perfbench_workloads", "perfbench", "workloads.py")
    wl = workloads.WORKLOADS[name]
    seen = {}

    class Stop(Exception):
        pass

    def stop(corpus, partial, cfg):
        seen.update(corpus=corpus, cfg=cfg)
        raise Stop

    monkeypatch.setattr(evaluation, "complete_taxonomy", stop)
    with pytest.raises(Stop):
        evaluation.run_planted(1, wl["delete"], wl["spec"], wl["config"],
                               text_order=True)
    spec = evaluation.PlantedCorpusSpec(**wl["spec"], seed=1)
    write_synthetic_dataset(spec, str(tmp_path))
    read = load_corpus(str(tmp_path / "corpus.txt"))
    assert seen["corpus"].vocab == read.vocab
    assert seen["corpus"].tokens.tolist() == read.tokens.tolist()
    assert seen["corpus"].offsets.tolist() == read.offsets.tolist()

    (tmp_path / "config.txt").write_text(workloads.config_text(wl["config"]))
    assert seen["cfg"] == load_config(str(tmp_path / "config.txt"), seed=1)
    assert workloads.PLANTED_CONFIG == {**evaluation.PLANTED_CONFIG, "epochs": 2}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SEED1_SHA1))
def test_outline_is_the_benchmarks_partial_hierarchy(tmp_path, name):
    # with any planted topic deleted, or none, the outline a planted run
    # parses is the one the benchmark cuts from hierarchy_full.txt
    workloads = _load("perfbench_workloads", "perfbench", "workloads.py")
    spec = evaluation.PlantedCorpusSpec(**workloads.WORKLOADS[name]["spec"], seed=1)
    write_synthetic_dataset(spec, str(tmp_path))
    full = (tmp_path / "hierarchy_full.txt").read_text(encoding="utf-8")
    doc_labels = json.loads((tmp_path / "truth.json").read_text())["doc_labels"]
    for delete in [None, *evaluation._topic_parents(doc_labels)]:
        assert planted_outline(doc_labels, delete) == \
            workloads.partial_hierarchy(full, delete).splitlines(), delete


def test_run_path_never_imports_scipy(tmp_path):
    # a fresh interpreter where any scipy import fails: the TINY run, and a
    # CLI run that expands the root of the small corpus, both succeed, and
    # neither imports numpy.ma
    (tmp_path / "cfg.txt").write_text("dim=8\nepochs=2\nmin_terms=10\nmin_docs=5\n")
    code = textwrap.dedent(f"""
        import importlib.util, json, sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        sys.path.insert(0, {os.path.join(ROOT, "src")!r})
        spec = importlib.util.spec_from_file_location(
            "output_digest", {os.path.join(ROOT, "scripts", "output_digest.py")!r})
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        from taxoforge.pipeline import run_cli
        data = {os.path.join(ROOT, "data", "synthetic_small")!r}
        rc = run_cli(["--corpus", data + "/corpus.txt",
                      "--hierarchy", data + "/partial.txt",
                      "--config", {str(tmp_path / "cfg.txt")!r},
                      "--out", {str(tmp_path / "out.json")!r}, "--seed", "1"])
        print(json.dumps({{
            "digest": mod.output_digest({TINY["spec"]!r}, {TINY["delete"]!r},
                                        {TINY["config"]!r}, seed=3),
            "rc": rc,
            "scipy": [m for m, v in sys.modules.items()
                      if m.split(".")[0] == "scipy" and v is not None],
            "numpy.ma": "numpy.ma" in sys.modules,
        }}))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"digest": TINY_SEED3_SHA1, "rc": 0, "scipy": [],
                   "numpy.ma": False}
    # the CLI run expanded the root: its topics hold documents
    tree = json.loads((tmp_path / "out.json").read_text())
    assert all(c["doc_ids"] for c in tree["children"])


def test_package_imports_only_what_it_declares():
    # every import at any depth, function-local ones too: a lazy import that
    # no run reaches still needs its package installed
    src = os.path.join(ROOT, "src", "taxoforge")
    roots = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update((name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add((name, node.module.split(".")[0]))
    assert roots
    allowed = set(sys.stdlib_module_names) | {"numpy", "taxoforge"}
    assert sorted(r for r in roots if r[1] not in allowed) == []
    if sys.version_info >= (3, 11):
        import tomllib
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
            project = tomllib.load(f)["project"]
        assert project["dependencies"] == ["numpy"]


def test_console_scripts_resolve_to_callables(monkeypatch, capsys):
    # each [project.scripts] entry names a callable that runs its CLI: a
    # renamed or moved main would leave the installed command broken
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert sorted(scripts) == ["taxoforge", "taxoforge-eval"]
    for command, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for name in attr.split("."):
            entry = getattr(entry, name)
        assert callable(entry), target
        monkeypatch.setattr(sys, "argv", [command, "--help"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {command} ")
