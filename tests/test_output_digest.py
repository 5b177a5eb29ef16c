"""scripts/output_digest.py: one SHA-1 line per planted workload and seed."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

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
TINY_SEED3_SHA1 = "111b7e898f5d15f42b12b92d9900029f1f4e41a3"

# TINY with three level-1 topics and topic1 deleted. The golden run above
# expands the root and topic0, picks K* = 1 at both and keeps no novel
# cluster; topic1, left with one known sub-topic, is not expanded. At seed
# 3 this one picks K* = 3 and K* = 2, emits two novel clusters at one
# node, and has known centre terms that also anchor a second slot, so it
# pins the multi-slot paths of the K* search and the anchor re-assignment.
WIDE = {**TINY, "spec": {**TINY["spec"], "level1_topics": 3}, "delete": "topic1"}
WIDE_SEED3_SHA1 = "ad8dea9945ef6e862f49dd5300ca619e972826f3"


@pytest.fixture(scope="module")
def digest_mod():
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(ROOT, "scripts", "output_digest.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_is_sha1_of_the_serialized_output(digest_mod, monkeypatch):
    texts = []
    real = digest_mod.serialize

    def keep(*args):
        texts.append(real(*args))
        return texts[-1]

    monkeypatch.setattr(digest_mod, "serialize", keep)
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


def test_tiny_run_keeps_its_golden_bytes(digest_mod):
    assert digest_mod.output_digest(TINY["spec"], TINY["delete"],
                                    TINY["config"], seed=3) == TINY_SEED3_SHA1


def test_wide_run_keeps_its_golden_bytes(digest_mod):
    assert digest_mod.output_digest(WIDE["spec"], WIDE["delete"],
                                    WIDE["config"], seed=3) == WIDE_SEED3_SHA1


def test_run_path_never_imports_scipy(tmp_path):
    # a fresh interpreter where any scipy import fails: the TINY run, and a
    # CLI run that expands the root of the small corpus, both succeed
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
        }}))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"digest": TINY_SEED3_SHA1, "rc": 0, "scipy": []}
    # the CLI run expanded the root: its topics hold documents
    tree = json.loads((tmp_path / "out.json").read_text())
    assert all(c["doc_ids"] for c in tree["children"])
