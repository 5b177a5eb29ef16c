"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria
1. analytic gradients match finite differences (rel err < 1e-4, < 10 s)
2. novelty scores in (0, 1-1/K] over a pipeline run; pinned threshold values
3. spherical k-means monotone + K=1 closed form
4. vMF kappa estimator within 10%; density integrates to 1 (d=3)
5. BM25 and document assignment match brute force on 100 fixtures
6. planted level-2 recovery over 5 seeds (>= 4/5, < 5 min per run)
7. planted level-1 recovery: a novel depth-1 node, recovery and
   document novelty F1 >= 0.7
8. byte-identical output for identical seeds
9. K* concentration balance picks the balanced candidate
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate

import taxoforge.clustering as clustering
from taxoforge.clustering import (
    ClusterConfig,
    assign_documents,
    novelty_threshold,
    select_novel_k,
    spherical_kmeans,
)
from taxoforge.corpus import load_corpus
from taxoforge.embedding import EmbedConfig, dense_gradients, objective_value
from taxoforge.evaluation import (
    PlantedCorpusSpec,
    run_planted,
    score_planted,
    write_synthetic_dataset,
)
from taxoforge.pipeline import PipelineConfig, complete_taxonomy, run_cli
from taxoforge.taxonomy import parse_hierarchy
from taxoforge.vmf import VmfParams, estimate_vmf, sample_vmf, vmf_log_density

from test_clustering import _planted_node, bm25_score, make_doc_fixture, reference_bm25
from test_corpus import tf
from test_embedding import collect_instances

DATA = "data/synthetic_small"


def _report(capfd, num, name, ok):
    with capfd.disabled():
        print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _tangent(grad, points):
    # remove the radial component so sphere-constrained blocks are compared
    # in their tangent spaces
    radial = np.einsum("...d,...d->...", grad, points)
    return grad - radial[..., None] * points


def test_criterion_1_gradient_correctness(capfd):
    cfg = EmbedConfig(dim=6)
    h = 1e-6
    t0 = time.time()
    worst = 0.0
    # 100 random points; at each, finite-difference one parameter block
    # (cycling through target / context / topic vectors / kappa)
    for n, (space, batch) in enumerate(collect_instances(100)):
        grads = dense_gradients(space, batch, cfg)
        blocks = [(space.target, grads[0], True),
                  (space.context, grads[1], True),
                  (space.topic_vecs, grads[2], True),
                  (space.topic_kappa, grads[3], False)]
        arr, grad, on_sphere = blocks[n % 4]
        fd = np.zeros_like(grad)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = objective_value(space, batch, cfg)
            flat[i] = orig - h
            dn = objective_value(space, batch, cfg)
            flat[i] = orig
            fd.ravel()[i] = (up - dn) / (2 * h)
        if on_sphere:
            grad, fd = _tangent(grad, arr), _tangent(fd, arr)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, np.linalg.norm(grad - fd) / denom)
    elapsed = time.time() - t0
    _report(capfd, 1, "gradient-correctness",
            worst < 1e-4 and elapsed < 10.0)


def test_criterion_2_novelty_range_and_thresholds(capfd, monkeypatch):
    recorded = []
    original = clustering.novelty_scores

    def recording(space, term_ids, temperature):
        nov = original(space, term_ids, temperature)
        recorded.append((nov, space.num_topics))
        return nov

    monkeypatch.setattr(clustering, "novelty_scores", recording)
    corpus = load_corpus(f"{DATA}/corpus.txt")
    with open(f"{DATA}/partial.txt", encoding="utf-8") as f:
        partial = parse_hierarchy(f.read(), corpus)
    cfg = PipelineConfig(embed=EmbedConfig(dim=8, epochs=2, lr=0.05, seed=0),
                         cluster=ClusterConfig(seed=0),
                         min_terms=10, min_docs=5, seed=0)
    complete_taxonomy(corpus, partial, cfg)
    in_range = bool(recorded) and all(
        np.all(nov > 0.0) and np.all(nov <= 1.0 - 1.0 / k + 1e-12)
        for nov, k in recorded)
    thresholds_ok = (
        abs(novelty_threshold(5, 1.5) - 0.8 ** 1.5) < 1e-9
        and novelty_threshold(5, 1.0) == 0.8)
    _report(capfd, 2, "novelty-range-and-thresholds",
            in_range and thresholds_ok)


def test_criterion_3_spherical_kmeans(capfd):
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((40, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        cfg = ClusterConfig(seed=seed)
        assign, means, history = spherical_kmeans(vecs, 3, cfg, seed=seed,
                                                  return_history=True)
        ok &= len(history) <= cfg.kmeans_max_iter + 1
        ok &= bool(np.all(np.diff(history) >= -1e-9))
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((10, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    _, means, _ = spherical_kmeans(vecs, 1, ClusterConfig(), seed=0,
                                   return_history=True)
    expect = vecs.sum(axis=0) / np.linalg.norm(vecs.sum(axis=0))
    ok &= bool(np.linalg.norm(means[0] - expect) < 1e-12)
    _report(capfd, 3, "spherical-kmeans", ok)


def test_criterion_4_vmf_estimator_and_density(capfd):
    rng = np.random.default_rng(42)
    mu = np.zeros(10)
    mu[0] = 1.0
    samples = sample_vmf(mu, 50.0, 10_000, rng)
    params = estimate_vmf(samples, 10)
    est_ok = abs(params.kappa - 50.0) / 50.0 < 0.10

    p3 = VmfParams(mu=np.array([0.0, 0.0, 1.0]), kappa=2.0)
    dens = integrate.dblquad(
        lambda phi, theta: np.exp(vmf_log_density(
            np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)]), p3, 3)) * np.sin(theta),
        0.0, np.pi, 0.0, 2.0 * np.pi)[0]
    int_ok = abs(dens - 1.0) < 1e-4
    _report(capfd, 4, "vmf-estimator-and-density", est_ok and int_ok)


def test_criterion_5_bm25_and_assignment_bruteforce(capfd):
    ok = True
    for seed in range(100):
        corpus, stats, z_term = make_doc_fixture(seed, n_docs=15, n_terms=12)
        rng = np.random.default_rng(seed + 1000)
        sub = rng.choice(corpus.num_docs, size=6, replace=False).tolist()
        t = int(rng.integers(0, corpus.num_terms))
        got = bm25_score(t, sub, stats, k1=1.2, b=0.75)
        want = reference_bm25(t, sub, corpus, stats, 1.2, 0.75)
        ok &= abs(got - want) <= 1e-9

        z_doc = assign_documents(range(corpus.num_docs), z_term, stats, 3)
        for d in range(corpus.num_docs):
            weights = [0.0, 0.0, 0.0]
            for term in set(corpus.documents[d].tokens.tolist()):
                if term in z_term:
                    weights[z_term[term]] += tf(stats, term, d) * stats.idf[term]
            if max(weights) <= 0.0:
                ok &= d not in z_doc
            else:
                ok &= z_doc.get(d) == int(np.argmax(weights))
    _report(capfd, 5, "bm25-and-assignment-bruteforce", ok)


@pytest.mark.slow
def test_criterion_6_planted_level2_recovery(capfd):
    good = 0
    runtime_ok = True
    for seed in range(1, 6):
        out, doc_labels, term_labels, elapsed = run_planted(seed, "topic1_2")
        runtime_ok &= elapsed < 300.0
        sc = score_planted(out, doc_labels, term_labels, "topic1_2")
        good += sc["recovery"] >= 0.7
    _report(capfd, 6, "planted-level2-recovery",
            good >= 4 and runtime_ok)


@pytest.mark.slow
def test_criterion_7_planted_level1_recovery(capfd):
    out, doc_labels, term_labels, _ = run_planted(1, "topic1")
    sc = score_planted(out, doc_labels, term_labels, "topic1")
    _report(capfd, 7, "planted-level1-recovery",
            sc["best_node"] is not None and sc["recovery"] >= 0.7
            and sc["novelty_f1"] >= 0.7)


def test_criterion_8_determinism(capfd, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = run_cli(["--corpus", f"{DATA}/corpus.txt",
                      "--hierarchy", f"{DATA}/partial.txt",
                      "--out", str(path), "--seed", "5"])
        assert rc == 0
        outs.append(path.read_bytes())
    _report(capfd, 8, "determinism", outs[0] == outs[1])


def test_determinism_with_training_and_clustering(tmp_path):
    # criterion 8's corpus is below min_terms, so it never trains or
    # clusters; this planted corpus expands the root and topic0, finds
    # novel sub-topics, and assigns documents at both levels
    spec = PlantedCorpusSpec(level1_topics=3, level2_per_topic=2,
                             terms_per_topic=30, docs_per_topic=40,
                             doc_len=30, dim=8, seed=3)
    write_synthetic_dataset(spec, str(tmp_path))
    (tmp_path / "partial.txt").write_text(
        "topic0\n\ttopic0_0\n\ttopic0_1\ntopic1\n\ttopic1_0\n")
    (tmp_path / "cfg.txt").write_text("dim=8\nepochs=2\nlr=0.05\n")
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        rc = run_cli(["--corpus", str(tmp_path / "corpus.txt"),
                      "--hierarchy", str(tmp_path / "partial.txt"),
                      "--config", str(tmp_path / "cfg.txt"),
                      "--out", str(path), "--seed", "5"])
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    tree = json.loads(outs[0])
    topic0 = next(c for c in tree["children"] if c["name"] == "topic0")
    assert topic0["doc_ids"] and topic0["kappa"] is not None
    assert any(c["doc_ids"] for c in topic0["children"])
    assert any(c["is_novel"] for c in tree["children"] + topic0["children"])
    stack = list(tree["children"])
    while stack:
        node = stack.pop()
        assert node["doc_ids"] or not node["is_novel"], \
            f"novel node {node['name']} has no documents"
        stack.extend(node["children"])


def test_criterion_9_kstar_balance(capfd):
    # numeric form of the worked example: known kappas {50, 52};
    # candidate concentrations {51} (K=1) vs {10, 90} (K=2)
    known = np.array([50.0, 52.0])
    balanced = float(np.std(np.r_[known, [51.0]]))
    split = float(np.std(np.r_[known, [10.0, 90.0]]))
    example_ok = balanced < split  # 0.8165 < 28.2975 -> K*=1

    # data-level analogues: one planted novel bundle -> K*=1,
    # two planted novel bundles -> K*=2
    picks = []
    for n_novel in (1, 2):
        corpus, sp, stats, labels = _planted_node(n_novel=n_novel)
        known_assign = {t: g for t, g in labels.items() if g < 2}
        novel = {t for t, g in labels.items() if g >= 2}
        known_centers = {0: min(t for t, g in labels.items() if g == 0),
                         1: min(t for t, g in labels.items() if g == 1)}
        res = select_novel_k(novel, known_assign, known_centers, sp, stats,
                             list(labels), range(corpus.num_docs), corpus,
                             ClusterConfig(tau_sig=0.0))
        picks.append(res.k_star)
    _report(capfd, 9, "kstar-balance", example_ok and picks == [1, 2])
