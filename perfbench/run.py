#!/usr/bin/env python3
"""taxoforge benchmark: planted-taxonomy completion, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload planted-l2 --seed 1 --seconds 40 --trace 0

Workloads are listed in ``workloads.py``. For each run this script

1. generates the workload's planted corpus from ``--seed`` with
   ``taxoforge.evaluation`` and writes ``corpus.txt``, ``partial.txt`` (the
   hierarchy with one topic deleted) and ``config.txt`` to a scratch
   directory under ``perfbench/.work`` (removed at exit); generation is
   outside every timing;
2. starts ``worker.py`` in a fresh process with one BLAS thread and
   ``workers=1``; it times set-up (``load_corpus`` + ``parse_hierarchy``)
   several times, then ``complete_taxonomy`` + ``serialize`` for about
   ``--seconds`` (at least once), in CPU time of its thread scaled to a
   reference machine speed (see ``speed.py``);
3. checks every output (well-formed tree, every input topic kept, identical
   bytes across repeats of the seed) and scores it against the planted
   truth at the deleted topic's depth.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs one untraced and one traced worker and reports per-layer metrics from
the spans of ``spans.py``; the traced output must equal the untraced bytes.
Every metric is printed by name with its unit, then the last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

from score import check_tree, score
from workloads import WORKLOADS, config_text, partial_hierarchy

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
DEADLINE_S = 170.0   # a run must end within 180 s


def fail(msg):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def environment(root):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": int(BLAS_THREADS), "pipeline_workers": 1,
        "git_commit": commit,
    }


def generate(wl, seed, workdir):
    """Planted inputs for one seed; returns (truth, n_docs, known paths)."""
    from taxoforge.evaluation import PlantedCorpusSpec, write_synthetic_dataset

    write_synthetic_dataset(PlantedCorpusSpec(**wl["spec"], seed=seed), workdir)
    with open(os.path.join(workdir, "hierarchy_full.txt"), encoding="utf-8") as f:
        partial = partial_hierarchy(f.read(), wl["delete"])
    with open(os.path.join(workdir, "partial.txt"), "w", encoding="utf-8") as f:
        f.write(partial)
    with open(os.path.join(workdir, "config.txt"), "w", encoding="utf-8") as f:
        f.write(config_text(wl["config"]))
    # the worker reads only corpus, partial and config; truth stays here
    truth_path = os.path.join(workdir, "truth.json")
    with open(truth_path, encoding="utf-8") as f:
        truth = json.load(f)
    os.remove(truth_path)
    os.remove(os.path.join(workdir, "hierarchy_full.txt"))
    known, stack = [], []
    for line in partial.splitlines():
        depth = len(line) - len(line.lstrip("\t"))
        stack[depth:] = [line.strip()]
        known.append(tuple(stack))
    return truth, len(truth["doc_labels"]), known


def run_worker(root, workdir, seed, seconds, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--dir", workdir,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"run_s": [], "outputs": [], "error": "worker timed out"}
    sys.stderr.write(proc.stderr)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if proc.returncode != 0 or res is None:
        return {"run_s": [], "outputs": [],
                "error": f"worker exited with code {proc.returncode}"}
    return res


def judge(data, truth, delete, n_docs, known, kappa_max):
    """(problems, scores) of one output; scores is None if unreadable."""
    try:
        tree = json.loads(data)
        return check_tree(tree, n_docs, kappa_max, known), score(tree, truth, delete)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"], None


def layer_metrics(res, plain, epochs, output_bytes):
    S = res["layers"]

    def g(name, key="total_s"):
        # span times at the reference speed of the traced run
        scale = res["layer_scale"] if key.endswith("_s") else 1
        return S.get(name, {}).get(key, 0) * scale

    train = "taxoforge.pipeline.train_node_embedding"
    pairs = "taxoforge.embedding.context_pair_arrays"
    cluster = "taxoforge.pipeline.cluster_node"
    n_pairs = g(pairs, "pairs")
    n_terms = g(cluster, "terms")
    return {
        "embedding.train_s": (g(train), "s"),
        "embedding.train_self_s": (g(train, "self_s"), "s"),
        "embedding.train_us_per_pair_epoch":
            (g(train) * 1e6 / (n_pairs * epochs) if n_pairs else 0.0, "us"),
        "vmf.bessel_s": (g("taxoforge.embedding.bessel_ratio"), "s"),
        "vmf.bessel_calls": (g("taxoforge.embedding.bessel_ratio", "calls"), "count"),
        "vmf.estimate_s": (g("taxoforge.clustering.estimate_vmf"), "s"),
        "vmf.estimate_calls": (g("taxoforge.clustering.estimate_vmf", "calls"), "count"),
        "corpus.pairs_s": (g(pairs), "s"),
        "corpus.pairs": (n_pairs, "count"),
        "clustering.cluster_s": (g(cluster), "s"),
        "clustering.self_s": (g(cluster, "self_s"), "s"),
        "clustering.assign_s": (g("taxoforge.clustering.assign_documents"), "s"),
        "clustering.assign_calls":
            (g("taxoforge.clustering.assign_documents", "calls"), "count"),
        "clustering.kmeans_s": (g("taxoforge.clustering.spherical_kmeans"), "s"),
        "clustering.kmeans_calls":
            (g("taxoforge.clustering.spherical_kmeans", "calls"), "count"),
        "clustering.significance_s": (g("taxoforge.clustering._rep_matrix")
                                      + g("taxoforge.clustering.significance_scores"), "s"),
        "clustering.novel_frac":
            (g(cluster, "novel_terms") / n_terms if n_terms else 0.0, "frac"),
        "corpus.stats_s": (g("taxoforge.pipeline.compute_term_stats"), "s"),
        "corpus.stats_docs": (g("taxoforge.pipeline.compute_term_stats", "docs"), "count"),
        "corpus.postings_s": (g("taxoforge.corpus.Corpus.docs_containing"), "s"),
        "embedding.retrieve_s": (g("taxoforge.pipeline.retrieve_local_corpus"), "s"),
        "embedding.local_docs":
            (g("taxoforge.pipeline.retrieve_local_corpus", "docs"), "count"),
        "corpus.load_s": (median(res["load_s"]), "s"),
        "taxonomy.parse_s": (median(res["parse_s"]), "s"),
        "taxonomy.insert_s": (g("taxoforge.pipeline.insert_children"), "s"),
        "taxonomy.serialize_s": (g("taxoforge.taxonomy.serialize"), "s"),
        "taxonomy.output_bytes": (output_bytes, "bytes"),
        "pipeline.self_s": (g("taxoforge.pipeline.complete_taxonomy", "self_s"), "s"),
        "pipeline.nodes_expanded": (g(train, "calls"), "count"),
        "trace.overhead_frac": (res["run_s"][0] / plain["run_s"][0] - 1.0, "frac"),
        # machine speed during the untraced run: its CPU time over its time
        # at the reference speed of speed.py
        "host.slowdown": (plain["cpu_s"][0] / plain["run_s"][0], "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "taxoforge", "pipeline.py")):
        fail("run from the root of a taxoforge checkout (src/taxoforge not found)")
    sys.path.insert(0, os.path.join(root, "src"))
    from taxoforge.vmf import KAPPA_MAX

    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(root)))
    print("workload " + json.dumps({"name": args.workload, "seed": args.seed, **wl}))

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        truth, n_docs, known = generate(wl, args.seed, workdir)
        if args.trace:
            # --seconds 0: one pipeline run each
            plain = run_worker(root, workdir, args.seed, 0, 0, deadline)
            traced = run_worker(root, workdir, args.seed, 0, 1, deadline)
            runs = [("plain", plain), ("traced", traced)]
        else:
            plain = run_worker(root, workdir, args.seed, args.seconds, 0, deadline)
            runs = [("plain", plain)]

        attempted = failed = 0
        reference = ref_problems = sc = None
        for mode, res in runs:
            for i, path in enumerate(res["outputs"]):
                attempted += 1
                with open(path, "rb") as f:
                    data = f.read()
                if reference is None:
                    reference = data
                    ref_problems, sc = judge(data, truth, wl["delete"], n_docs,
                                             known, KAPPA_MAX)
                    print("score " + json.dumps(sc))
                problems = ref_problems if data == reference else [
                    "output bytes differ from the first run of this seed"]
                failed += bool(problems)
                status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
                print(f"{mode} run {i + 1}: {res['run_s'][i]:.3f} s at reference "
                      f"speed ({res['cpu_s'][i]:.3f} s CPU, {res['wall_s'][i]:.3f} s "
                      f"wall), {len(data)} bytes, {status}")
            if res["error"]:
                attempted += 1
                failed += 1
                print(f"{mode} run {len(res['outputs']) + 1}: FAILED: "
                      f"{res['error'].strip().splitlines()[-1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain["run_s"] or (args.trace and not traced["run_s"]):
        fail("no run completed, so there is nothing to report")

    run_s = plain["run_s"]
    sc = sc or {"recovery": 0.0, "novelty_f1": 0.0, "known_acc": 0.0}
    if args.trace:
        if traced["missing"]:
            print("spans not found (their metrics read 0): "
                  + ", ".join(traced["missing"]))
        metrics = layer_metrics(traced, plain, wl["config"]["epochs"],
                                len(reference))
        metrics["evaluation.recovery"] = (sc["recovery"], "frac")
        metrics["evaluation.novelty_f1"] = (sc["novelty_f1"], "frac")
        metrics["evaluation.known_acc"] = (sc["known_acc"], "frac")
        notes = {"corpus.load_s": f"median of {len(traced['load_s'])}",
                 "taxonomy.parse_s": f"median of {len(traced['parse_s'])}"}
    else:
        setup = [a + b for a, b in zip(plain["load_s"], plain["parse_s"])]
        metrics = {
            "run_ref_s": (median(run_s), "s"),
            "setup_s": (median(setup), "s"),
            "tokens_per_ref_s": (plain["tokens"] / median(run_s), "1/s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        # with fewer than 11 samples no percentile has ten samples beyond
        # it, so the maximum stands for the high percentile
        notes = {"run_ref_s": f"median of {len(run_s)}, max {max(run_s):.6g} s; "
                              f"wall median {median(plain['wall_s']):.6g} s",
                 "setup_s": f"median of {len(setup)}, at reference speed",
                 "tokens_per_ref_s": f"over the median of {len(run_s)}",
                 "ok_frac": f"{attempted - failed} of {attempted} runs"}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({notes.get(name, '1 sample')})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
