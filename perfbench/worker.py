"""One measured process: load the generated inputs, complete the taxonomy.

Usage (started by ``run.py``, one fresh process per mode):

    python3 perfbench/worker.py --dir WORKDIR --seed N --seconds S --trace 0|1

Reads ``corpus.txt``, ``partial.txt`` and ``config.txt`` from WORKDIR. Each
pipeline run (``complete_taxonomy`` + ``serialize``) is preceded by a batch
of timed set-ups (``load_corpus`` + ``parse_hierarchy``, each part apart): at
least 2, and more while the batch took under 0.8 s. The run uses the last
set-up's corpus and hierarchy. Batches between runs sample set-up time at
several moments, since CPU speed on a shared machine drifts over seconds.
Runs repeat while the next one is expected to end within S seconds of the
first start, at least once and at most 20 times.

Set-ups and runs are timed in CPU time of the main thread, which leaves out
the time the process waited for a CPU (other processes, or the host running
other guests), and scaled to a reference machine speed with the kernels of
``speed.py``: each run by the probes taken during it, each set-up by the
parse kernel run before and after it. The process computes on one thread
(``workers=1``, one BLAS thread). Each run's unscaled CPU time and wall time
are reported beside it. Each output goes to
``WORKDIR/out-<mode>-<i>.json``; a JSON summary is the last line of stdout.
With ``--trace 1`` the spans of ``spans.py`` are installed first and their
per-name summary is included.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from taxoforge.corpus import load_corpus  # noqa: E402
from taxoforge.pipeline import complete_taxonomy, load_config  # noqa: E402
from taxoforge.taxonomy import parse_hierarchy, serialize  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import ParseReference, SpeedProbe  # noqa: E402

SETUP_MIN, SETUP_S = 2, 0.8   # per batch
MAX_ITERS = 20


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    corpus_path = os.path.join(args.dir, "corpus.txt")
    with open(os.path.join(args.dir, "partial.txt"), encoding="utf-8") as f:
        partial_text = f.read()
    cfg = load_config(os.path.join(args.dir, "config.txt"),
                      seed=args.seed, workers=1)
    mode = "traced" if args.trace else "plain"

    probe, parse_ref = SpeedProbe(), ParseReference()
    tracer = Tracer(clock=probe.net_ns) if args.trace else None
    if tracer:
        tracer.install()

    def call(name, fn, *a):
        return tracer.call(name, fn, *a) if tracer else fn(*a)

    load_s, parse_s = [], []

    def setups():
        start, n = time.thread_time(), 0
        while True:
            before = parse_ref.seconds()
            t0 = time.thread_time()
            corpus = load_corpus(corpus_path)
            t1 = time.thread_time()
            partial = parse_hierarchy(partial_text, corpus)
            t2 = time.thread_time()
            scale = parse_ref.scale(before, parse_ref.seconds())
            load_s.append((t1 - t0) * scale)
            parse_s.append((t2 - t1) * scale)
            n += 1
            if n >= SETUP_MIN and time.thread_time() - start >= SETUP_S:
                return corpus, partial

    run_s, cpu_s, wall_s, outputs, error = [], [], [], [], None
    first = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        corpus, partial = setups()
        w0, m0 = time.perf_counter(), probe.mark()
        probe.start()
        try:
            tax = call("taxoforge.pipeline.complete_taxonomy",
                       complete_taxonomy, corpus, partial, cfg)
            text = call("taxoforge.taxonomy.serialize", serialize,
                        tax, corpus, cfg.top_k_output)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            break
        finally:
            probe.stop()
        net_s, ref_s = probe.scaled(m0, probe.mark())
        wall_s.append(time.perf_counter() - w0)
        cpu_s.append(net_s)
        run_s.append(ref_s)
        path = os.path.join(args.dir, f"out-{mode}-{len(outputs)}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        outputs.append(path)
        now = time.perf_counter()
        if len(run_s) >= MAX_ITERS or (now - first) + (now - t_iter) > args.seconds:
            break
    tokens = sum(int(d.tokens.size) for d in corpus.documents)
    print(json.dumps({
        "load_s": load_s,
        "parse_s": parse_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "outputs": outputs,
        "error": error,
        "tokens": tokens,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # the traced run's spans, in net CPU seconds, and their scale factor
        "layers": tracer.summary() if tracer else None,
        "layer_scale": run_s[0] / cpu_s[0] if tracer and run_s else 1.0,
        "missing": tracer.missing if tracer else [],
    }))


if __name__ == "__main__":
    main()
