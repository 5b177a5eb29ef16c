"""Span tracing for the benchmark's traced run.

The program is not changed: the tracer replaces module attributes with
wrappers, under the name the caller looks each function up by (the pipeline
calls ``taxoforge.pipeline.train_node_embedding``, the trainer calls
``taxoforge.embedding.bessel_ratio``, and so on). Each span records its
name, start, end, parent and optional counts; spans stay in memory and are
summarised when the run ends. Start and end are read from a clock in ns
(the worker's: CPU time less the speed probe's), so a layer's time leaves
out waits for a CPU. A span's self time is its duration minus the
time its child spans cover. The worker runs the pipeline with ``workers=1``,
so one stack of open spans is enough.

A wrapped name the program no longer has is reported in ``missing`` and its
metrics read 0, so the benchmark still runs against later versions.
"""

import importlib
import time


def _novel_counts(args, kwargs, res):
    return {"novel_terms": len(res.novel_terms), "terms": len(res.z_term)}


# owner (module, or module.Class) -> attribute -> count function or None
TRACED = {
    "taxoforge.pipeline": {
        "retrieve_local_corpus": lambda a, k, res: {"docs": len(res)},
        "train_node_embedding": None,
        "compute_term_stats": lambda a, k, res: {"docs": len(a[1])},
        "cluster_node": _novel_counts,
        "insert_children": None,
    },
    "taxoforge.embedding": {
        "context_pair_arrays": lambda a, k, res: {"pairs": len(res[0])},
        "bessel_ratio": None,
    },
    "taxoforge.clustering": {
        "assign_documents": None,
        "spherical_kmeans": None,
        "_rep_matrix": None,
        "significance_scores": None,
        "estimate_vmf": None,
    },
    "taxoforge.corpus.Corpus": {
        "docs_containing": None,
    },
}


def _resolve(owner_path):
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(owner_path)


class Tracer:
    def __init__(self, clock=time.thread_time_ns):
        self._clock = clock
        self.spans = []      # [name, start_ns, end_ns, parent index, counts]
        self.missing = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._run(name, fn, None, args, kwargs)

    def _run(self, name, fn, count, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, self._clock(), 0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            res = fn(*args, **kwargs)
        finally:
            span[2] = self._clock()
            self._stack.pop()
        if count is not None:
            try:
                span[4] = count(args, kwargs, res)
            except (AttributeError, TypeError, IndexError):
                span[4] = None  # the return shape changed; keep the timing
        return res

    def install(self):
        for owner_path, attrs in TRACED.items():
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                self.missing.extend(f"{owner_path}.{a}" for a in attrs)
                continue
            for attr, count in attrs.items():
                name = f"{owner_path}.{attr}"
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self._wrap(name, orig, count))

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self._run(name, fn, count, args, kwargs)
        return traced

    def summary(self):
        """name -> {"total_s", "self_s", "calls", counts summed by key}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["total_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child_ns[i]) / 1e9
            agg["calls"] += 1
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out
