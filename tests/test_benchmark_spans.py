"""The names the benchmark's span tracer wraps still exist.

``perfbench/spans.py`` replaces module attributes by name; a renamed one is
only reported in ``Tracer.missing`` and its per-layer metrics read 0, so the
benchmark would not fail. This guard loads the module without installing
its tracer.
"""

import dataclasses
import importlib.util
import os

from taxoforge.clustering import SubtopicClustering

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    missing = []
    for owner_path, attrs in spans.TRACED.items():
        owner = spans._resolve(owner_path)
        missing += [f"{owner_path}.{a}" for a in attrs
                    if not callable(getattr(owner, a, None))]
    assert missing == []


def test_cluster_counts_read_existing_fields():
    # the cluster_node span counts len(res.novel_terms) and len(res.z_term)
    fields = {f.name for f in dataclasses.fields(SubtopicClustering)}
    assert {"novel_terms", "z_term"} <= fields
