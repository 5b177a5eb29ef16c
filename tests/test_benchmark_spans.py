"""The names the benchmark's span tracer wraps still exist and are called.

``perfbench/spans.py`` replaces module attributes by name; a renamed one is
only reported in ``Tracer.missing``, and one its caller no longer looks up
as a module attribute is never called through the wrapper. Either way its
per-layer metrics read 0, so the benchmark would not fail.
"""

import dataclasses
import importlib.util
import os

from taxoforge.clustering import SubtopicClustering

from test_output_digest import TINY

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("perfbench_spans", "perfbench", "spans.py")


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


def test_every_traced_name_is_called(monkeypatch):
    spans = _spans()
    for owner_path, attrs in spans.TRACED.items():
        owner = spans._resolve(owner_path)
        for attr in attrs:
            # set to itself, so that teardown restores it after install()
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    digest = _load("output_digest", "scripts", "output_digest.py")
    digest.output_digest(TINY["spec"], TINY["delete"], TINY["config"], seed=3)
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    traced = [f"{owner_path}.{attr}" for owner_path, attrs in spans.TRACED.items()
              for attr in attrs]
    assert tracer.missing == []
    assert [name for name in traced if not calls.get(name)] == []
