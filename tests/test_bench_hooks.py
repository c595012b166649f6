"""The benchmark's hooks still find what they wrap.

perfbench/spans.py swaps named module attributes of srgraph for
wrappers, and takes each dense case's hull from what nrange_boundary
returns through them.  A renamed function, or a sweep reached around
that attribute, would leave the benchmark without its spans or its
correctness check.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import srgraph.cli as cli
from srgraph import build_v, nrange_boundary

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_exists():
    for _, module, attribute, _ in _spans().TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute))


def test_srg_matrix_returns_its_hull_through_the_hooked_sweep(tmp_path):
    t = np.array([[0.5, 1.0], [-0.25, 2.0]])
    case = tmp_path / "case.json"
    case.write_text(json.dumps({"n": 2, "re": t.tolist(), "field": "real"}), encoding="utf-8")
    hooks = _spans().Hooks()
    try:
        code = cli.main(["matrix", "--input", str(case), "--check",
                         "--out", str(tmp_path / "out.csv")])
    finally:
        hooks.close()
    assert code == 0
    captured = hooks.captured["nrange.nrange_boundary"]
    want = nrange_boundary(build_v(t).v)
    assert captured.hull.vertices.tolist() == want.hull.vertices.tolist()
