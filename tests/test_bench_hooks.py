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
import os
import subprocess
import sys
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


def test_importing_srgraph_loads_no_scipy():
    # The benchmark's setup_s times a fresh process's imports; scipy is
    # imported lazily, only by gamma_scaling_demo.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys, srgraph, srgraph.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
