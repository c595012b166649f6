"""One workload in a fresh process: set-up, closed loop, checks, trace.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
the process imports srgraph, makes one tiny warm-up call, reports its
set-up time and exits.  Otherwise it then runs the timed cases through
``srgraph.cli.main`` in a closed loop with one client, re-runs cases for
the byte-for-byte check where the loop did not, runs the gain-scaled
probes, checks every case outside the timed region, and writes a JSON
result file.

The loop runs one whole pass over the case list, then goes on through
the list in the same order while the next call is expected to end
within ``--seconds`` (from that case's previous time).  With
``--trace 1`` every case runs twice in a row, untraced and traced, in an
order that alternates from call to call; the traced calls give the
per-layer metrics, and the median over these pairs of traced minus
untraced call time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import cases
import checks
import spans


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    return parser.parse_args()


def _warm_up(cli, kind: str, work: Path) -> None:
    if kind == "matrix":
        path = work / "warmup-matrix.json"
        path.write_text(json.dumps({"n": 1, "re": [[0.5]], "field": "real"}))
        argv = ["matrix", "--input", str(path), "--check", "--out", str(work / "warmup.csv")]
    else:
        path = work / "warmup-tf.json"
        path.write_text(json.dumps({"num_re": [1.0], "den_re": [1.0, 1.0]}))
        argv = ["lti", "--tf", str(path), "--out", str(work / "warmup.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up call failed")


def _call(cli, argv) -> tuple[float, list[str], str]:
    """Run one case behind a catch-all; return (seconds, failure reasons,
    stderr with any traceback)."""
    err = io.StringIO()
    reasons = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raw traceback is a failure, not the end of the run
        code = None
        reasons.append(f"exception:{type(exc).__name__}")
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if code == 3:
        reasons.append("check_miss")
    elif code not in (0, None):
        reasons.append(f"exit:{code}")
    return seconds, reasons, err.getvalue()


class Runner:
    def __init__(self, cli, hooks, fmt: str):
        self.cli, self.hooks, self.fmt = cli, hooks, fmt
        self.cases: dict = {}      # case_id -> record
        self.calls: list = []      # timed calls: (case_id, seconds, traced)

    def run(self, case: dict, traced: bool = False) -> float:
        rec = self.cases.setdefault(case["case_id"], {
            "group": case["group"], "path": case["path"], "calls": 0,
            "reasons": set(), "hashes": set(), "bytes": 0, "rows": 0, "hull": None})
        out = Path(case["argv"][-1])
        self.hooks.captured.clear()
        self.hooks.call = f'{case["case_id"]}#{rec["calls"]}'
        self.hooks.set_tracing(traced)
        seconds, reasons, stderr = _call(self.cli, case["argv"])
        self.hooks.set_tracing(False)
        rec["calls"] += 1
        rec["reasons"].update(reasons)
        if reasons:
            rec["detail"] = (stderr.strip().splitlines() or [""])[-1]
        else:
            summary = _read_output(out, self.fmt)
            rec["hashes"].add(summary["sha256"])
            rec["bytes"], rec["rows"] = summary["bytes"], summary["rows"]
            if not summary["ok"]:
                rec["reasons"].add("bad_output")
            if rec["hull"] is None:
                rec["hull"] = _captured_hull(self.hooks.captured)
        return seconds


def _read_output(path: Path, fmt: str) -> dict:
    data = path.read_bytes()
    path.unlink()
    return checks.output_summary(data, fmt)


def _captured_hull(captured: dict):
    if "nrange.nrange_boundary" in captured:
        return list(captured["nrange.nrange_boundary"].hull.vertices)
    if "srglti.lti_srg" in captured:
        return list(captured["srglti.lti_srg"].region.disk_hull.vertices)
    return None


def _closed_loop(runner: Runner, timed: list, seconds: float, trace: bool) -> float:
    """Run the loop; return the peak RSS in MB after the first full pass,
    so that how many calls follow it does not change the figure."""
    start = time.perf_counter()
    last: dict = {}           # case_id -> time of its previous call (or pair)
    peak_rss_mb = 0.0
    for i in itertools.count():
        case = timed[i % len(timed)]
        cid = case["case_id"]
        if i == len(timed):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if i >= len(timed) and time.perf_counter() - start + last[cid] > seconds:
            return peak_rss_mb
        if trace:
            took = 0.0
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                secs = runner.run(case, traced)
                runner.calls.append((cid, secs, traced))
                took += secs
        else:
            took = runner.run(case)
            runner.calls.append((cid, took, False))
        last[cid] = took


def _check(runner: Runner, kind: str) -> None:
    for rec in runner.cases.values():
        if rec["reasons"]:
            continue
        if len(rec["hashes"]) > 1:
            rec["reasons"].add("nondeterministic")
        if rec["hull"] is None:
            rec["reasons"].add("no_hull_captured")
            continue
        if kind == "matrix":
            rec["support_gap"] = checks.support_gap(checks.load_matrix(rec["path"]), rec["hull"])
            if not rec["support_gap"] <= checks.REFINE_TOL:
                rec["reasons"].add("support_gap")
        else:
            num, den = checks.load_tf(rec["path"])
            rec["hull_miss"] = checks.hull_miss(checks.lti_reference_points(num, den), rec["hull"])


def _blas_threads():
    """Thread count of the BLAS numpy loaded, read through ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(lib), "threads": int(fn())}
    return None


def main() -> int:
    args = _parse()
    spec = cases.WORKLOADS[args.workload]
    work = Path(args.work)
    sys.path.insert(0, args.src)
    import srgraph
    from srgraph import cli
    if Path(srgraph.__file__).resolve().parent != Path(args.src).resolve() / "srgraph":
        print(f"srgraph was imported from {srgraph.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    _warm_up(cli, spec.kind, work)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    manifest = [json.loads(line) for line in (work / "cases.jsonl").read_text().splitlines()]
    timed = [c for c in manifest if c["group"] == "timed"]
    hooks = spans.Hooks()
    runner = Runner(cli, hooks, spec.fmt)
    peak_rss_mb = _closed_loop(runner, timed, args.seconds, bool(args.trace))

    # Byte-for-byte check: when one pass ran each case once, run the
    # fastest case again, outside the timed region.
    if all(runner.cases[c["case_id"]]["calls"] < 2 for c in timed):
        fastest = min(runner.calls, key=lambda call: call[1])[0]
        runner.run(next(c for c in timed if c["case_id"] == fastest))
    for case in manifest:
        if case["group"] == "probe":
            runner.run(case)
    _check(runner, spec.kind)
    layers, span_counts = spans.layer_metrics(hooks.spans) if args.trace else ({}, {})
    hooks.close()
    if args.trace:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in hooks.spans:
                fh.write(json.dumps({"name": span.name, "call": span.call,
                                     "parent": span.parent, "start": span.start,
                                     "end": span.end, "counts": span.counts}) + "\n")
        # The loop appends each case's untraced and traced call as a pair.
        pairs = zip(runner.calls[0::2], runner.calls[1::2])
        layers["trace.overhead_s"] = statistics.median(
            (a[1] - b[1]) if a[2] else (b[1] - a[1]) for a, b in pairs)

    case_summary = {cid: {k: (sorted(v) if isinstance(v, set) else v)
                          for k, v in rec.items() if k not in ("hull", "hashes")}
                    for cid, rec in runner.cases.items()}
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "calls": runner.calls,
              "cases": case_summary, "layers": layers, "span_counts": span_counts,
              "blas": _blas_threads()}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
