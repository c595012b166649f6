"""Benchmark of the ``srg`` command line, end to end and per layer.

    python3 perfbench/run.py --workload dense_small --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``srgraph`` from
``src/`` and fails when that is missing.  For each workload it writes
the seeded case files (``cases.py``), starts fresh processes that only
import srgraph and make one tiny warm-up call (their median time is
``setup_s``), then one fresh process that drives ``srgraph.cli.main``
in-process over the cases in a closed loop with one client
(``workload.py``).  It prints the environment, every metric by name and
unit, the failure tally and the correctness checks, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn.

Only the timed cases count in ``attempted`` and ``failed``; a correct
program fails none of them.  The gain-scaled probes are tallied apart,
in the printed failure tally and in the per-layer ``fail_frac``.
``correct`` is false when a timed case fails or any case that completes
gives a wrong or non-repeatable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0  # the whole run, all child processes included

END_TO_END = (
    ("cases_per_s", "1/s"), ("case_p50_s", "s"), ("case_tail_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
TIMES = ("cli.self_s", "srgmatrix.build_v_s", "nrange.self_s", "nrange.eigh_s",
         "cgeom.hull_s", "cgeom.map_back_s", "sampler.sample_s", "sampler.check_s",
         "srglti.factor_s", "srglti.srg_s")
PER_LAYER = (
    ("cli.self_s", "s"), ("cli.output_bytes", "B"), ("cli.rows", "count"),
    ("srgmatrix.build_v_s", "s"),
    ("nrange.self_s", "s"), ("nrange.eigh_s", "s"), ("nrange.eigh_calls", "count"),
    ("nrange.eigenproblems", "count"), ("nrange.eigh_batch_mb_max", "MB"),
    ("nrange.support_points", "count"), ("nrange.support_gap_max", "dist"),
    ("cgeom.hull_s", "s"), ("cgeom.map_back_s", "s"), ("cgeom.hull_vertices", "count"),
    ("cgeom.branch_points", "count"),
    ("sampler.sample_s", "s"), ("sampler.check_s", "s"), ("sampler.samples", "count"),
    ("srglti.factor_s", "s"), ("srglti.srg_s", "s"), ("srglti.grid_points", "count"),
    ("srglti.hull_miss_max", "dist"),
    ("trace.overhead_s", "s"), ("fail_frac", "fraction"),
)


class BenchError(RuntimeError):
    pass


def _spawn(argv: list, deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process ran past the time limit: {argv[1:4]}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child process exited with code {proc.returncode}")
    return proc.stdout


def _child_argv(name: str, work: Path, extra: list) -> list:
    return [sys.executable, str(Path(__file__).with_name("workload.py")),
            "--t0", repr(time.monotonic()), "--src", str(SRC), "--work", str(work),
            "--workload", name, *extra]


def _tail(samples: list) -> tuple[float, str]:
    """Highest of p90, p99, p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            return ordered[n - 1 - beyond], f"p{pct:g} of {n} samples, {beyond} beyond it"
    return ordered[-1], (f"max of {n} samples (fewer than 100, so not even p90 "
                         "has ten beyond it)")


def _hd_median(samples: list) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, with beta-distribution weights centred on the middle.  On
    a few unequal samples it moves less than the plain median, which
    jumps across the gap between the two middle values."""
    from scipy.special import betainc
    ordered = sorted(samples)
    n = len(ordered)
    a = b = (n + 1) / 2.0
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges[:-1], edges[1:], ordered)))


def _environment(blas) -> str:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    import numpy
    blas_text = f'{blas["library"]} with {blas["threads"]} threads' if blas else "unknown"
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy_version}, BLAS {blas_text}, nproc {os.cpu_count()} "
            f"(affinity {len(os.sched_getaffinity(0))}), "
            f"SRG_THREADS {os.environ.get('SRG_THREADS', 'unset')}")


def _purpose(name: str, layers: dict, span_counts: dict, case_s: float, probe_fails: int) -> list:
    """The baseline claims each workload was chosen for."""
    times = {k: layers.get(k, 0.0) for k in TIMES}
    lines = ["layer shares of the mean traced case (%.4f s): " % case_s
             + ", ".join(f"{k} {100 * v / case_s:.1f}%" for k, v in times.items() if v)]
    if name == "dense_small":
        group = ("nrange.self_s", "cgeom.hull_s", "cgeom.map_back_s", "cli.self_s")
        share = sum(times[k] for k in group)
        other = max((v, k) for k, v in times.items() if k not in group)
        lines.append(f"purpose: Python layers (nrange self + cgeom + cli self) take "
                     f"{100 * share / case_s:.1f}%, more than any other layer "
                     f"({other[1]} {100 * other[0] / case_s:.1f}%): {share > other[0]}")
    elif name == "dense_large":
        top = max(times, key=times.get)
        lines.append(f"purpose: largest single layer is {top}: {top == 'nrange.eigh_s'}")
    else:
        touched = sum(c for k, c in span_counts.items() if k.startswith(("nrange.", "sampler.")))
        lines.append(f"purpose: nrange and sampler spans on this workload: {touched}")
    lines.append(f"purpose: gain-scaled probes failing at this commit: {probe_fails}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    work = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        case_list = cases.generate(name, seed, work)
        with open(work / "cases.jsonl", "w", encoding="utf-8") as fh:
            for case in case_list:
                fh.write(json.dumps(dataclasses.asdict(case)) + "\n")
        setups = [json.loads(_spawn(_child_argv(name, work, ["--setup-only"]),
                                    deadline).splitlines()[-1])["setup_s"]
                  for _ in range(SETUP_RUNS)]
        _spawn(_child_argv(name, work, ["--seconds", str(seconds), "--trace", str(int(trace))]),
               deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if trace:
            shutil.copyfile(work / "spans.jsonl", WORK / f"spans-{name}-s{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(name, seed, seconds, trace, setups, result)


def _report(name, seed, seconds, trace, setups, result) -> dict:
    calls = result["calls"]
    case_recs = result["cases"]
    timed_ids = {cid for cid, rec in case_recs.items() if rec["group"] == "timed"}
    probes = {cid: rec for cid, rec in case_recs.items() if rec["group"] == "probe"}
    failed_calls = sum(1 for cid, _, _ in calls if case_recs[cid]["reasons"])
    reasons: dict = {}
    for rec in case_recs.values():
        for reason in rec["reasons"]:
            key = f'{rec["group"]} {reason}'
            reasons[key] = reasons.get(key, 0) + 1
    failed_cases = sum(1 for rec in case_recs.values() if rec["reasons"])
    probe_fails = sum(1 for rec in probes.values() if rec["reasons"])
    # A probe may fail with an error; if it completes, its output must be right.
    wrong = {"check_miss", "support_gap", "nondeterministic", "bad_output", "no_hull_captured"}
    correct = failed_calls == 0 and not any(wrong & set(rec["reasons"]) for rec in probes.values())
    gaps = {cid: rec["support_gap"] for cid, rec in case_recs.items() if "support_gap" in rec}
    misses = {cid: rec["hull_miss"] for cid, rec in case_recs.items() if "hull_miss" in rec}
    repeated = sum(1 for cid in timed_ids if case_recs[cid]["calls"] > 1)

    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"  environment: {_environment(result['blas'])}")
    print(f"  workload: {cases.WORKLOADS[name].varies}")
    print(f"  timed calls {len(calls)} over {len(timed_ids)} cases; probes {len(probes)}")
    print(f"  failures: timed calls {failed_calls}/{len(calls)}; "
          f"probes {probe_fails}/{len(probes)}; fail_frac {failed_cases}/{len(case_recs)}")
    for key in sorted(reasons):
        print(f"    {key}: {reasons[key]}")
    for cid, rec in case_recs.items():
        if "detail" in rec:
            print(f"    {rec['group']} {cid}: {rec['detail']}")
    if gaps:
        worst = max(gaps, key=gaps.get)
        print(f"  check: support_gap_max {gaps[worst]:.3e} (tolerance 1e-08) over "
              f"{len(gaps)} cases, at {worst}")
    if misses:
        worst = max(misses, key=misses.get)
        print(f"  check: hull_miss_max {misses[worst]:.3e} over {len(misses)} cases, at "
              f"{worst} (reported only)")
    print(f"  check: byte-for-byte repeat over {repeated} cases")
    print(f"  correct: {correct}")

    secs = [s for _, s, traced in calls if traced == trace]
    if not trace:
        # Each case counts once, at the median of its calls, so a partial
        # last pass does not weigh the cases it reached twice.
        per_case: dict = {}
        for cid, s, _ in calls:
            per_case.setdefault(cid, []).append(s)
        case_s = [statistics.median(v) for v in per_case.values()]
        tail, tail_text = _tail(secs)
        metrics = {
            "cases_per_s": len(case_s) / sum(case_s),
            "case_p50_s": _hd_median(case_s),
            "case_tail_s": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        print(f"  cases_per_s and case_p50_s take each of {len(case_s)} cases at the "
              f"median of its calls ({min(map(len, per_case.values()))} to "
              f"{max(map(len, per_case.values()))} each); case_p50_s is their "
              f"Harrell-Davis median")
        print("  case medians (s): " + ", ".join(
            f"{cid} {t:.4g}" for cid, t in zip(per_case, case_s)))
        print(f"  case_tail_s is the {tail_text}")
        print(f"  setup_s is the median of {len(setups)} fresh processes")
    else:
        layers = dict(result["layers"])
        layers["nrange.support_gap_max"] = max(gaps.values(), default=0.0)
        layers["srglti.hull_miss_max"] = max(misses.values(), default=0.0)
        layers["fail_frac"] = failed_cases / len(case_recs)
        traced_ids = [cid for cid, _, traced in calls if traced]
        layers["cli.output_bytes"] = statistics.fmean(case_recs[c]["bytes"] for c in traced_ids)
        layers["cli.rows"] = statistics.fmean(case_recs[c]["rows"] for c in traced_ids)
        metrics = {key: float(layers.get(key, 0.0)) for key, _ in PER_LAYER}
        units = dict(PER_LAYER)
        print(f"  span counts: {json.dumps(result['span_counts'], sort_keys=True)}")
        for line in _purpose(name, layers, result["span_counts"], statistics.fmean(secs),
                             probe_fails):
            print(f"  {line}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {"correct": correct, "attempted": len(calls), "failed": failed_calls,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description="srg benchmark")
    parser.add_argument("--workload", required=True, choices=[*cases.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "srgraph" / "__init__.py").is_file():
        print(f"error: no srgraph sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(cases.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(summary), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
