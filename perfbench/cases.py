"""Seeded case lists for the benchmark workloads.

Every case is written as a CLI input file in the documented JSON format
(``n``/``re``/``im``/``field`` for matrices, ``num_re``/``den_re`` for
transfer functions), together with the ``srg`` argument list that runs
it.  The same seed always gives the same files.  Cases come in two
groups:

* ``timed`` cases run in the closed loop.  They are well scaled, so on a
  correct program none of them fails.
* ``probe`` cases are the gain-scaled inputs (gains 1e-9 to 1e9).  Some
  of them hit known scale defects, so they run after the timed loop and
  their failures are counted apart: a later fix turns a fast failure
  into a full computation, which must not read as a slowdown.

Run ``python3 perfbench/cases.py --workload dense_small --seed 1 --out DIR``
to write one workload's files and print its manifest.
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

SHIFT = [[0.0, 1.0], [0.0, 0.0]]
PRINTED_4X4 = [[1.0, 0.0, -1.0, 0.0], [0.0, 2.0, 0.0, 1.0],
               [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "matrix" or "lti"
    flags: tuple         # srg flags besides --input/--tf, --out, --format
    fmt: str             # "csv" or "svg"
    varies: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dense_small", "matrix", ("--check", "--spectrum"), "csv",
            varies="n = 2..8, real and complex field, random entries; plus the "
                   "nilpotent shift and the printed 4x4 matrix",
        ),
        Workload(
            "dense_large", "matrix", ("--check",), "svg",
            varies="n = 24, 10, 14, 18, complex field, random entries",
        ),
        Workload(
            "lti_family", "lti", (), "csv",
            varies="degrees 1..6; strictly proper, biproper and improper; some "
                   "poles on the imaginary axis; plus three fixed functions",
        ),
    )
}


@dataclass(frozen=True)
class Case:
    case_id: str
    group: str           # "timed" or "probe"
    path: str            # input file
    argv: tuple          # srg argument list; the output path comes last


def _rng(workload: str, seed: int) -> np.random.Generator:
    # One stream per (workload, seed); crc32 keeps it stable across runs.
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _matrix_doc(m, field: str) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    doc = {"n": int(m.shape[0]), "re": m.real.tolist(), "field": field}
    if field == "complex":
        doc["im"] = m.imag.tolist()
    return doc


def _random_matrix(rng, n: int, field: str) -> np.ndarray:
    if field == "real":
        return rng.standard_normal((n, n)) / np.sqrt(n)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def _matrix_probes() -> list[tuple[str, dict]]:
    """Gain-scaled matrices.  [[1e9]] and [[1e8, 1], [0, 1]] hit the known
    scale defects (a raw ZeroDivisionError and a NotHpdError)."""
    base = np.array([[1.0, 0.5], [0.0, -1.0]])
    return [
        ("gain_1e9_scalar", _matrix_doc([[1e9]], "real")),
        ("gain_1e8_upper", _matrix_doc([[1e8, 1.0], [0.0, 1.0]], "real")),
        ("gain_1e-9_scalar", _matrix_doc([[1e-9]], "real")),
        ("gain_1e-9_2x2", _matrix_doc(1e-9 * base, "real")),
        ("gain_1e3_diag", _matrix_doc(np.diag([1e3, -1e3j]), "complex")),
    ]


def _dense_small(rng) -> list[tuple[str, dict]]:
    # Every (n, field) pair once, largest first so the peak memory case
    # always runs; the two fixed cases sit among them.
    out = []
    for n in range(8, 1, -1):
        for field in (("real", "complex") if n % 2 else ("complex", "real")):
            out.append((f"n{n}_{field}", _matrix_doc(_random_matrix(rng, n, field), field)))
        if n == 6:
            out.append(("printed_4x4", _matrix_doc(PRINTED_4X4, "real")))
        if n == 3:
            out.append(("nilpotent_shift", _matrix_doc(SHIFT, "complex")))
    return out


def _dense_large(rng) -> list[tuple[str, dict]]:
    return [(f"n{n}_complex", _matrix_doc(_random_matrix(rng, n, "complex"), "complex"))
            for n in (24, 10, 14, 18)]


def _tf_doc(num, den) -> dict:
    return {"num_re": [float(c) for c in np.real(num)],
            "den_re": [float(c) for c in np.real(den)]}


def _stable_roots(rng, count: int) -> list[complex]:
    roots = []
    while len(roots) < count:
        re = -rng.uniform(0.1, 2.0)
        if count - len(roots) >= 2 and rng.random() < 0.6:
            im = rng.uniform(0.2, 3.0)
            roots.extend((complex(re, im), complex(re, -im)))
        else:
            roots.append(complex(re, 0.0))
    return roots


def _any_roots(rng, count: int) -> list[complex]:
    """Zeros in both half-planes (minimum and non-minimum phase)."""
    roots = []
    while len(roots) < count:
        re = rng.uniform(-2.0, 2.0)
        if count - len(roots) >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.2, 3.0)
            roots.extend((complex(re, im), complex(re, -im)))
        else:
            roots.append(complex(re, 0.0))
    return roots


def _lti_family(rng) -> list[tuple[str, dict]]:
    out = [
        ("fixed_2_over_s1_sq", _tf_doc([2.0], [1.0, 2.0, 1.0])),
        ("fixed_s3p1_over_4th", _tf_doc([1.0, 0.0, 0.0, 1.0], [1.0, 0.3, 2.0, 0.5, 1.0])),
        ("fixed_axis_poles", _tf_doc([1.0, 0.1, 1.0], [1.0, 0.02, 4.0, 0.0])),
    ]
    for deg in range(1, 7):
        for kind, num_deg in (("strict", deg - 1), ("biproper", deg), ("improper", deg + 1)):
            # About a third of the (degree, kind) pairs also get a variant
            # with an integrator or a resonant pair on the imaginary axis.
            variants = ("lhp", "axis") if (deg + num_deg) % 3 == 0 else ("lhp",)
            for tag in variants:
                if tag == "lhp":
                    poles = _stable_roots(rng, deg)
                elif deg >= 2 and rng.random() < 0.5:
                    w0 = rng.uniform(0.5, 3.0)
                    poles = [complex(0, w0), complex(0, -w0)] + _stable_roots(rng, deg - 2)
                else:
                    poles = [0j] + _stable_roots(rng, deg - 1)
                gain = 10.0 ** rng.uniform(-1.0, 1.0)
                num = gain * np.poly(_any_roots(rng, num_deg)) if num_deg else [gain]
                out.append((f"deg{deg}_{kind}_{tag}", _tf_doc(num, np.poly(poles))))
    return out


def _lti_probes() -> list[tuple[str, dict]]:
    """Gain-scaled transfer functions; 1e9/(s+1) hits the known
    ZeroDivisionError in the disk inverse."""
    return [
        ("gain_1e9_first_order", _tf_doc([1e9], [1.0, 1.0])),
        ("gain_1e-9_first_order", _tf_doc([1e-9], [1.0, 1.0])),
        ("gain_1e3_second_order", _tf_doc([1e3, 2e3], [1.0, 1.0, 1.0])),
        ("gain_1e-6_biproper", _tf_doc([1e-6, 1e-6], [1.0, 3.0])),
    ]


_GENERATORS = {"dense_small": _dense_small, "dense_large": _dense_large,
               "lti_family": _lti_family}


def generate(workload: str, seed: int, out_dir: Path) -> list[Case]:
    """Write the workload's input files into out_dir; return the cases."""
    spec = WORKLOADS[workload]
    rng = _rng(workload, seed)
    timed = _GENERATORS[workload](rng)
    probes = _lti_probes() if spec.kind == "lti" else _matrix_probes()
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for group, items in (("timed", timed), ("probe", probes)):
        for case_id, doc in items:
            path = out_dir / f"{group}-{case_id}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            out = out_dir / f"{group}-{case_id}.{spec.fmt}"
            flag = "--tf" if spec.kind == "lti" else "--input"
            argv = (spec.kind, flag, str(path), *spec.flags, "--format", spec.fmt,
                    "--out", str(out))
            cases.append(Case(case_id, group, str(path), argv))
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    for case in generate(args.workload, args.seed, args.out):
        print(json.dumps(asdict(case)))


if __name__ == "__main__":
    main()
