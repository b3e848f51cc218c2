"""Opt-in golden check: every bundled config through the CLI, against
committed reference tables and digests.

The bytes of the bundled CSVs depend on numpy's SIMD dispatch and on the
BLAS kernel, not only on the inputs (ROADMAP item 2).  So the check has two
halves:

- configs/golden/ holds a reference copy of each CSV: the comment line, the
  header and every row, or every STRIDE-th row of the two a0-maps (1.4 and
  2.8 MB in full).  On every host the comment line, the column names and
  the row count must match exactly, and so must the positions of nan and
  inf.  The other values may differ by NUMERIC_RTOL of the largest
  magnitude in their column (max-locus x_max by XMAX_ATOL: the parameter
  is flat to second order at its maximum, so ulp-level changes move the
  locus by about 1e-6), and a detuning label by NUMERIC_RTOL of itself: the
  detunings of a log range come from numpy's SIMD power function.
- configs/golden.json holds, per CSV, its SHA-256 and row count together
  with the fingerprint of the host that made them.  On a host with the same
  fingerprint the digests must match; elsewhere that half skips and names
  the difference.

It runs all 11 configs (about a minute on 2 CPUs), so the default run
leaves it out:

    python -m pytest -m golden

After a deliberate change of the outputs, rewrite configs/golden.json and
configs/golden/ with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = CONFIGS / "golden.json"
REFERENCES = CONFIGS / "golden"

#: Reference tables keep every STRIDE-th row of these CSVs, all rows of the rest.
STRIDED = ("fig1_a0_map/a0_map.csv", "fig3_a0_map/a0_map.csv")
STRIDE = 32
#: Largest deviation from the reference, relative to the column's largest magnitude.
NUMERIC_RTOL = 1e-9
#: Largest absolute deviation of the max-locus x_max column.
XMAX_ATOL = 1e-5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What the bytes of a CSV depend on besides the config."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fingerprint = {
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": _cpu_model(),
    }
    if "OPENBLAS_CORETYPE" in os.environ:
        fingerprint["openblas_coretype"] = os.environ["OPENBLAS_CORETYPE"]
    return fingerprint


def run_bundled(out_root: Path) -> dict:
    """Run every bundled config through the CLI; the bytes of each CSV."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for path in sorted(p for p in CONFIGS.glob("*.json") if p != GOLDEN):
        experiment = json.loads(path.read_text())["experiment"]
        out = out_root / path.stem
        subprocess.run([sys.executable, "-m", "adiabatica.cli", experiment,
                        "--config", str(path), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        for csv in sorted(out.glob("*.csv")):
            outputs[f"{path.stem}/{csv.name}"] = csv.read_bytes()
    return outputs


def digest(data: bytes) -> dict:
    # rows below the comment line and the header
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "rows": data.count(b"\n") - 2}


def reference_lines(key: str, data: bytes) -> list:
    """Comment line, header and the rows a reference table keeps."""
    lines = data.decode().splitlines()
    return lines[:2] + lines[2::STRIDE if key in STRIDED else 1]


def _same_label(got: str, ref: str) -> bool:
    if got == ref:
        return True
    try:
        return math.isclose(float(got), float(ref), rel_tol=NUMERIC_RTOL)
    except ValueError:
        return False


def numeric_differences(key: str, lines: list, expected: list) -> list:
    """What keeps `lines` from matching the reference `expected`, per column."""
    labels, ref_labels = lines[1].split(","), expected[1].split(",")
    if lines[0] != expected[0]:
        return [f"{key}: comment line differs"]
    if len(labels) != len(ref_labels) or not all(map(_same_label, labels, ref_labels)):
        return [f"{key}: header differs"]
    if len(lines) != len(expected):
        return [f"{key}: {len(lines) - 2} reference rows, expected {len(expected) - 2}"]
    got, ref = (np.array([row.split(",") for row in table[2:]], dtype=float)
                for table in (lines, expected))
    problems = []
    for name, g, r in zip(ref_labels, got.T, ref.T):
        finite = np.isfinite(r)
        if not (np.array_equal(np.isfinite(g), finite)
                and np.array_equal(g[~finite], r[~finite], equal_nan=True)):
            problems.append(f"{key} {name}: nan or inf at other positions")
            continue
        if not finite.any():
            continue
        if key == "fig2_max_locus/max_locus.csv" and name == "x_max":
            bound = XMAX_ATOL
        else:
            bound = NUMERIC_RTOL * np.max(np.abs(r[finite]))
        deviation = np.max(np.abs(g[finite] - r[finite]))
        if deviation > bound:
            problems.append(f"{key} {name}: deviates by {deviation:.3g} > {bound:.3g}")
    return problems


def test_numeric_differences_bounds_each_column():
    key = "fig4_fidelity_map/fidelity_map.csv"
    ref = ["# c", "x,t,1.0000000000000000e-02",
           "0,1,2.0", "1,2,inf", "2,3,nan"]
    close = ["# c", "x,t,1.0000000000000001e-02",
             "0,1,2.000000001", "1,2,inf", "2,3,nan"]
    assert numeric_differences(key, close, ref) == []
    far = ["# c", "x,t,1.0e-02", "0,1,2.00000001", "1,2,inf", "2,3,nan"]
    assert numeric_differences(key, far, ref) == [
        f"{key} 1.0000000000000000e-02: deviates by 1e-08 > 2e-09"]
    moved = ["# c", "x,t,1.0e-02", "0,1,2.0", "1,2,-inf", "2,3,nan"]
    assert numeric_differences(key, moved, ref) == [
        f"{key} 1.0000000000000000e-02: nan or inf at other positions"]
    assert numeric_differences(key, ["# d"] + ref[1:], ref) == [
        f"{key}: comment line differs"]
    assert numeric_differences(key, ["# c", "x,s,1.0e-02"] + ref[2:], ref) == [
        f"{key}: header differs"]
    assert numeric_differences(key, ref[:-1], ref) == [
        f"{key}: 2 reference rows, expected 3"]


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    return run_bundled(tmp_path_factory.mktemp("bundled"))


@pytest.mark.golden
def test_bundled_csvs_match_their_references_numerically(bundled):
    golden = json.loads(GOLDEN.read_text())["csvs"]
    assert sorted(bundled) == sorted(golden)
    problems = []
    for key, data in bundled.items():
        rows = digest(data)["rows"]
        if rows != golden[key]["rows"]:
            problems.append(f"{key}: {rows} rows, expected {golden[key]['rows']}")
        expected = (REFERENCES / key).read_text().splitlines()
        problems += numeric_differences(key, reference_lines(key, data), expected)
    assert problems == []


@pytest.mark.golden
def test_bundled_csvs_match_their_golden_digests(bundled):
    golden = json.loads(GOLDEN.read_text())
    here = host_fingerprint()
    differences = [f"{key}: {golden['host'].get(key)!r} here {here.get(key)!r}"
                   for key in sorted(set(golden["host"]) | set(here))
                   if golden["host"].get(key) != here.get(key)]
    if differences:
        pytest.skip("golden digests were made on another host; "
                    + "; ".join(differences))
    assert {key: digest(data) for key, data in bundled.items()} == golden["csvs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_bundled(Path(scratch))
    for key, data in outputs.items():
        target = REFERENCES / key
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(reference_lines(key, data)) + "\n")
    record = {"host": host_fingerprint(),
              "csvs": {key: digest(data) for key, data in outputs.items()}}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} and {len(outputs)} reference tables in {REFERENCES}")
