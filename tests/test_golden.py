"""Opt-in golden check: every bundled config through the CLI, byte for byte.

The bytes of the bundled CSVs depend on numpy's SIMD dispatch and on the
BLAS kernel, not only on the inputs (ROADMAP item 2).  configs/golden.json
therefore holds, per CSV, its SHA-256 and row count together with the
fingerprint of the host that made them.  On a host with another fingerprint
the check skips and names the difference.  It runs all 11 configs (about a
minute on 2 CPUs), so the default run leaves it out:

    python -m pytest -m golden

After a deliberate change of the outputs, rewrite configs/golden.json with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = CONFIGS / "golden.json"


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
    import numpy as np
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
    """Run every bundled config through the CLI; SHA-256 and rows per CSV."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    for path in sorted(p for p in CONFIGS.glob("*.json") if p != GOLDEN):
        experiment = json.loads(path.read_text())["experiment"]
        out = out_root / path.stem
        subprocess.run([sys.executable, "-m", "adiabatica.cli", experiment,
                        "--config", str(path), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        for csv in sorted(out.glob("*.csv")):
            data = csv.read_bytes()
            digests[f"{path.stem}/{csv.name}"] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                # below the comment line and the header
                "rows": data.count(b"\n") - 2,
            }
    return digests


@pytest.mark.golden
def test_bundled_csvs_match_their_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = host_fingerprint()
    differences = [f"{key}: {golden['host'].get(key)!r} here {here.get(key)!r}"
                   for key in sorted(set(golden["host"]) | set(here))
                   if golden["host"].get(key) != here.get(key)]
    if differences:
        pytest.skip("golden digests were made on another host; "
                    + "; ".join(differences))
    assert run_bundled(tmp_path) == golden["csvs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record = {"host": host_fingerprint(), "csvs": run_bundled(Path(scratch))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(record['csvs'])} CSVs")
