"""Build the stored references that the benchmark checks outputs against.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_references.py

For every lattice detuning of the propagating workloads it runs the CLI
in-process twice: at the workload's dt and at dt/4 with the same sampling
instants (``workloads.REFINE_FACTOR``).  The dt/4 output is stored as the oracle, and the deviation of the
dt output from it is stored as the baseline deviation that ``max_err`` is
measured against.  It also records the SHA-256 of every CSV each workload
writes for seeds 0 .. 31, which the benchmark reports as ``csv_identical``.
None of this is timed.  Rerun it only when the baseline commit changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from adiabatica.cli import main as cli_main  # noqa: E402


def run_cli(config: dict, workdir: Path) -> Path:
    """Run one config through the CLI in-process; returns its output dir."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main([config["experiment"], "--config", str(cfg_path),
                       "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"reference run failed for {config}")
    return out


def deviation(out, ref) -> float:
    return wl.compare("ref", out, ref, np.inf).deviation


def sweep_refs(tmp: Path):
    fid, dev = [], []
    for d in wl.SWEEP_LATTICE:
        cfg = wl.sweep_config([d])
        _, coarse = wl.read_csv(run_cli(cfg, tmp / "c") / "fidelity_map.csv")
        _, fine = wl.read_csv(run_cli(wl.refine(cfg), tmp / "f") / "fidelity_map.csv")
        fid.append(fine[:, 2])
        dev.append(deviation(coarse[:, 2], fine[:, 2]))
        print(f"sweep {d:g}: deviation {dev[-1]:.3e}", flush=True)
    np.savez_compressed(wl.REFERENCE_DIR / "sweep.npz", fidelity=np.array(fid),
                        seed_deviation=np.array(dev))


def trace_refs(tmp: Path):
    a_t, dev = [], []
    for d in wl.TRACE_LATTICE:
        cfg = wl.trace_config(d)
        _, coarse = wl.read_csv(run_cli(cfg, tmp / "c") / "atrace.csv")
        _, fine = wl.read_csv(run_cli(wl.refine(cfg), tmp / "f") / "atrace.csv")
        a_t.append(fine[:, 2])
        dev.append(deviation(coarse[:, 2], fine[:, 2]))
        print(f"trace {d:g}: deviation {dev[-1]:.3e}", flush=True)
    np.savez_compressed(wl.REFERENCE_DIR / "trace.npz", a_t=np.array(a_t),
                        seed_deviation=np.array(dev))


def snapshot_refs(tmp: Path):
    data = {"state": [], "trajectory": [], "state_seed_deviation": [],
            "trajectory_seed_deviation": []}
    for d in wl.SNAPSHOT_LATTICE:
        cfg = wl.snapshot_config(d)
        coarse_dir = run_cli(cfg, tmp / "c")
        fine_dir = run_cli(wl.refine(cfg), tmp / "f")
        for key, fname in (("state", "snapshot.csv"),
                           ("trajectory", "snapshot_trajectory.csv")):
            _, coarse = wl.read_csv(coarse_dir / fname)
            _, fine = wl.read_csv(fine_dir / fname)
            data[key].append(fine)
            data[f"{key}_seed_deviation"].append(
                [deviation(coarse[:, c], fine[:, c]) for c in range(fine.shape[1])])
        print(f"snapshot {d:g}: deviation "
              f"{max(data['state_seed_deviation'][-1]):.3e}", flush=True)
    np.savez_compressed(wl.REFERENCE_DIR / "snapshot.npz",
                        **{k: np.array(v) for k, v in data.items()})


def digests(tmp: Path):
    table = {}
    for workload in ("sweep", "trace", "figures"):
        table[workload] = {}
        for seed in range(wl.REFERENCE_SEEDS):
            entry = {}
            for inv in wl.build(workload, seed):
                out = run_cli(inv.config, tmp / inv.name)
                for fname in inv.outputs:
                    entry[f"{inv.name}/{fname}"] = hashlib.sha256(
                        (out / fname).read_bytes()).hexdigest()
            table[workload][str(seed)] = entry
        print(f"digests {workload}: {wl.REFERENCE_SEEDS} seeds", flush=True)
    (wl.REFERENCE_DIR / "digests.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    tmp = Path(".perfbench_out") / "references-work"
    try:
        sweep_refs(tmp)
        trace_refs(tmp)
        snapshot_refs(tmp)
        digests(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
