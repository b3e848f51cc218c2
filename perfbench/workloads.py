"""Seeded workload definitions and output checks for the adiabatica benchmark.

A workload is a list of CLI invocations.  Every config is generated here from
the seed; nothing is read from the repository's ``configs/`` directory, so
editing a shipped config cannot change a workload.  Detunings that feed a
wave-packet propagation are drawn from fixed lattices, because their outputs
are checked against stored fine-dt references (see ``make_references.py``);
detunings of the closed-form experiments are drawn freely and checked against
the formulas re-implemented below.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

#: Relative deviation (in units of a column's largest reference magnitude)
#: below which two outputs count as equally accurate.  It is 15x the round-off
#: floor of a 4000-step sweep cell (~2e-12): running the sweep with twice the
#: FFTs per step (same dt) moves a cell by at most 6.6e-13 and reads 1.008,
#: while doubling dt moves the detuning-1.0 cell from 6.5e-12 to 3.0e-11 and
#: reads 1.63 (README, "Output check and max_err").
RESOLUTION = 3e-11

#: Output-check tolerances, relative to each column's largest magnitude.
TOL_FIDELITY = 1e-6
TOL_A_T = 1e-5
TOL_SNAPSHOT = 1e-5
TOL_CLOSED_FORM = 1e-9

# fig4 geometry; the paper's sweep range is [0.5, 10].
SWEEP_LATTICE = [0.5 * k for k in range(1, 21)]
SWEEP_CELLS = 4
SWEEP_LOW_CELLS = 2     # lattice entries 0.5 and 1.0
SWEEP_DT = 0.02
SWEEP_STRIDE = 100
# fig9a geometry; the lattice is fig7's detuning grid for the same mode family.
TRACE_LATTICE = [float(v) for v in np.geomspace(0.01, 1.0, 12)]
TRACE_DT = 0.01
# snapshot.json geometry around its shipped detuning 0.3.
SNAPSHOT_LATTICE = [round(0.1 * k, 1) for k in range(1, 7)]
SNAPSHOT_DT = 0.005
SNAPSHOT_STRIDE = 100
# References are the same runs at dt / REFINE_FACTOR, sampled at the same instants.
REFINE_FACTOR = 4
# Seeds 0 .. REFERENCE_SEEDS-1 have CSV digests in references/digests.json.
REFERENCE_SEEDS = 32


def sweep_config(detunings):
    return {
        "experiment": "fidelity-map",
        "model": {"detuning": {"values": list(detunings)},
                  "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 50.0}},
        "grid": {"points": 2048, "x_min": -300.0, "x_max": 300.0},
        "state": {"x0": -200.0, "p0": 5.0, "width": 10.0},
        "run": {"x_stop": 200.0, "dt": SWEEP_DT, "stride": SWEEP_STRIDE},
    }


def trace_config(detuning):
    return {
        "experiment": "atrace",
        "model": {"detuning": detuning,
                  "mode": {"kind": "standing_wave", "amplitude": 0.1,
                           "wavenumber": 0.1}},
        "grid": {"points": 1024, "x_min": -150.0, "x_max": 150.0},
        "state": {"x0": -50.0, "p0": 5.0, "width": 4.0},
        "run": {"x_stop": 50.0, "dt": TRACE_DT, "stride": 1},
        "output": {"abscissa": "measured"},
    }


def snapshot_config(detuning):
    return {
        "experiment": "snapshot",
        "model": {"detuning": detuning,
                  "mode": {"kind": "gaussian", "amplitude": 2.0, "width": 5.0}},
        "grid": {"points": 512, "x_min": -40.0, "x_max": 40.0},
        "state": {"x0": -15.0, "p0": 4.0, "width": 2.5},
        "run": {"t_final": 3.0, "dt": SNAPSHOT_DT, "stride": SNAPSHOT_STRIDE},
    }


def refine(config):
    """The same run at dt/REFINE_FACTOR, sampled at the same instants."""
    out = json.loads(json.dumps(config))
    out["run"]["dt"] = config["run"]["dt"] / REFINE_FACTOR
    out["run"]["stride"] = config["run"]["stride"] * REFINE_FACTOR
    return out


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    """One CLI call: its config, the files it must write and how to check them."""

    name: str
    experiment: str
    config: dict
    outputs: list
    check: object
    steps: int = 0            # exact+reference Strang step pairs
    samples: int = 0          # sampled instants of run_scenario
    grid_points: int = 0
    meta: dict = field(default_factory=dict)

    def argv(self, config_path, out_dir):
        return [self.experiment, "--config", str(config_path),
                "--out", str(out_dir)]


def _n_steps(t_final, dt):
    return max(1, int(round(t_final / dt)))


def _n_samples(n_steps, stride):
    return len(range(0, n_steps + 1, stride)) + (0 if n_steps % stride == 0 else 1)


def build(workload: str, seed: int) -> list:
    """The invocations of one workload pass for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        # One cell always comes from the low end: at detuning >= 1.5 the |F|
        # error of this geometry sits at round-off even at twice the dt, so
        # only those cells let max_err see a coarser time step.
        idx = sorted([rng.randrange(SWEEP_LOW_CELLS)]
                     + rng.sample(range(SWEEP_LOW_CELLS, len(SWEEP_LATTICE)),
                                  SWEEP_CELLS - 1))
        cfg = sweep_config([SWEEP_LATTICE[i] for i in idx])
        steps = _n_steps(400.0 / 5.0, SWEEP_DT)
        return [Invocation("fig4-sweep", "fidelity-map", cfg,
                           ["fidelity_map.csv"], check_sweep,
                           steps=steps * SWEEP_CELLS,
                           samples=_n_samples(steps, SWEEP_STRIDE) * SWEEP_CELLS,
                           grid_points=2048, meta={"lattice": idx})]
    if workload == "trace":
        i = rng.randrange(len(TRACE_LATTICE))
        steps = _n_steps(100.0 / 5.0, TRACE_DT)
        return [Invocation("fig9a-trace", "atrace", trace_config(TRACE_LATTICE[i]),
                           ["atrace.csv"], check_trace, steps=steps,
                           samples=_n_samples(steps, 1), grid_points=1024,
                           meta={"lattice": i})]
    if workload == "figures":
        return _figures(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _log_range(rng, lo_exp, hi_exp, count, scale=1.0):
    return {"start": 10.0 ** rng.uniform(*lo_exp),
            "stop": scale * 10.0 ** rng.uniform(*hi_exp),
            "count": count, "spacing": "log"}


def _figures(rng):
    gauss = {"kind": "gaussian", "amplitude": 1.0, "width": 50.0}
    fig1 = {"experiment": "a0-map",
            "model": {"detuning": _log_range(rng, (-4.3, -3.7), (-0.2, 0.2), 60),
                      "mode": gauss},
            "grid": {"points": 2048, "x_min": -300.0, "x_max": 300.0},
            "state": {"p0": 10.0}}
    fig3 = {"experiment": "a0-map",
            "model": {"detuning": _log_range(rng, (-4.3, -3.7), (-0.1, 0.1), 60,
                                             scale=2.0),
                      "mode": {"kind": "standing_wave", "amplitude": 1.0,
                               "wavenumber": 1.0}},
            "grid": {"points": 1024, "x_min": -15.0, "x_max": 15.0},
            "state": {"p0": 2.0}}
    fig2 = {"experiment": "max-locus",
            "model": {"detuning": _log_range(rng, (-2.2, -1.8), (0.9, 1.1), 40),
                      "mode": gauss},
            "state": {"p0": 10.0},
            "search": {"x_lo": 0.5, "x_hi": 300.0, "scan_points": 800}}
    effective = {"experiment": "effective-model",
                 "model": {"detuning": rng.uniform(0.3, 0.7), "mode": gauss},
                 "state": {"x0": -200.0, "p0": 5.0, "width": 10.0},
                 "run": {"t_final": 80.0, "dt": 0.05, "stride": 20}}
    snap_i = rng.randrange(len(SNAPSHOT_LATTICE))
    snap_steps = _n_steps(3.0, SNAPSHOT_DT)
    return [
        Invocation("fig1-a0-map", "a0-map", fig1, ["a0_map.csv"], check_a0_map),
        Invocation("fig3-a0-map", "a0-map", fig3, ["a0_map.csv"], check_a0_map),
        Invocation("fig2-max-locus", "max-locus", fig2, ["max_locus.csv"],
                   check_max_locus),
        Invocation("effective-model", "effective-model", effective,
                   ["effective_model.csv"], check_effective_model),
        Invocation("snapshot", "snapshot", snapshot_config(SNAPSHOT_LATTICE[snap_i]),
                   ["snapshot.csv", "snapshot_trajectory.csv"], check_snapshot,
                   steps=snap_steps,
                   samples=_n_samples(snap_steps, SNAPSHOT_STRIDE),
                   grid_points=512, meta={"lattice": snap_i}),
    ]


# ---------------------------------------------------------------------------
# Parsing and comparison
# ---------------------------------------------------------------------------

class OutputError(Exception):
    """An output file is missing, malformed or outside tolerance."""


def read_csv(path: Path, header=None, rows=None, cols=None):
    """Parse a CLI CSV: one comment line, a header, then numeric rows."""
    try:
        with open(path, newline="") as handle:
            lines = list(csv.reader(handle))
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if len(lines) < 2 or not lines[0] or not lines[0][0].startswith("#"):
        raise OutputError(f"{path.name}: missing comment or header line")
    head = lines[1]
    if header is not None and head != header:
        raise OutputError(f"{path.name}: header {head[:6]} != {header[:6]}")
    if cols is not None and len(head) != cols:
        raise OutputError(f"{path.name}: {len(head)} columns, expected {cols}")
    body = lines[2:]
    if rows is not None and len(body) != rows:
        raise OutputError(f"{path.name}: {len(body)} rows, expected {rows}")
    try:
        table = np.array([[float(c) for c in row] for row in body], dtype=float)
    except ValueError as exc:
        raise OutputError(f"{path.name}: unparseable cell ({exc})") from exc
    if table.ndim != 2 or table.shape[1] != len(head):
        raise OutputError(f"{path.name}: ragged rows")
    return head, table


@dataclass
class ColumnError:
    """Deviation of one output column from its reference."""

    label: str
    deviation: float      # max |out - ref| / column scale
    seed_deviation: float  # the same for this benchmark's baseline commit
    tolerance: float

    @property
    def ratio(self) -> float:
        return (self.deviation + RESOLUTION) / (self.seed_deviation + RESOLUTION)


def compare(label, out, ref, tolerance, seed_deviation=0.0) -> ColumnError:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        raise OutputError(f"{label}: shape {out.shape} != {ref.shape}")
    same_nan = np.isnan(out) & np.isnan(ref)
    same_inf = np.isinf(out) & (out == ref)
    finite = np.isfinite(ref)
    if np.any(~(same_nan | same_inf | (finite & np.isfinite(out)))):
        raise OutputError(f"{label}: non-finite values differ from the reference")
    scale = float(np.max(np.abs(ref[finite]), initial=0.0)) or 1.0
    diff = np.abs(out[finite] - ref[finite])
    dev = float(np.max(diff, initial=0.0)) / scale
    err = ColumnError(label, dev, float(seed_deviation), tolerance)
    if not dev <= tolerance:
        raise OutputError(f"{label}: deviation {dev:.3e} exceeds {tolerance:.1e}")
    return err


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

_REF_CACHE = {}


def reference(name: str):
    if name not in _REF_CACHE:
        with np.load(REFERENCE_DIR / f"{name}.npz") as data:
            _REF_CACHE[name] = {k: data[k] for k in data.files}
    return _REF_CACHE[name]


def _fmt(value) -> str:
    return f"{float(value):.16e}"


def check_sweep(inv: Invocation, out_dir: Path):
    detunings = inv.config["model"]["detuning"]["values"]
    header = ["x", "t"] + [_fmt(d) for d in detunings]
    _, table = read_csv(out_dir / "fidelity_map.csv", header,
                        inv.samples // SWEEP_CELLS)
    ref = reference("sweep")
    t = np.arange(table.shape[0]) * SWEEP_STRIDE * SWEEP_DT
    errors = [compare("sweep.t", table[:, 1], t, TOL_CLOSED_FORM),
              compare("sweep.x", table[:, 0], -200.0 + 5.0 * t, TOL_CLOSED_FORM)]
    for col, i in enumerate(inv.meta["lattice"]):
        errors.append(compare(f"sweep.F[{detunings[col]:g}]", table[:, 2 + col],
                              ref["fidelity"][i], TOL_FIDELITY,
                              ref["seed_deviation"][i]))
    return errors


def check_trace(inv: Invocation, out_dir: Path):
    header = ["t", "x", "a_t", "a0", "a0_with_curvature"]
    _, table = read_csv(out_dir / "atrace.csv", header, inv.samples)
    ref = reference("trace")
    i = inv.meta["lattice"]
    return [compare(f"trace.a_t[{TRACE_LATTICE[i]:g}]", table[:, 2],
                    ref["a_t"][i], TOL_A_T, ref["seed_deviation"][i])]


SNAPSHOT_HEADER = ["x", "re_upper", "im_upper", "re_lower", "im_lower"]
TRAJECTORY_HEADER = ["t", "x_mean", "p_mean", "ref_x_upper", "ref_p_upper",
                     "ref_x_lower", "ref_p_lower", "pop_upper", "pop_lower",
                     "norm"]


def check_snapshot(inv: Invocation, out_dir: Path):
    ref = reference("snapshot")
    i = inv.meta["lattice"]
    errors = []
    for fname, header, key in (("snapshot.csv", SNAPSHOT_HEADER, "state"),
                               ("snapshot_trajectory.csv", TRAJECTORY_HEADER,
                                "trajectory")):
        expected = ref[key][i]
        _, table = read_csv(out_dir / fname, header, expected.shape[0])
        seed_dev = ref[f"{key}_seed_deviation"][i]
        for c, name in enumerate(header):
            errors.append(compare(f"snapshot.{key}.{name}", table[:, c],
                                  expected[:, c], TOL_SNAPSHOT, seed_dev[c]))
    return errors


# Closed-form oracles, written from the model's formulas independently of the
# package so that the figures outputs are checked against something other
# than themselves.

def _mode_value_slope(mode, x):
    if mode["kind"] == "gaussian":
        a = mode["width"]
        g = mode["amplitude"] / (math.sqrt(2.0 * math.pi) * a) * np.exp(-x * x / (2 * a * a))
        return g, -x / (a * a) * g
    q = mode["wavenumber"]
    return (mode["amplitude"] * np.sin(q * x),
            mode["amplitude"] * q * np.cos(q * x))


def a0_oracle(mode, delta, x, p0):
    g, dg = _mode_value_slope(mode, np.asarray(x, dtype=float))
    den = delta * delta + 4.0 * g * g
    with np.errstate(divide="ignore"):
        return np.where(den < 1e-24, np.inf, np.abs(p0 * delta * dg) / den ** 1.5)


def _detuning_grid(spec):
    return np.geomspace(spec["start"], spec["stop"], spec["count"])


def check_a0_map(inv: Invocation, out_dir: Path):
    cfg = inv.config
    deltas = _detuning_grid(cfg["model"]["detuning"])
    grid = cfg["grid"]
    n = grid["points"]
    x = grid["x_min"] + (grid["x_max"] - grid["x_min"]) / n * np.arange(n)
    header = ["x"] + [_fmt(d) for d in deltas]
    _, table = read_csv(out_dir / "a0_map.csv", header, n)
    errors = [compare(f"{inv.name}.x", table[:, 0], x, TOL_CLOSED_FORM)]
    p0 = cfg["state"]["p0"]
    worst = None
    for c, d in enumerate(deltas):
        err = compare(f"{inv.name}.a0", table[:, 1 + c],
                      a0_oracle(cfg["model"]["mode"], d, x, p0), TOL_CLOSED_FORM)
        if worst is None or err.deviation > worst.deviation:
            worst = err
    return errors + [worst]


def check_max_locus(inv: Invocation, out_dir: Path):
    cfg = inv.config
    deltas = _detuning_grid(cfg["model"]["detuning"])
    header = ["detuning", "x_max", "value_at_max"]
    _, table = read_csv(out_dir / "max_locus.csv", header, deltas.size)
    mode, p0 = cfg["model"]["mode"], cfg["state"]["p0"]
    lo, hi = cfg["search"]["x_lo"], cfg["search"]["x_hi"]
    x_max = table[:, 1]
    if np.any((x_max < lo) | (x_max > hi)):
        raise OutputError(f"{inv.name}: x_max outside the search window")
    # x_max must be a local maximum to well within the search tolerance
    h = 1e-4 * (hi - lo)
    peak = a0_oracle(mode, deltas, x_max, p0)
    for side in (-h, h):
        if np.any(a0_oracle(mode, deltas, x_max + side, p0) > peak * (1 + 1e-12)):
            raise OutputError(f"{inv.name}: x_max is not a local maximum")
    return [compare(f"{inv.name}.detuning", table[:, 0], deltas, TOL_CLOSED_FORM),
            compare(f"{inv.name}.value_at_max", table[:, 2], peak, TOL_CLOSED_FORM)]


def check_effective_model(inv: Invocation, out_dir: Path):
    cfg = inv.config
    run, state = cfg["run"], cfg["state"]
    step = run["dt"] * run["stride"]
    t = np.arange(0.0, run["t_final"] + 0.5 * step, step)
    _, table = read_csv(out_dir / "effective_model.csv", ["t", "coupling"], t.size)
    g, _ = _mode_value_slope(cfg["model"]["mode"], state["x0"] + state["p0"] * t)
    return [compare(f"{inv.name}.t", table[:, 0], t, TOL_CLOSED_FORM),
            compare(f"{inv.name}.coupling", table[:, 1], g, TOL_CLOSED_FORM)]


# ---------------------------------------------------------------------------
# Byte-level identity with the baseline commit
# ---------------------------------------------------------------------------

def baseline_digests():
    path = REFERENCE_DIR / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def working_set_bytes(inv: Invocation) -> int:
    """Bytes touched per step or per output, from the array shapes.

    A propagation keeps per grid point 2+2 state components, 3 coupled and
    2 diagonal potential factors, 2 kinetic phases and 2 FFT temporaries,
    all complex128.  Closed-form experiments hold one float64 column per
    detuning plus the output text.
    """
    if inv.grid_points:
        return inv.grid_points * 16 * 13
    if inv.experiment == "a0-map":
        spec = inv.config["model"]["detuning"]
        return inv.config["grid"]["points"] * spec["count"] * (8 + 24)
    return 0
