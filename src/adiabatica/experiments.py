"""Experiment drivers: deterministic CSV emission for each experiment tag.

Every output file starts with one comment line carrying the package version
and the canonical configuration, followed by an RFC-4180-style table whose
numeric cells use scientific notation with 17 significant digits.  Identical
inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import MAX_STEPS, ConfigError, ScenarioConfig
from .diagnostics import adiabaticity_max_locus, local_adiabaticity
from .grids import ADIABATIC, BARE, SpinorField, gaussian_bare_state, to_bare
from .model import adiabatic_frame
from .propagation import (Scenario, _available_cpus, default_time_step,
                          run_scenario, trajectory_rows, TRAJECTORY_COLUMNS)
from .twolevel import (CLASSICAL_TRAJECTORY_COLUMNS, classical_trajectory_rows,
                       substitution_model)


def _fmt(value) -> str:
    return f"{float(value):.16e}"


def _comment(config: ScenarioConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return f"# adiabatica={__version__} config={blob}"


def write_csv(path: Path, comment: str, header: list, rows) -> Path:
    lines = [comment, ",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    # made here, so a run that fails before its first file leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_run_csv(record, path, comment: str = "# adiabatica run record") -> Path:
    """Trajectory export of a run record (per-channel observables and norm)."""
    return write_csv(Path(path), comment, TRAJECTORY_COLUMNS,
                     trajectory_rows(record))


def write_classical_trajectory_csv(trajectories, path,
                                   comment: str = "# adiabatica classical "
                                   "trajectories") -> Path:
    """Export classical channel trajectories as t, (x, p, energy) per channel."""
    return write_csv(Path(path), comment, CLASSICAL_TRAJECTORY_COLUMNS,
                     classical_trajectory_rows(trajectories))


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

def _initial_state(config: ScenarioConfig, params) -> SpinorField:
    state = config.state
    seed = gaussian_bare_state(config.grid, state.x0, state.p0, state.width)
    envelope = seed.upper
    comps = np.stack([np.sqrt(state.population_upper) * envelope,
                      np.sqrt(state.population_lower) * envelope])
    if state.frame == "adiabatic":
        frame = adiabatic_frame(params, config.grid)
        return to_bare(SpinorField(config.grid, comps, ADIABATIC), frame)
    return SpinorField(config.grid, comps, BARE)


def _check_step_count(t_final: float, dt: float, config: ScenarioConfig,
                      detuning: float) -> None:
    """Reject a run of more than MAX_STEPS steps before any of it starts."""
    steps = t_final / dt
    if not math.isfinite(steps) or steps > MAX_STEPS:
        which = ("t_final/dt" if config.run.dt is not None
                 else f"t_final/dt with the default dt {dt:.3g}")
        raise ConfigError(
            f"config.run.dt: {which} = {steps:.3g} steps exceeds the limit "
            f"of {MAX_STEPS} at detuning {detuning!r}")


def _build_scenario(config: ScenarioConfig, delta: float) -> Scenario:
    params = replace(config.base_params, detuning=float(delta))
    state = config.state
    t_final = config.run.resolve_t_final(state, params.mass)
    dt = config.run.dt
    if dt is None:
        p_needed = abs(state.p0) + 6.0 / state.width
        dt = default_time_step(params, config.grid, p_needed)
    _check_step_count(t_final, dt, config, params.detuning)
    n_steps = max(1, int(round(t_final / dt)))
    stride = config.run.stride or max(1, n_steps // 800)
    return Scenario(params=params, grid=config.grid,
                    initial=_initial_state(config, params),
                    t_final=t_final, dt=dt, stride=stride,
                    x0=state.x0, p0=state.p0)


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _run_a0_map(config: ScenarioConfig, out_dir: Path):
    xs = config.grid.x
    p0 = config.state.p0
    columns = []
    for delta in config.detunings:
        params = replace(config.base_params, detuning=float(delta))
        columns.append(np.asarray(local_adiabaticity(params, xs, p0)))
    header = ["x"] + [_fmt(d) for d in config.detunings]
    rows = ([xs[i]] + [col[i] for col in columns] for i in range(xs.size))
    return [write_csv(out_dir / "a0_map.csv", _comment(config), header, rows)]


def _run_max_locus(config: ScenarioConfig, out_dir: Path):
    locus = adiabaticity_max_locus(
        config.base_params, config.detunings, config.state.p0,
        window=config.search.window(), scan_points=config.search.scan_points)
    peak = [local_adiabaticity(replace(config.base_params, detuning=float(d)),
                               x, config.state.p0)
            for d, x in locus]
    rows = ([locus[i, 0], locus[i, 1], peak[i]] for i in range(locus.shape[0]))
    return [write_csv(out_dir / "max_locus.csv", _comment(config),
                      ["detuning", "x_max", "value_at_max"], rows)]


def _sweep_cell(scenario: Scenario):
    """One fidelity-map cell; module level so a worker process can unpickle it."""
    return run_scenario(scenario, compute_adiabaticity=False)


def _run_fidelity_map(config: ScenarioConfig, out_dir: Path):
    scenarios = [_build_scenario(config, d) for d in config.detunings]
    workers = min(len(scenarios), _available_cpus())
    if workers > 1:
        # imported here: only a multi-cell map uses a pool, and the two
        # modules add about 25 ms to every start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers > 1:
        # fork, not the platform default: a spawn or forkserver worker
        # re-imports the package and numpy.  The program starts no
        # threads of its own, and OpenBLAS rebuilds its pool after a fork.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            records = list(pool.map(_sweep_cell, scenarios))
    else:
        records = [_sweep_cell(s) for s in scenarios]

    base = records[0]
    axis = base.x_mean if config.abscissa == "measured" else base.x_kinematic
    for rec in records[1:]:
        if rec.times.size != base.times.size:
            raise RuntimeError("sweep cells sampled differently; "
                               "this should not happen with a shared run block")
    header = ["x", "t"] + [_fmt(d) for d in config.detunings]
    rows = ([axis[i], base.times[i]] +
            [abs(rec.fidelity[i]) for rec in records]
            for i in range(base.times.size))
    return [write_csv(out_dir / "fidelity_map.csv", _comment(config), header, rows)]


def _run_atrace(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario)
    params = scenario.params
    x_kin = record.x_kinematic
    a0 = np.asarray(local_adiabaticity(params, x_kin, scenario.p0))
    a0_curved = np.asarray(local_adiabaticity(params, x_kin, scenario.p0,
                                              include_curvature=True))
    x_col = record.x_mean if config.abscissa == "measured" else x_kin
    a_t = record.adiabaticity
    header = ["t", "x", "a_t", "a0", "a0_with_curvature"]
    rows = ([record.times[i], x_col[i], a_t[i], a0[i], a0_curved[i]]
            for i in range(record.times.size))
    return [write_csv(out_dir / "atrace.csv", _comment(config), header, rows)]


def _run_effective_model(config: ScenarioConfig, out_dir: Path):
    if config.run.dt is None:
        raise ConfigError("config.run.dt: effective-model needs an explicit dt")
    state = config.state
    params = replace(config.base_params, detuning=float(config.detunings[0]))
    model = substitution_model(params, state.p0, state.x0)
    t_final = config.run.resolve_t_final(state, params.mass)
    _check_step_count(t_final, config.run.dt, config, params.detuning)
    stride = config.run.stride or 1
    step = config.run.dt * stride
    times = np.arange(0.0, t_final + 0.5 * step, step)
    coupling = np.asarray(model.coupling(times), dtype=float)
    comment = _comment(config) + f" delta={_fmt(model.detuning)}"
    rows = ([times[i], coupling[i]] for i in range(times.size))
    return [write_csv(out_dir / "effective_model.csv", comment,
                      ["t", "coupling"], rows)]


def _run_snapshot(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario, compute_adiabaticity=False)
    final = record.final_exact
    header = ["x", "re_upper", "im_upper", "re_lower", "im_lower"]
    rows = ([final.grid.x[i], final.upper[i].real, final.upper[i].imag,
             final.lower[i].real, final.lower[i].imag]
            for i in range(final.grid.npoints))
    paths = [write_csv(out_dir / "snapshot.csv", _comment(config), header, rows)]
    paths.append(write_run_csv(record, out_dir / "snapshot_trajectory.csv",
                               _comment(config)))
    return paths


_RUNNERS = {
    "a0-map": _run_a0_map,
    "max-locus": _run_max_locus,
    "fidelity-map": _run_fidelity_map,
    "atrace": _run_atrace,
    "effective-model": _run_effective_model,
    "snapshot": _run_snapshot,
}


def run_experiment(config: ScenarioConfig, out_dir):
    """Dispatch one validated configuration; returns the written paths."""
    return _RUNNERS[config.experiment](config, Path(out_dir))
