"""Experiment drivers: deterministic CSV emission for each experiment tag.

Every output file starts with one comment line carrying the package version
and the canonical configuration, followed by an RFC-4180-style table whose
numeric cells use scientific notation with 17 significant digits.  Identical
inputs give byte-identical files.  write_csv is the one table writer; each
runner hands it the columns of its table, as documented in docs/formats/.
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
from .grids import (ADIABATIC, BARE, SpinorField, gaussian_bare_state,
                    momentum_cover, to_bare)
from .model import adiabatic_frame
from .propagation import (Scenario, _available_cpus, _fork_context,
                          default_time_step, run_scenario)
from .twolevel import substitution_model

#: Format of every table cell and of the detuning header labels.
_NUMBER = "%.16e"


def _fmt(value) -> str:
    return _NUMBER % value


def _comment(config: ScenarioConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return f"# adiabatica={__version__} config={blob}"


def write_csv(path: Path, comment: str, header: list, columns) -> Path:
    """Write equal-length columns as a table below `comment` and `header`."""
    table = np.column_stack(columns)
    row = ",".join([_NUMBER] * table.shape[1])
    lines = [comment, ",".join(str(h) for h in header)]
    lines += [row % tuple(values) for values in table.tolist()]
    # made here, so a run that fails before its first file leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_run_csv(record, path, comment: str = "# adiabatica run record") -> Path:
    """Trajectory export of a run record (docs/formats/trajectory.md)."""
    header = ["t", "x_mean", "p_mean", "ref_x_upper", "ref_p_upper",
              "ref_x_lower", "ref_p_lower", "pop_upper", "pop_lower", "norm"]
    columns = [record.times, record.x_mean, record.p_mean,
               record.ref_x[0], record.ref_p[0], record.ref_x[1],
               record.ref_p[1], record.pop_upper, record.pop_lower,
               record.norm]
    return write_csv(Path(path), comment, header, columns)


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


def _time_step(config: ScenarioConfig, deltas) -> float:
    """The dt of the runs at these detunings, checked against the step cap:
    run.dt, else the smallest default dt over them, so that every cell of a
    map samples the same instants.  A run.dt must also resolve the phases."""
    state = config.state
    t_final = config.run.resolve_t_final(state, config.base_params.mass)
    runs = [replace(config.base_params, detuning=float(d)) for d in deltas]
    if config.run.dt is not None:
        dt, delta = config.run.dt, runs[0].detuning
        # max|Delta_+- - mean_shift|: a constant shift adds no splitting error
        phase, worst = max((dt * np.max(np.hypot(0.5 * p.level_splitting,
                                                  p.coupling(config.grid.x))),
                            p.detuning) for p in runs)
        if phase > 1.0:
            raise ConfigError(f"config.run.dt: dt*max|Delta_+- - mean_shift| = "
                              f"{phase:.3g} exceeds 1 at detuning {worst!r}")
    else:
        p_needed = momentum_cover(state.p0, state.width)
        dt, delta = min((default_time_step(p, config.grid, p_needed),
                         p.detuning) for p in runs)
    _check_step_count(t_final, dt, config, delta)
    return dt


def _build_scenario(config: ScenarioConfig, delta: float,
                    dt: float | None = None) -> Scenario:
    """The run at one detuning, at `dt` or else at its own _time_step."""
    if dt is None:
        dt = _time_step(config, [delta])
    params = replace(config.base_params, detuning=float(delta))
    state = config.state
    t_final = config.run.resolve_t_final(state, params.mass)
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
    return [write_csv(out_dir / "a0_map.csv", _comment(config), header,
                      [xs] + columns)]


def _run_max_locus(config: ScenarioConfig, out_dir: Path):
    locus = adiabaticity_max_locus(
        config.base_params, config.detunings, config.state.p0,
        window=config.search.window(), scan_points=config.search.scan_points)
    peak = [local_adiabaticity(replace(config.base_params, detuning=float(d)),
                               x, config.state.p0)
            for d, x in locus]
    return [write_csv(out_dir / "max_locus.csv", _comment(config),
                      ["detuning", "x_max", "value_at_max"],
                      [locus[:, 0], locus[:, 1], peak])]


def _sweep_cell(scenario: Scenario):
    """One fidelity-map cell; module level so a worker process can unpickle it."""
    return run_scenario(scenario, compute_adiabaticity=False)


def _run_fidelity_map(config: ScenarioConfig, out_dir: Path):
    dt = _time_step(config, config.detunings)
    scenarios = [_build_scenario(config, d, dt) for d in config.detunings]
    context = _fork_context() if len(scenarios) > 1 else None
    if context is None:
        records = [_sweep_cell(s) for s in scenarios]
    else:
        # imported here: only a multi-cell map uses a pool, and with
        # multiprocessing it would add about 20 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(scenarios), _available_cpus())
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            records = list(pool.map(_sweep_cell, scenarios))

    base = records[0]
    axis = base.x_mean if config.abscissa == "measured" else base.x_kinematic
    header = ["x", "t"] + [_fmt(d) for d in config.detunings]
    columns = [axis, base.times] + [rec.fidelity_magnitude for rec in records]
    return [write_csv(out_dir / "fidelity_map.csv", _comment(config), header,
                      columns)]


def _run_atrace(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario)
    params = scenario.params
    x_kin = record.x_kinematic
    a0 = np.asarray(local_adiabaticity(params, x_kin, scenario.p0))
    a0_curved = np.asarray(local_adiabaticity(params, x_kin, scenario.p0,
                                              include_curvature=True))
    x_col = record.x_mean if config.abscissa == "measured" else x_kin
    header = ["t", "x", "a_t", "a0", "a0_with_curvature"]
    columns = [record.times, x_col, record.adiabaticity, a0, a0_curved]
    return [write_csv(out_dir / "atrace.csv", _comment(config), header,
                      columns)]


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
    return [write_csv(out_dir / "effective_model.csv", comment,
                      ["t", "coupling"], [times, coupling])]


def _run_snapshot(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario, compute_adiabaticity=False)
    final = record.final_exact
    header = ["x", "re_upper", "im_upper", "re_lower", "im_lower"]
    columns = [final.grid.x, final.upper.real, final.upper.imag,
               final.lower.real, final.lower.imag]
    paths = [write_csv(out_dir / "snapshot.csv", _comment(config), header,
                       columns)]
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
