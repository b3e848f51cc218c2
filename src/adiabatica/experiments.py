"""Experiment drivers: deterministic CSV emission for each experiment tag.

Every output file starts with one comment line carrying the package version
and the canonical configuration, followed by an RFC-4180-style table whose
numeric cells use scientific notation with 17 significant digits.  Identical
inputs give byte-identical files.  write_csv is the one table writer; each
runner hands it the columns of its table, as documented in docs/formats/.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .diagnostics import adiabaticity_max_locus, local_adiabaticity
from .grids import ADIABATIC, BARE, SpinorField, gaussian_bare_state, to_bare
from .model import adiabatic_frame
from .propagation import Scenario, _run_cells, _sample_steps, run_scenario
from .twolevel import _kinematic_path, substitution_model

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


def write_run_csv(record, path, comment: str) -> Path:
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


def _build_scenario(config: ScenarioConfig, delta: float) -> Scenario:
    """The run at one detuning, on the config's resolved time grid."""
    params = replace(config.base_params, detuning=float(delta))
    run = config.run
    return Scenario(params=params, grid=config.grid,
                    initial=_initial_state(config, params),
                    t_final=run.t_final, dt=run.dt, stride=run.stride)


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
        (config.search.x_lo, config.search.x_hi), config.search.scan_points)
    return [write_csv(out_dir / "max_locus.csv", _comment(config),
                      ["detuning", "x_max", "value_at_max"], locus.T)]


def _run_fidelity_map(config: ScenarioConfig, out_dir: Path):
    records = _run_cells([_build_scenario(config, d) for d in config.detunings])
    base, state = records[0], config.state
    axis = (base.x_mean if config.abscissa == "measured" else _kinematic_path(
        state.x0, state.p0, config.base_params.mass, base.times))
    header = ["x", "t"] + [_fmt(d) for d in config.detunings]
    columns = [axis, base.times] + [rec.fidelity_magnitude for rec in records]
    return [write_csv(out_dir / "fidelity_map.csv", _comment(config), header,
                      columns)]


def _run_atrace(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario)
    params, state = scenario.params, config.state
    x_kin = _kinematic_path(state.x0, state.p0, params.mass, record.times)
    a0 = np.asarray(local_adiabaticity(params, x_kin, state.p0))
    a0_curved = np.asarray(local_adiabaticity(params, x_kin, state.p0,
                                              include_curvature=True))
    x_col = record.x_mean if config.abscissa == "measured" else x_kin
    header = ["t", "x", "a_t", "a0", "a0_with_curvature"]
    columns = [record.times, x_col, record.adiabaticity, a0, a0_curved]
    return [write_csv(out_dir / "atrace.csv", _comment(config), header,
                      columns)]


def _run_effective_model(config: ScenarioConfig, out_dir: Path):
    state, run = config.state, config.run
    params = replace(config.base_params, detuning=float(config.detunings[0]))
    model = substitution_model(params, state.p0, state.x0)
    times = _sample_steps(run.t_final, run.dt, run.stride) * run.dt
    coupling = np.asarray(model.coupling(times), dtype=float)
    comment = _comment(config) + f" delta={_fmt(model.detuning)}"
    return [write_csv(out_dir / "effective_model.csv", comment,
                      ["t", "coupling"], [times, coupling])]


def _run_snapshot(config: ScenarioConfig, out_dir: Path):
    scenario = _build_scenario(config, config.detunings[0])
    record = run_scenario(scenario)
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
