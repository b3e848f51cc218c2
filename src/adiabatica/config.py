"""Scenario configuration: JSON loading, validation and override handling.

Configs are strict: unknown and repeated keys are rejected and every guard
of the downstream modules is checked at load time, with the offending key
path in the error message.  A run's time grid (final time, a default `dt` or one
checked against the phase bound, the step limits, stride) and a max-locus
search window are resolved here into a `RunSpec` and a `SearchSpec`, which
the runners only read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .diagnostics import SCAN_POINTS
from .grids import EDGE_MARGIN, Grid, _near_edge, momentum_cover
from .model import (FrameCase, GaussianMode, LinearMode, ModelParams,
                    StandingWaveMode, TabulatedMode, _angle_derivatives)
from .propagation import MAX_STEPS, _sample_steps
from .twolevel import _kinematic_path

EXPERIMENTS = ("a0-map", "max-locus", "fidelity-map", "atrace",
               "effective-model", "snapshot")

#: The experiments that propagate a wave packet on the grid.
_PROPAGATING = {"fidelity-map", "atrace", "snapshot"}
_NEEDS_GRID = _PROPAGATING | {"a0-map"}
_NEEDS_RUN = _PROPAGATING | {"effective-model"}
_SINGLE_DETUNING = {"atrace", "effective-model", "snapshot"}

#: Largest grid.points, search.scan_points and model.detuning.count; each
#: allocates arrays of this length.
MAX_GRID_POINTS = 2**22


class ConfigError(ValueError):
    """A configuration file failed validation."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(obj: dict, path: str, allowed: set[str], required: set[str]):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing required key(s) {sorted(missing)}")


def _number(obj: dict, key: str, path: str, default=None):
    """obj[key] as a finite float; callers without a default read required keys."""
    if key not in obj:
        return float(default)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(f"{path}.{key}", "expected a finite number")
    return value


def _finite_array(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        _fail(path, "expected finite numbers")
    except (ValueError, TypeError):
        _fail(path, "expected a list of numbers")
    if not np.all(np.isfinite(arr)):
        _fail(path, "expected finite numbers")
    return arr


def _numbers(obj: dict, key: str, path: str) -> np.ndarray:
    return _finite_array(obj[key], f"{path}.{key}")


def _integer(obj: dict, key: str, path: str, default=None, minimum: int = 1):
    """obj[key], or `default` when the key is absent, as an integer >= minimum."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        _fail(f"{path}.{key}", f"expected an integer >= {minimum}")
    return value


def _positive(obj: dict, key: str, path: str, default=None):
    value = _number(obj, key, path, default)
    if value <= 0:
        _fail(f"{path}.{key}", "must be > 0")
    return value


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

#: Each mode kind's class, with the reader of each of its keys in the
#: order the constructor takes them; every key is required.
_MODE_KINDS = {
    "gaussian": (GaussianMode, {"amplitude": _number, "width": _positive}),
    "standing_wave": (StandingWaveMode, {"amplitude": _number, "wavenumber": _positive}),
    "linear": (LinearMode, {"gradient": _number}),
    "tabulated": (TabulatedMode, {"positions": _numbers, "samples": _numbers}),
}


def _parse_mode(obj, path):
    _check_keys(obj, path, {"kind"}.union(
        *(readers for _, readers in _MODE_KINDS.values())), {"kind"})
    kind = obj["kind"]
    # a list or an object is unhashable, so it is not looked up
    if not isinstance(kind, str) or kind not in _MODE_KINDS:
        _fail(f"{path}.kind", f"unknown mode kind {kind!r}")
    mode, readers = _MODE_KINDS[kind]
    _check_keys(obj, path, {"kind", *readers}, {"kind", *readers})
    args = [read(obj, key, path) for key, read in readers.items()]
    try:
        return mode(*args)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_detunings(value, path):
    """A single number, a range spec, or explicit values; returns an array."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite_array([value], path)
    if isinstance(value, dict):
        if "values" in value:
            _check_keys(value, path, {"values"}, {"values"})
            arr = _finite_array(value["values"], f"{path}.values")
            if arr.ndim != 1 or arr.size == 0:
                _fail(f"{path}.values", "expected a non-empty list of numbers")
            return arr
        _check_keys(value, path, {"start", "stop", "count", "spacing"},
                    {"start", "stop", "count"})
        start = _number(value, "start", path)
        stop = _number(value, "stop", path)
        if not math.isfinite(stop - start):
            _fail(path, "stop - start overflows")
        count = _integer(value, "count", path)
        if count > MAX_GRID_POINTS:
            _fail(f"{path}.count", f"expected at most {MAX_GRID_POINTS} detunings")
        spacing = value.get("spacing", "linear")
        if spacing == "linear":
            return np.linspace(start, stop, count)
        if spacing == "log":
            if start <= 0 or stop <= 0:
                _fail(path, "log spacing needs positive start and stop")
            return np.geomspace(start, stop, count)
        _fail(f"{path}.spacing", "expected 'linear' or 'log'")
    _fail(path, "expected a number, a range spec or {'values': [...]}")


def _parse_model(obj, path):
    _check_keys(obj, path, {"mass", "detuning", "photon_index", "frame_case",
                            "mode"}, {"detuning", "mode"})
    mass = _positive(obj, "mass", path, default=1.0)
    photon_index = _integer(obj, "photon_index", path, default=1)
    case_name = obj.get("frame_case", "case1")
    try:
        case = FrameCase(case_name)
    except ValueError:
        _fail(f"{path}.frame_case", "expected 'case1' or 'case2'")
    mode = _parse_mode(obj["mode"], f"{path}.mode")
    detunings = _parse_detunings(obj["detuning"], f"{path}.detuning")
    try:
        base = ModelParams(mode=mode, detuning=float(detunings[0]),
                           photon_index=photon_index, mass=mass,
                           frame_case=case)
        # the case2 offset is largest at the detuning of largest magnitude
        replace(base, detuning=float(detunings[np.argmax(np.abs(detunings))]))
    except ValueError as exc:  # mass and detuning are checked above
        _fail(f"{path}.photon_index", str(exc))
    return base, detunings


def _finite(quantity, evaluate, xs):
    """evaluate(xs), which must be finite at every point of xs: a standing
    wave's q x or a linear mode's C x can overflow where an experiment
    evaluates G, and A q or A q^2 where it evaluates g' or g''.  G is
    sqrt(n) g, but g' and g'' are the mode's own: sqrt(n) g' and sqrt(n) g''
    may overflow harmlessly inside the rescaled formulas of the parameter."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        values = evaluate(xs)
    bad = ~np.isfinite(values)
    if np.any(bad):
        _fail("config.model.mode", f"{quantity} is not finite at "
              f"x={float(xs[np.argmax(bad)])!r}")
    return values


def _parse_grid(obj, path):
    _check_keys(obj, path, {"points", "x_min", "x_max"},
                {"points", "x_min", "x_max"})
    points = obj["points"]
    if isinstance(points, bool) or not isinstance(points, int):
        _fail(f"{path}.points", "expected an integer power of two")
    if points > MAX_GRID_POINTS:
        _fail(f"{path}.points", f"expected at most {MAX_GRID_POINTS} points")
    x_min, x_max = _number(obj, "x_min", path), _number(obj, "x_max", path)
    try:
        return Grid(points, x_min, x_max)
    except ValueError as exc:
        _fail(path, str(exc))


@dataclass
class StateSpec:
    x0: float
    p0: float
    width: float
    frame: str
    population_upper: float
    population_lower: float


def _parse_state(obj, path):
    _check_keys(obj, path, {"x0", "p0", "width", "frame", "population_upper",
                            "population_lower"}, {"p0"})
    frame = obj.get("frame", "bare")
    if frame not in ("bare", "adiabatic"):
        _fail(f"{path}.frame", "expected 'bare' or 'adiabatic'")
    w_up = _number(obj, "population_upper", path, default=1.0)
    w_dn = _number(obj, "population_lower", path, default=0.0)
    if w_up < 0 or w_dn < 0 or w_up + w_dn <= 0:
        _fail(path, "populations must be nonnegative with a positive sum")
    total = w_up + w_dn
    if math.isinf(total):
        # both are finite, so only their sum overflowed; halving is exact
        w_up, w_dn = 0.5 * w_up, 0.5 * w_dn
        total = w_up + w_dn
    return StateSpec(
        x0=_number(obj, "x0", path, default=0.0),
        p0=_number(obj, "p0", path),
        width=_positive(obj, "width", path, default=1.0),
        frame=frame,
        population_upper=w_up / total,
        population_lower=w_dn / total,
    )


@dataclass
class RunSpec:
    """The resolved time grid of a run: every cell of a map shares it."""
    t_final: float
    dt: float
    stride: int


@np.errstate(over="ignore", divide="ignore")
def _parse_run(obj, path, tag, base, detunings, grid, coupling, state):
    """The run block, checked for every experiment; for those that run it,
    the one time grid of the runs at these detunings, else None.  `coupling`
    is G on the grid of a propagating run, and an overflow reads as inf.
    Without dt a propagating run takes 0.1 min(1/max |Delta_+- - mean_shift|,
    m dx / p_max), which resolves the phases and the
    transport of the momentum cover p_max, the smallest over a map's cells so
    that every cell samples the same instants; max |Delta_+- - mean_shift| =
    max hypot(detuning/2, G) over the grid, as mean_shift is an exact global
    phase, so both frame cases get the same step.  An explicit dt must keep
    dt max|Delta_+- - mean_shift| <= 1; an effective model needs one."""
    _check_keys(obj, path, {"t_final", "x_stop", "dt", "stride"}, set())
    if ("t_final" in obj) == ("x_stop" in obj):
        _fail(path, "exactly one of 't_final' and 'x_stop' is required")
    t_final = _positive(obj, "t_final", path) if "t_final" in obj else None
    x_stop = _number(obj, "x_stop", path) if "x_stop" in obj else None
    dt = _positive(obj, "dt", path) if "dt" in obj else None
    # a null stride means the default, like an absent one
    stride = None if obj.get("stride") is None else _integer(obj, "stride", path)
    if x_stop is not None:
        if state.p0 == 0:
            _fail(f"{path}.x_stop", "requires a state block with nonzero p0")
        t_final = (x_stop - state.x0) * base.mass / state.p0
        if t_final <= 0:
            _fail(f"{path}.x_stop", "not reachable from state.x0 with the given p0")
    if tag not in _NEEDS_RUN:
        return None
    # t_final/dt depends on the detuning only through a default dt
    which, at = "t_final/dt", ""
    if tag in _PROPAGATING:
        # max_x hypot(d/2, G(x)) = hypot(d/2, max_x |G(x)|) assumes hypot is
        # monotone in |G|; G does not depend on the detuning.  Ties pick as
        # the builtin min and max of (value, detuning) pairs do
        rates = np.hypot(0.5 * detunings, np.max(np.abs(coupling)))
        if dt is None:
            transport = base.mass * grid.dx / momentum_cover(state.p0, state.width)
            dts = 0.1 * np.minimum(np.where(rates > 0, 1.0 / rates, math.inf),
                                   transport)
            pick = np.lexsort((detunings, dts))[0]
            dt, at = dts[pick], f" at detuning {float(detunings[pick])!r}"
            if not math.isfinite(dt):
                _fail("config.run.dt", "cannot pick a default time step: the phase "
                      "and transport bounds are both infinite; give an explicit dt")
            which = f"t_final/dt with the default dt {dt:.3g}"
        else:
            pick = np.lexsort((-detunings, -dt * rates))[0]
            phase, worst = dt * rates[pick], float(detunings[pick])
            if not phase <= 1.0:
                _fail("config.run.dt", f"dt*max|Delta_+- - mean_shift| = "
                      f"{phase:.3g} exceeds 1 at detuning {worst!r}")
    elif dt is None:
        _fail("config.run.dt", f"{tag} needs an explicit dt")
    steps = t_final / dt
    if not math.isfinite(steps) or steps > MAX_STEPS:
        _fail("config.run.dt", f"{which} = {steps:.3g} steps exceeds the "
              f"limit of {MAX_STEPS}{at}")
    if round(steps) < 1:
        _fail("config.run.dt", f"{which} = {steps:.3g} rounds to no step{at}")
    if stride is None:
        stride = max(1, round(steps) // 800) if tag in _PROPAGATING else 1
    return RunSpec(t_final, dt, stride)


@dataclass
class SearchSpec:
    x_lo: float
    x_hi: float
    scan_points: int


def _parse_search(obj, path, mode):
    """'x_lo' and 'x_hi' as given, or (1e-3, 8) widths for a Gaussian mode;
    other modes peak on every node or have no scale, so they give both."""
    _check_keys(obj, path, {"x_lo", "x_hi", "scan_points"}, set())
    if ("x_lo" in obj) != ("x_hi" in obj):
        _fail(path, "'x_lo' and 'x_hi' must be given together")
    scan = _integer(obj, "scan_points", path, default=SCAN_POINTS, minimum=8)
    if scan > MAX_GRID_POINTS:
        _fail(f"{path}.scan_points", f"expected at most {MAX_GRID_POINTS} points")
    if "x_lo" in obj:
        lo, hi = _number(obj, "x_lo", path), _number(obj, "x_hi", path)
        if hi <= lo:
            _fail(path, "needs x_hi > x_lo")
        if not math.isfinite(hi - lo):
            _fail(path, "x_hi - x_lo overflows")
    elif isinstance(mode, GaussianMode):
        lo, hi = mode.width * 1e-3, 8.0 * mode.width
    else:
        _fail(path, "only a Gaussian mode has a default; give 'x_lo' and 'x_hi'")
    return SearchSpec(lo, hi, scan)


def _check_profile(slope, detunings, state):
    """A max-locus search needs a parameter that is nonzero somewhere; its
    numerator p0 * detuning * g' is zero on every scan point for these
    configs, where `slope` is g' on the scan points."""
    if state.p0 == 0:
        _fail("config.state.p0", "max-locus needs a nonzero p0: the pointwise "
              "parameter is zero everywhere")
    if np.any(detunings == 0):
        _fail("config.model.detuning", "max-locus needs nonzero detunings: at "
              "detuning 0 the pointwise parameter is zero everywhere")
    if not np.any(slope):
        _fail("config.model.mode", "max-locus needs a coupling slope g'(x) "
              "that is nonzero on a scan point: the pointwise parameter is "
              "zero everywhere")


# ---------------------------------------------------------------------------
# Whole config
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    experiment: str
    base_params: ModelParams
    detunings: np.ndarray
    grid: Grid | None
    state: StateSpec
    run: RunSpec | None
    search: SearchSpec | None
    abscissa: str
    raw: dict = field(repr=False, default_factory=dict)


def validate_config(data: dict, experiment: str | None = None) -> ScenarioConfig:
    """Validate a parsed config dict; `experiment` overrides the file's tag."""
    _check_keys(data, "config", {"experiment", "model", "grid", "state", "run",
                                 "search", "output"}, {"model"})
    tag = experiment or data.get("experiment")
    if tag is None:
        _fail("config.experiment", "no experiment tag given (file or command line)")
    if tag not in EXPERIMENTS:
        _fail("config.experiment", f"unknown experiment {tag!r}; "
              f"expected one of {list(EXPERIMENTS)}")
    if experiment and "experiment" in data and data["experiment"] != experiment:
        _fail("config.experiment",
              f"file says {data['experiment']!r} but {experiment!r} was requested")

    base, detunings = _parse_model(data["model"], "config.model")
    if tag in _SINGLE_DETUNING and detunings.size != 1:
        _fail("config.model.detuning", f"experiment {tag!r} needs a single detuning")

    grid = _parse_grid(data["grid"], "config.grid") if "grid" in data else None
    if tag in _NEEDS_GRID and grid is None:
        _fail("config.grid", f"experiment {tag!r} needs a grid block")
    coupling = None
    if tag in _NEEDS_GRID:
        coupling = _finite("the coupling G(x)", base.coupling, grid.x)
        _finite("the mode slope g'(x)", base.mode.slope, grid.x)
        if tag in _PROPAGATING:
            _finite("the mode curvature g''(x)", base.mode.curvature, grid.x)
        if tag == "atrace":
            # a_t averages the run's own theta' and theta'' over the packet
            _finite("the mixing-angle slope theta'(x)",
                    lambda x: _angle_derivatives(base, x)[0], grid.x)
            _finite("the mixing-angle curvature theta''(x)",
                    lambda x: _angle_derivatives(base, x)[1], grid.x)

    if "state" not in data:
        _fail("config.state", f"experiment {tag!r} needs a state block with p0")
    state = _parse_state(data["state"], "config.state")

    if tag in _NEEDS_RUN and "run" not in data:
        _fail("config.run", f"experiment {tag!r} needs a run block")

    if "search" in data and tag != "max-locus":
        _fail("config.search", "only the max-locus experiment takes a search block")
    search = None
    if tag == "max-locus":
        search = _parse_search(data.get("search", {}), "config.search", base.mode)
        # the points adiabaticity_max_locus scans
        scan = np.linspace(search.x_lo, search.x_hi, search.scan_points)
        _finite("the coupling G(x)", base.coupling, scan)
        _check_profile(_finite("the mode slope g'(x)", base.mode.slope, scan),
                       detunings, state)

    # single-run traces default to the measured packet center; sweep matrices
    # need the shared kinematic axis
    abscissa = "measured" if tag == "atrace" else "kinematic"
    if "output" in data:
        if tag not in ("fidelity-map", "atrace"):
            _fail("config.output", "only the fidelity-map and atrace "
                  "experiments take an output block")
        _check_keys(data["output"], "config.output", {"abscissa"}, set())
        abscissa = data["output"].get("abscissa", abscissa)
        if abscissa not in ("kinematic", "measured"):
            _fail("config.output.abscissa", "expected 'kinematic' or 'measured'")
    if tag == "fidelity-map" and abscissa == "measured" and detunings.size > 1:
        _fail("config.output.abscissa", "a swept fidelity map needs the shared "
              "'kinematic' abscissa")

    # guards that couple state and grid
    if tag in _PROPAGATING:
        p_needed = momentum_cover(state.p0, state.width)
        if not grid.k_max > p_needed:
            _fail("config.grid", f"momentum cutoff {grid.k_max:.4g} does not cover "
                  f"p0 + 6/width = {p_needed:.4g}")
        if _near_edge(grid, state.x0, state.width):
            _fail("config.state.x0", f"packet sits closer than {EDGE_MARGIN:g} "
                  "widths to a domain edge")

    # checked for every experiment, resolved for those that run it
    run = (_parse_run(data["run"], "config.run", tag, base, detunings, grid,
                      coupling, state) if "run" in data else None)
    if tag == "effective-model":
        # the kinematic path at every instant the run writes
        times = _sample_steps(run.t_final, run.dt, run.stride) * run.dt
        xs = _kinematic_path(state.x0, state.p0, base.mass, times)
        _finite("the coupling G(x)", base.coupling, xs)

    canonical = json.loads(json.dumps(data, sort_keys=True))
    canonical["experiment"] = tag
    return ScenarioConfig(tag, base, detunings, grid, state, run,
                          search, abscissa, canonical)


def apply_overrides(data: dict, overrides) -> dict:
    """Apply 'dotted.path=json-or-string' overrides to a config dict."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
            target = node
        target[parts[-1]] = value
    return data


def load_config(path, experiment: str | None = None,
                overrides=None) -> ScenarioConfig:
    """Read, override and validate a JSON scenario configuration."""
    def unique_keys(pairs) -> dict:
        # json.loads alone keeps the last of two equal keys, at any depth
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start}: not UTF-8 text "
                          f"({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    data = apply_overrides(data, overrides)
    return validate_config(data, experiment)
