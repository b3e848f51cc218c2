import copy
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
from adiabatica.config import (ConfigError, apply_overrides, load_config,
                               validate_config)

#: A JSON integer beyond the float range.
BIG = 10**400


def fig_map_config(**run_extra):
    return {
        "experiment": "fidelity-map",
        "model": {
            "detuning": {"start": 0.05, "stop": 10.0, "count": 3, "spacing": "log"},
            "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 50.0},
        },
        "grid": {"points": 2048, "x_min": -300.0, "x_max": 300.0},
        "state": {"x0": -200.0, "p0": 5.0, "width": 10.0},
        "run": {"t_final": 80.0, "dt": 0.05, "stride": 100, **run_extra},
    }


def test_a0_map_sweep_accepted():
    # pointwise-parameter map over a log sweep starting from 1e-4
    data = {
        "experiment": "a0-map",
        "model": {
            "detuning": {"start": 1e-4, "stop": 1.0, "count": 5, "spacing": "log"},
            "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 50.0},
        },
        "grid": {"points": 1024, "x_min": -300.0, "x_max": 300.0},
        "state": {"p0": 10.0},
    }
    cfg = validate_config(data)
    assert cfg.experiment == "a0-map"
    assert cfg.detunings.size == 5
    assert cfg.detunings[0] == pytest.approx(1e-4)
    assert cfg.base_params.mode.width == 50.0


def test_negative_width_rejected():
    data = fig_map_config()
    data["state"]["width"] = -10.0
    with pytest.raises(ConfigError, match="state.width"):
        validate_config(data)


def test_missing_mode_rejected_with_key_name():
    data = fig_map_config()
    del data["model"]["mode"]
    with pytest.raises(ConfigError, match="mode"):
        validate_config(data)


def test_unknown_keys_rejected():
    data = fig_map_config()
    data["model"]["mode"]["amplitdue"] = 2.0
    with pytest.raises(ConfigError, match="amplitdue"):
        validate_config(data)
    data = fig_map_config()
    data["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        validate_config(data)


def test_detuning_forms():
    data = fig_map_config()
    data["model"]["detuning"] = 0.7
    cfg = validate_config(data)
    assert cfg.detunings.tolist() == [0.7]
    data["model"]["detuning"] = {"values": [0.1, 0.2, 0.4]}
    cfg = validate_config(data)
    assert cfg.detunings.tolist() == [0.1, 0.2, 0.4]
    data["model"]["detuning"] = {"start": -1.0, "stop": 1.0, "count": 2,
                                 "spacing": "log"}
    with pytest.raises(ConfigError, match="log"):
        validate_config(data)
    data["model"]["detuning"] = "ten"
    with pytest.raises(ConfigError, match="detuning"):
        validate_config(data)


def test_single_detuning_experiments_reject_sweeps():
    data = fig_map_config()
    data["experiment"] = "atrace"
    with pytest.raises(ConfigError, match="single detuning"):
        validate_config(data)


def test_x_stop_resolution():
    data = fig_map_config()
    del data["run"]["t_final"]
    data["run"]["x_stop"] = 200.0
    cfg = validate_config(data)
    assert cfg.run.t_final == pytest.approx(80.0)
    data["run"]["x_stop"] = -500.0  # behind the packet
    with pytest.raises(ConfigError, match="x_stop"):
        validate_config(data)
    data = fig_map_config(x_stop=200.0)  # both given
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(data)


def test_run_block_of_a_pointwise_experiment_is_still_checked():
    # a0-map and max-locus do not run, so their run block resolves to None,
    # but its keys and its x_stop are checked as for any experiment
    data = fig_map_config()
    data["experiment"] = "a0-map"
    assert validate_config(data).run is None
    data["run"]["dtt"] = 0.1
    with pytest.raises(ConfigError, match=re.escape(
            "config.run: unknown key(s) ['dtt']")):
        validate_config(data)
    data = fig_map_config()
    data["experiment"] = "a0-map"
    del data["run"]["t_final"]
    data["run"]["x_stop"] = -500.0  # behind the packet
    with pytest.raises(ConfigError) as excinfo:
        validate_config(data)
    assert str(excinfo.value) == ("config.run.x_stop: not reachable from "
                                  "state.x0 with the given p0")


def max_locus_config():
    return {
        "experiment": "max-locus",
        "model": {"detuning": {"values": [0.1, 1.0]},
                  "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 50.0}},
        "state": {"p0": 10.0},
        "search": {"x_lo": 0.5, "x_hi": 300.0},
    }


def map_config_without(block):
    def make():
        data = fig_map_config()
        del data[block]
        return data
    return make


@pytest.mark.parametrize("make, overrides, message", [
    (fig_map_config, ["state=[5.0]"], "config.state: expected an object"),
    (fig_map_config, ['model.detuning={"values": "many"}'],
     "config.model.detuning.values: expected a list of numbers"),
    (fig_map_config, ['model.mode={"kind": "tabulated", '
                      '"positions": [0, 1, 3, 4], "samples": [0, 1, 0, -1]}'],
     "config.model.mode: TabulatedMode positions must be uniformly increasing"),
    (fig_map_config, ['model.mode={"kind": "square"}'],
     "config.model.mode.kind: unknown mode kind 'square'"),
    # unhashable kinds are not looked up
    (fig_map_config, ['model.mode={"kind": [1]}'],
     "config.model.mode.kind: unknown mode kind [1]"),
    (fig_map_config, ['model.mode={"kind": {"a": 1}}'],
     "config.model.mode.kind: unknown mode kind {'a': 1}"),
    (fig_map_config, ["model.detuning.spacing=cubic"],
     "config.model.detuning.spacing: expected 'linear' or 'log'"),
    (fig_map_config, ["model.frame_case=case3"],
     "config.model.frame_case: expected 'case1' or 'case2'"),
    (fig_map_config, ["grid.points=2048.0"],
     "config.grid.points: expected an integer power of two"),
    (fig_map_config, ["grid.points=2000"],
     "config.grid: Grid.npoints must be a power of two >= 2"),
    (fig_map_config, ["state.frame=dressed"],
     "config.state.frame: expected 'bare' or 'adiabatic'"),
    (fig_map_config, ["state.p0=0", 'run={"x_stop": 200.0}'],
     "config.run.x_stop: requires a state block with nonzero p0"),
    (max_locus_config, ['search={"x_lo": 0.5}'],
     "config.search: 'x_lo' and 'x_hi' must be given together"),
    (max_locus_config, ["search.x_lo=500.0"],
     "config.search: needs x_hi > x_lo"),
    (fig_map_config, ["experiment=b0-map"],
     "config.experiment: unknown experiment 'b0-map'; expected one of "
     "['a0-map', 'max-locus', 'fidelity-map', 'atrace', 'effective-model', "
     "'snapshot']"),
    (map_config_without("grid"), [],
     "config.grid: experiment 'fidelity-map' needs a grid block"),
    (map_config_without("state"), [],
     "config.state: experiment 'fidelity-map' needs a state block with p0"),
    (map_config_without("run"), [],
     "config.run: experiment 'fidelity-map' needs a run block"),
    (fig_map_config, ["output.abscissa=time"],
     "config.output.abscissa: expected 'kinematic' or 'measured'"),
    (lambda: [fig_map_config()], [], "<file>: top level must be an object"),
])
def test_config_errors_name_their_key_path(tmp_path, make, overrides, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make()))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path, overrides=overrides)
    assert str(excinfo.value) == message.replace("<file>", str(path))


def test_momentum_cutoff_guard():
    data = fig_map_config()
    data["grid"]["points"] = 256  # dx = 2.34, cutoff ~ 1.34 < 5.6
    with pytest.raises(ConfigError, match="cutoff"):
        validate_config(data)


def test_edge_distance_guard():
    data = fig_map_config()
    data["state"]["x0"] = -280.0
    with pytest.raises(ConfigError, match="edge"):
        validate_config(data)


def test_a_repeated_key_is_rejected_at_any_depth(tmp_path):
    # json.loads alone keeps the last of two equal keys, so such a file ran
    # with the last one, and its comment line showed only that one
    path = tmp_path / "cfg.json"
    text = json.dumps(fig_map_config())
    for once, twice, key in [('"grid": {', '"grid": {}, "grid": {', "grid"),
                             ('"dt": 0.05', '"dt": 0.1, "dt": 0.05', "dt"),
                             ('"width": 50.0', '"width": 5.0, "width": 50.0',
                              "width")]:
        assert text.count(once) == 1
        path.write_text(text.replace(once, twice))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}: repeated key {key!r}"
    # several overrides of one key stay last-wins
    path.write_text(text)
    cfg = load_config(path, overrides=["run.dt=0.1", "run.dt=0.02"])
    assert cfg.run.dt == 0.02


def test_search_block_only_for_max_locus():
    data = fig_map_config()
    data["search"] = {"x_lo": 1.0, "x_hi": 100.0}
    with pytest.raises(ConfigError, match="search"):
        validate_config(data)
    cfg = validate_config(max_locus_config())
    assert (cfg.search.x_lo, cfg.search.x_hi) == (0.5, 300.0)


def test_scan_points_capped_at_load_time():
    # fig2 with 10**9 scan points passed validation, and its search would
    # then have asked np.linspace for 8 GB; the cap is the grid's
    path = Path(__file__).resolve().parents[1] / "configs" / "fig2_max_locus.json"
    data = json.loads(path.read_text())
    data["search"]["scan_points"] = 10**9
    with pytest.raises(ConfigError) as excinfo:
        validate_config(data)
    assert str(excinfo.value) == ("config.search.scan_points: expected at "
                                  "most 4194304 points")
    data["search"]["scan_points"] = 2**22
    assert validate_config(data).search.scan_points == 2**22


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_detuning_count_capped_at_load_time(spacing):
    # a fidelity-map resolves each detuning's run before anything starts, so
    # 10**8 detunings validated for hours and 10**12 failed on allocation
    # without naming the key; the cap is the grid's
    data = fig_map_config()
    data["model"]["detuning"].update(count=10**9, spacing=spacing)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(data)
    assert str(excinfo.value) == ("config.model.detuning.count: expected at "
                                  "most 4194304 detunings")
    data = fig_map_config()
    data["experiment"] = "a0-map"
    del data["run"]
    data["model"]["detuning"].update(count=2**22, spacing=spacing)
    assert validate_config(data).detunings.size == 2**22


@pytest.mark.parametrize("mode", [
    {"kind": "linear", "gradient": 0.1},
    {"kind": "tabulated", "positions": [0.0, 1.0, 2.0, 3.0],
     "samples": [0.0, 1.0, 0.0, -1.0]},
    {"kind": "standing_wave", "amplitude": 1.0, "wavenumber": 0.5},
])
def test_max_locus_without_a_default_window_needs_one(mode):
    # only a Gaussian mode has a default window; any other mode must be
    # rejected at load time, with the key path, not when the search starts
    locus = {
        "experiment": "max-locus",
        "model": {"detuning": {"values": [0.1, 1.0]}, "mode": mode},
        "state": {"p0": 10.0},
    }
    for search in (None, {"scan_points": 50}):
        if search is not None:
            locus["search"] = search
        with pytest.raises(ConfigError, match=r"^config\.search: .*'x_lo'"):
            validate_config(locus)
    locus["search"] = {"x_lo": 0.5, "x_hi": 3.0}
    search = validate_config(locus).search
    assert (search.x_lo, search.x_hi) == (0.5, 3.0)


@pytest.mark.parametrize("overrides, path", [
    (["state.p0=0"], "config.state.p0"),
    (["model.detuning=0"], "config.model.detuning"),
    (['model.detuning={"values": [0.1, -0.0]}'], "config.model.detuning"),
    (["model.mode.amplitude=0"], "config.model.mode"),
    (['model.mode={"kind": "standing_wave", "amplitude": 0.0, '
      '"wavenumber": 0.5}'], "config.model.mode"),
    (['model.mode={"kind": "linear", "gradient": 0.0}'], "config.model.mode"),
    (['model.mode={"kind": "tabulated", "positions": [0, 1, 2, 3], '
      '"samples": [0, 0, 0, 0]}'], "config.model.mode"),
    # constant samples: the spectral slope table is exactly 0
    (['model.mode={"kind": "tabulated", "positions": [0, 1, 2, 3], '
      '"samples": [1, 1, 1, 1]}'], "config.model.mode"),
    # g' = -(x / a^2) g underflows to 0 on every scan point of the window
    (["model.mode.width=1.9e129"], "config.model.mode"),
    # constant samples whose plain spectral slope table kept FFT round-off
    # (about 1e-17), so the search wrote a round-off value_at_max
    (['model.mode={"kind": "tabulated", "positions": '
      f"{list(range(100))}, \"samples\": {[0.3] * 100}}}",
      'search={"x_lo": 1, "x_hi": 9}'], "config.model.mode"),
])
def test_max_locus_rejects_a_flat_profile_at_load_time(overrides, path):
    # each of these zeroes the pointwise parameter at every point; such a
    # config loaded and its search then failed on the flat profile
    data = apply_overrides(max_locus_config(), overrides)
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(path)}: .*zero everywhere$"):
        validate_config(data)
    # the other experiments still take the same blocks
    data["experiment"] = "a0-map"
    data["grid"] = {"points": 256, "x_min": -100.0, "x_max": 100.0}
    del data["search"]
    assert validate_config(data).experiment == "a0-map"


def tabulated_config():
    xs = np.linspace(-50.0, 50.0, 64, endpoint=False)
    return {
        "experiment": "a0-map",
        "model": {"detuning": 1.0,
                  "mode": {"kind": "tabulated",
                           "positions": xs.tolist(),
                           "samples": np.cos(0.2 * np.pi * xs / 5).tolist()}},
        "grid": {"points": 512, "x_min": -50.0, "x_max": 50.0},
        "state": {"p0": 2.0},
    }


def test_tabulated_mode_config():
    cfg = validate_config(tabulated_config())
    assert isinstance(cfg.base_params.mode, ad.TabulatedMode)


@pytest.mark.parametrize("make, override, key", [
    (fig_map_config, "model.mode.amplitude=NaN", "config.model.mode.amplitude"),
    (fig_map_config, "run.dt=NaN", "config.run.dt"),
    (fig_map_config, "run.t_final=Infinity", "config.run.t_final"),
    (fig_map_config, "state.population_lower=Infinity",
     "config.state.population_lower"),
    (fig_map_config, "model.detuning=NaN", "config.model.detuning"),
    (fig_map_config, 'model.detuning={"values": [0.5, NaN]}',
     "config.model.detuning.values"),
    (fig_map_config, 'model.detuning={"start": 0.1, "stop": 1, "count": true}',
     "config.model.detuning.count"),
    (tabulated_config, "model.mode.positions=[0, 1, 2, NaN]",
     "config.model.mode.positions"),
    (tabulated_config, "model.mode.samples=[0, 1, Infinity, 1]",
     "config.model.mode.samples"),
    # integers beyond the float range raised OverflowError, not ConfigError
    (fig_map_config, f"model.detuning={BIG}", "config.model.detuning"),
    (fig_map_config, f'model.detuning={{"values": [0.5, {BIG}]}}',
     "config.model.detuning.values"),
    (fig_map_config, f'model.detuning={{"start": 0.5, "stop": {BIG}, '
     '"count": 3}', "config.model.detuning.stop"),
    (fig_map_config, f"model.mode.amplitude={BIG}",
     "config.model.mode.amplitude"),
    (fig_map_config, f"model.mass={BIG}", "config.model.mass"),
    (fig_map_config, f"model.photon_index={BIG}", "config.model.photon_index"),
    (fig_map_config, f"state.p0={BIG}", "config.state.p0"),
    (fig_map_config, f"state.population_lower={BIG}",
     "config.state.population_lower"),
    (fig_map_config, f"grid.x_max={BIG}", "config.grid.x_max"),
    (fig_map_config, f"run.dt={BIG}", "config.run.dt"),
    # finite ends whose difference overflows
    (fig_map_config, 'model.detuning={"start": -1e308, "stop": 1e308, '
     '"count": 3}', "config.model.detuning"),
    (max_locus_config, 'search={"x_lo": -1e308, "x_hi": 1e308}',
     "config.search"),
])
def test_non_finite_numbers_and_boolean_count_rejected(tmp_path, make,
                                                       override, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make()))
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        load_config(path, overrides=[override])


#: Every numeric key of the two configs below, as dotted paths; a
#: "values" entry stands for the second element of the detuning list.
_NUMERIC_KEYS = {
    "fidelity-map": [
        "model.detuning", "model.detuning.values", "model.detuning.start",
        "model.detuning.stop", "model.detuning.count", "model.mass",
        "model.photon_index", "model.mode.amplitude", "model.mode.width",
        "grid.points", "grid.x_min", "grid.x_max", "state.x0", "state.p0",
        "state.width", "state.population_upper", "state.population_lower",
        "run.t_final", "run.x_stop", "run.dt", "run.stride"],
    "max-locus": ["state.p0", "search.x_lo", "search.x_hi",
                  "search.scan_points"],
}


def _with_value(experiment, key, value):
    """A valid config of `experiment` with `key` set to `value`."""
    data = fig_map_config() if experiment == "fidelity-map" else max_locus_config()
    if key.startswith("model.detuning."):
        name = key.rpartition(".")[2]
        data["model"]["detuning"] = (
            {"values": [0.5, value]} if name == "values"
            else {"start": 0.05, "stop": 10.0, "count": 3, name: value})
        return data
    if key == "run.x_stop":
        del data["run"]["t_final"]
    *blocks, name = key.split(".")
    target = data
    for block in blocks:
        target = target.setdefault(block, {})
    target[name] = value
    return data


def test_numeric_keys_raise_only_config_errors_over_generated_values():
    # any value of a numeric key is accepted or rejected with a ConfigError
    # that names its key path; integers beyond the float range raised
    # OverflowError, and the test run turns a RuntimeWarning into an error
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = [(experiment, key) for experiment, names in _NUMERIC_KEYS.items()
            for key in names]
    values = st.one_of(
        st.sampled_from([BIG, -BIG, 2**1024 - 1, float("nan"), float("inf"),
                         float("-inf"), True, False]),
        st.floats(), st.integers(-1000, 1000))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(where=st.sampled_from(keys), value=values)
    def check(where, value):
        data = _with_value(*where, value)
        try:
            validate_config(data)
        except ConfigError as exc:
            assert str(exc).startswith("config."), exc

    check()


def test_state_population_validation():
    data = fig_map_config()
    data["state"]["population_upper"] = 0.0
    data["state"]["population_lower"] = 0.0
    with pytest.raises(ConfigError, match="population"):
        validate_config(data)
    data["state"]["population_upper"] = 3.0
    data["state"]["population_lower"] = 1.0
    cfg = validate_config(data)
    assert cfg.state.population_upper == pytest.approx(0.75)
    assert cfg.state.population_lower == pytest.approx(0.25)
    # small inputs normalise by their plain sum, bit for bit
    data["state"]["population_upper"] = 2.0
    data["state"]["population_lower"] = 0.1
    cfg = validate_config(data)
    assert cfg.state.population_upper == 2.0 / 2.1
    assert cfg.state.population_lower == 0.1 / 2.1
    # a sum that overflows must not normalise both to zero
    data["state"]["population_upper"] = 1e308
    data["state"]["population_lower"] = 1e308
    cfg = validate_config(data)
    assert cfg.state.population_upper == 0.5
    assert cfg.state.population_lower == 0.5


def test_step_cap_on_explicit_dt():
    # the cap is checked where the config resolves its dt, at load time; a
    # single small detuning, so that dt=0.5 also passes the phase bound
    cap = ad.config.MAX_STEPS
    data = fig_map_config(t_final=0.5 * cap, dt=0.5)
    data["model"]["detuning"] = 0.05
    assert validate_config(data).run.dt == 0.5
    data["run"]["dt"] = 0.4999
    with pytest.raises(ConfigError, match=r"config\.run\.dt: .* exceeds"):
        validate_config(data)
    # the cap also holds when t_final comes from x_stop
    data = fig_map_config(dt=1e-9)
    del data["run"]["t_final"]
    data["run"]["x_stop"] = 200.0
    with pytest.raises(ConfigError, match=r"config\.run\.dt"):
        validate_config(data)
    # and for the effective model, which builds no scenario
    data = {"experiment": "effective-model",
            "model": {"detuning": 0.5,
                      "mode": {"kind": "gaussian", "amplitude": 1.0,
                               "width": 50.0}},
            "state": {"x0": -200.0, "p0": 5.0, "width": 10.0},
            "run": {"t_final": 80.0, "dt": 1e-9}}
    with pytest.raises(ConfigError, match=r"config\.run\.dt: .* exceeds"):
        validate_config(data)
    del data["run"]["dt"]
    with pytest.raises(ConfigError, match=re.escape(
            "config.run.dt: effective-model needs an explicit dt")):
        validate_config(data)


def test_a_free_run_without_a_finite_default_dt_is_rejected():
    # no coupling and no detuning leave no phase bound, and the transport
    # bound m dx / p_max overflows: the default dt is inf.  It raised a
    # ValueError without a key path
    data = {"experiment": "atrace",
            "model": {"detuning": 0.0, "mass": 1e300,
                      "mode": {"kind": "gaussian", "amplitude": 0.0,
                               "width": 1.0}},
            "grid": {"points": 32, "x_min": -5e10, "x_max": 5e10},
            "state": {"p0": 0.0, "width": 1e10},
            "run": {"t_final": 1.0}}
    with pytest.raises(ConfigError) as excinfo:
        validate_config(data)
    assert str(excinfo.value) == (
        "config.run.dt: cannot pick a default time step: the phase and "
        "transport bounds are both infinite; give an explicit dt")
    data["run"]["dt"] = 0.5
    assert validate_config(data).run.dt == 0.5


@pytest.mark.parametrize("experiment", ["atrace", "effective-model"])
def test_a_run_shorter_than_half_a_step_is_rejected(experiment):
    # t_final/dt = 0.4 ran one step, to t = 0.01, without a warning; 0.5
    # rounds to 0 steps as well
    data = fig_map_config(t_final=0.004, dt=0.01)
    data["experiment"] = experiment
    data["model"]["detuning"] = 0.5
    with pytest.raises(ConfigError) as excinfo:
        validate_config(data)
    # an explicit dt's step count does not depend on the detuning
    assert str(excinfo.value) == ("config.run.dt: t_final/dt = 0.4 rounds to "
                                  "no step")
    data["run"]["t_final"] = 0.005
    with pytest.raises(ConfigError, match="rounds to no step"):
        validate_config(data)
    data["run"]["t_final"] = 0.006
    assert validate_config(data).run.t_final == 0.006


@pytest.mark.parametrize("model, run", [
    ({}, {"t_final": 80.0, "dt": 1e300}),
    ({"frame_case": "case2"}, {"t_final": 80.0, "dt": 0.05}),
    ({}, {"t_final": 80.0}),
])
def test_an_overflowing_time_grid_is_rejected_without_a_warning(model, run):
    # near the largest float the phase product overflows to inf and the
    # default dt to 0; case2, whose splitting is the detuning as well, fails
    # the phase bound through a finite product (its offset -detuning/2 is
    # finite at photon index 1): each must fail the phase bound or the step
    # cap, not raise a RuntimeWarning or pass a NaN phase
    data = fig_map_config()
    data["model"].update(detuning=1e308, **model)
    data["run"] = run
    with pytest.raises(ConfigError, match=r"config\.run\.dt: "):
        validate_config(data)


def _reference_run(data):
    """The dt, or the error, of a fidelity-map config's run, from one
    ModelParams per detuning: the rule _parse_run applies to a coupling
    evaluated once.  A detuning whose case2 offset overflows fails the
    model block first."""
    model, run, grid = data["model"], data["run"], data["grid"]
    grid = ad.Grid(grid["points"], grid["x_min"], grid["x_max"])
    mode = ad.GaussianMode(model["mode"]["amplitude"], model["mode"]["width"])
    detunings = model["detuning"]["values"]
    rates = []
    for d in detunings:
        try:
            params = ad.ModelParams(mode, d, model["photon_index"],
                                    frame_case=ad.FrameCase(model["frame_case"]))
        except ValueError as exc:
            return f"config.model.photon_index: {exc}"
        rates.append((np.max(np.hypot(0.5 * params.detuning,
                                      params.coupling(grid.x))), d))
    t_final, dt = run["t_final"], run.get("dt")
    which, at = "t_final/dt", ""
    with np.errstate(over="ignore", divide="ignore"):
        if dt is None:
            transport = grid.dx / ad.grids.momentum_cover(
                data["state"]["p0"], data["state"]["width"])
            dt, delta = min((0.1 * min(1.0 / rate if rate > 0 else np.inf,
                                       transport), d) for rate, d in rates)
            which = f"t_final/dt with the default dt {dt:.3g}"
            at = f" at detuning {delta!r}"
        else:
            phase, worst = max((dt * rate, d) for rate, d in rates)
            if not phase <= 1.0:
                return (f"config.run.dt: dt*max|Delta_+- - mean_shift| = "
                        f"{phase:.3g} exceeds 1 at detuning {worst!r}")
        steps = t_final / dt
    if not steps <= ad.config.MAX_STEPS:
        return (f"config.run.dt: {which} = {steps:.3g} steps exceeds the "
                f"limit of {ad.config.MAX_STEPS}{at}")
    return dt


def test_resolved_run_matches_a_per_detuning_reference():
    # _parse_run evaluates the coupling once for all detunings; the
    # default dt it picks, or the error naming the detuning that fails,
    # must be those of a ModelParams per detuning, bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    detuning = st.one_of(st.floats(-20.0, 20.0),
                         st.floats(allow_nan=False, allow_infinity=False))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        detunings=st.lists(detuning, min_size=1, max_size=6),
        amplitude=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        photon_index=st.integers(1, 4),
        frame_case=st.sampled_from(["case1", "case2"]),
        dt=st.one_of(st.none(), st.floats(1e-4, 1.0)))
    def check(detunings, amplitude, photon_index, frame_case, dt):
        data = fig_map_config()
        data["model"].update(detuning={"values": detunings},
                             photon_index=photon_index, frame_case=frame_case)
        data["model"]["mode"]["amplitude"] = amplitude
        if dt is None:
            del data["run"]["dt"]
        else:
            data["run"]["dt"] = dt
        try:
            outcome = validate_config(data).run.dt
        except ConfigError as exc:
            outcome = str(exc)
        assert outcome == _reference_run(data)

    check()


def test_a_swept_map_at_the_detuning_cap_validates_quickly():
    # the phase rate of every cell is one array expression, so fig4 at the
    # largest detuning count resolves its run in about 0.2 s on a 2-CPU
    # host (about 100 s with a loop over the detunings)
    path = Path(__file__).resolve().parents[1] / "configs/fig4_fidelity_map.json"
    data = json.loads(path.read_text())
    data["model"]["detuning"]["count"] = ad.config.MAX_GRID_POINTS
    start = time.perf_counter()
    cfg = validate_config(data)
    assert time.perf_counter() - start < 10.0
    assert cfg.detunings.size == 2**22
    assert (cfg.run.dt, cfg.run.stride) == (0.02, 100)


def test_experiment_tag_consistency():
    data = fig_map_config()
    with pytest.raises(ConfigError, match="requested"):
        validate_config(data, experiment="atrace")
    del data["experiment"]
    with pytest.raises(ConfigError, match="experiment"):
        validate_config(data)
    cfg = validate_config(data, experiment="fidelity-map")
    assert cfg.experiment == "fidelity-map"


def test_overrides():
    data = fig_map_config()
    apply_overrides(data, ["model.detuning=0.5", "run.stride=10",
                           "output.abscissa=kinematic"])
    assert data["model"]["detuning"] == 0.5
    assert data["run"]["stride"] == 10
    assert data["output"] == {"abscissa": "kinematic"}
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(data, ["oops"])
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides(data, ["model.detuning.start=1"])


def test_overrides_round_trip_over_generated_values(tmp_path):
    # dotted overrides of run.dt, run.stride and model.detuning give what
    # validate_config gives for the dict with those values set: the same
    # canonical config, detunings and resolved run, or the same error.  A dt
    # of None stands for none at all, from a copy of the file without one.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shipped_path = (Path(__file__).resolve().parents[1] / "configs"
                    / "fig9a_atrace.json")
    shipped = json.loads(shipped_path.read_text())
    no_dt = copy.deepcopy(shipped)
    del no_dt["run"]["dt"]
    no_dt_path = tmp_path / "no_dt.json"
    no_dt_path.write_text(json.dumps(no_dt))
    odd = st.one_of(st.floats(), st.integers(-10**6, 10**6), st.booleans())

    def outcome(load):
        try:
            cfg = load()
        except ConfigError as exc:
            return str(exc)
        return cfg.raw, cfg.detunings.tolist(), cfg.run

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        dt=st.one_of(st.none(), st.floats(1e-4, 0.1), odd),
        stride=st.one_of(st.none(), st.integers(1, 10**4), odd),
        detuning=st.one_of(st.floats(-20.0, 20.0), odd,
                           st.lists(st.floats(-20.0, 20.0), max_size=3).map(
                               lambda v: {"values": v})))
    def check(dt, stride, detuning):
        path, data = ((no_dt_path, no_dt) if dt is None
                      else (shipped_path, shipped))
        values = {"run.dt": dt, "run.stride": stride,
                  "model.detuning": detuning}
        if dt is None:
            del values["run.dt"]
        data = copy.deepcopy(data)
        for key, value in values.items():
            block, name = key.split(".")
            data[block][name] = value
        overrides = [f"{key}={json.dumps(value)}"
                     for key, value in values.items()]
        assert outcome(lambda: load_config(path, overrides=overrides)) == \
            outcome(lambda: validate_config(data))

    check()


def test_load_config_reports_parse_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "a0-map",\n  "model": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(bad)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(fig_map_config()))
    cfg = load_config(path, overrides=["run.stride=50"])
    assert cfg.run.stride == 50
    assert cfg.raw["experiment"] == "fidelity-map"


def test_bundled_configs_validate():
    bundle = Path(__file__).resolve().parents[1] / "configs"
    # configs/golden.json holds the digests of their outputs, not a config
    paths = sorted(p for p in bundle.glob("*.json") if p.name != "golden.json")
    assert paths, "bundled configuration examples are missing"
    for path in paths:
        load_config(path)
