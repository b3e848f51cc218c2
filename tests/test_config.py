import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
from adiabatica.config import (ConfigError, apply_overrides, load_config,
                               validate_config)


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
])
def test_non_finite_numbers_and_boolean_count_rejected(tmp_path, make,
                                                       override, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make()))
    with pytest.raises(ConfigError, match=re.escape(f"{key}: ")):
        load_config(path, overrides=[override])


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
    assert str(excinfo.value) == ("config.run.dt: t_final/dt = 0.4 rounds to "
                                  "no step at detuning 0.5")
    data["run"]["t_final"] = 0.005
    with pytest.raises(ConfigError, match="rounds to no step"):
        validate_config(data)
    data["run"]["t_final"] = 0.006
    assert validate_config(data).run.t_final == 0.006


@pytest.mark.parametrize("model, run", [
    ({}, {"t_final": 80.0, "dt": 1e300}),
    ({"frame_case": "case2", "photon_index": 4}, {"t_final": 80.0, "dt": 0.05}),
    ({}, {"t_final": 80.0}),
])
def test_an_overflowing_time_grid_is_rejected_without_a_warning(model, run):
    # near the largest float the phase product overflows to inf and the
    # default dt to 0; case2, whose splitting is the detuning as well, fails
    # the phase bound through a finite product: each must fail the phase
    # bound or the step cap, not raise a RuntimeWarning or pass a NaN phase
    data = fig_map_config()
    data["model"].update(detuning=1e308, **model)
    data["run"] = run
    with pytest.raises(ConfigError, match=r"config\.run\.dt: "):
        validate_config(data)


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
