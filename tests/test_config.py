import json
import re

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
    assert cfg.swept and cfg.detunings.size == 5
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
    assert not cfg.swept and cfg.detunings.tolist() == [0.7]
    data["model"]["detuning"] = {"values": [0.1, 0.2, 0.4]}
    cfg = validate_config(data)
    assert cfg.swept and cfg.detunings.tolist() == [0.1, 0.2, 0.4]
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
    assert cfg.run.resolve_t_final(cfg.state, cfg.base_params.mass) == \
        pytest.approx(80.0)
    data["run"]["x_stop"] = -500.0  # behind the packet
    with pytest.raises(ConfigError, match="x_stop"):
        validate_config(data)
    data = fig_map_config(x_stop=200.0)  # both given
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(data)


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
    locus = {
        "experiment": "max-locus",
        "model": {"detuning": {"values": [0.1, 1.0]},
                  "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 50.0}},
        "state": {"p0": 10.0},
        "search": {"x_lo": 0.5, "x_hi": 300.0, "scan_points": 200},
    }
    cfg = validate_config(locus)
    assert cfg.search.window() == (0.5, 300.0)


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
    cap = ad.config.MAX_STEPS
    validate_config(fig_map_config(t_final=0.5 * cap, dt=0.5))
    with pytest.raises(ConfigError, match=r"config\.run\.dt: .* exceeds"):
        validate_config(fig_map_config(t_final=0.5 * cap, dt=0.4999))
    # the cap also holds when t_final comes from x_stop
    data = fig_map_config(dt=1e-9)
    del data["run"]["t_final"]
    data["run"]["x_stop"] = 200.0
    with pytest.raises(ConfigError, match=r"config\.run\.dt"):
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
    from pathlib import Path
    bundle = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(bundle.glob("*.json"))
    assert paths, "bundled configuration examples are missing"
    for path in paths:
        load_config(path)
