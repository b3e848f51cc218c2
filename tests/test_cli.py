import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
from adiabatica import experiments
from adiabatica.cli import main
from adiabatica.config import load_config
from adiabatica.experiments import run_experiment, write_run_csv


def tiny_map_config(experiment="fidelity-map", **model_extra):
    return {
        "experiment": experiment,
        "model": {
            "detuning": {"values": [0.5, 2.0]},
            "mode": {"kind": "gaussian", "amplitude": 1.5, "width": 6.0},
            **model_extra,
        },
        "grid": {"points": 256, "x_min": -60.0, "x_max": 60.0},
        "state": {"x0": -20.0, "p0": 3.0, "width": 3.0},
        "run": {"t_final": 4.0, "dt": 0.01, "stride": 50},
    }


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_table(path):
    with open(path) as handle:
        comment = handle.readline()
        header = handle.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    return comment, header, np.atleast_2d(data)


# ---------------------------------------------------------------------------
# Experiment outputs
# ---------------------------------------------------------------------------

def test_a0_map_output_matches_library(tmp_path):
    data = tiny_map_config("a0-map")
    del data["run"]
    cfg = load_config(write_config(tmp_path, data))
    paths = run_experiment(cfg, tmp_path / "out")
    comment, header, table = read_table(paths[0])
    assert comment.startswith("# adiabatica=")
    assert header[0] == "x" and len(header) == 3
    assert table.shape == (256, 3)
    from dataclasses import replace
    expected = ad.local_adiabaticity(replace(cfg.base_params, detuning=0.5),
                                     cfg.grid.x, 3.0)
    np.testing.assert_allclose(table[:, 1], expected, rtol=1e-12)


def test_max_locus_output(tmp_path):
    data = {
        "experiment": "max-locus",
        "model": {"detuning": {"values": [1.0, 5.0]},
                  "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 6.0}},
        "state": {"p0": 3.0},
        "search": {"x_lo": 0.1, "x_hi": 30.0, "scan_points": 300},
    }
    cfg = load_config(write_config(tmp_path, data))
    paths = run_experiment(cfg, tmp_path / "out")
    _, header, table = read_table(paths[0])
    assert header == ["detuning", "x_max", "value_at_max"]
    assert table.shape == (2, 3)
    np.testing.assert_allclose(table[:, 1], 6.0, atol=0.3)


def test_fidelity_map_output_serial_and_pool(tmp_path, monkeypatch):
    # the pool class is imported when a map needs it, so it is replaced
    # where that import finds it
    pool_sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    data = tiny_map_config()
    data["model"]["detuning"] = {"values": [0.5, 2.0, 5.0]}
    cfg = load_config(write_config(tmp_path, data))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_experiment(cfg, tmp_path / "serial")
    assert pool_sizes == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = run_experiment(cfg, tmp_path / "pooled")
    assert pool_sizes == [2]
    assert serial[0].read_bytes() == pooled[0].read_bytes()
    _, header, table = read_table(serial[0])
    assert header[:2] == ["x", "t"]
    assert np.all(table[:, 2:] <= 1.0 + 1e-9)
    assert table[0, 2] == pytest.approx(1.0, abs=1e-9)


def test_atrace_output_columns(tmp_path):
    data = tiny_map_config("atrace")
    data["model"]["detuning"] = 2.0
    cfg = load_config(write_config(tmp_path, data))
    assert cfg.abscissa == "measured"  # default for single-run traces
    paths = run_experiment(cfg, tmp_path / "out")
    _, header, table = read_table(paths[0])
    assert header == ["t", "x", "a_t", "a0", "a0_with_curvature"]
    assert np.all(table[:, 2] >= 0.0)
    # approximate column equals the closed form on the kinematic path
    a0 = ad.local_adiabaticity(cfg.base_params, -20.0 + 3.0 * table[:, 0], 3.0)
    np.testing.assert_allclose(table[:, 3], a0, rtol=1e-12)


def test_fidelity_map_rejects_measured_abscissa_for_sweeps(tmp_path):
    data = tiny_map_config()
    data["output"] = {"abscissa": "measured"}
    from adiabatica.config import ConfigError
    with pytest.raises(ConfigError, match="kinematic"):
        load_config(write_config(tmp_path, data))


def test_effective_model_output(tmp_path):
    data = {
        "experiment": "effective-model",
        "model": {"detuning": 0.8,
                  "mode": {"kind": "gaussian", "amplitude": 1.0, "width": 6.0}},
        "state": {"x0": -20.0, "p0": 3.0, "width": 3.0},
        "run": {"t_final": 10.0, "dt": 0.1, "stride": 5},
    }
    cfg = load_config(write_config(tmp_path, data))
    paths = run_experiment(cfg, tmp_path / "out")
    comment, header, table = read_table(paths[0])
    assert "delta=" in comment
    assert header == ["t", "coupling"]
    model = ad.substitution_model(cfg.base_params, 3.0, -20.0)
    np.testing.assert_allclose(table[:, 1], model.coupling(table[:, 0]),
                               rtol=1e-12)


def test_snapshot_output(tmp_path):
    data = tiny_map_config("snapshot")
    data["model"]["detuning"] = 0.5
    cfg = load_config(write_config(tmp_path, data))
    paths = run_experiment(cfg, tmp_path / "out")
    assert [p.name for p in paths] == ["snapshot.csv", "snapshot_trajectory.csv"]
    _, header, table = read_table(paths[0])
    assert header == ["x", "re_upper", "im_upper", "re_lower", "im_lower"]
    norm = np.sum(table[:, 1] ** 2 + table[:, 2] ** 2
                  + table[:, 3] ** 2 + table[:, 4] ** 2) * (120.0 / 256)
    assert norm == pytest.approx(1.0, abs=1e-9)
    # 17 significant digits read back to the very grid and final state
    final = ad.run_scenario(experiments._build_scenario(cfg, 0.5),
                            compute_adiabaticity=False).final_exact
    assert np.array_equal(table[:, 0], cfg.grid.x)
    assert np.array_equal(table[:, 1] + 1j * table[:, 2], final.upper)
    assert np.array_equal(table[:, 3] + 1j * table[:, 4], final.lower)


def test_write_run_csv(tmp_path):
    grid = ad.Grid(256, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 6.0), detuning=1.0)
    psi = ad.gaussian_bare_state(grid, -20.0, 3.0, 3.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=2.0,
                     dt=0.01, stride=50, x0=-20.0, p0=3.0)
    rec = ad.run_scenario(sc)
    path = write_run_csv(rec, tmp_path / "run.csv")
    _, header, table = read_table(path)
    assert header == ad.propagation.TRAJECTORY_COLUMNS
    assert table.shape[0] == rec.times.size


def test_write_classical_trajectory_csv(tmp_path):
    from adiabatica.experiments import write_classical_trajectory_csv
    params = ad.ModelParams(mode=ad.GaussianMode(10.0, 10.0), detuning=3.0)
    traj = ad.classical_trajectories(params, {"upper": (-30.0, 2.0),
                                              "lower": (-30.0, 2.0)},
                                     t_final=5.0, dt=0.01)
    path = write_classical_trajectory_csv(traj, tmp_path / "classical.csv")
    _, header, table = read_table(path)
    assert header == ad.twolevel.CLASSICAL_TRAJECTORY_COLUMNS
    assert table.shape == (traj.times.size, 7)
    np.testing.assert_allclose(table[:, 1], traj.positions[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_cli_runs_and_is_deterministic(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_map_config())
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["fidelity-map", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["fidelity-map", "--config", str(cfg_path), "--out", str(out2)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed and printed[0].endswith("fidelity_map.csv")
    a = (out1 / "fidelity_map.csv").read_bytes()
    b = (out2 / "fidelity_map.csv").read_bytes()
    assert a == b


def test_cli_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, tiny_map_config("a0-map"))
    out = tmp_path / "out"
    assert main(["a0-map", "--config", str(cfg_path), "--out", str(out),
                 "--override", "model.mode.amplitude=0.5"]) == 0
    comment = (out / "a0_map.csv").read_text().splitlines()[0]
    assert '"amplitude":0.5' in comment


def test_cli_env_var_output_dir(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, tiny_map_config("a0-map"))
    target = tmp_path / "from_env"
    monkeypatch.setenv("ADIABATICA_OUT", str(target))
    assert main(["a0-map", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (target / "a0_map.csv").exists()


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["a0-map", "--config", str(missing)]) == 1
    assert "error" in capsys.readouterr().err
    bad = write_config(tmp_path, {"model": {}}, "bad.json")
    assert main(["a0-map", "--config", str(bad)]) == 1
    assert "config.model" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["not-an-experiment", "--config", str(missing)])


@pytest.mark.parametrize("dt", ["1e-300", "1e-9"])
def test_cli_rejects_a_dt_past_the_step_cap(tmp_path, capsys, dt):
    # 1e-300 used to overflow range() inside the run; 1e-9 would start a run
    # of billions of steps
    cfg_path = write_config(tmp_path, tiny_map_config("atrace",
                                                      detuning=0.5))
    assert main(["atrace", "--config", str(cfg_path), "--override",
                 f"run.dt={dt}", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("adiabatica: error: config.run.dt: ")
    assert "steps exceeds the limit of 10000000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_names_detuning_of_cell_that_leaves_the_grid(tmp_path, capsys,
                                                          monkeypatch):
    data = tiny_map_config()
    data["grid"] = {"points": 256, "x_min": -40.0, "x_max": 40.0}
    data["run"]["t_final"] = 20.0
    cfg_path = write_config(tmp_path, data)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["fidelity-map", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "domain edge" in err and "(detuning 0.5)" in err


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    # the CLI needs only numpy: neither its import nor any experiment may
    # load a scipy module (scipy.integrate is imported by two library
    # functions no experiment calls); the process pool is imported only by
    # a multi-cell fidelity map, and the one-cell map here runs serially
    configs = {
        "a0-map": tiny_map_config("a0-map"),
        "max-locus": {
            "experiment": "max-locus",
            "model": {"detuning": {"values": [1.0]},
                      "mode": {"kind": "gaussian", "amplitude": 1.0,
                               "width": 6.0}},
            "state": {"p0": 3.0},
            "search": {"x_lo": 0.1, "x_hi": 30.0, "scan_points": 50},
        },
        "effective-model": {
            "experiment": "effective-model",
            "model": {"detuning": 0.8,
                      "mode": {"kind": "gaussian", "amplitude": 1.0,
                               "width": 6.0}},
            "state": {"x0": -20.0, "p0": 3.0, "width": 3.0},
            "run": {"t_final": 1.0, "dt": 0.1},
        },
    }
    for experiment in ("fidelity-map", "atrace", "snapshot"):
        data = tiny_map_config(experiment)
        data["model"]["detuning"] = 0.5
        data["run"] = {"t_final": 0.2, "dt": 0.01, "stride": 7}
        configs[experiment] = data
    runs = [[name, "--config", str(write_config(tmp_path, data, f"{name}.json")),
             "--out", str(tmp_path / name)] for name, data in configs.items()]
    code = ("import json, sys\n"
            "import adiabatica.cli\n"
            "codes = [adiabatica.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "          or m == 'concurrent.futures.process']\n"
            "print(json.dumps([codes, loaded]))\n")
    src = str(Path(ad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert loaded == []


def test_public_api_names():
    assert sorted(ad.__all__) == [
        "ADIABATIC", "AdiabaticFrame", "AdiabaticPropagator",
        "AdiabaticityParts", "BARE", "DegeneratePointError", "DomainGuardError",
        "EffectiveModel", "FrameCase", "FullPropagator", "GaussianMode", "Grid",
        "LinearMode", "ModelParams", "NodeLimitReport", "RunRecord", "Scenario",
        "SpinorField", "StandingWaveMode", "TabulatedMode", "TrajectorySet",
        "TwoLevelTrace", "adiabatic_eigenvalues", "adiabatic_frame",
        "adiabatic_gradient", "adiabaticity_max_locus", "adiabaticity_parts",
        "bare_potential", "classical_trajectories", "classical_trajectory_rows",
        "coupling_from_adiabaticity", "default_time_step", "diagnostics",
        "expect_grid_values", "expect_momentum", "expect_momentum_sq",
        "expect_position", "expect_slope_momentum", "fidelity",
        "gaussian_bare_state", "grids", "initial_channel_weights",
        "large_detuning_potential", "local_adiabaticity",
        "lorentzian_peak_integral", "mean_momentum", "mean_position",
        "mixing_angle", "mixing_angle_curvature", "mixing_angle_slope", "model",
        "node_limit_probe", "packet_adiabaticity", "packet_width", "propagation",
        "run_scenario", "solve_two_level", "substitution_model",
        "time_adiabaticity", "to_adiabatic", "to_bare", "trajectory_adiabaticity",
        "trajectory_rows", "twolevel",
    ]
