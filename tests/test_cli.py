import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
import adiabatica.cli
from adiabatica import experiments
from adiabatica.cli import main
from adiabatica.config import ConfigError, load_config, validate_config
from adiabatica.experiments import run_experiment, write_csv, write_run_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the process pools fidelity maps start."""
    # the pool class is imported when a map needs it, so it is replaced
    # where that import finds it
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_fidelity_map_output_serial_and_pool(tmp_path, monkeypatch, pool_sizes):
    data = tiny_map_config()
    data["model"]["detuning"] = {"values": [0.5, 2.0, 5.0]}
    cfg = load_config(write_config(tmp_path, data))
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
    for j, delta in enumerate(cfg.detunings):
        rec = ad.run_scenario(experiments._build_scenario(cfg, delta))
        assert np.array_equal(table[:, 2 + j], rec.fidelity_magnitude)
        # the modulus of each complex scalar, which np.abs on the whole
        # array does not always reproduce in the last bit
        assert np.array_equal(rec.fidelity_magnitude,
                              [abs(z) for z in rec.fidelity])


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "pool"])
def test_fidelity_map_cell_order_does_not_matter(tmp_path, monkeypatch,
                                                 pool_sizes, cpus):
    # each cell is its own run: listing the detunings in another order
    # permutes the detuning columns and their labels, and nothing else
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    tables = []
    for order in ([0.5, 2.0, 1.0], [1.0, 0.5, 2.0]):
        data = tiny_map_config()
        data["model"]["detuning"] = {"values": order}
        out = tmp_path / "-".join(map(str, order))
        path = run_experiment(load_config(write_config(tmp_path, data)), out)[0]
        lines = path.read_text().splitlines()[1:]
        tables.append(list(zip(*(line.split(",") for line in lines))))
    assert pool_sizes == ([2, 2] if len(cpus) > 1 else [])
    first, second = tables
    assert first[:2] == second[:2]
    assert [first[2 + j] for j in (2, 0, 1)] == second[2:]


def test_fidelity_map_in_a_threaded_caller_runs_serially(tmp_path, monkeypatch,
                                                         pool_sizes):
    # a lock another thread holds at a fork would stay held in the workers
    cfg = load_config(write_config(tmp_path, tiny_map_config()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with concurrent.futures.ThreadPoolExecutor(1) as threads:
        threaded = threads.submit(run_experiment, cfg,
                                  tmp_path / "threaded").result()
    assert pool_sizes == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_experiment(cfg, tmp_path / "serial")
    assert threaded[0].read_bytes() == serial[0].read_bytes()


def test_swept_map_without_dt_runs_every_cell_at_one_dt(tmp_path, capsys):
    # the default dt follows the detuning (transport-bound at 0.5,
    # phase-bound at 50); cells at their own dt sampled different instants,
    # and the map failed only after every cell had run
    data = {
        "experiment": "fidelity-map",
        "model": {"detuning": {"values": [0.5, 50.0]},
                  "mode": {"kind": "gaussian", "amplitude": 1.0,
                           "width": 50.0}},
        "grid": {"points": 2048, "x_min": -300.0, "x_max": 300.0},
        "state": {"x0": -100.0, "p0": 5.0, "width": 10.0},
        "run": {"t_final": 4.0},
    }
    cfg_path = write_config(tmp_path, data)
    assert main(["fidelity-map", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    cfg = load_config(cfg_path)
    # each cell's own default dt, as a config of that detuning alone picks
    # it; the values are those of the rule before it moved into config
    own = [validate_config({**data, "experiment": "atrace",
                            "model": {**data["model"], "detuning": d}}).run.dt
           for d in (0.5, 50.0)]
    assert own == [0.005231584821428572, 0.003999999796281689]
    assert cfg.run.dt == min(own)
    _, _, table = read_table(tmp_path / "out" / "fidelity_map.csv")
    n_steps = round(4.0 / own[1])
    assert np.array_equal(table[:, 1], np.arange(n_steps + 1.0) * own[1])


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
    final = ad.run_scenario(experiments._build_scenario(cfg, 0.5)).final_exact
    assert np.array_equal(table[:, 0], cfg.grid.x)
    assert np.array_equal(table[:, 1] + 1j * table[:, 2], final.upper)
    assert np.array_equal(table[:, 3] + 1j * table[:, 4], final.lower)


def test_snapshot_starts_from_adiabatic_channel_populations(tmp_path, capsys):
    # state.frame = "adiabatic" fills the adiabatic channels with the given
    # populations and rotates them to the bare frame the run starts from
    out = tmp_path / "out"
    assert main(["snapshot", "--config", str(CONFIGS / "snapshot.json"),
                 "--override", "state.frame=adiabatic",
                 "--override", "state.population_upper=0.8",
                 "--override", "state.population_lower=0.2",
                 "--out", str(out)]) == 0
    _, header, table = read_table(out / "snapshot_trajectory.csv")
    first = dict(zip(header, table[0]))
    assert first["t"] == 0.0
    assert first["pop_upper"] == pytest.approx(0.8, abs=1e-12)
    assert first["pop_lower"] == pytest.approx(0.2, abs=1e-12)
    assert first["norm"] == pytest.approx(1.0, abs=1e-12)


def test_max_locus_with_the_default_search_window(tmp_path, capsys):
    # an empty search block on a Gaussian mode searches (1e-3, 8) widths:
    # (0.05, 400) for a width of 50, with every row bit for bit
    out = tmp_path / "out"
    assert main(["max-locus", "--config", str(CONFIGS / "fig2_max_locus.json"),
                 "--override", "search={}", "--out", str(out)]) == 0
    _, header, table = read_table(out / "max_locus.csv")
    assert header == ["detuning", "x_max", "value_at_max"]
    assert table.shape == (40, 3)
    assert np.all((table[:, 1] > 0.05) & (table[:, 1] < 400.0))
    explicit = tmp_path / "explicit"
    assert main(["max-locus", "--config", str(CONFIGS / "fig2_max_locus.json"),
                 "--override", 'search={"x_lo": 0.05, "x_hi": 400}',
                 "--out", str(explicit)]) == 0
    # the comment line echoes each raw config; the rows below it must match
    rows = [(path / "max_locus.csv").read_bytes().split(b"\n", 1)[1]
            for path in (out, explicit)]
    assert rows[0] == rows[1]


def test_max_locus_on_a_standing_wave_needs_a_window(tmp_path, capsys):
    # the pointwise parameter of a standing wave peaks equally on every node,
    # so no default window exists: an empty search block fails at load time
    data = {"experiment": "max-locus",
            "model": {"detuning": {"values": [0.5, 2.0]},
                      "mode": {"kind": "standing_wave", "amplitude": 1.0,
                               "wavenumber": 0.5}},
            "state": {"p0": 3.0},
            "search": {}}
    out = tmp_path / "out"
    assert main(["max-locus", "--config", str(write_config(tmp_path, data)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"adiabatica: error: config\.search: [^\n]*'x_lo' "
                        r"and 'x_hi'\n", err)
    assert not out.exists()


def test_write_run_csv(tmp_path):
    grid = ad.Grid(256, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 6.0), detuning=1.0)
    # far from the mode, so the lower adiabatic channel starts empty
    psi = ad.gaussian_bare_state(grid, -40.0, 3.0, 3.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=2.0,
                     dt=0.01, stride=50, x0=-40.0, p0=3.0)
    rec = ad.run_scenario(sc)
    path = write_run_csv(rec, tmp_path / "run.csv")
    _, header, table = read_table(path)
    assert header == ["t", "x_mean", "p_mean", "ref_x_upper", "ref_p_upper",
                      "ref_x_lower", "ref_p_lower", "pop_upper", "pop_lower",
                      "norm"]
    columns = [rec.times, rec.x_mean, rec.p_mean, rec.ref_x[0], rec.ref_p[0],
               rec.ref_x[1], rec.ref_p[1], rec.pop_upper, rec.pop_lower,
               rec.norm]
    assert np.isnan(rec.ref_x[1]).all()
    # 17 significant digits read back to the very values (nan in place)
    np.testing.assert_array_equal(table, np.column_stack(columns))


def _per_cell_csv(comment, header, rows):
    """The per-cell writer that write_csv replaced, as the reference."""
    lines = [comment, ",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.16e}" for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, 4001])
def test_write_csv_matches_the_per_cell_format(tmp_path, n_rows):
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
               np.finfo(float).max, -np.finfo(float).max,
               np.finfo(float).tiny, 1.0, -1.0 / 3.0, 1e300, 1e-300]
    rng = np.random.default_rng(n_rows)
    # random bit patterns: every exponent, nan payloads and subnormals
    values = rng.integers(0, 2**64, size=5 * n_rows, dtype=np.uint64,
                          endpoint=False).view(np.float64)
    values[:len(special)] = special[:values.size]
    table = values.reshape(n_rows, 5)
    header = ["x", "a", "b", "c", "d"]
    path = write_csv(tmp_path / "sub" / "t.csv", "# table", header, list(table.T))
    assert path.read_text() == _per_cell_csv("# table", header, table)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _runs_twice_identically(tmp_path, capsys, cfg_path):
    experiment = json.loads(cfg_path.read_text())["experiment"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main([experiment, "--config", str(cfg_path), "--out", str(out2)]) == 0
    printed = capsys.readouterr().out.splitlines()
    names = sorted(path.name for path in out1.iterdir())
    assert names
    assert sorted(Path(line).name for line in printed) == sorted(names * 2)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_runs_and_is_deterministic(tmp_path, capsys):
    # a multi-cell fidelity map, whose cells may run in a process pool
    _runs_twice_identically(tmp_path, capsys,
                            write_config(tmp_path, tiny_map_config()))


# The bundled configs that run in under a second through the CLI.  fig4-fig8d
# take 1.5-35 s each and stay out; test_every_bundled_config_builds_its_runs
# covers their set-up.
@pytest.mark.parametrize("name", ["effective_model", "fig1_a0_map",
                                  "fig2_max_locus", "fig3_a0_map",
                                  "fig9a_atrace", "snapshot"])
def test_bundled_config_runs_and_is_deterministic(tmp_path, capsys, name):
    _runs_twice_identically(tmp_path, capsys, CONFIGS / f"{name}.json")


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


@pytest.mark.parametrize("case", ["config_is_a_directory", "out_is_a_file"])
def test_cli_reports_os_errors_in_one_line(tmp_path, capsys, case):
    # a directory given as the config raised IsADirectoryError, a file given
    # as the output directory FileExistsError, both as tracebacks
    cfg_path = write_config(tmp_path, tiny_map_config("a0-map"))
    out = tmp_path / "out"
    if case == "config_is_a_directory":
        cfg_path = tmp_path
    else:
        out.write_text("")
    assert main(["a0-map", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("adiabatica: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_rejects_an_outsized_grid_before_allocating_it(tmp_path, capsys,
                                                           monkeypatch):
    # 2**40 points asked for an 8 TiB array in Grid.__post_init__ and ended
    # in a MemoryError traceback; no Grid may be built for it at all
    def no_grid(*args):
        raise AssertionError("a Grid was built for an outsized point count")

    monkeypatch.setattr(ad.config, "Grid", no_grid)
    fig9a = CONFIGS / "fig9a_atrace.json"
    assert main(["atrace", "--config", str(fig9a), "--override",
                 "grid.points=1099511627776",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("adiabatica: error: config.grid.points: expected at most "
                   f"{ad.config.MAX_GRID_POINTS} points\n")
    assert not (tmp_path / "out").exists()


def test_cli_reports_a_memory_error_in_one_line(tmp_path, capsys,
                                                monkeypatch):
    # an allocation that fails (a huge detuning count or scan_points) printed
    # a numpy _ArrayMemoryError traceback; no real allocation is made here
    def fail(config, out_dir):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(adiabatica.cli, "run_experiment", fail)
    cfg_path = write_config(tmp_path, tiny_map_config("a0-map"))
    assert main(["a0-map", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("adiabatica: error: Unable to allocate 72.8 TiB for an "
                   "array\n")


def test_cli_names_a_config_that_is_not_utf8(tmp_path, capsys):
    # the codec error named no file, unlike a JSON syntax error
    cfg_path = tmp_path / "bad.json"
    for content, detail in ((b"\xff\xfe", "byte 0: not UTF-8 text "
                                           "(invalid start byte)"),
                            (b'{"model": ', "line 1, column 11: ")):
        cfg_path.write_bytes(content)
        assert main(["a0-map", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"adiabatica: error: {cfg_path}: {detail}")
        assert err.count("\n") == 1


@pytest.mark.parametrize("experiment", ["fidelity-map", "atrace", "snapshot"])
def test_cli_rejects_a_dt_that_does_not_resolve_the_phases(tmp_path, capsys,
                                                           experiment):
    # max|Delta_+- - mean_shift| = hypot(detuning / 2, max g) with
    # max g = 1.5 / (sqrt(2 pi) 6) = 0.0997: 1.005 at detuning 2.0 and 0.269
    # at 0.5, so dt=1.2 resolves only the latter
    data = tiny_map_config(experiment)
    if experiment != "fidelity-map":
        data["model"]["detuning"] = 2.0
    cfg_path = write_config(tmp_path, data)
    assert main([experiment, "--config", str(cfg_path), "--override",
                 "run.dt=1.2", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("adiabatica: error: config.run.dt: dt*max|Delta_+- "
                   "- mean_shift| = 1.21 exceeds 1 at detuning 2.0\n")
    assert not (tmp_path / "out").exists()
    # dt=0.99 passes, and dt=0.98 does under case2 with photon_index 3
    # (0.995): its mean_shift of -5, which adds no splitting error, would
    # read 5.9 if it counted
    for extra in (["run.dt=0.99"], ["model.frame_case=case2",
                                    "model.photon_index=3", "run.dt=0.98"]):
        cfg = load_config(cfg_path, overrides=extra)
        assert cfg.run.dt == float(extra[-1].partition("=")[2])


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


def test_cli_rejects_a_default_dt_past_the_step_cap(tmp_path, capsys):
    # without run.dt the step follows the detuning: 1e9 would ask for 1e11
    # steps, which load_config sees once it has resolved the default dt
    fig9a = CONFIGS / "fig9a_atrace.json"
    overrides = ['run={"x_stop": 50.0, "stride": 20}', "model.detuning=1e9"]
    with pytest.raises(ConfigError, match="with the default dt"):
        load_config(fig9a, overrides=overrides)
    assert main(["atrace", "--config", str(fig9a), "--override",
                 overrides[0], "--override", overrides[1],
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("adiabatica: error: config.run.dt: ")
    assert "with the default dt" in err
    assert "steps exceeds the limit of 10000000 at detuning 1000000000.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_every_bundled_config_builds_its_runs():
    # load and assemble every run of every shipped config, without
    # propagating: this covers the load-time guards and the step cap
    # configs/golden.json holds the digests of their outputs, not a config
    configs = sorted(p for p in CONFIGS.glob("*.json") if p.name != "golden.json")
    assert len(configs) == 11
    built = 0
    for path in configs:
        cfg = load_config(path)
        if cfg.experiment not in ("fidelity-map", "atrace", "snapshot"):
            continue
        for delta in cfg.detunings:
            # every cell runs on the one time grid the config resolved
            scenario = experiments._build_scenario(cfg, delta)
            assert (scenario.t_final, scenario.dt, scenario.stride) == (
                cfg.run.t_final, cfg.run.dt, cfg.run.stride)
            assert scenario.t_final / scenario.dt <= ad.config.MAX_STEPS
            built += 1
    # the 20 + 20 + 12 + 12 cells of fig4-fig7, two traces and one snapshot
    assert built == 67


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


@pytest.mark.parametrize("experiment", ["fidelity-map", "atrace", "snapshot"])
def test_cli_runs_apply_the_same_checks(tmp_path, capsys, experiment):
    # zero coupling at zero detuning collapses the averaged splitting; every
    # run records the adiabaticity terms, so a fidelity map and a snapshot
    # fail on it like the atrace of the same run, before writing a file
    data = tiny_map_config(experiment, detuning=0.0,
                           mode={"kind": "linear", "gradient": 0.0})
    cfg_path = write_config(tmp_path, data)
    assert main([experiment, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "adiabatica: error: averaged surface splitting collapsed below "
        f"{ad.diagnostics.SPLITTING_FLOOR}; adiabaticity ratio undefined\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, overrides", [
    ("fig1_a0_map", []),
    ("fig2_max_locus", []),
    ("fig3_a0_map", ["model.frame_case=case2", "model.photon_index=4"]),
])
def test_cli_rejects_an_overflowing_pointwise_parameter(tmp_path, capsys, name,
                                                         overrides):
    # at detuning 1e308 the numerator and the denominator of the pointwise
    # parameter both overflow; their ratio, evaluated again with the gap
    # factored out, underflows to its true value 0 without a warning:
    # a0-map writes a table of zeros, and max-locus rejects the flat profile
    cfg_path = CONFIGS / f"{name}.json"
    experiment = json.loads(cfg_path.read_text())["experiment"]
    out = tmp_path / "out"
    args = [experiment, "--config", str(cfg_path), "--out", str(out)]
    for override in ["model.detuning=1e308"] + overrides:
        args += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    err = capsys.readouterr().err
    if experiment == "max-locus":
        assert status == 1
        assert err == ("adiabatica: error: flat adiabaticity profile: "
                       "nothing to maximize\n")
        assert not out.exists()
    else:
        assert (status, err) == (0, "")
        _, header, table = read_table(out / "a0_map.csv")
        assert header[1:] == ["1.0000000000000000e+308"]
        assert table.shape[1] == 2 and np.all(table[:, 1] == 0.0)


@pytest.mark.parametrize("name", ["fig1_a0_map", "fig2_max_locus"])
def test_cli_pointwise_outputs_where_the_gap_cubed_overflows(tmp_path, name):
    # at detuning 1e150 (split^2 + 4 G^2)^(3/2) overflows, yet the parameter
    # p0 |g'| / split^2 (to rounding: G / split is 1e-152), at most 1.2e-303
    # here, is a normal number near the mode: a0-map writes it, and
    # max-locus finds its maximum at the mode width, x = 50
    cfg_path = CONFIGS / f"{name}.json"
    data = json.loads(cfg_path.read_text())
    out = tmp_path / "out"
    assert main([data["experiment"], "--config", str(cfg_path), "--out",
                 str(out), "--override", "model.detuning=1e150"]) == 0
    if data["experiment"] == "max-locus":
        _, header, table = read_table(out / "max_locus.csv")
        assert header == ["detuning", "x_max", "value_at_max"]
        assert abs(table[0, 1] - 50.0) <= 1e-5
        return
    _, _, table = read_table(out / "a0_map.csv")
    mode = ad.GaussianMode(**{k: v for k, v in data["model"]["mode"].items()
                              if k != "kind"})
    want = data["state"]["p0"] * np.abs(mode.slope(table[:, 0])) / 1e300
    kept = want >= np.finfo(float).tiny
    assert kept.sum() > 1500
    np.testing.assert_allclose(table[kept, 1], want[kept], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["fig2_max_locus", "fig3_a0_map"])
def test_pointwise_outputs_do_not_depend_on_the_frame_case(tmp_path, name):
    # both frames have the detuning as level splitting; computing it as
    # eps_+ - eps_- moved case2's values by an ulp
    tables = []
    for case in ("case1", "case2"):
        cfg = load_config(CONFIGS / f"{name}.json",
                          overrides=[f"model.frame_case={case}",
                                     "model.photon_index=3"])
        path = run_experiment(cfg, tmp_path / case)[0]
        tables.append(path.read_bytes().split(b"\n", 1)[1])
    assert tables[0] == tables[1]


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


def test_perfbench_tracer_runs_a_tiny_trace(tmp_path):
    # perfbench/tracer.py rebinds functions by their module and name before
    # the run starts, so deleting or renaming one of them breaks the tracer
    data = tiny_map_config("atrace")
    data["model"]["detuning"] = 0.5
    data["run"] = {"t_final": 0.2, "dt": 0.01, "stride": 7}
    spans = tmp_path / "spans.json"
    tracer = CONFIGS.parent / "perfbench" / "tracer.py"
    src = str(Path(ad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, str(tracer), str(spans), "atrace",
         "--config", str(write_config(tmp_path, data)),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    names = set(json.loads(spans.read_text())["names"])
    assert {"propagation.run_scenario", "experiments.write_csv"} <= names


def test_public_api_names():
    assert sorted(ad.__all__) == [
        "ADIABATIC", "AdiabaticFrame", "AdiabaticPropagator",
        "AdiabaticityParts", "BARE", "DegeneratePointError",
        "DomainGuardError", "EffectiveModel", "FrameCase", "FullPropagator",
        "GaussianMode", "Grid", "LinearMode", "ModelParams", "NodeLimitReport",
        "RunRecord", "Scenario", "SpinorField", "StandingWaveMode",
        "TabulatedMode", "adiabatic_eigenvalues", "adiabatic_frame",
        "adiabaticity_max_locus", "adiabaticity_parts",
        "coupling_from_adiabaticity", "expect_grid_values",
        "expect_momentum", "expect_position", "expect_slope_momentum",
        "fidelity", "gaussian_bare_state",
        "initial_channel_weights", "local_adiabaticity",
        "lorentzian_peak_integral", "mean_momentum", "mean_position",
        "mixing_angle", "node_limit_probe", "packet_adiabaticity",
        "packet_width", "run_scenario", "substitution_model",
        "time_adiabaticity", "to_adiabatic", "to_bare",
    ]


def test_every_public_name_has_a_user_outside_its_unit_tests():
    # A user is a reference in the package source other than the name's own
    # definition and the package's import list (a call, a return type, an
    # exception that is raised), in the acceptance criteria, in the
    # benchmark tracer, or in the README and the format docs.  A name that
    # only its own unit tests call belongs in a test or nowhere.
    root = CONFIGS.parent
    package = Path(ad.__file__).resolve().parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    outside = "\n".join(path.read_text() for path in [
        root / "tests" / "test_acceptance.py", root / "perfbench" / "tracer.py",
        root / "README.md", *sorted((root / "docs").rglob("*.md"))])
    unused = []
    for name in sorted(ad.__all__):
        if isinstance(getattr(ad, name), type(ad)):
            unused.append(name)  # a submodule is an attribute, not an API name
            continue
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(def|class) {name}\b|^{name}\b *[:=]",
                                re.MULTILINE)
        references = sum(len(word.findall(text)) for text in sources)
        defined = sum(len(definition.findall(text)) for text in sources)
        assert defined == 1, name
        if references == defined and not word.search(outside):
            unused.append(name)
    assert unused == []
