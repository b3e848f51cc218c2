import concurrent.futures
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
import adiabatica.cli
from adiabatica import experiments
from adiabatica.cli import main
from adiabatica.config import (EXPERIMENTS, ConfigError, load_config,
                               validate_config)
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


def test_atrace_kinematic_abscissa_is_the_effective_model_path(tmp_path):
    # at m = 3, x0 + p0 t / m and x0 + (p0 / m) t differ in the last bit at
    # 456 of these 1601 instants: the trace's x column is the path on which
    # the effective model evaluates G
    overrides = ["--override", "model.mass=3.0", "--override", "run.stride=1"]
    assert main(["effective-model", "--config",
                 str(CONFIGS / "effective_model.json"), "--out",
                 str(tmp_path), *overrides]) == 0
    assert main(["atrace", "--config", str(CONFIGS / "effective_model.json"),
                 "--out", str(tmp_path), *overrides,
                 "--override", "experiment=atrace",
                 "--override", "output.abscissa=kinematic",
                 "--override", "run.t_final=80.0",
                 "--override", 'grid={"points": 2048, "x_min": -300.0, '
                               '"x_max": 300.0}']) == 0
    _, _, model = read_table(tmp_path / "effective_model.csv")
    _, _, trace = read_table(tmp_path / "atrace.csv")
    assert trace.shape[0] == 1601
    assert np.array_equal(trace[:, 0], model[:, 0])
    assert np.array_equal(trace[:, 1], -200.0 + 5.0 / 3.0 * trace[:, 0])
    params = load_config(CONFIGS / "effective_model.json",
                         overrides=["model.mass=3.0"]).base_params
    assert np.array_equal(params.coupling(trace[:, 1]), model[:, 1])


def test_atrace_and_effective_model_write_the_same_instants(tmp_path):
    # round(10/0.01) = 1000 steps at stride 7: both write 144 rows; the
    # effective model wrote multiples of 0.07, 68 of them off atrace's
    # t = step * dt in the last bits, and ended at 10.010000000000002
    run = 'run={"t_final": 10.0, "dt": 0.01, "stride": 7}'
    config = str(CONFIGS / "effective_model.json")
    assert main(["effective-model", "--config", config, "--out",
                 str(tmp_path), "--override", run]) == 0
    assert main(["atrace", "--config", config, "--out", str(tmp_path),
                 "--override", run, "--override", "experiment=atrace",
                 "--override", "output.abscissa=kinematic",
                 "--override", 'grid={"points": 2048, "x_min": -300.0, '
                               '"x_max": 300.0}']) == 0
    _, _, model = read_table(tmp_path / "effective_model.csv")
    _, _, trace = read_table(tmp_path / "atrace.csv")
    assert trace.shape[0] == 144
    assert np.array_equal(trace[:, 0], model[:, 0])
    assert trace[-1, 0] == 10.0
    params = load_config(config).base_params
    assert np.array_equal(params.coupling(trace[:, 1]), model[:, 1])


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
                     dt=0.01, stride=50)
    rec = ad.run_scenario(sc)
    path = write_run_csv(rec, tmp_path / "run.csv", "# run record")
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


def _snapshot_trajectory_in_a_fresh_interpreter(tmp_path, tag, one_cpu):
    # the affinity set is fixed before numpy loads, so OpenBLAS starts as
    # many threads as a user's process on that set would; the thread
    # variables a caller may have exported are dropped for the same reason
    out = tmp_path / tag
    code = ("import os, sys\n"
            "if sys.argv[1] == '1':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import adiabatica.cli\n"
            "sys.exit(adiabatica.cli.main(sys.argv[2:]))\n")
    src = str(Path(ad.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", code, "1" if one_cpu else "0", "snapshot",
         "--config", str(CONFIGS / "snapshot.json"),
         "--override", "grid.points=16384", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (out / "snapshot_trajectory.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity set of two or more CPUs")
def test_cli_output_does_not_depend_on_the_cpu_count(tmp_path):
    # above 10 000 points OpenBLAS threads the samplers' (..., 1, N) @ (N,)
    # reductions, whose last bits then depend on the thread count; the CLI
    # runs them on one thread, so one CPU and several write the same bytes
    if adiabatica.cli._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS thread count is not reachable")
    one = _snapshot_trajectory_in_a_fresh_interpreter(tmp_path, "one", True)
    every = _snapshot_trajectory_in_a_fresh_interpreter(tmp_path, "all", False)
    assert one == every


def test_cli_pins_blas_for_the_run_and_restores_the_callers_count(
        tmp_path, capsys, monkeypatch):
    counts = adiabatica.cli._openblas_threads()
    if counts is None:
        pytest.skip("numpy's bundled OpenBLAS thread count is not reachable")
    get, _ = counts
    before = get()
    during = []

    def recording_run(config, out_dir):
        during.append(get())
        return run_experiment(config, out_dir)

    monkeypatch.setattr(adiabatica.cli, "run_experiment", recording_run)
    assert main(["snapshot", "--config", str(CONFIGS / "snapshot.json"),
                 "--out", str(tmp_path)]) == 0
    assert during == [1]
    assert get() == before


@pytest.mark.parametrize("libs", ["absent", "not-a-library", "no-symbol"])
def test_cli_runs_unpinned_where_the_blas_lookup_finds_nothing(
        tmp_path, capsys, monkeypatch, libs):
    # the pin fails open: no library directory, a file that does not load,
    # a library without the thread-count symbols
    real_libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    fake = tmp_path / "site" / "numpy" / "__init__.py"
    fake.parent.mkdir(parents=True)
    if libs != "absent":
        libdir = fake.parents[1] / "numpy.libs"
        libdir.mkdir()
        target = libdir / "libscipy_openblas64_-0.so"
        if libs == "not-a-library":
            target.write_bytes(b"not an ELF file")
        else:
            others = sorted(real_libs.glob("libgfortran*")) if real_libs.is_dir() else []
            if not others:
                pytest.skip("no library without the symbols to stand in")
            target.symlink_to(others[0])
    expected = tmp_path / "expected"
    argv = ["snapshot", "--config", str(CONFIGS / "snapshot.json")]
    assert main([*argv, "--out", str(expected)]) == 0
    monkeypatch.setattr(np, "__file__", str(fake))
    assert adiabatica.cli._openblas_threads() is None
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "unpinned")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in ("snapshot.csv", "snapshot_trajectory.csv"):
        assert ((tmp_path / "unpinned" / name).read_bytes()
                == (expected / name).read_bytes())


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


@pytest.mark.parametrize("name", ["fig3_a0_map", "fig2_max_locus",
                                  "effective_model", "snapshot"])
def test_cli_rejects_an_output_block_the_experiment_does_not_read(tmp_path,
                                                                  capsys, name):
    # only fidelity-map and atrace read output.abscissa; the others ran with
    # the block and recorded an abscissa that had no effect
    path = CONFIGS / f"{name}.json"
    experiment = json.loads(path.read_text())["experiment"]
    assert main([experiment, "--config", str(path), "--override",
                 'output={"abscissa": "measured"}',
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "adiabatica: error: config.output: only the fidelity-map and atrace "
        "experiments take an output block\n")
    assert not (tmp_path / "out").exists()


def test_cli_rejects_an_outsized_detuning_range_at_load_time(tmp_path, capsys):
    # the sweep geometry's runs are resolved per detuning before any starts,
    # so 10**9 detunings would have validated for days
    fig4 = CONFIGS / "fig4_fidelity_map.json"
    start = time.perf_counter()
    code = main(["fidelity-map", "--config", str(fig4), "--override",
                 "model.detuning.count=1000000000",
                 "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err == (
        "adiabatica: error: config.model.detuning.count: expected at most "
        f"{ad.config.MAX_GRID_POINTS} detunings\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, x_min, x_max, cause", [
    ("a0-map", -1e308, 1e308, "spacing (x_max - x_min)/npoints overflows"),
    ("atrace", 0.0, 1e-320, "momentum cutoff pi/dx overflows at dx=4e-323"),
], ids=["span", "cutoff"])
def test_cli_rejects_a_grid_whose_spacing_overflows(tmp_path, capsys,
                                                   experiment, x_min, x_max,
                                                   cause):
    # the a0-map exited naming an overflowing pointwise parameter, the atrace
    # a momentum cutoff of 0, each after an "invalid value" RuntimeWarning
    data = tiny_map_config(experiment)
    if experiment == "atrace":
        data["model"]["detuning"] = 0.5
    data["grid"].update(x_min=x_min, x_max=x_max)
    cfg_path = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([experiment, "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
    assert status == 1
    assert capsys.readouterr().err == (
        f"adiabatica: error: config.grid: Grid {cause}\n")
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
    # the step count of an explicit dt does not depend on the detuning
    assert err.endswith("steps exceeds the limit of 10000000\n")
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
    # the frame case does not enter the pointwise parameter, and case2's
    # offset at photon index 4 overflows here, which the model rejects
    ("fig3_a0_map", ["model.photon_index=4"]),
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


def test_cli_a0_map_reads_zero_where_the_mode_slope_factor_overflows(
        tmp_path, capsys):
    # at |x| near the float range x/a^2 overflows where the Gaussian is 0:
    # the slope and curvature read 0 there, so the parameter does too
    out = tmp_path / "out"
    args = ["a0-map", "--config", str(CONFIGS / "fig1_a0_map.json"),
            "--out", str(out), "--override",
            'grid={"points": 256, "x_min": -8e307, "x_max": 8e307}',
            "--override", "model.mode.width=0.5",
            "--override", "model.detuning=0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    assert (status, capsys.readouterr().err) == (0, "")
    _, header, table = read_table(out / "a0_map.csv")
    assert header[1:] == ["5.0000000000000000e-01"]
    assert table.shape == (256, 2) and np.all(table[:, 1] == 0.0)


@pytest.mark.parametrize("name, overrides", [
    ("snapshot", ["model.mode.amplitude=0", f"model.photon_index={10**308}",
                  "model.frame_case=case2", "model.detuning=20"]),
    # a swept map is checked at its detuning of largest magnitude
    ("fig4_fidelity_map", ["model.frame_case=case2", "model.photon_index=4",
                           'model.detuning={"values": [0.5, -1e308, 2.0]}']),
])
def test_cli_rejects_an_overflowing_case2_offset_at_load_time(
        tmp_path, capsys, name, overrides):
    # the offset -detuning (n - 1/2) leaves the float range: the snapshot
    # wrote nan rows and exited 0 before it was checked
    cfg_path = CONFIGS / f"{name}.json"
    experiment = json.loads(cfg_path.read_text())["experiment"]
    out = tmp_path / "out"
    args = [experiment, "--config", str(cfg_path), "--out", str(out)]
    for override in overrides:
        args += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    assert (status, capsys.readouterr().err) == (
        1, "adiabatica: error: config.model.photon_index: ModelParams."
           "mean_shift overflows: the case2 offset photon_index * detuning "
           "leaves the float range\n")
    assert not out.exists()


def test_cli_rejects_a_flat_max_locus_profile_at_load_time(tmp_path, capsys):
    # p0 = 0 zeroes the pointwise parameter at every point: the config is
    # rejected under its key path before the search, and no output is made
    out = tmp_path / "out"
    assert main(["max-locus", "--config", str(CONFIGS / "fig2_max_locus.json"),
                 "--out", str(out), "--override", "state.p0=0"]) == 1
    assert capsys.readouterr().err == (
        "adiabatica: error: config.state.p0: max-locus needs a nonzero p0: "
        "the pointwise parameter is zero everywhere\n")
    assert not out.exists()


_BIG = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize("name, override, message", [
    ("fig4_fidelity_map", f"model.detuning={_BIG}",
     "config.model.detuning: expected finite numbers"),
    ("fig4_fidelity_map", f'model.detuning={{"values": [0.5, {_BIG}]}}',
     "config.model.detuning.values: expected finite numbers"),
    ("fig4_fidelity_map",
     f'model.detuning={{"start": 0.5, "stop": {_BIG}, "count": 3}}',
     "config.model.detuning.stop: expected a finite number"),
    ("fig4_fidelity_map", f"model.mode.amplitude={_BIG}",
     "config.model.mode.amplitude: expected a finite number"),
    ("fig4_fidelity_map", f"model.mass={_BIG}",
     "config.model.mass: expected a finite number"),
    ("fig4_fidelity_map", f"state.p0={_BIG}",
     "config.state.p0: expected a finite number"),
    ("fig4_fidelity_map", f"state.population_lower={_BIG}",
     "config.state.population_lower: expected a finite number"),
    ("fig4_fidelity_map", f"grid.x_max={_BIG}",
     "config.grid.x_max: expected a finite number"),
    ("fig4_fidelity_map", f"run.dt={_BIG}",
     "config.run.dt: expected a finite number"),
    ("fig4_fidelity_map", f"model.photon_index={_BIG}",
     "config.model.photon_index: ModelParams.photon_index exceeds the float "
     "range"),
    ("fig1_a0_map", f"model.photon_index={_BIG}",
     "config.model.photon_index: ModelParams.photon_index exceeds the float "
     "range"),
    ("fig2_max_locus", 'search={"x_lo": -1e308, "x_hi": 1e308}',
     "config.search: x_hi - x_lo overflows"),
    # the scan brackets the peak between 0.5 and 2.5e305, and the refined
    # locus lands where the parameter is 0
    ("fig2_max_locus", 'search={"x_lo": 0.5, "x_hi": 1e308}',
     "pointwise adiabaticity parameter is not > 0 at its refined maximum "
     "x = 2.506265626624914e+305 at detuning 0.01; narrow the search window"),
    # the Gaussian peak A / (sqrt(2 pi) a) overflows, so the coupling is
    # inf * 0 = nan away from it: the run printed numpy "invalid value"
    # warnings and failed mid-run
    pytest.param("fig4_fidelity_map",
                 ("model.mode.amplitude=1e308", "model.mode.width=0.1",
                  "model.detuning=0.5", 'run={"x_stop": -190.0}'),
                 "config.model.mode: GaussianMode peak amplitude / "
                 "(sqrt(2 pi) width) overflows",
                 id="fig4_fidelity_map-gaussian-peak-overflows"),
    # a^4 underflows: curvature ended in a ZeroDivisionError traceback
    pytest.param("fig1_a0_map", "model.mode.width=1e-300",
                 "config.model.mode: GaussianMode.width 1e-300 is too small: "
                 "width^4 underflows", id="fig1_a0_map-gaussian-width-underflows"),
    # a^2 overflows: slope and curvature ended in an OverflowError traceback
    pytest.param("fig1_a0_map", "model.mode.width=1.4e154",
                 "config.model.mode: GaussianMode.width 1.4e+154 is too large: "
                 "width^2 overflows", id="fig1_a0_map-gaussian-width-overflows"),
    # q x and C x overflow where the experiment evaluates G: the a0-map
    # failed mid-run, the effective model wrote nan rows, atrace blamed dt
    # for a nan phase rate, and the max-locus search read a flat profile,
    # each after numpy warnings
    pytest.param("fig1_a0_map",
                 'model.mode={"kind": "standing_wave", "amplitude": 1.0, '
                 '"wavenumber": 1e307}',
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=-300.0", id="fig1_a0_map-coupling-overflows"),
    pytest.param("effective_model",
                 'model.mode={"kind": "standing_wave", "amplitude": 1.0, '
                 '"wavenumber": 1e307}',
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=-200.0", id="effective_model-coupling-overflows"),
    pytest.param("fig9a_atrace", "model.mode.wavenumber=1e307",
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=-150.0", id="fig9a_atrace-coupling-overflows"),
    # G is probed at every scan point, the first that overflows is named
    pytest.param("fig2_max_locus",
                 ('model.mode={"kind": "linear", "gradient": 1e307}',
                  'search={"x_lo": 0.5, "x_hi": 300.0}'),
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=18.515037593984964", id="fig2_max_locus-coupling-overflows"),
    # sqrt(n) times a standing wave overflows inside the window but not at
    # its ends: the config loaded and the search read a flat profile
    pytest.param("fig2_max_locus",
                 ('model.mode={"kind": "standing_wave", "amplitude": 1e160, '
                  '"wavenumber": 0.015707963267948967}',
                  f"model.photon_index={10**300}",
                  'search={"x_lo": 200.0, "x_hi": 400.0, "scan_points": 800}'),
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=201.25156445556945",
                 id="fig2_max_locus-coupling-overflows-inside-the-window"),
    # the sample differences overflow: the table printed numpy warnings
    # before the config error blamed G
    pytest.param("fig1_a0_map",
                 'model.mode={"kind": "tabulated", "positions": [0, 1, 2, 3], '
                 '"samples": [1e308, 1e308, -1e308, 0]}',
                 "config.model.mode: TabulatedMode samples table or a slope "
                 "between its neighbours is not finite",
                 id="fig1_a0_map-tabulated-differences-overflow"),
    # A q overflows while G stays finite: the a0-map wrote a table of inf
    pytest.param("fig1_a0_map",
                 'model.mode={"kind": "standing_wave", "amplitude": 1e10, '
                 '"wavenumber": 1e300}',
                 "config.model.mode: the mode slope g'(x) is not finite at "
                 "x=-300.0", id="fig1_a0_map-slope-overflows"),
    # A q^2 overflows while G and g' stay finite: the run warned in
    # curvature and then failed on the domain guard at t=3.2
    pytest.param("fig9a_atrace",
                 'model.mode={"kind": "standing_wave", "amplitude": 1.0, '
                 '"wavenumber": 1e160}',
                 "config.model.mode: the mode curvature g''(x) is not finite "
                 "at x=-150.0", id="fig9a_atrace-curvature-overflows"),
    # sqrt(n) times the Gaussian peak overflows between the path's ends; the
    # message names the first written instant where it does
    pytest.param("effective_model",
                 (f"model.photon_index={10**300}", "model.mode.amplitude=1e161"),
                 "config.model.mode: the coupling G(x) is not finite at x=-85.0",
                 id="effective_model-coupling-overflows-at-the-peak"),
    # sqrt(n) times a standing wave overflows between the path's ends, where
    # sin is about 1e-16: the run warned and wrote 78 inf rows
    pytest.param("effective_model",
                 ('model.mode={"kind": "standing_wave", "amplitude": 1e160, '
                  '"wavenumber": 0.015707963267948967}',
                  f"model.photon_index={10**300}"),
                 "config.model.mode: the coupling G(x) is not finite at "
                 "x=-195.0", id="effective_model-coupling-overflows-mid-path"),
    # theta'' ~ 8 n (g/Delta)(g'/Delta)^2 overflows near a coupling of 1e-153
    # at detuning 1e-154 while G, g' and g'' stay finite: the trace wrote
    # inf in both a_t cells
    pytest.param("fig9a_atrace",
                 ("model.detuning=1e-154",
                  'model.mode={"kind": "tabulated", "positions": '
                  '[0, 0.5, 1, 1.5], "samples": [1, 1, 10, 1e-153]}',
                  'state={"x0": 0.0, "p0": 0.0, "width": 2.0}',
                  'grid={"points": 64, "x_min": -20.0, "x_max": 20.0}',
                  'run={"t_final": 0.0625, "dt": 0.0625}'),
                 "config.model.mode: the mixing-angle curvature theta''(x) "
                 "is not finite at x=-12.5",
                 id="fig9a_atrace-angle-curvature-overflows"),
    # the gap is below its floor at every scan point, so every scan value
    # is inf: the search reported a flat profile
    pytest.param("fig2_max_locus",
                 ('model.detuning={"values": [1e-13]}',
                  "model.mode.amplitude=1e-20"),
                 "pointwise adiabaticity parameter is inf at every scan point "
                 "at detuning 1e-13: the gap sqrt(detuning^2 + 4 G^2) is at "
                 "most 1e-13, below 1e-12",
                 id="fig2_max_locus-singular-at-every-scan-point"),
])
def test_cli_rejects_out_of_range_numbers_in_one_line(tmp_path, capsys, name,
                                                      override, message):
    # each of these ended in an OverflowError traceback, printed numpy
    # overflow warnings, wrote a max-locus row with value_at_max 0, or ran
    # on a nan coupling; `override` is one override or a tuple of them
    cfg_path = CONFIGS / f"{name}.json"
    experiment = json.loads(cfg_path.read_text())["experiment"]
    out = tmp_path / "out"
    args = [experiment, "--config", str(cfg_path), "--out", str(out)]
    for item in (override,) if isinstance(override, str) else override:
        args += ["--override", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(args)
    assert (status, capsys.readouterr().err) == (
        1, f"adiabatica: error: {message}\n")
    assert not out.exists()


def generated_cli_configs(st):
    """hypothesis strategy: a config of any experiment at tiny sizes (a0-map
    on 64 points, max-locus on 16 scan points, propagating runs on 64-256
    points with at most 200 steps).  Mode magnitudes and detunings are
    log-uniform up to 1e305 and photon_index reaches 10**300; the grid, the
    state and the run stay moderate, so that many configs load."""
    def magnitude(low, high):
        return st.floats(low, high).map(lambda e: 10.0 ** e)

    # zero one time in nine
    signed = st.builds(lambda sign, size: sign * size,
                       st.sampled_from([1.0, -1.0] * 4 + [0.0]),
                       magnitude(-300.0, 305.0))
    tabulated = st.integers(4, 16).flatmap(lambda n: st.fixed_dictionaries({
        "kind": st.just("tabulated"),
        "positions": st.builds(
            lambda start, step: (start + step * np.arange(n)).tolist(),
            st.floats(-50.0, 50.0), st.floats(0.1, 20.0)),
        "samples": st.lists(signed, min_size=n, max_size=n)}))
    modes = st.one_of(
        st.fixed_dictionaries({"kind": st.just("gaussian"), "amplitude": signed,
                               "width": magnitude(-80.0, 160.0)}),
        st.fixed_dictionaries({"kind": st.just("standing_wave"),
                               "amplitude": signed,
                               "wavenumber": magnitude(-30.0, 305.0)}),
        st.fixed_dictionaries({"kind": st.just("linear"), "gradient": signed}),
        tabulated)

    @st.composite
    def configs(draw):
        experiment = draw(st.sampled_from(EXPERIMENTS))
        single = experiment in ("atrace", "effective-model", "snapshot")
        detuning = draw(signed if single else st.lists(
            signed, min_size=1, max_size=3).map(lambda v: {"values": v}))
        upper, lower = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.7, 0.3)]))
        half = draw(st.floats(20.0, 40.0))
        data = {
            "experiment": experiment,
            "model": {"detuning": detuning, "mode": draw(modes),
                      "photon_index": draw(st.one_of(
                          st.integers(1, 4),
                          st.integers(0, 300).map(lambda e: 10**e))),
                      "frame_case": draw(st.sampled_from(["case1", "case2"])),
                      "mass": draw(st.floats(0.5, 4.0))},
            "state": {"x0": draw(st.floats(-0.4 * half, 0.4 * half)),
                      "p0": draw(st.floats(-2.0, 2.0)),
                      "width": draw(st.floats(2.0, 4.0)),
                      "frame": draw(st.sampled_from(["bare", "adiabatic"])),
                      "population_upper": upper, "population_lower": lower},
        }
        if experiment == "max-locus":
            data["search"] = {"scan_points": 16}
            # only a Gaussian mode has a default window
            if data["model"]["mode"]["kind"] != "gaussian" or draw(st.booleans()):
                x_lo = draw(st.floats(-50.0, 50.0))
                data["search"].update(x_lo=x_lo,
                                      x_hi=x_lo + draw(st.floats(0.5, 100.0)))
        if experiment not in ("max-locus", "effective-model"):
            points = 64 if experiment == "a0-map" else draw(
                st.sampled_from([64, 128, 256]))
            data["grid"] = {"points": points, "x_min": -half, "x_max": half}
        if experiment not in ("a0-map", "max-locus"):
            dt = draw(st.floats(1e-3, 0.1))
            data["run"] = {"t_final": dt * draw(st.integers(1, 200)), "dt": dt,
                           "stride": draw(st.integers(1, 20))}
        return data

    return configs()


#: The run-time errors a config that loads may end in: the domain guard, a
#: collapsed averaged splitting, a flat max-locus profile, one singular at
#: every scan point and a refined maximum that reads 0; every other failure
#: is a config error.
_LISTED_ERRORS = re.compile(
    r"adiabatica: error: (config\.|.* packet at <x>=.* of a domain edge .*; "
    r"enlarge the grid$|averaged surface splitting collapsed below |flat "
    r"adiabaticity profile: nothing to maximize$|pointwise adiabaticity "
    r"parameter is (not > 0 at its refined maximum |inf at every scan "
    r"point ))")


def run_generated_config(data, work):
    """Run `data` through the CLI in directory `work` with warnings raised
    as errors, and check how it ends: exit 0 with only finite cells, except
    the inf and nan the formats allow, or exit 1 with one listed error line
    and no output."""
    path = write_config(work, data)
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        status = main([data["experiment"], "--config", str(path), "--out",
                       str(out)])
    lines = stderr.getvalue().splitlines()
    if status:
        assert status == 1 and len(lines) == 1, lines
        assert _LISTED_ERRORS.match(lines[0]), lines[0]
        assert not out.exists()
        return
    assert lines == []
    for csv in sorted(out.iterdir()):
        _, header, table = read_table(csv)
        for name, column in zip(header, table.T):
            bad = ~np.isfinite(column)
            # inf where the splitting falls below its floor (a max-locus
            # window may hold such a point), nan for a channel below the
            # weight floor
            if ((csv.name == "a0_map.csv" and name != "x")
                    or (csv.name == "atrace.csv" and name.startswith("a0"))
                    or (csv.name == "max_locus.csv" and name == "value_at_max")):
                bad &= ~np.isposinf(column)
            elif csv.name == "snapshot_trajectory.csv" and name.startswith("ref_"):
                bad &= ~np.isnan(column)
            assert not bad.any(), (csv.name, name)


def test_cli_runs_what_the_loader_accepts_over_generated_configs(tmp_path,
                                                                  monkeypatch):
    # every config the loader accepts runs clean: no traceback, no warning,
    # no non-finite cell the formats do not allow; one CPU keeps fidelity
    # maps serial, so no example forks
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(data=generated_cli_configs(hypothesis.strategies))
    def check(data):
        run_generated_config(data, Path(tempfile.mkdtemp(dir=tmp_path)))

    check()


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
    # the package needs only numpy: with scipy unimportable, every
    # experiment and the two integrals (formerly scipy-backed) run, and none
    # loads a scipy module; the process pool is imported only by a
    # multi-cell fidelity map, and the one-cell map here runs serially
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
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import adiabatica as ad\n"
            "import adiabatica.cli\n"
            "codes = [adiabatica.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "ad.lorentzian_peak_integral(\n"
            "    ad.ModelParams(mode=ad.LinearMode(1.0), detuning=0.5), p0=2.0)\n"
            "ts = np.linspace(0.0, 10.0, 101)\n"
            "ad.coupling_from_adiabaticity(ts, np.full_like(ts, 0.01), delta=0.7)\n"
            "loaded = [m for m, module in sys.modules.items() if module is not None\n"
            "          and (m.split('.')[0] == 'scipy'\n"
            "               or m == 'concurrent.futures.process')]\n"
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
        "coupling_from_adiabaticity", "fidelity", "gaussian_bare_state",
        "initial_channel_weights", "local_adiabaticity",
        "lorentzian_peak_integral", "mixing_angle", "node_limit_probe", "packet_adiabaticity",
        "packet_width", "run_scenario", "substitution_model",
        "time_adiabaticity", "to_adiabatic", "to_bare",
    ]


def test_every_public_name_has_a_user_outside_its_unit_tests():
    # A user is a reference in the package source other than the name's own
    # definition and the package's import list (a call, a return type, an
    # exception that is raised), in the acceptance criteria, in the
    # benchmark tracer, or in the README and the format docs.  A name that
    # only its own unit tests call belongs in a test or nowhere.  The same
    # holds for the members of the API's classes, matched by how each is
    # accessed: a public method only through a call `.name(`, a property or
    # a dataclass field only through an attribute read `.name` (so a method
    # does not pass on a same-named column, nor a field on a keyword).
    root = CONFIGS.parent
    package = Path(ad.__file__).resolve().parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    outside = "\n".join(path.read_text() for path in [
        root / "tests" / "test_acceptance.py", root / "perfbench" / "tracer.py",
        root / "README.md", *sorted((root / "docs").rglob("*.md"))])
    searched = "\n".join([*sources, outside])

    def has_user(name, definition):
        word = re.compile(rf"\b{name}\b")
        references = sum(len(word.findall(text)) for text in sources)
        defined = sum(len(definition.findall(text)) for text in sources)
        return references > defined or word.search(outside) is not None

    unused = []
    for name in sorted(ad.__all__):
        value = getattr(ad, name)
        if isinstance(value, type(ad)):
            unused.append(name)  # a submodule is an attribute, not an API name
            continue
        definition = re.compile(rf"^(def|class) {name}\b|^{name}\b *[:=]",
                                re.MULTILINE)
        assert sum(len(definition.findall(text)) for text in sources) == 1, name
        if not has_user(name, definition):
            unused.append(name)
        if not isinstance(value, type):
            continue
        fields = ([field.name for field in dataclasses.fields(value)]
                  if dataclasses.is_dataclass(value) else [])
        members = {member: rf"\.{member}\b" for member in fields}
        for member, attr in vars(value).items():
            if isinstance(attr, types.FunctionType):
                members[member] = rf"\.{member}\("
            elif isinstance(attr, property):
                members[member] = rf"\.{member}\b"
        for member, access in sorted(members.items()):
            if not member.startswith("_") and re.search(access, searched) is None:
                unused.append(f"{name}.{member}")
    assert unused == []


def test_readme_library_quick_start_runs_as_written():
    # the README's library example, executed as written, and the identity it
    # states: the time-domain parameter of the substitution model along the
    # run's instants equals the pointwise parameter along its kinematic path
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    params, model, record, x_kin = (namespace[name] for name in
                                    ("params", "model", "record", "x_kin"))
    pointwise = ad.local_adiabaticity(params, x_kin, 5.0)
    assert pointwise.max() > 0.0
    np.testing.assert_allclose(ad.time_adiabaticity(model, record.times),
                               pointwise, rtol=1e-12, atol=0.0)
