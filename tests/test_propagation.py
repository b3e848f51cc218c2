import concurrent.futures
import contextlib
import dataclasses
import math
import multiprocessing
import os
import signal
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla

import adiabatica as ad

from conftest import (constant_mode, generated_packet, generated_params,
                      l2_distance)
from adiabatica.config import validate_config
from adiabatica.experiments import write_run_csv


def free_params(detuning=1.0):
    return ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=detuning)


# ---------------------------------------------------------------------------
# Analytic oracles
# ---------------------------------------------------------------------------

def test_free_packet_spreading_law():
    # g = 0: width obeys w(t) = w0 sqrt(1 + (t / (m w0^2))^2)
    grid = ad.Grid(1024, -200.0, 200.0)
    params = free_params()
    psi = ad.gaussian_bare_state(grid, -50.0, 2.0, 5.0)
    prop = ad.FullPropagator(params, grid, 0.01)
    t = 30.0
    out = prop.advance(psi, 3000)
    expected = 5.0 * np.sqrt(1.0 + (t / 25.0) ** 2)
    assert abs(ad.packet_width(out) - expected) < 1e-6
    assert abs(ad.mean_position(out) - (-50.0 + 2.0 * t)) < 1e-6


def test_rabi_oscillations_uniform_coupling():
    # near-static packet over a constant coupling: two-level Rabi formula
    g0, detuning = 0.4, 1.2
    params = ad.ModelParams(mode=constant_mode(g0), detuning=detuning)
    grid = ad.Grid(2048, -1500.0, 1500.0)
    psi = ad.gaussian_bare_state(grid, 0.0, 0.0, 100.0)
    dt = 0.002
    prop = ad.FullPropagator(params, grid, dt)
    rabi = np.sqrt(detuning**2 / 4.0 + g0**2)
    amplitude = 4.0 * g0**2 / (detuning**2 + 4.0 * g0**2)
    # accumulate to t = 6 in pieces, checking along the way
    state = psi
    total = 0
    for chunk in (500, 1000, 1500):
        state = prop.advance(state, chunk)
        total += chunk
        t = total * dt
        expected = amplitude * np.sin(rabi * t) ** 2
        assert state.component_norms_sq()[1] == pytest.approx(expected, abs=1e-3)


def test_split_step_matches_dense_matrix_exponential():
    # independent oracle: exact exponential of the discretized Hamiltonian
    n = 256
    grid = ad.Grid(n, -40.0, 40.0)
    params = ad.ModelParams(mode=ad.GaussianMode(2.0, 5.0), detuning=0.3)
    psi = ad.gaussian_bare_state(grid, -15.0, 4.0, 2.5)

    fwd = np.fft.fft(np.eye(n), axis=0)
    inv = np.fft.ifft(np.eye(n), axis=0)
    kinetic = inv @ np.diag(grid.k**2 / 2.0) @ fwd
    eu, el = params.level_shifts
    g = params.coupling(grid.x)
    ham = np.zeros((2 * n, 2 * n), dtype=complex)
    ham[:n, :n] = kinetic + eu * np.eye(n)
    ham[n:, n:] = kinetic + el * np.eye(n)
    ham[:n, n:] = np.diag(g)
    ham[n:, :n] = np.diag(g)

    t_final = 3.0
    vec = sla.expm(-1j * ham * t_final) @ np.concatenate([psi.upper, psi.lower])
    oracle = ad.SpinorField(grid, np.stack([vec[:n], vec[n:]]), ad.BARE)

    dt = 5e-4
    out = ad.FullPropagator(params, grid, dt).advance(psi, int(t_final / dt))
    assert l2_distance(out, oracle) < 1e-7


def test_constant_potential_global_phase():
    # uniform surfaces: adiabatic step = free step times exp(-i Delta_pm t)
    grid = ad.Grid(512, -200.0, 200.0)
    params = free_params(detuning=3.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, 0.0, 1.0, 8.0)
    psi.components[1] = psi.components[0]
    psi.components /= psi.norm()
    start = ad.to_adiabatic(psi, frame)

    free_frame = ad.adiabatic_frame(free_params(detuning=0.0), grid)
    t = 2.0
    n = 200
    evolved = ad.AdiabaticPropagator(frame, params, t / n).advance(start, n)
    reference = ad.AdiabaticPropagator(free_frame, params, t / n).advance(
        ad.SpinorField(grid, start.components.copy(), ad.ADIABATIC), n)
    np.testing.assert_allclose(evolved.upper,
                               np.exp(-1.5j * t) * reference.upper, atol=1e-12)
    np.testing.assert_allclose(evolved.lower,
                               np.exp(+1.5j * t) * reference.lower, atol=1e-12)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_norm_preservation_and_time_reversal():
    grid = ad.Grid(512, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.8, 0.7), detuning=0.9)
    psi = ad.gaussian_bare_state(grid, -20.0, 3.0, 4.0)
    forward = ad.FullPropagator(params, grid, 0.01)
    backward = ad.FullPropagator(params, grid, -0.01)
    mid = forward.advance(psi, 2000)
    assert abs(mid.norm_sq() - 1.0) < 1e-12
    back = backward.advance(mid, 2000)
    assert l2_distance(back, psi) < 1e-8


def test_full_propagator_keeps_the_norm_over_generated_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = ad.Grid(256, -40.0, 40.0)

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(params=generated_params(st),
                      psi=generated_packet(st, grid),
                      dt=st.floats(1e-3, 0.5), n_steps=st.integers(1, 400))
    def check(params, psi, dt, n_steps):
        out = ad.FullPropagator(params, grid, dt).advance(psi, n_steps)
        assert abs(out.norm() - psi.norm()) <= 1e-12 * psi.norm()
        # the Strang step is symmetric, so -dt undoes it up to rounding
        back = ad.FullPropagator(params, grid, -dt).advance(out, n_steps)
        assert l2_distance(back, psi) <= 1e-11

    check()


def test_adiabatic_channel_populations_constant():
    grid = ad.Grid(512, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.8, 0.7), detuning=0.9)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, -20.0, 3.0, 4.0)
    start = ad.to_adiabatic(psi, frame)
    pops0 = start.component_norms_sq()
    out = ad.AdiabaticPropagator(frame, params, 0.01).advance(start, 1500)
    np.testing.assert_allclose(out.component_norms_sq(), pops0, atol=1e-12)


def test_strang_self_convergence_ratio():
    grid = ad.Grid(256, -40.0, 40.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.5, 6.0), detuning=0.8)
    psi = ad.gaussian_bare_state(grid, -15.0, 3.0, 3.0)
    t_final = 4.0

    def evolve(dt):
        return ad.FullPropagator(params, grid, dt).advance(psi, int(round(t_final / dt)))

    ref = evolve(0.04 / 8)
    e1 = l2_distance(evolve(0.04), ref)
    e2 = l2_distance(evolve(0.02), ref)
    assert 3.5 <= e1 / e2 <= 4.5


def test_strang_order_over_generated_inputs():
    # errors against a dt/8 reference fall by about 4 per halving of dt; a
    # coupling-free potential commutes with the kinetic step, and its error
    # (about 4e-14 here) is rounding, so it is left out
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = ad.Grid(256, -40.0, 40.0)
    dt, t_final = 0.02, 1.0

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(params=generated_params(st),
                      psi=generated_packet(st, grid))
    def check(params, psi):
        def evolve(step):
            return ad.FullPropagator(params, grid, step).advance(
                psi, int(round(t_final / step)))

        ref = evolve(dt / 8)
        coarse, fine = (l2_distance(evolve(step), ref) for step in (dt, dt / 2))
        if fine > 1e-11:
            assert 3.5 <= coarse / fine <= 4.5

    check()


def test_uniform_angle_frame_consistency():
    # constant coupling: the rotation is x-independent, the corrections vanish
    # and the rotated exact evolution equals the diagonal channel evolution
    params = ad.ModelParams(mode=constant_mode(0.35, half_span=60.0), detuning=1.1)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 4.0)
    dt, n = 0.01, 800
    exact = ad.FullPropagator(params, grid, dt).advance(psi, n)
    via_full = ad.to_adiabatic(exact, frame)
    via_diag = ad.AdiabaticPropagator(frame, params, dt).advance(
        ad.to_adiabatic(psi, frame), n)
    assert l2_distance(via_full, via_diag) < 1e-11


def test_single_step_frame_tags(small_grid):
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    psi = ad.gaussian_bare_state(small_grid, -10.0, 2.0, 3.0)
    full = ad.FullPropagator(params, small_grid, 0.02)
    adiabatic = ad.AdiabaticPropagator(frame, params, 0.02)
    assert full.advance(psi, 1).frame == ad.BARE
    rotated = ad.to_adiabatic(psi, frame)
    assert adiabatic.advance(rotated, 1).frame == ad.ADIABATIC
    with pytest.raises(ValueError):
        full.advance(rotated, 1)
    with pytest.raises(ValueError):
        adiabatic.advance(psi, 1)


def test_advance_leaves_input_unchanged(small_grid):
    # the kernel works in place, so it must run on a copy of the input
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    psi = ad.gaussian_bare_state(small_grid, -10.0, 2.0, 3.0)
    rotated = ad.to_adiabatic(psi, frame)
    for prop, field in ((ad.FullPropagator(params, small_grid, 0.02), psi),
                        (ad.AdiabaticPropagator(frame, params, 0.02), rotated)):
        before = field.components.copy()
        for n in (0, 1, 5):
            out = prop.advance(field, n)
            assert np.array_equal(field.components, before)
            assert not np.shares_memory(out.components, field.components)


def default_dt_config(detuning, amplitude, width, grid, state, **model):
    """An atrace with a Gaussian mode and no run.dt, for the default dt
    validate_config picks."""
    return {"experiment": "atrace",
            "model": {"detuning": detuning, **model,
                      "mode": {"kind": "gaussian", "amplitude": amplitude,
                               "width": width}},
            "grid": grid, "state": state, "run": {"t_final": 20.0}}


def test_default_time_step_rule():
    # without run.dt a run takes dt = 0.1 min(1/max|Delta_+- - mean_shift|,
    # m dx / p_max) with p_max = p0 + 6/width = 5.6: the transport bound at
    # detuning 10, the phase bound at 50.  The values are those of the rule
    # before it moved into config, bit for bit
    for detuning, bound, recorded in ((10.0, "transport", 0.005231584821428572),
                                      (50.0, "phase", 0.003999999796281689)):
        cfg = validate_config(default_dt_config(
            detuning, 1.0, 50.0, {"points": 2048, "x_min": -300.0, "x_max": 300.0},
            {"x0": -100.0, "p0": 5.0, "width": 10.0}))
        up, _ = ad.adiabatic_eigenvalues(cfg.base_params, cfg.grid.x)
        limits = {"phase": 1.0 / np.max(np.abs(up)),
                  "transport": cfg.grid.dx / 5.6}
        assert cfg.run.dt == 0.1 * limits[bound] == recorded
        assert cfg.run.dt <= 0.1 * min(limits.values())


#: The phase-bound default dt of each photon index, from the rule before it
#: moved into config.
_FRAME_OFFSET_DT = {1: 0.003999968169391331, 3: 0.003999904510453599}


@pytest.mark.parametrize("photon_index", [1, 3])
def test_default_time_step_ignores_the_frame_offset(photon_index):
    # mean_shift is an exact global phase of both propagators, so a
    # phase-limited default dt is the same in both frames, and both frames
    # run at it give the same |F|
    configs = [validate_config(default_dt_config(
                   50.0, 5.0, 20.0, {"points": 1024, "x_min": -150.0, "x_max": 150.0},
                   {"x0": -60.0, "p0": 5.0, "width": 5.0},
                   photon_index=photon_index, frame_case=case))
               for case in ("case1", "case2")]
    grid, dt = configs[0].grid, configs[0].run.dt
    assert dt < 0.1 * grid.dx / ad.grids.momentum_cover(5.0, 5.0)  # phase-bound
    assert configs[1].run.dt == dt == _FRAME_OFFSET_DT[photon_index]
    psi = ad.gaussian_bare_state(grid, -60.0, 5.0, 5.0)
    magnitudes = []
    for cfg in configs:
        sc = ad.Scenario(params=cfg.base_params, grid=grid, initial=psi,
                         t_final=20.0, dt=dt, stride=1000, x0=-60.0, p0=5.0)
        magnitudes.append(ad.run_scenario(sc).fidelity_magnitude)
    np.testing.assert_allclose(magnitudes[1], magnitudes[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------

def test_run_scenario_free_case_unit_fidelity():
    grid = ad.Grid(1024, -200.0, 200.0)
    params = free_params()
    psi = ad.gaussian_bare_state(grid, -50.0, 2.0, 5.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=20.0,
                     dt=0.01, stride=200, x0=-50.0, p0=2.0)
    rec = ad.run_scenario(sc)
    np.testing.assert_allclose(np.abs(rec.fidelity), 1.0, atol=1e-9)
    np.testing.assert_allclose(rec.norm, 1.0, atol=1e-10)
    np.testing.assert_allclose(rec.adiabaticity, 0.0, atol=1e-15)
    np.testing.assert_allclose(rec.x_mean, rec.x_kinematic, atol=1e-6)
    assert rec.weights[0] == pytest.approx(1.0)
    assert rec.times[-1] == pytest.approx(20.0)


def test_run_scenario_weak_coupling_large_detuning_transit():
    # weak coupling at large detuning: the upper reference channel keeps its
    # momentum and the exact evolution tracks the reference closely
    grid = ad.Grid(2048, -300.0, 300.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=10.0)
    psi = ad.gaussian_bare_state(grid, -200.0, 5.0, 10.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=80.0,
                     dt=0.05, stride=400, x0=-200.0, p0=5.0)
    rec = ad.run_scenario(sc)
    drift = np.nanmax(np.abs(rec.ref_p[0] - 5.0)) / 5.0
    assert drift < 0.03
    assert np.min(np.abs(rec.fidelity)) > 0.999


def test_run_scenario_samples_final_step_and_guards():
    grid = ad.Grid(256, -40.0, 40.0)
    params = free_params()
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 3.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=1.0,
                     dt=0.01, stride=7, x0=-10.0, p0=2.0)
    rec = ad.run_scenario(sc)
    assert rec.times[-1] == pytest.approx(1.0)
    # packet headed for the edge trips the guard with a diagnostic
    sc_far = ad.Scenario(params=params, grid=grid, initial=psi, t_final=30.0,
                         dt=0.01, stride=100, x0=-10.0, p0=2.0)
    with pytest.raises(ad.DomainGuardError):
        ad.run_scenario(sc_far)


def test_scenario_validation():
    grid = ad.Grid(256, -40.0, 40.0)
    params = free_params()
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        ad.Scenario(params=params, grid=grid, initial=psi, t_final=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        ad.Scenario(params=params, grid=grid, initial=psi, t_final=1.0, dt=0.1,
                    stride=0)
    frame = ad.adiabatic_frame(params, grid)
    with pytest.raises(ValueError):
        ad.Scenario(params=params, grid=grid,
                    initial=ad.to_adiabatic(psi, frame), t_final=1.0, dt=0.1)
    # an infinite dt used to run to times [nan, inf]; a non-finite t_final
    # failed later, in the step count
    for t_final, dt in ((1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="requires finite t_final > 0"):
            ad.Scenario(params=params, grid=grid, initial=psi,
                        t_final=t_final, dt=dt)
    # a run shorter than half a step ran one step all the same
    for t_final in (0.004, 0.005):
        with pytest.raises(ValueError, match="t_final/dt > 1/2"):
            ad.Scenario(params=params, grid=grid, initial=psi,
                        t_final=t_final, dt=0.01)
    record = ad.run_scenario(ad.Scenario(params=params, grid=grid, initial=psi,
                                         t_final=0.006, dt=0.01))
    assert record.times.tolist() == [0.0, 0.01]


def test_trajectory_rows_shape(tmp_path):
    grid = ad.Grid(256, -40.0, 40.0)
    params = free_params()
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 3.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=1.0,
                     dt=0.01, stride=20, x0=-10.0, p0=2.0)
    rec = ad.run_scenario(sc)
    path = write_run_csv(rec, tmp_path / "run.csv")
    lines = path.read_text().splitlines()
    header, rows = lines[1].split(","), lines[2:]
    # one row per sample, one field per header column
    assert len(rows) == rec.times.size
    assert all(len(row.split(",")) == len(header) for row in rows)


def test_run_scenario_keeps_states_on_request():
    grid = ad.Grid(256, -40.0, 40.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 3.0)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=1.0,
                     dt=0.01, stride=25, x0=-10.0, p0=2.0, keep_states=True)
    rec = ad.run_scenario(sc)
    assert len(rec.snapshots) == rec.times.size
    t0, exact0, ref0 = rec.snapshots[0]
    assert t0 == 0.0
    assert l2_distance(exact0, psi) == 0.0
    assert ref0.frame == ad.ADIABATIC
    # default: no snapshots retained
    sc_plain = ad.Scenario(params=params, grid=grid, initial=psi, t_final=1.0,
                           dt=0.01, stride=25, x0=-10.0, p0=2.0)
    assert ad.run_scenario(sc_plain).snapshots is None


def test_run_scenario_stacked_pair_matches_separate_propagators():
    # exact state and reference advance as one stacked array; every snapshot
    # must equal chunked advance calls of the two propagators bit for bit,
    # with a stride (7) that does not divide the step count (30)
    grid = ad.Grid(256, -40.0, 40.0)
    params = ad.ModelParams(mode=ad.GaussianMode(2.0, 5.0), detuning=0.5)
    psi = ad.gaussian_bare_state(grid, -10.0, 3.0, 2.5)
    dt = 0.01
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=30 * dt,
                     dt=dt, stride=7, x0=-10.0, p0=3.0, keep_states=True)
    rec = ad.run_scenario(sc)
    frame = ad.adiabatic_frame(params, grid)
    full = ad.FullPropagator(params, grid, dt)
    adiabatic = ad.AdiabaticPropagator(frame, params, dt)
    exact, reference = psi, ad.to_adiabatic(psi, frame)
    steps = [0, 7, 14, 21, 28, 30]
    assert len(rec.snapshots) == len(steps)
    for i, (t, got_exact, got_reference) in enumerate(rec.snapshots):
        if i:
            exact = full.advance(exact, steps[i] - steps[i - 1])
            reference = adiabatic.advance(reference, steps[i] - steps[i - 1])
        assert t == steps[i] * dt
        assert got_exact.frame == ad.BARE and got_reference.frame == ad.ADIABATIC
        assert np.array_equal(got_exact.components, exact.components)
        assert np.array_equal(got_reference.components, reference.components)
    assert np.array_equal(rec.final_exact.components, exact.components)
    assert np.array_equal(rec.final_reference.components, reference.components)


def _scenario_from_adiabatic(lower_amplitude):
    """Scenario whose initial state is a packet in the upper adiabatic channel
    plus lower_amplitude times the same packet in the lower one."""
    grid = ad.Grid(256, -40.0, 40.0)
    params = ad.ModelParams(mode=ad.GaussianMode(2.0, 5.0), detuning=0.5)
    packet = ad.gaussian_bare_state(grid, -8.0, 3.0, 2.0).upper
    comps = np.stack([packet, lower_amplitude * packet])
    initial = ad.to_bare(ad.SpinorField(grid, comps, ad.ADIABATIC),
                         ad.adiabatic_frame(params, grid))
    return ad.Scenario(params=params, grid=grid, initial=initial, t_final=1.0,
                       dt=0.01, stride=7, x0=-8.0, p0=3.0, keep_states=True)


def _count_transforms(monkeypatch):
    """Run 30 steps sampled every 7 (6 samples, one block) inline, with the
    transforms counted at the bound pocketfft names and at np.fft; return
    the record, the (4, N) pair shape and the shapes each name saw."""
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), t_final=0.3,
                             keep_states=False)
    shapes = {"_fft": [], "_ifft": [], "np.fft": []}

    def counter(transform, seen):
        def counted(a, *args, **kwargs):
            seen.append(np.shape(a))
            return transform(a, *args, **kwargs)
        return counted

    for module in (ad.propagation, ad.grids):
        for name in ("_fft", "_ifft"):
            monkeypatch.setattr(module, name,
                                counter(getattr(module, name), shapes[name]))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name,
                            counter(getattr(np.fft, name), shapes["np.fft"]))
    monkeypatch.setattr(ad.propagation, "_PIPELINE_BYTES", math.inf)
    record = ad.run_scenario(sc)
    assert record.times.size == 6
    return record, (4, sc.grid.npoints), shapes


def test_run_scenario_transform_count(monkeypatch):
    # each step is one fused kinetic factor, one forward and one inverse
    # transform of the (4, N) pair; each sample adds the forward transform
    # its observables need, and the chunk after it starts from that spectrum
    # with one inverse transform; np.fft itself must not be called
    record, pair, shapes = _count_transforms(monkeypatch)
    n_steps, n_samples = 30, record.times.size
    assert shapes["_fft"] == [pair] * (n_steps + n_samples)
    assert [s for s in shapes["_ifft"] if s == pair] == (
        [pair] * (n_steps + n_samples - 1))
    assert shapes["np.fft"] == []


def test_run_scenario_transform_count_with_adiabaticity(monkeypatch):
    # <theta' p> adds one inverse transform per block, of the block's
    # (6, 2, N) reference channels, not one per channel
    record, pair, shapes = _count_transforms(monkeypatch)
    n_steps, n_samples = 30, record.times.size
    assert shapes["_fft"] == [pair] * (n_steps + n_samples)
    assert sorted(shapes["_ifft"]) == sorted(
        [pair] * (n_steps + n_samples - 1) + [(n_samples, 2, pair[1])])
    assert shapes["np.fft"] == []


def test_bound_transforms_match_numpy_fft():
    # the private pocketfft binding must keep the bits of np.fft.fft and
    # np.fft.ifft, in place, on the pair shape and on a block of channels
    rng = np.random.default_rng(7)
    for npoints in (256, 1024, 2048):
        for shape in ((4, npoints), (3, 2, npoints)):
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for bound, reference in ((ad.grids._fft, np.fft.fft),
                                     (ad.grids._ifft, np.fft.ifft)):
                got = values.copy()
                assert bound(got, out=got) is got
                assert np.array_equal(got, reference(values, axis=-1)), (
                    bound.__name__, shape)


@pytest.mark.parametrize("lower_amplitude, lower_filled", [
    (0.6, "ref_and_a"),              # both channels active
    (0.0, "none"),                   # lower weight below WEIGHT_FLOOR
    (np.sqrt(3e-10), "ref_and_a"),   # lower weight just above WEIGHT_FLOOR
])
def test_run_scenario_columns_match_public_observables(lower_amplitude,
                                                       lower_filled):
    # every column the sampler fills, rebuilt from the kept states with the
    # public observables, must agree bit for bit (nan counting as equal)
    sc = _scenario_from_adiabatic(lower_amplitude)
    rec = ad.run_scenario(sc)
    frame = ad.adiabatic_frame(sc.params, sc.grid)
    active = rec.weights >= ad.diagnostics.WEIGHT_FLOOR
    columns = ("x_mean", "p_mean", "norm", "pop_upper", "pop_lower",
               "fidelity", "ref_x", "ref_p", "adiabaticity",
               "adiabaticity_terms")
    want = {name: np.full_like(getattr(rec, name), np.nan) for name in columns}
    assert len(rec.snapshots) == rec.times.size
    for i, (t, exact, reference) in enumerate(rec.snapshots):
        assert t == rec.times[i]
        want["x_mean"][i] = ad.mean_position(exact)
        want["p_mean"][i] = ad.mean_momentum(exact)
        want["norm"][i] = exact.norm()
        pops = ad.to_adiabatic(exact, frame).component_norms_sq()
        want["pop_upper"][i], want["pop_lower"][i] = pops
        want["fidelity"][i] = ad.fidelity(exact, reference, frame)
        for ch in range(2):
            if active[ch]:
                want["ref_x"][ch, i] = ad.expect_position(reference, ch)
                want["ref_p"][ch, i] = ad.expect_momentum(reference, ch)
        parts = ad.adiabaticity_parts(reference, frame, sc.params, rec.weights)
        want["adiabaticity_terms"][:, i] = parts.channel_terms(True)
        want["adiabaticity"][i] = parts.total(True)
    for name, values in want.items():
        assert np.array_equal(getattr(rec, name), values, equal_nan=True), name

    # one weight floor, WEIGHT_FLOOR, decides every per-channel column
    for name in ("ref_x", "ref_p", "adiabaticity_terms"):
        upper, lower = getattr(rec, name)
        assert np.isfinite(upper).all(), name
        if lower_filled == "ref_and_a":
            assert np.isfinite(lower).all(), name
        else:
            assert np.isnan(lower).all(), name


_RECORD_ARRAYS = ("times", "x_kinematic", "x_mean", "p_mean", "norm",
                  "pop_upper", "pop_lower", "fidelity", "ref_x", "ref_p",
                  "adiabaticity_terms", "weights", "adiabaticity")


def _with_block(monkeypatch, scenario, samples_per_block):
    """Run `scenario` with blocks of `samples_per_block` samples (None: the
    default byte budget)."""
    if samples_per_block is not None:
        pair_bytes = 4 * scenario.grid.npoints * 16
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES",
                            samples_per_block * pair_bytes)
    try:
        with _time_bound():
            return ad.run_scenario(scenario)
    finally:
        monkeypatch.undo()


@contextlib.contextmanager
def _time_bound(seconds=60):
    """Fail with TimeoutError after `seconds`, so that a run waiting on a
    lost helper process fails instead of hanging."""
    def time_out(signum, frame):
        raise TimeoutError(f"run_scenario did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lower_amplitude", [0.6, 0.0, np.sqrt(3e-10)])
def test_run_scenario_records_do_not_depend_on_block_size(monkeypatch,
                                                          lower_amplitude):
    # 16 samples (stride 7 over 100 steps): one sample per block, one full
    # block (the default budget at N=256) and blocks of 6, the last one partial
    sc = _scenario_from_adiabatic(lower_amplitude)
    assert ad.propagation._BLOCK_BYTES // (4 * sc.grid.npoints * 16) == 16
    single = _with_block(monkeypatch, sc, 1)
    assert single.times.size == 16
    for samples_per_block in (None, 6):
        _assert_same_run(_with_block(monkeypatch, sc, samples_per_block),
                         single, samples_per_block)


def test_block_size_never_changes_a_run():
    # over generated step counts, strides, block sizes and lower-channel
    # weights, an inline run equals the run with one sample per block
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(n_steps=st.integers(10, 120), stride=st.integers(1, 13),
                      samples_per_block=st.integers(1, 8),
                      lower_amplitude=st.sampled_from([0.0, np.sqrt(3e-10),
                                                       0.6]))
    def check(n_steps, stride, samples_per_block, lower_amplitude):
        sc = dataclasses.replace(_scenario_from_adiabatic(lower_amplitude),
                                 t_final=n_steps * 0.01, stride=stride)
        pair_bytes = 4 * sc.grid.npoints * 16
        runs = []
        for per_block in (1, samples_per_block):
            with mock.patch.object(ad.propagation, "_BLOCK_BYTES",
                                   per_block * pair_bytes):
                runs.append(ad.run_scenario(sc))
        single, blocked = runs
        assert single.times.size == len(range(0, n_steps, stride)) + 1
        _assert_same_run(blocked, single,
                         (n_steps, stride, samples_per_block))

    check()


def _assert_same_run(rec, want, context):
    """Every record array (nan counting as equal), the final states and the
    snapshots of `rec` equal those of `want` bit for bit."""
    for name in _RECORD_ARRAYS:
        assert np.array_equal(getattr(rec, name), getattr(want, name),
                              equal_nan=True), (context, name)
    for field in ("final_exact", "final_reference"):
        assert np.array_equal(getattr(rec, field).components,
                              getattr(want, field).components)
    assert len(rec.snapshots) == len(want.snapshots)
    for got, expected in zip(rec.snapshots, want.snapshots):
        assert got[0] == expected[0]
        assert np.array_equal(got[1].components, expected[1].components)
        assert np.array_equal(got[2].components, expected[2].components)


def _guarded_scenario():
    """A scenario whose packets reach the edge margin, and its first failing
    sample (index, packet label, time), found with the public observables on
    chunked propagator runs."""
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), t_final=40.0,
                             stride=5, keep_states=False)
    grid, frame = sc.grid, ad.adiabatic_frame(sc.params, sc.grid)
    full = ad.FullPropagator(sc.params, grid, sc.dt)
    adiabatic = ad.AdiabaticPropagator(frame, sc.params, sc.dt)
    fields = {"exact": sc.initial, "reference": ad.to_adiabatic(sc.initial, frame)}
    failing = None
    for idx, step in enumerate(range(0, 4000, sc.stride)):
        if step:
            fields["exact"] = full.advance(fields["exact"], sc.stride)
            fields["reference"] = adiabatic.advance(fields["reference"], sc.stride)
        for label, field in fields.items():
            x, w = ad.mean_position(field), ad.packet_width(field)
            if x - 5.0 * w < grid.x_min or x + 5.0 * w > grid.x_max:
                failing = (idx, label, step * sc.dt)
                break
        if failing:
            return sc, failing


def _guard_block(samples_per_block, idx):
    """Samples per block: a number, None (the default budget), or "first" or
    "last" for blocks that start or end at sample `idx`."""
    if samples_per_block == "first":
        return idx  # block 1 starts at idx
    if samples_per_block == "last":
        block = next(b for b in range(2, idx) if (idx + 1) % b == 0)
        assert idx % block == block - 1
        return block
    return samples_per_block


@pytest.mark.parametrize("samples_per_block", [1, 5, None, "first", "last"])
def test_run_scenario_guard_fires_at_the_first_failing_sample(monkeypatch,
                                                              samples_per_block):
    # the packet reaches the edge margin in the middle of a block of 5 and of
    # one of 16 (the default budget at N=256), and in the first and the last
    # slot of a block; the error must name the first failing sample
    sc, (idx, label, t) = _guarded_scenario()
    assert idx % 5 not in (0, 4) and idx % 16 not in (0, 15)
    with pytest.raises(ad.DomainGuardError) as single:
        _with_block(monkeypatch, sc, 1)
    assert str(single.value).startswith(f"{label} packet at ")
    assert f" at t={t:.6g} (detuning 0.5)" in str(single.value)
    with pytest.raises(ad.DomainGuardError) as blocked:
        _with_block(monkeypatch, sc, _guard_block(samples_per_block, idx))
    assert str(blocked.value) == str(single.value)


_SAMPLED_COLUMNS = ("x_mean", "p_mean", "norm", "pop_upper", "pop_lower",
                    "fidelity", "ref_x", "ref_p", "adiabaticity_terms")


def _on_cpus(monkeypatch, cpus, run, pipeline_bytes=0):
    """Call run() with the affinity set `cpus` and the sampled-bytes
    threshold `pipeline_bytes` (0: any run may pipeline);
    return its result (or the exception it raised) and the pids of the
    processes it forked, after checking that every one of them has been
    reaped."""
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(ad.propagation, "_PIPELINE_BYTES", pipeline_bytes)
    try:
        with _time_bound():
            outcome = run()
    except (ValueError, RuntimeError, KeyboardInterrupt) as exc:
        outcome = exc
    finally:
        monkeypatch.undo()
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return outcome, forked


@pytest.mark.parametrize("lower_amplitude", [0.6, 0.0, np.sqrt(3e-10)])
def test_pipelined_run_matches_inline_run(monkeypatch, lower_amplitude):
    # with a second CPU, a run that holds enough sampled bytes propagates in
    # a forked process; one block per sample and blocks of 6 (the last one
    # partial)
    sc = _scenario_from_adiabatic(lower_amplitude)
    pair_bytes = 4 * sc.grid.npoints * 16
    for samples_per_block in (1, 6):
        def run():
            monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES",
                                samples_per_block * pair_bytes)
            return ad.run_scenario(sc)

        inline, forked = _on_cpus(monkeypatch, {0}, run)
        assert forked == []
        pipelined, forked = _on_cpus(monkeypatch, {0, 1}, run)
        assert len(forked) == 1
        _assert_same_run(pipelined, inline, samples_per_block)
        # the sampled columns are the caller's own arrays, not views of
        # shared memory
        for name in _SAMPLED_COLUMNS:
            assert getattr(pipelined, name).flags.owndata, name
    # one full block pipelines only by the byte rule: it does at a
    # threshold of 0, and stays inline at the shipped one
    inline = ad.run_scenario(sc)
    assert inline.times.size == ad.propagation._BLOCK_BYTES // pair_bytes
    pipelined, forked = _on_cpus(monkeypatch, {0, 1},
                                 lambda: ad.run_scenario(sc))
    assert len(forked) == 1
    _assert_same_run(pipelined, inline, "one block")
    _, forked = _on_cpus(monkeypatch, {0, 1}, lambda: ad.run_scenario(sc),
                         ad.propagation._PIPELINE_BYTES)
    assert forked == []


def test_a_run_that_pipelines_fills_two_blocks():
    # run_scenario pipelines on the byte rule alone; at the shipped budgets
    # that rule leaves the helper at least two blocks to run ahead with.
    # With B = max(1, _BLOCK_BYTES // pair) samples per block, a run of at
    # least _PIPELINE_BYTES / pair samples fills n // B >= 2 blocks when the
    # pipeline budget is two block budgets or more; a pair larger than a
    # block budget makes B = 1, and every run has at least 2 samples.
    block_bytes = ad.propagation._BLOCK_BYTES
    pipeline_bytes = ad.propagation._PIPELINE_BYTES
    assert pipeline_bytes >= 2 * block_bytes
    for log_n in range(1, 23):
        pair = 4 * 16 << log_n
        block = max(1, block_bytes // pair)
        fewest = max(2, -(-pipeline_bytes // pair))
        assert fewest // block >= 2, log_n


@pytest.mark.parametrize("n_blocks, helper_first", [
    (2, False), (3, False), (4, False), (5, False), (9, False),
    (2, True), (4, True),
])
def test_pipelined_run_matches_inline_run_for_any_block_count(monkeypatch,
                                                              n_blocks,
                                                              helper_first):
    # blocks of 2 samples in a ring of 4 blocks: the helper waits for an
    # acknowledgement only before it reuses a block's slots, from the fifth
    # block on, and the caller acknowledges only those blocks.  With
    # helper_first the caller samples block 0 only after the helper has
    # propagated every block and exited, so a message sent to it would
    # raise BrokenPipeError.
    n_samples = {2: 4, 3: 5, 4: 8, 5: 10, 9: 17}[n_blocks]
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6),
                             t_final=7 * (n_samples - 1) * 0.01)
    # once the caller closes its write end, the helper holds the last one
    # until it exits
    exit_read, exit_write = os.pipe()
    open_fds = {exit_read, exit_write}
    real_rotate = ad.propagation._rotate_to_adiabatic
    waited = []

    def rotate_after_helper(*args, **kwargs):
        if not waited:
            os.close(exit_write)
            open_fds.discard(exit_write)
            waited.append(os.read(exit_read, 1))
        return real_rotate(*args, **kwargs)

    def run(wait_for_helper):
        def call():
            monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
            if wait_for_helper:
                monkeypatch.setattr(ad.propagation, "_rotate_to_adiabatic",
                                    rotate_after_helper)
            return ad.run_scenario(sc)
        return call

    try:
        inline, forked = _on_cpus(monkeypatch, {0}, run(False))
        assert forked == [] and inline.times.size == n_samples
        pipelined, forked = _on_cpus(monkeypatch, {0, 1}, run(helper_first))
    finally:
        for fd in open_fds:
            os.close(fd)
    assert not isinstance(pipelined, BaseException), repr(pipelined)
    assert len(forked) == 1
    assert waited == ([b""] if helper_first else [])
    _assert_same_run(pipelined, inline, n_blocks)


def test_only_runs_that_sample_enough_pipeline(monkeypatch):
    # starting and stopping the helper costs more than a short or sparse
    # run saves, so a run pipelines from _PIPELINE_BYTES of sampled states
    sc = _scenario_from_adiabatic(0.6)
    sampled_bytes = 16 * 4 * sc.grid.npoints * 16

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
        return ad.run_scenario(sc)

    inline, forked = _on_cpus(monkeypatch, {0}, run)
    assert inline.times.size == 16 and forked == []
    _, forked = _on_cpus(monkeypatch, {0, 1}, run, sampled_bytes + 1)
    assert forked == []
    pipelined, forked = _on_cpus(monkeypatch, {0, 1}, run, sampled_bytes)
    assert len(forked) == 1
    _assert_same_run(pipelined, inline, "threshold")
    # the shipped threshold keeps every bundled atrace inline (at most 101
    # samples at N=1024 or 61 at N=2048) and pipelines the stride-1 fig9a
    # trace (2001 samples at N=1024)
    pair_bytes = 4 * 16
    assert 101 * 1024 * pair_bytes < ad.propagation._PIPELINE_BYTES
    assert 61 * 2048 * pair_bytes < ad.propagation._PIPELINE_BYTES
    assert 2001 * 1024 * pair_bytes >= ad.propagation._PIPELINE_BYTES


def _check_pipelined_guard(monkeypatch, samples_per_block):
    """A pipelined run of _guarded_scenario, in blocks as _guard_block
    reads `samples_per_block`, raises the inline run's error."""
    sc, (idx, _, _) = _guarded_scenario()
    block = _guard_block(samples_per_block, idx)

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", block * 4 * 256 * 16)
        return ad.run_scenario(sc)

    inline, forked = _on_cpus(monkeypatch, {0}, run)
    assert type(inline) is ad.DomainGuardError and forked == []
    pipelined, forked = _on_cpus(monkeypatch, {0, 1}, run)
    assert type(pipelined) is ad.DomainGuardError and len(forked) == 1
    assert str(pipelined) == str(inline)


def test_pipelined_run_raises_the_first_failing_sample(monkeypatch):
    # the scenario of test_run_scenario_guard_fires_at_the_first_failing_sample
    # fails at a sample inside a block of 5; the pipelined run must report
    # that sample, with the inline type and text
    _check_pipelined_guard(monkeypatch, 5)


@pytest.mark.parametrize("samples_per_block", ["first", "last"])
def test_pipelined_run_raises_a_failure_at_a_block_edge(monkeypatch,
                                                       samples_per_block):
    # the same failing sample in the first and in the last slot of a block
    _check_pipelined_guard(monkeypatch, samples_per_block)


def test_pipelined_run_reaps_the_helper_on_interrupt(monkeypatch):
    # Ctrl-C lands in the caller, which samples every block (and rotates
    # its exact states once per block); the helper that propagates ahead
    # must still be reaped
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), keep_states=False)
    real_rotate = ad.propagation._rotate_to_adiabatic
    calls = []

    def interrupted_rotate(*args, **kwargs):
        calls.append(None)
        if len(calls) == 25:
            raise KeyboardInterrupt
        return real_rotate(*args, **kwargs)

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
        monkeypatch.setattr(ad.propagation, "_rotate_to_adiabatic",
                            interrupted_rotate)
        return ad.run_scenario(dataclasses.replace(sc, stride=1))

    outcome, forked = _on_cpus(monkeypatch, {0, 1}, run)
    assert isinstance(outcome, KeyboardInterrupt) and len(forked) == 1
    assert len(calls) == 25


def test_pipelined_run_reports_a_lost_helper(monkeypatch):
    # a helper process that dies (say, killed for memory) must not leave the
    # run waiting or raise a bare pipe error
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), keep_states=False)

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
        monkeypatch.setattr(ad.propagation, "_run_ahead",
                            lambda *args: os._exit(1))
        return ad.run_scenario(sc)

    outcome, forked = _on_cpus(monkeypatch, {0, 1}, run)
    assert type(outcome) is RuntimeError and len(forked) == 1
    assert str(outcome) == "the propagation process exited unexpectedly"


def test_pipelined_run_reports_a_helper_lost_after_its_first_block(monkeypatch):
    # a helper that dies after handing over one block makes the caller's
    # acknowledgement or its next receive fail; either must fail the run
    # the same way, and the helper must be reaped
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), keep_states=False)

    def hand_over_one_block_then_exit(conn, caller_end, propagate,
                                      reuses_slots):
        caller_end.close()

        def hand_off(first, count):
            conn.send((first, count))
            os._exit(1)

        propagate(hand_off)

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
        monkeypatch.setattr(ad.propagation, "_run_ahead",
                            hand_over_one_block_then_exit)
        return ad.run_scenario(sc)

    outcome, forked = _on_cpus(monkeypatch, {0, 1}, run)
    assert type(outcome) is RuntimeError and len(forked) == 1
    assert str(outcome) == "the propagation process exited unexpectedly"


def test_runs_in_a_threaded_caller_sample_inline(monkeypatch):
    # forking a process with other threads running can leave the helper
    # waiting on a lock one of them held; such a caller's runs stay inline
    sc = dataclasses.replace(_scenario_from_adiabatic(0.6), keep_states=False)
    inline, _ = _on_cpus(monkeypatch, {0}, lambda: ad.run_scenario(sc))

    def run():
        monkeypatch.setattr(ad.propagation, "_BLOCK_BYTES", 2 * 4 * 256 * 16)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            return pool.submit(ad.run_scenario, sc).result(timeout=60)

    threaded, forked = _on_cpus(monkeypatch, {0, 1}, run)
    assert forked == []
    for name in _SAMPLED_COLUMNS:
        assert np.array_equal(getattr(threaded, name), getattr(inline, name),
                              equal_nan=True), name


def _pipelines_here():
    return ad.propagation._fork_context() is not None


def test_pool_workers_sample_inline(monkeypatch):
    # a fidelity-map pool already keeps every CPU busy, so its workers never
    # start a helper process of their own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _pipelines_here()
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        assert not pool.submit(_pipelines_here).result(timeout=60)
