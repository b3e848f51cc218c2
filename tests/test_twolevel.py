import math

import numpy as np
import pytest

import adiabatica as ad


def gaussian_substitution(amplitude=1.0, width=50.0, detuning=0.5, p0=5.0,
                          x0=-200.0, photon_index=1):
    params = ad.ModelParams(mode=ad.GaussianMode(amplitude, width),
                            detuning=detuning, photon_index=photon_index)
    return params, ad.substitution_model(params, p0, x0)


# ---------------------------------------------------------------------------
# Reduction by substitution
# ---------------------------------------------------------------------------

def test_substitution_model_is_time_gaussian():
    params, model = gaussian_substitution(p0=5.0, x0=-200.0)
    assert model.detuning == params.level_splitting
    ts = np.linspace(0.0, 80.0, 9)
    np.testing.assert_allclose(model.coupling(ts),
                               params.coupling(-200.0 + 5.0 * ts), rtol=1e-15)
    # temporal width of the pulse is a m / p0: value at peak +- width drops
    # by exactly exp(-1/2) relative to the peak
    t_peak = 40.0
    t_width = 50.0 / 5.0
    ratio = model.coupling(t_peak + t_width) / model.coupling(t_peak)
    assert ratio == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_substitution_model_hamiltonian_layout():
    _, model = gaussian_substitution(detuning=2.0)
    h = model.hamiltonian(40.0)
    g = float(np.asarray(model.coupling(40.0)))
    np.testing.assert_allclose(h, [[1.0, g], [g, -1.0]])


def test_substitution_zero_mode_gives_zero_everything():
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    model = ad.substitution_model(params, 5.0, -100.0)
    ts = np.linspace(0, 50, 11)
    np.testing.assert_allclose(model.coupling(ts), 0.0)
    np.testing.assert_allclose(ad.time_adiabaticity(model, ts), 0.0)


# ---------------------------------------------------------------------------
# Time-domain adiabaticity parameter
# ---------------------------------------------------------------------------

def test_time_adiabaticity_equals_pointwise_parameter():
    params, model = gaussian_substitution(detuning=1.3, p0=3.0, x0=-100.0,
                                          photon_index=2)
    ts = np.linspace(0.0, 70.0, 211)
    along_path = ad.local_adiabaticity(params, -100.0 + 3.0 * ts, 3.0)
    values = ad.time_adiabaticity(model, ts)
    np.testing.assert_allclose(values, along_path, rtol=1e-10)


def test_time_adiabaticity_constant_coupling_vanishes():
    model = ad.EffectiveModel(detuning=1.0, coupling=lambda t: 0.7 + 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 0.0 * np.asarray(t))
    assert ad.time_adiabaticity(model, 3.0) == 0.0


def test_time_adiabaticity_linear_chirp():
    c, delta = 0.3, 0.8
    model = ad.EffectiveModel(detuning=delta,
                              coupling=lambda t: c * np.asarray(t, dtype=float),
                              coupling_rate=lambda t: c + 0.0 * np.asarray(t))
    assert ad.time_adiabaticity(model, 0.0) == pytest.approx(c / delta**2,
                                                             rel=1e-12)


def test_time_adiabaticity_numeric_rate_fallback():
    model = ad.EffectiveModel(detuning=0.8,
                              coupling=lambda t: 0.3 * np.asarray(t, dtype=float))
    assert ad.time_adiabaticity(model, 0.0) == pytest.approx(0.3 / 0.64, rel=1e-6)


def test_time_adiabaticity_degenerate_flagged():
    model = ad.EffectiveModel(detuning=0.0,
                              coupling=lambda t: 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 1.0 + 0.0 * np.asarray(t))
    assert ad.time_adiabaticity(model, 0.0) == np.inf


# ---------------------------------------------------------------------------
# Direct integration
# ---------------------------------------------------------------------------

def test_solve_two_level_free_phases():
    delta = 1.4
    model = ad.EffectiveModel(detuning=delta, coupling=lambda t: 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 0.0 * np.asarray(t))
    start = np.array([0.6, 0.8], dtype=complex)
    trace = ad.solve_two_level(model, start, t_final=5.0, dt=0.001)
    np.testing.assert_allclose(trace.populations[-1], [0.36, 0.64], atol=1e-12)
    np.testing.assert_allclose(trace.states[-1, 0],
                               0.6 * np.exp(-1j * delta / 2 * 5.0), atol=1e-9)
    np.testing.assert_allclose(trace.states[-1, 1],
                               0.8 * np.exp(+1j * delta / 2 * 5.0), atol=1e-9)


def test_solve_two_level_resonant_rabi_flopping():
    g0 = 0.5
    model = ad.EffectiveModel(detuning=0.0,
                              coupling=lambda t: g0 + 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 0.0 * np.asarray(t))
    period = math.pi / g0
    trace = ad.solve_two_level(model, [1.0, 0.0], t_final=period, dt=period / 4000)
    # half-way through, the population has fully swapped
    mid = trace.populations[trace.times.size // 2]
    np.testing.assert_allclose(mid, [0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(trace.populations[-1], [1.0, 0.0], atol=1e-9)


def test_solve_two_level_norm_and_suppression_with_detuning():
    def transition_probability(delta):
        params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=delta)
        model = ad.substitution_model(params, 5.0, -200.0)
        trace = ad.solve_two_level(model, [1.0, 0.0], t_final=80.0, dt=0.005)
        assert abs(np.sum(trace.populations[-1]) - 1.0) < 1e-10
        return trace.populations[-1, 1]

    p_small = transition_probability(2.0)
    p_large = transition_probability(4.0)
    assert p_large < p_small < 1e-2


def _reference_solve(model, initial, t_final, dt):
    """Per-step loop of scalar midpoint unitaries: the solver's reference."""
    n_steps = max(1, int(round(t_final / dt)))
    times = dt * np.arange(n_steps + 1)
    half = 0.5 * model.detuning
    states = np.empty((n_steps + 1, 2), dtype=np.complex128)
    psi = np.asarray(initial, dtype=np.complex128).copy()
    states[0] = psi
    for k in range(n_steps):
        g = float(np.asarray(model.coupling(times[k] + 0.5 * dt)))
        rot = math.hypot(half, g)
        cos = math.cos(rot * dt)
        sinc = math.sin(rot * dt) / rot if rot > 0 else dt
        u00 = cos - 1j * half * sinc
        u01 = -1j * g * sinc
        psi = np.array([u00 * psi[0] + u01 * psi[1],
                        u01 * psi[0] + np.conj(u00) * psi[1]])
        states[k + 1] = psi
    return states


@pytest.mark.parametrize("model, initial, t_final, dt", [
    (gaussian_substitution(amplitude=10.0, width=10.0, detuning=0.5, p0=1.0,
                           x0=-15.0)[1], [1.0, 0.0], 30.0, 0.01),
    (gaussian_substitution(detuning=2.0)[1], [0.6, 0.8j], 80.0, 0.005),
    (ad.EffectiveModel(detuning=0.0, coupling=lambda t: 0.5),
     [1.0, 0.0], 2 * math.pi, math.pi / 4000),
    (ad.EffectiveModel(detuning=1.4, coupling=lambda t: 0.0 * np.asarray(t)),
     [0.6, 0.8], 5.0, 0.001),
])
def test_solve_two_level_matches_per_step_reference(model, initial, t_final, dt):
    trace = ad.solve_two_level(model, initial, t_final=t_final, dt=dt)
    want = _reference_solve(model, initial, t_final, dt)
    assert trace.states.shape == want.shape
    assert np.max(np.abs(trace.states - want)) <= 1e-13


def test_solve_two_level_step_guard():
    model = ad.EffectiveModel(detuning=0.0,
                              coupling=lambda t: 5.0 + 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 0.0 * np.asarray(t))
    with pytest.raises(ValueError):
        ad.solve_two_level(model, [1.0, 0.0], t_final=1.0, dt=0.3)


# ---------------------------------------------------------------------------
# Inverse construction
# ---------------------------------------------------------------------------

def test_inverse_construction_zero_trace():
    ts = np.linspace(0, 10, 101)
    g = ad.coupling_from_adiabaticity(ts, np.zeros_like(ts), delta=0.7)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_inverse_construction_round_trip_on_rising_pulse():
    # rising half of the substitution pulse; identifying delta with the level
    # splitting must give back the very same coupling
    params, model = gaussian_substitution(detuning=0.5, p0=5.0, x0=-200.0)
    ts = np.linspace(0.0, 40.0, 4001)
    target = ad.time_adiabaticity(model, ts)
    g0 = float(np.asarray(model.coupling(0.0)))
    rebuilt = ad.coupling_from_adiabaticity(ts, target, delta=0.5,
                                            initial_coupling=g0)
    expected = np.asarray(model.coupling(ts), dtype=float)
    assert np.max(np.abs(rebuilt - expected)) <= 1e-6 * expected.max()


def test_inverse_construction_back_substitution_residual():
    params, model = gaussian_substitution(detuning=0.5, p0=5.0, x0=-200.0)
    ts = np.linspace(0.0, 40.0, 4001)
    target = ad.time_adiabaticity(model, ts)
    g0 = float(np.asarray(model.coupling(0.0)))
    rebuilt = ad.coupling_from_adiabaticity(ts, target, delta=0.5,
                                            initial_coupling=g0)
    h = ts[1] - ts[0]
    # fourth-order interior derivative of the rebuilt coupling
    rate = (-rebuilt[4:] + 8 * rebuilt[3:-1] - 8 * rebuilt[1:-3] + rebuilt[:-4]) / (12 * h)
    mid = slice(2, -2)
    residual = np.abs(0.5 * rate / (0.25 + 4.0 * rebuilt[mid] ** 2) ** 1.5
                      - target[mid])
    assert residual.max() <= 1e-6 * target.max()


def test_inverse_construction_divergence_reported_with_time():
    ts = np.linspace(0.0, 20.0, 201)
    flat = np.full_like(ts, 0.1)  # integral reaches 1/(2 delta) = 1 at t = 10
    with pytest.raises(ValueError, match="t="):
        ad.coupling_from_adiabaticity(ts, flat, delta=0.5)


def test_inverse_construction_validation():
    ts = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        ad.coupling_from_adiabaticity(ts, -np.ones_like(ts), delta=1.0)
    with pytest.raises(ValueError):
        ad.coupling_from_adiabaticity(ts, np.ones_like(ts), delta=0.0)
    with pytest.raises(ValueError):
        ad.coupling_from_adiabaticity(ts[::-1], np.ones_like(ts), delta=1.0)


# ---------------------------------------------------------------------------
# Classical trajectories
# ---------------------------------------------------------------------------

def test_classical_trajectories_flat_surface_straight_line():
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    traj = ad.classical_trajectories(params, {"upper": (-30.0, 2.0)},
                                     t_final=10.0, dt=0.01)
    np.testing.assert_allclose(traj.positions[0], -30.0 + 2.0 * traj.times,
                               atol=1e-10)
    np.testing.assert_allclose(traj.momenta[0], 2.0, atol=1e-12)
    assert np.all(np.isnan(traj.positions[1]))


def test_classical_trajectories_deceleration_on_upper_hill():
    # positive detuning: the upper surface is a hill, the packet slows down
    params = ad.ModelParams(mode=ad.GaussianMode(30.0, 20.0), detuning=5.0)
    traj = ad.classical_trajectories(params, {"upper": (-60.0, 1.5)},
                                     t_final=30.0, dt=0.005)
    inside = traj.positions[0] > -40.0
    assert traj.momenta[0][inside].min() < 1.5 - 1e-4


def test_classical_trajectories_energy_conservation():
    params = ad.ModelParams(mode=ad.GaussianMode(30.0, 20.0), detuning=5.0,
                            photon_index=2)
    t_final = 60.0
    traj = ad.classical_trajectories(params,
                                     {"upper": (-60.0, 1.5), "lower": (-60.0, 1.5)},
                                     t_final=t_final, dt=0.005)
    for ch in range(2):
        drift = np.max(np.abs(traj.energies[ch] - traj.energies[ch, 0]))
        assert drift <= 1e-6 * t_final


def test_classical_trajectories_guards():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 2.0), detuning=1.0)
    with pytest.raises(ValueError):
        ad.classical_trajectories(params, {"sideways": (0.0, 1.0)},
                                  t_final=1.0, dt=0.01)
    with pytest.raises(ValueError):
        # a step of p dt / m = 0.5 overshoots the 1/q = 0.5 feature scale
        ad.classical_trajectories(params, {"upper": (0.3, 5.0)},
                                  t_final=2.0, dt=0.1)


def test_trajectory_adiabaticity_tracks_pointwise_parameter():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=2.0)
    traj = ad.classical_trajectories(params, {"upper": (-150.0, 5.0)},
                                     t_final=50.0, dt=0.01)
    along = ad.trajectory_adiabaticity(params, traj, (1.0, 0.0))
    direct = ad.local_adiabaticity(params, traj.positions[0], 5.0)
    # momentum is nearly constant here, so the two agree closely
    np.testing.assert_allclose(along, direct, rtol=2e-3, atol=1e-12)


@pytest.mark.parametrize("mode, start", [
    (ad.GaussianMode(1.0, 5.0), -15.0),
    (ad.StandingWaveMode(1.0, 0.5), -3.0),
])
def test_trajectory_adiabaticity_is_the_weighted_pointwise_parameter(mode,
                                                                    start):
    params = ad.ModelParams(mode=mode, detuning=0.4, mass=1.7, photon_index=2)
    traj = ad.classical_trajectories(
        params, {"upper": (start, 3.0), "lower": (start, 2.5)},
        t_final=4.0, dt=0.005)
    weights = (0.6, 0.4)
    along = ad.trajectory_adiabaticity(params, traj, weights)
    pointwise = [ad.local_adiabaticity(params, traj.positions[ch],
                                       traj.momenta[ch]) for ch in range(2)]
    assert np.array_equal(along, 0.6 * pointwise[0] + 0.4 * pointwise[1])
    # each channel term is |2 theta'(x) p| over 2m times the local splitting
    # of the adiabatic surfaces
    want = 0.0
    for ch in range(2):
        x, p = traj.positions[ch], traj.momenta[ch]
        upper, lower = ad.adiabatic_eigenvalues(params, x)
        want = want + weights[ch] * np.abs(
            2.0 * ad.mixing_angle_slope(params, x) * p) / (
                2.0 * params.mass * (upper - lower))
    np.testing.assert_allclose(along, want, rtol=1e-14)


def test_trajectory_adiabaticity_diverges_at_a_degenerate_point():
    # zero detuning at a standing-wave node closes the surface gap: the
    # estimate takes the pointwise convention, inf, not a finite value
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 0.5), detuning=0.0)
    nan = np.full(3, np.nan)
    traj = ad.TrajectorySet(times=np.arange(3.0),
                            positions=np.stack([[-1.0, 0.0, 1.0], nan]),
                            momenta=np.stack([np.full(3, 2.0), nan]),
                            energies=np.stack([np.zeros(3), nan]))
    along = ad.trajectory_adiabaticity(params, traj, (1.0, 0.0))
    assert along[1] == np.inf
    assert np.isfinite(along[[0, 2]]).all()
