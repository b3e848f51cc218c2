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


def test_time_adiabaticity_degenerate_flagged():
    model = ad.EffectiveModel(detuning=0.0,
                              coupling=lambda t: 0.0 * np.asarray(t),
                              coupling_rate=lambda t: 1.0 + 0.0 * np.asarray(t))
    assert ad.time_adiabaticity(model, 0.0) == np.inf


def test_time_adiabaticity_reads_zero_where_the_denominator_overflows():
    # (delta^2 + 4 G^2)^(3/2) overflows to inf at this detuning: the true
    # value underflows to 0, as the pointwise parameter reads, without a
    # RuntimeWarning
    params, model = gaussian_substitution(detuning=1e150)
    ts = np.linspace(0.0, 80.0, 9)
    assert np.array_equal(ad.time_adiabaticity(model, ts), np.zeros_like(ts))
    along_path = ad.local_adiabaticity(params, -200.0 + 5.0 * ts, 5.0)
    assert np.array_equal(along_path, np.zeros_like(ts))


def test_time_adiabaticity_overflow_to_nan_raises():
    # delta dG/dt and the denominator both overflow at t = 0: their ratio
    # would read nan, not its small true value
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=1e308)
    model = ad.substitution_model(params, 10.0, 0.0)
    with pytest.raises(ValueError, match="^time-domain adiabaticity parameter "
                                         "overflows at detuning 1e\\+308$"):
        ad.time_adiabaticity(model, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="overflows at detuning 1e\\+308$"):
        ad.local_adiabaticity(params, 0.0, 10.0)


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


def _with(array, index, value):
    out = array.copy()
    out[index] = value
    return out


_TIMES = np.linspace(0.0, 10.0, 101)
_TRACE = np.full_like(_TIMES, 0.01)


@pytest.mark.parametrize("times, values, delta, initial_coupling", [
    (_TIMES, _with(_TRACE, 50, np.nan), 0.7, 0.0),
    (_TIMES, _with(_TRACE, 50, np.inf), 0.7, 0.0),
    (_with(_TIMES, -1, np.inf), _TRACE, 0.7, 0.0),
    (_with(_TIMES, 3, np.nan), _TRACE, 0.7, 0.0),
    (_TIMES, _TRACE, np.nan, 0.0),
    (_TIMES, _TRACE, np.inf, 0.0),
    (_TIMES, _TRACE, 0.7, np.nan),
    (_TIMES, _TRACE, 0.7, -np.inf),
], ids=["nan-value", "inf-value", "inf-time", "nan-time", "nan-delta",
        "inf-delta", "nan-initial", "inf-initial"])
def test_inverse_construction_rejects_non_finite_input(times, values, delta,
                                                       initial_coupling):
    # unchecked, one nan sample turns half the rebuilt pulse into nan, and a
    # nan splitting all of it, without an error
    with pytest.raises(ValueError, match="^times, values, delta and "
                                         "initial_coupling must be finite$"):
        ad.coupling_from_adiabaticity(times, values, delta=delta,
                                      initial_coupling=initial_coupling)

