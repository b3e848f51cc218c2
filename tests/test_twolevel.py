import math
from dataclasses import replace

import numpy as np
import pytest

import adiabatica as ad

from conftest import generated_params


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
    assert model.detuning == params.detuning
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


def test_time_adiabaticity_keeps_its_value_where_the_gap_cubed_overflows():
    # (delta^2 + 4 G^2)^(3/2) overflows at this detuning, yet the values are
    # normal numbers, 1e-306 to 5e-304: scaling delta and G by s divides the
    # parameter by s, so they are the detuning-1 values of the same path at
    # amplitude 1e-150, divided by 1e150.  Both parameters read them, and 0
    # only at the peak x = 0, where g' = 0
    params, model = gaussian_substitution(detuning=1e150)
    _, unscaled = gaussian_substitution(amplitude=1e-150, detuning=1.0)
    ts = np.linspace(0.0, 80.0, 9)
    want = ad.time_adiabaticity(unscaled, ts) / 1e150
    assert np.count_nonzero(want) == 8 and want.max() < 1e-303
    np.testing.assert_allclose(ad.time_adiabaticity(model, ts), want,
                               rtol=1e-12, atol=0.0)
    along_path = ad.local_adiabaticity(params, -200.0 + 5.0 * ts, 5.0)
    np.testing.assert_allclose(along_path, want, rtol=1e-12, atol=0.0)


def test_adiabaticity_scaling_law_over_generated_inputs():
    # both parameters are homogeneous of degree -1 in (detuning, coupling):
    # scaling the two by s divides them by s.  At s = 1e80 only the 4th
    # power of the gap overflows, and _angle_derivatives factors the gap out
    # of theta' and theta''; at 1e110 its cube overflows too, and
    # local_adiabaticity divides theta' (+ theta''/2m) by the gap instead;
    # at 1e160 its square.  Entries compared: those whose expected value is
    # a normal number (an unscaled gap below SPLITTING_FLOOR reads inf, and
    # scaled by s it no longer is below it).  The curvature variant adds
    # theta'' to the slope term, and where the two cancel its rounding is
    # relative to the size of the terms, which bounds the tolerance
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ts = np.linspace(0.0, 30.0, 31)
    tiny = np.finfo(float).tiny

    def assert_close(got, want, size=None):
        size = want if size is None else size
        normal = np.isfinite(want) & (np.abs(want) >= tiny)
        assert np.all(np.abs(got[normal] - want[normal])
                      <= 1e-12 * size[normal])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(params=generated_params(st), x0=st.floats(-60.0, 0.0),
                      p0=st.floats(0.5, 4.0),
                      scale=st.sampled_from([1e80, 1e110, 1e160]))
    def check(params, x0, p0, scale):
        big = replace(params, detuning=params.detuning * scale,
                      mode=replace(params.mode,
                                   amplitude=params.mode.amplitude * scale))
        xs = x0 + p0 / params.mass * ts  # the substitution's path, bit for bit
        plain = ad.local_adiabaticity(params, xs, p0)
        assert_close(ad.local_adiabaticity(big, xs, p0), plain / scale)
        # p0 = 0 leaves the curvature term alone
        terms = plain + ad.local_adiabaticity(params, xs, 0.0,
                                              include_curvature=True)
        assert_close(
            ad.local_adiabaticity(big, xs, p0, include_curvature=True),
            ad.local_adiabaticity(params, xs, p0, include_curvature=True)
            / scale, terms / scale)
        timed = [ad.time_adiabaticity(ad.substitution_model(p, p0, x0), ts)
                 for p in (params, big)]
        assert_close(timed[0], plain)
        assert_close(timed[1], ad.local_adiabaticity(big, xs, p0))
        assert_close(timed[1], timed[0] / scale)

    check()


def test_time_and_pointwise_parameters_agree_where_both_overflow():
    # at detuning 1e308 the pointwise parameter's p0 split / m overflows;
    # evaluated again with the gap factored out, it reads the same
    # underflowed 0 as the time-domain one
    params, model = gaussian_substitution(detuning=1e308)
    ts = np.linspace(0.0, 80.0, 9)
    along_path = ad.local_adiabaticity(params, -200.0 + 5.0 * ts, 5.0)
    assert np.array_equal(along_path, ad.time_adiabaticity(model, ts))
    assert np.array_equal(along_path, np.zeros_like(ts))


def test_time_adiabaticity_overflow_to_nan_raises():
    # g = 0.95e308 and dg/dx = inf: numerator and denominator overflow, and
    # with the gap factored out the rate still meets a zero cos(theta), so
    # the value reads nan either way
    q = 10.0
    x0 = math.asin(0.95) / q
    params = ad.ModelParams(mode=ad.StandingWaveMode(1e308, q), detuning=1.0)
    model = ad.substitution_model(params, 10.0, x0)
    with pytest.raises(ValueError, match="^time-domain adiabaticity parameter "
                                         "overflows at detuning 1\\.0$"):
        ad.time_adiabaticity(model, np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="overflows at detuning 1\\.0$"):
        ad.local_adiabaticity(params, x0, 10.0)


# ---------------------------------------------------------------------------
# Cumulative Simpson rule
# ---------------------------------------------------------------------------

def test_cumulative_simpson_matches_scipy_bit_for_bit():
    # the package's one integration rule ports scipy's unequal-interval
    # cumulative_simpson(y, x=x, initial=0.0); comparing bit patterns makes
    # the signed zeros count too
    hypothesis = pytest.importorskip("hypothesis")
    integrate = pytest.importorskip("scipy.integrate")
    from adiabatica.twolevel import _cumulative_simpson
    st = hypothesis.strategies

    def grid_and_values(n):
        return st.tuples(st.floats(-1e6, 1e6),
                         st.lists(st.floats(1e-6, 1e6), min_size=n - 1,
                                  max_size=n - 1),
                         st.lists(st.floats(-1e6, 1e6), min_size=n,
                                  max_size=n))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(3, 400).flatmap(grid_and_values))
    def check(drawn):
        start, steps, values = drawn
        x = start + np.concatenate(([0.0], np.cumsum(steps)))
        hypothesis.assume(np.all(np.diff(x) > 0))
        y = np.array(values)
        expected = integrate.cumulative_simpson(y, x=x, initial=0.0)
        got = _cumulative_simpson(y, x)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    check()


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

