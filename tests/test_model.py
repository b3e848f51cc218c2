import math
from dataclasses import replace

import numpy as np
import pytest

import adiabatica as ad
from adiabatica.model import DegeneratePointError, _angle_derivatives

from conftest import constant_mode, generated_params

_SMALLEST_NORMAL = np.finfo(float).smallest_normal


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


# ---------------------------------------------------------------------------
# Mode shapes
# ---------------------------------------------------------------------------

def test_gaussian_mode_value_and_derivatives():
    mode = ad.GaussianMode(1.0, 50.0)
    # direct evaluation: A / (sqrt(2 pi) a) at x = 0
    assert mode.value(0.0) == pytest.approx(0.007978845608028654, rel=1e-14)
    assert mode.slope(0.0) == 0.0
    h = 0.05
    for x in (-70.0, -3.0, 12.5, 50.0):
        fd = (mode.value(x + h) - mode.value(x - h)) / (2 * h)
        assert mode.slope(x) == pytest.approx(fd, rel=1e-4, abs=1e-12)
        fd2 = (mode.value(x + h) - 2 * mode.value(x) + mode.value(x - h)) / h**2
        assert mode.curvature(x) == pytest.approx(fd2, rel=1e-4, abs=1e-10)


def test_standing_wave_mode_derivatives():
    mode = ad.StandingWaveMode(0.7, 0.3)
    xs = np.linspace(-20, 20, 11)
    np.testing.assert_allclose(mode.value(xs), 0.7 * np.sin(0.3 * xs), rtol=1e-15)
    np.testing.assert_allclose(mode.slope(xs), 0.21 * np.cos(0.3 * xs), rtol=1e-15)
    np.testing.assert_allclose(mode.curvature(xs), -0.063 * np.sin(0.3 * xs),
                               rtol=1e-14, atol=1e-18)


def test_linear_mode():
    mode = ad.LinearMode(2.5)
    assert mode.value(3.0) == 7.5
    assert mode.slope(-10.0) == 2.5
    assert mode.curvature(4.0) == 0.0


def test_tabulated_mode_matches_analytic_shape():
    # window holds whole periods, so the sampled wave is exactly periodic
    span = 16.0 * np.pi
    xs = np.linspace(-span / 2, span / 2, 512, endpoint=False)
    ref = ad.StandingWaveMode(0.5, 0.5)
    mode = ad.TabulatedMode(xs, np.asarray(ref.value(xs)))
    probe = np.linspace(-20, 20, 23)
    # linear interpolation between samples: error ~ dx^2 |g''| / 8
    np.testing.assert_allclose(mode.value(probe), ref.value(probe), atol=2e-4)
    # spectral derivatives at the sample points are essentially exact
    np.testing.assert_allclose(mode.slope(xs), ref.slope(xs), atol=1e-12)
    np.testing.assert_allclose(mode.curvature(xs), ref.curvature(xs), atol=1e-12)


def test_tabulated_mode_rejects_nonuniform_positions():
    with pytest.raises(ValueError):
        ad.TabulatedMode(np.array([0.0, 1.0, 2.5, 3.0]), np.zeros(4))


def test_mode_guards():
    with pytest.raises(ValueError):
        ad.GaussianMode(1.0, -2.0)
    with pytest.raises(ValueError):
        ad.StandingWaveMode(1.0, 0.0)


# ---------------------------------------------------------------------------
# Frame parameters
# ---------------------------------------------------------------------------

def test_level_shifts_case1_case2():
    mode = ad.GaussianMode(1.0, 50.0)
    p1 = ad.ModelParams(mode=mode, detuning=3.0, photon_index=4)
    assert p1.level_shifts == (1.5, -1.5)
    p2 = replace(p1, frame_case=ad.FrameCase.CASE2)
    assert p2.level_shifts == (-9.0, -12.0)
    # splitting identical, offsets differ
    assert p1.level_splitting == p2.level_splitting == 3.0
    assert p1.mean_shift == 0.0
    assert p2.mean_shift == pytest.approx(-3.0 * 3.5)


@pytest.mark.parametrize("build, field", [
    (lambda v: ad.ModelParams(ad.GaussianMode(1.0, 5.0), detuning=v),
     "ModelParams.detuning"),
    (lambda v: ad.ModelParams(ad.GaussianMode(1.0, 5.0), 1.0, mass=v),
     "ModelParams.mass"),
    (lambda v: ad.GaussianMode(v, 5.0), "GaussianMode.amplitude"),
    (lambda v: ad.GaussianMode(1.0, v), "GaussianMode.width"),
    (lambda v: ad.StandingWaveMode(v, 1.0), "StandingWaveMode.amplitude"),
    (lambda v: ad.StandingWaveMode(1.0, v), "StandingWaveMode.wavenumber"),
    (lambda v: ad.LinearMode(v), "LinearMode.gradient"),
    (lambda v: ad.TabulatedMode(np.arange(4.0), np.array([0.0, v, 1.0, 0.0])),
     "TabulatedMode.samples"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_constructors_reject_non_finite_parameters(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build(value)


def test_params_guards():
    mode = ad.GaussianMode(1.0, 50.0)
    with pytest.raises(ValueError):
        ad.ModelParams(mode=mode, detuning=1.0, mass=0.0)
    with pytest.raises(ValueError):
        ad.ModelParams(mode=mode, detuning=1.0, photon_index=0)


def test_effective_coupling_scales_with_sqrt_photon_index():
    mode = ad.GaussianMode(2.0, 10.0)
    p = ad.ModelParams(mode=mode, detuning=1.0, photon_index=9)
    assert p.coupling(3.0) == pytest.approx(3.0 * mode.value(3.0), rel=1e-15)


# ---------------------------------------------------------------------------
# Mixing angle and eigenvalues
# ---------------------------------------------------------------------------

def test_mixing_angle_zero_coupling():
    p = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    assert ad.mixing_angle(p, 0.0) == 0.0


def test_mixing_angle_zero_detuning_limit():
    p = ad.ModelParams(mode=constant_mode(0.3), detuning=0.0)
    assert ad.mixing_angle(p, 0.0) == pytest.approx(np.pi / 4, rel=1e-14)


def test_mixing_angle_standing_wave_example():
    # substitute G = 1 into tan(2 theta) = 2 G / split with split = 2
    p = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=2.0)
    assert ad.mixing_angle(p, np.pi / 2) == pytest.approx(0.5 * math.atan(1.0),
                                                          rel=1e-14)


def test_mixing_angle_degenerate_point_flagged():
    p = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=0.0)
    with pytest.raises(DegeneratePointError,
                       match="^mixing angle undefined: coupling and level "
                             "splitting both vanish"):
        ad.mixing_angle(p, 0.0)


def test_adiabatic_eigenvalues_examples():
    mode0 = ad.GaussianMode(0.0, 50.0)
    p = ad.ModelParams(mode=mode0, detuning=1.0)
    up, dn = ad.adiabatic_eigenvalues(p, 2.0)
    assert (up, dn) == (0.5, -0.5)
    # case 2: eps into the eigenvalue formula
    p2 = ad.ModelParams(mode=mode0, detuning=1.0, frame_case=ad.FrameCase.CASE2)
    up2, dn2 = ad.adiabatic_eigenvalues(p2, 2.0)
    assert (up2, dn2) == (0.0, -1.0)
    # zero detuning: surfaces follow the mode shape, mean +- g sqrt(n)
    pg = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.0,
                        photon_index=4)
    xs = np.linspace(-80, 80, 9)
    upg, dng = ad.adiabatic_eigenvalues(pg, xs)
    np.testing.assert_allclose(upg, 2.0 * pg.mode.value(xs), rtol=1e-14)
    np.testing.assert_allclose(dng, -2.0 * pg.mode.value(xs), rtol=1e-14)


def test_angle_slope_examples():
    pg = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=3.0)
    assert _angle_derivatives(pg, 0.0)[0] == 0.0
    psw = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=2.0)
    # split sqrt(n) g' / (split^2 + 4 n g^2) = 2 * 1 / 4 at x = 0
    assert _angle_derivatives(psw, 0.0)[0] == pytest.approx(0.5, rel=1e-14)
    p0 = ad.ModelParams(mode=constant_mode(0.4), detuning=0.0)
    assert _angle_derivatives(p0, 1.0)[0] == 0.0


@pytest.mark.parametrize("params", [
    ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.7, photon_index=2),
    ad.ModelParams(mode=ad.StandingWaveMode(0.8, 0.4), detuning=-1.3),
])
def test_angle_derivatives_match_finite_differences(params):
    # offset keeps the stencils away from coupling nodes, where the angle
    # branch jumps for negative detuning
    xs = np.linspace(-30.0, 30.0, 13) + 1.234
    h = 1e-5
    slope_fd = (ad.mixing_angle(params, xs + h)
                - ad.mixing_angle(params, xs - h)) / (2 * h)
    slope, curvature = _angle_derivatives(params, xs)
    np.testing.assert_allclose(slope, slope_fd, rtol=1e-7, atol=1e-10)
    curv_fd = (_angle_derivatives(params, xs + h)[0]
               - _angle_derivatives(params, xs - h)[0]) / (2 * h)
    np.testing.assert_allclose(curvature, curv_fd, rtol=1e-6, atol=1e-10)


# ---------------------------------------------------------------------------
# Structural invariants of the diagonalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [ad.FrameCase.CASE1, ad.FrameCase.CASE2])
@pytest.mark.parametrize("detuning", [4.0, 0.3, -2.0])
def test_rotation_diagonalizes_potential(case, detuning):
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.2, 0.7),
                            detuning=detuning, photon_index=2, frame_case=case)
    xs = np.linspace(-9.0, 9.0, 101)
    theta = ad.mixing_angle(params, xs)
    up, dn = ad.adiabatic_eigenvalues(params, xs)
    eu, el = params.level_shifts
    for i, g in enumerate(params.coupling(xs)):
        u = rotation(theta[i])
        w = u @ np.array([[eu, g], [g, el]]) @ u.T
        assert abs(w[0, 1]) < 1e-12 and abs(w[1, 0]) < 1e-12
        assert w[0, 0] == pytest.approx(up[i], abs=1e-12)
        assert w[1, 1] == pytest.approx(dn[i], abs=1e-12)


def test_frame_identity_over_generated_inputs():
    # case1 and case2 differ only in the common offset of the surfaces: same
    # splitting, and the mixing angle diagonalizes the potential in both
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = ad.Grid(256, -40.0, 40.0)

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(params=generated_params(st))
    def check(params):
        frames = [ad.adiabatic_frame(replace(params, frame_case=case), grid)
                  for case in ad.FrameCase]
        split = frames[0].splitting
        assert np.all(np.abs(frames[1].splitting - split) <= 1e-12 * split)
        g = params.coupling(grid.x)
        for case, frame in zip(ad.FrameCase, frames):
            up, dn = replace(params, frame_case=case).level_shifts
            c, s = frame.cos_theta, frame.sin_theta
            # off-diagonal entry of U V U^T
            off = (c * c - s * s) * g + c * s * (dn - up)
            assert np.all(np.abs(off) <= 1e-12 * split)

    check()


def test_trace_preserved_and_ordering():
    params = ad.ModelParams(mode=ad.GaussianMode(3.0, 10.0), detuning=-0.8,
                            frame_case=ad.FrameCase.CASE2, photon_index=3)
    xs = np.linspace(-40, 40, 201)
    up, dn = ad.adiabatic_eigenvalues(params, xs)
    eu, el = params.level_shifts
    np.testing.assert_allclose(up + dn, eu + el, atol=1e-12)
    assert np.all(up >= dn)


def test_splitting_case_independent():
    mode = ad.GaussianMode(2.0, 15.0)
    xs = np.linspace(-60, 60, 10_000)
    for detuning in (5.0, 0.05):
        p1 = ad.ModelParams(mode=mode, detuning=detuning, photon_index=3)
        p2 = replace(p1, frame_case=ad.FrameCase.CASE2)
        u1, d1 = ad.adiabatic_eigenvalues(p1, xs)
        u2, d2 = ad.adiabatic_eigenvalues(p2, xs)
        np.testing.assert_allclose(u1 - d1, u2 - d2, atol=1e-12)


def test_large_detuning_asymptote():
    # |Delta_+ - (mean + split/2 + G^2/split)| <= 2 G^4 / |split|^3 pointwise
    mode = ad.GaussianMode(1.0, 50.0)
    g_max = mode.value(0.0)
    eps = np.finfo(float).eps
    for detuning in (50.0 * g_max, 200.0 * g_max, 5.0):
        params = ad.ModelParams(mode=mode, detuning=detuning)
        xs = np.linspace(-150, 150, 301)
        up, _ = ad.adiabatic_eigenvalues(params, xs)
        g = params.coupling(xs)
        approx = params.mean_shift + detuning / 2.0 + g**2 / detuning
        bound = 2.0 * g**4 / abs(detuning) ** 3
        # allow a few ulps of the surface itself on top of the analytic bound
        assert np.all(np.abs(up - approx) <= bound + 8.0 * eps * np.abs(up))


def test_adiabatic_frame_arrays_consistent():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.5, 0.5), detuning=1.0)
    grid = ad.Grid(512, -30.0, 30.0)
    frame = ad.adiabatic_frame(params, grid)
    np.testing.assert_allclose(frame.theta, ad.mixing_angle(params, grid.x))
    np.testing.assert_allclose(frame.upper - frame.lower, frame.splitting)
    # CASE1: the surfaces sit symmetrically about a zero mean shift
    np.testing.assert_allclose(frame.upper + frame.lower, 0.0, atol=1e-15)


def test_adiabatic_frame_caches_trig_and_splitting():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.5, 0.5), detuning=1.0)
    frame = ad.adiabatic_frame(params, ad.Grid(512, -30.0, 30.0))
    expected = {"cos_theta": np.cos(frame.theta),
                "sin_theta": np.sin(frame.theta),
                "splitting": frame.upper - frame.lower}
    for name, values in expected.items():
        assert isinstance(ad.AdiabaticFrame.__dict__[name], property)
        cached = getattr(frame, name)
        assert np.array_equal(cached, values)
        assert getattr(frame, name) is cached
        # shared by every caller, so neither rebindable nor writable
        with pytest.raises(AttributeError):
            setattr(frame, name, values)
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_adiabatic_frame_flags_degenerate_points_at_zero_detuning():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, np.pi / 8.0),
                            detuning=0.0)
    grid = ad.Grid(64, -8.0, 8.0)  # nodes at x = 0, +-8 land on grid points
    with pytest.raises(DegeneratePointError):
        ad.mixing_angle(params, grid.x)
    frame = ad.adiabatic_frame(params, grid)
    assert np.all(np.isfinite(frame.theta))
    # the analytic zero-detuning limit: slope vanishes away from the nodes too
    np.testing.assert_allclose(frame.theta_slope, 0.0, atol=1e-30)


def test_angle_curvature_at_zero_detuning_where_the_coupling_underflows():
    # for 19.3 < |x| < 27.3 a width-1 Gaussian coupling is positive, yet
    # den = 4 g^2 squares below the smallest double: the curvature read nan
    # (0/0) there, which turned every packet average of a zero-detuning run
    # into nan
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 1.0), detuning=0.0)
    x = np.linspace(19.5, 27.0, 16)
    with np.errstate(divide="raise", invalid="raise"):
        assert np.array_equal(_angle_derivatives(params, x)[1],
                              np.zeros_like(x))
    frame = ad.adiabatic_frame(params, ad.Grid(256, -40.0, 40.0))
    assert np.array_equal(frame.theta_curvature, np.zeros(256))


@pytest.mark.parametrize("detuning", [1e100, 1e300])
def test_angle_curvature_where_the_squared_denominator_overflows(detuning):
    # (split^2 + 4 n g^2)^2 overflows from a detuning of about 1.2e77, yet
    # theta'' ~ g''/split is a normal number up to 1e300: theta'' * split
    # keeps the values it has at a detuning of 1e60.  It read -0 (with
    # overflow warnings) from 1e78 and nan at 1e200
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=detuning)
    curvature = _angle_derivatives(params, np.array([-30.0, 0.0]))[1]
    np.testing.assert_allclose(curvature * detuning,
                               [-1.70610997e-06, -3.19153824e-06], rtol=1e-8)


def test_angle_derivatives_where_their_numerators_underflow():
    # at a detuning of 3.09e-262, on the tail of a width-1 Gaussian, the
    # numerators split g' and split [g'' D - 8 g g'^2] underflow while D^2
    # is still a normal number: theta' read 0 and theta'' -0.  Both are
    # scale-free, so detuning and amplitude scaled by 1e80 give their values
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 1.0), detuning=3.09e-262)
    big = replace(params, detuning=params.detuning * 1e80,
                  mode=ad.GaussianMode(1e80, 1.0))
    grid = ad.Grid(64, -20.0, 20.0)
    assert grid.x[2] == -18.75
    frame = ad.adiabatic_frame(params, grid)
    got = (frame.theta_slope[2], frame.theta_curvature[2])
    np.testing.assert_allclose(got, [7.95823192e-185, -1.49641288e-183],
                               rtol=1e-8)
    np.testing.assert_allclose(got, _angle_derivatives(big, grid.x[2]),
                               rtol=1e-12)


def test_angle_derivatives_are_scale_free_over_generated_inputs():
    # theta' and theta'' are homogeneous of degree 0 in (detuning,
    # coupling): scaling both by s leaves them unchanged.  At s = 1e80 the
    # square of D = split^2 + 4 n g^2 overflows, from 1e160 D itself.
    # theta'' is a difference of two terms, and where they cancel its
    # rounding is relative to their size, hence an absolute floor.  The
    # unscaled values are the reference, and detunings and amplitudes are
    # shrunk by up to 1e-300 apiece: on this grid's tails their numerators
    # then underflow or overflow where D^2 is still normal.  A value below
    # the smallest normal number holds fewer than 53 bits, and so do the
    # mode values of a tiny amplitude where they underflow: the first are
    # compared to within the smallest normal number, the second are no
    # reference and are left out
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = ad.Grid(64, -20.0, 20.0)
    tiny = st.sampled_from([1.0, 1e-10, 1e-100, 1e-200, 1e-300])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(params=generated_params(st), shrink=st.tuples(tiny, tiny),
                      scale=st.sampled_from([1e80, 1e160, 1e300]))
    def check(params, shrink, scale):
        params = replace(params, detuning=params.detuning * shrink[0],
                         mode=replace(params.mode,
                                      amplitude=params.mode.amplitude * shrink[1]))
        big = replace(params, detuning=params.detuning * scale,
                      mode=replace(params.mode,
                                   amplitude=params.mode.amplitude * scale))
        # a reference entry needs every mode value normal, or 0 at any scale
        kept = np.ones(grid.npoints, dtype=bool)
        for name in ("value", "slope", "curvature"):
            small, large = (getattr(p.mode, name)(grid.x) for p in (params, big))
            kept &= (np.abs(small) >= _SMALLEST_NORMAL) | (large == 0.0)
        frames = [ad.adiabatic_frame(p, grid) for p in (params, big)]
        for want, got in [(_angle_derivatives(params, grid.x),
                           _angle_derivatives(big, grid.x)),
                          ((frames[0].theta_slope, frames[0].theta_curvature),
                           (frames[1].theta_slope, frames[1].theta_curvature))]:
            np.testing.assert_allclose(got[0][kept], want[0][kept], rtol=1e-12,
                                       atol=_SMALLEST_NORMAL)
            floor = max(1e-12 * np.abs(want[1][kept]).max(initial=0.0),
                        _SMALLEST_NORMAL)
            np.testing.assert_allclose(got[1][kept], want[1][kept], rtol=1e-12,
                                       atol=floor)

    check()
