import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adiabatica as ad
from adiabatica.config import load_config
from adiabatica.model import _angle_derivatives

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_run(params, grid=None, x0=-20.0, p0=3.0, width=3.0, t_final=2.0):
    grid = grid or ad.Grid(512, -60.0, 60.0)
    psi = ad.gaussian_bare_state(grid, x0, p0, width)
    sc = ad.Scenario(params=params, grid=grid, initial=psi, t_final=t_final,
                     dt=0.01, stride=40)
    return ad.run_scenario(sc)


# ---------------------------------------------------------------------------
# Pointwise parameter
# ---------------------------------------------------------------------------

def test_local_adiabaticity_gaussian_center_vanishes():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.7)
    assert ad.local_adiabaticity(params, 0.0, p0=10.0) == 0.0


def test_local_adiabaticity_linear_mode_value():
    # |p0 C / (m delta^2)| at the node of g = C x
    params = ad.ModelParams(mode=ad.LinearMode(0.3), detuning=0.5)
    assert ad.local_adiabaticity(params, 0.0, p0=2.0) == pytest.approx(
        2.0 * 0.3 / 0.25, rel=1e-12)


def test_local_adiabaticity_large_detuning_limit():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=40.0,
                            photon_index=2)
    xs = np.linspace(-120, 120, 41)
    full = ad.local_adiabaticity(params, xs, p0=10.0)
    simple = np.abs(10.0 * math.sqrt(2) * params.mode.slope(xs) / 40.0**2)
    np.testing.assert_allclose(full, simple, rtol=2e-4)


def test_local_adiabaticity_singularity_tagged():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=0.0)
    assert ad.local_adiabaticity(params, 0.0, p0=1.0) == np.inf
    vals = ad.local_adiabaticity(params, np.array([0.0, 0.5]), p0=1.0)
    assert vals[0] == np.inf and np.isfinite(vals[1])


def test_local_adiabaticity_sign_and_scaling_invariances():
    xs = np.linspace(-80, 80, 33)
    base = ad.ModelParams(mode=ad.GaussianMode(2.0, 40.0), detuning=0.8)
    flipped = replace(base, detuning=-0.8)
    np.testing.assert_allclose(ad.local_adiabaticity(base, xs, 5.0),
                               ad.local_adiabaticity(flipped, xs, 5.0),
                               rtol=1e-14)
    # n -> 4n with g -> g/2 leaves G = g sqrt(n) and the parameter unchanged
    rescaled = ad.ModelParams(mode=ad.GaussianMode(1.0, 40.0), detuning=0.8,
                              photon_index=4)
    np.testing.assert_allclose(ad.local_adiabaticity(base, xs, 5.0),
                               ad.local_adiabaticity(rescaled, xs, 5.0),
                               rtol=1e-12)


def test_local_adiabaticity_even_in_x_for_gaussian():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.3)
    xs = np.linspace(1.0, 150.0, 40)
    np.testing.assert_allclose(ad.local_adiabaticity(params, xs, 4.0),
                               ad.local_adiabaticity(params, -xs, 4.0),
                               rtol=1e-13)


def test_local_adiabaticity_decreases_with_amplitude_in_strong_coupling():
    # fixed x != 0 and small detuning: larger coupling is more adiabatic
    xs = 30.0
    values = [ad.local_adiabaticity(
        ad.ModelParams(mode=ad.GaussianMode(a, 50.0), detuning=1e-3), xs, 5.0)
        for a in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_local_adiabaticity_curvature_variant_consistency():
    # without curvature the two expressions are algebraically identical
    params = ad.ModelParams(mode=ad.GaussianMode(1.5, 30.0), detuning=1.1,
                            photon_index=2)
    xs = np.linspace(-60, 60, 21)
    plain = ad.local_adiabaticity(params, xs, 4.0)
    slope, curv = _angle_derivatives(params, xs)
    split = np.sqrt(1.1**2 + 4.0 * params.coupling(xs) ** 2)
    np.testing.assert_allclose(plain, np.abs(2.0 * 4.0 * slope) / (2.0 * split),
                               rtol=1e-12)
    curved = ad.local_adiabaticity(params, xs, 4.0, include_curvature=True)
    np.testing.assert_allclose(curved,
                               np.abs(2.0 * 4.0 * slope + curv) / (2.0 * split),
                               rtol=1e-12)


@pytest.mark.parametrize("mass", [1.0, 2.0, 5.0])
def test_pointwise_parameter_is_the_narrow_packet_limit_at_any_mass(mass):
    # a narrow packet in the upper adiabatic channel: its averaged parameter
    # approaches the pointwise one, with and without the curvature term,
    # which both carry the same 1/m
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=0.3,
                            mass=mass)
    grid = ad.Grid(8192, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    envelope = ad.gaussian_bare_state(grid, 4.0, 3.0, 0.15).upper
    reference = ad.SpinorField(
        grid, np.stack([envelope, np.zeros_like(envelope)]), ad.ADIABATIC)
    for curved in (False, True):
        averaged = ad.packet_adiabaticity(reference, frame, params, (1.0, 0.0),
                                          include_curvature=curved)
        pointwise = ad.local_adiabaticity(params, 4.0, 3.0,
                                          include_curvature=curved)
        assert pointwise == pytest.approx(averaged, rel=1e-3)


def test_local_adiabaticity_takes_a_momentum_per_point():
    params = ad.ModelParams(mode=ad.GaussianMode(1.5, 30.0), detuning=1.1)
    xs = np.linspace(-60, 60, 7)
    momenta = np.linspace(1.0, 4.0, 7)
    for curved in (False, True):
        got = ad.local_adiabaticity(params, xs, momenta,
                                    include_curvature=curved)
        want = [ad.local_adiabaticity(params, x, p, include_curvature=curved)
                for x, p in zip(xs, momenta)]
        assert np.array_equal(got, want)


def test_local_adiabaticity_at_a_scalar_reads_the_bits_of_the_array():
    # max-locus evaluates scalars in its golden-section search and writes
    # them; a float64 scalar's ** rounds differently from the array power
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.3)
    xs = np.linspace(0.5, 300.0, 401)
    for curved in (False, True):
        values = ad.local_adiabaticity(params, xs, 10.0,
                                       include_curvature=curved)
        assert np.array_equal(values, [ad.local_adiabaticity(
            params, x, 10.0, include_curvature=curved) for x in xs])


@pytest.mark.parametrize("curved, p0", [(False, 1e20), (True, 1e-2)])
@pytest.mark.parametrize("amplitude, detuning", [(1.0, 1e5), (100.0, 1.0)])
def test_local_adiabaticity_where_its_terms_overflow(curved, p0, amplitude,
                                                     detuning):
    # the parameter is homogeneous of degree -1 in (split, g); scaled by
    # 1e150, the squared gap and the numerator overflow, the direct form
    # reads nan everywhere, and the gap-free form must give the scaled values
    xs = np.linspace(-150, 150, 31)
    small = ad.ModelParams(mode=ad.GaussianMode(amplitude, 50.0),
                           detuning=detuning, photon_index=2)
    large = ad.ModelParams(mode=ad.GaussianMode(amplitude * 1e150, 50.0),
                           detuning=detuning * 1e150, photon_index=2)
    want = ad.local_adiabaticity(small, xs, p0, include_curvature=curved)
    got = ad.local_adiabaticity(large, xs, p0, include_curvature=curved)
    assert got.max() > 0.0
    np.testing.assert_allclose(got, want / 1e150, rtol=1e-13, atol=0.0)


def test_local_adiabaticity_where_its_numerator_is_subnormal():
    # at detuning 1e-310 the plain numerator p0/m split sqrt(n) g' on the
    # tails is subnormal while the gap cubed is a normal number; the value
    # is linear in the detuning there, so it must equal the value at 1e-290
    # scaled by 1e-20 (the direct form lost digits: 1.7e-4 at x = 7).  At
    # the centre g' is 0 and the value an exact 0
    xs = np.array([0.0, 6.5, 7.0])
    tiny, small = (ad.ModelParams(mode=ad.GaussianMode(1.0, 1.0), detuning=d)
                   for d in (1e-310, 1e-290))
    got = ad.local_adiabaticity(tiny, xs, 1.0)
    want = ad.local_adiabaticity(small, xs, 1.0) * 1e-20
    assert got[0] == 0.0 and got[1:].min() > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Packet-averaged parameter
# ---------------------------------------------------------------------------

def test_packet_adiabaticity_vanishes_without_coupling():
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, 0.0, 2.0, 4.0)
    reference = ad.to_adiabatic(psi, frame)
    weights = ad.initial_channel_weights(reference)
    assert ad.packet_adiabaticity(reference, frame, params, weights) == 0.0


def test_packet_adiabaticity_skips_empty_channel():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.2, 0.5), detuning=1.0)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, 0.0, 2.0, 4.0)
    reference = ad.to_adiabatic(psi, frame)
    parts = ad.adiabaticity_parts(reference, frame, params, (1.0, 0.0))
    assert parts.active.tolist() == [True, False]
    assert np.isnan(parts.channel_terms()[1])
    assert np.isfinite(parts.total())


def test_packet_adiabaticity_flags_collapsed_splitting():
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=0.0)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, 0.0, 2.0, 4.0)
    reference = ad.to_adiabatic(psi, frame)
    with pytest.raises(ValueError):
        ad.packet_adiabaticity(reference, frame, params, (1.0, 0.0))


@pytest.mark.parametrize("scale", [1e80, 1e160])
def test_packet_adiabaticity_scales_inversely_where_the_frame_overflows(scale):
    # theta' and theta'' are homogeneous of degree 0 in (detuning, coupling)
    # and the surface splitting of degree 1, so scaling both by s divides
    # the averaged parameter by s, curvature term included.  At these scales
    # (split^2 + 4 n g^2)^2 overflows, and the curvature term read nan
    grid = ad.Grid(256, -40.0, 40.0)

    def scaled(s):
        params = ad.ModelParams(mode=ad.GaussianMode(s, 10.0), detuning=0.5 * s)
        frame = ad.adiabatic_frame(params, grid)
        reference = ad.to_adiabatic(
            ad.gaussian_bare_state(grid, -10.0, 2.0, 3.0), frame)
        weights = ad.initial_channel_weights(reference)
        return ad.packet_adiabaticity(reference, frame, params, weights) * s

    assert scaled(scale) == pytest.approx(scaled(1.0), rel=1e-12)


def _channel_terms_loop(parts, include_curvature):
    """Per-channel scalar form of AdiabaticityParts.channel_terms for one
    sample, kept as the reference for the batched method."""
    terms = np.full(2, np.nan)
    for ch in range(2):
        if not parts.active[ch]:
            continue
        den = abs(parts.splittings[ch])
        if den < ad.diagnostics.SPLITTING_FLOOR:
            raise ValueError("collapsed")
        num = parts.slope_averages[ch]
        if include_curvature:
            num = num + parts.curvature_averages[ch]
        terms[ch] = abs(num) / den / (2.0 * parts.mass)
    return terms


@pytest.mark.parametrize("active", [(True, True), (True, False), (False, True)])
def test_channel_terms_batch_matches_scalar_loop(active):
    # the modulus must be the scalar abs of each average: np.abs over a
    # complex array rounds differently in the last bit for about a third of
    # these values
    rng = np.random.default_rng(7)
    shape = (50, 2)
    active = np.array(active)
    slope = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    curvature = rng.normal(size=shape)
    splittings = rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1, 1], shape)
    slope[:, ~active] = curvature[:, ~active] = splittings[:, ~active] = np.nan
    weights = np.where(active, 1.0 / active.sum(), 0.0)
    batch = ad.AdiabaticityParts(slope, curvature, splittings, weights, 1.7,
                                 active)
    for include_curvature in (True, False):
        got = batch.channel_terms(include_curvature)
        assert got.shape == shape
        for i in range(shape[0]):
            one = ad.AdiabaticityParts(slope[i], curvature[i], splittings[i],
                                       weights, 1.7, active)
            want = _channel_terms_loop(one, include_curvature)
            assert np.array_equal(got[i], want, equal_nan=True)
            assert np.array_equal(one.channel_terms(include_curvature), want,
                                  equal_nan=True)
    # one collapsed active splitting anywhere in the batch raises
    splittings[17, np.flatnonzero(active)[0]] = 1e-13
    with pytest.raises(ValueError, match="collapsed"):
        batch.channel_terms()


def _modulus_loop(values):
    """The scalar abs of each element: the reference _modulus must match."""
    return np.array([abs(z) for z in values.flat]).reshape(values.shape)


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_modulus_matches_the_scalar_abs_loop():
    rng = np.random.default_rng(11)
    n = 20000
    normal = rng.normal(size=(n, 2))
    scaled = normal * 10.0 ** rng.uniform(-300, 300, size=(n, 2))
    bits = rng.integers(0, 2**64, size=(n, 2), dtype=np.uint64).view(np.float64)
    for parts in (normal, scaled, bits):
        values = parts.view(np.complex128).reshape(100, -1)
        # the bit patterns hold signalling NaNs, which np.hypot reports as
        # invalid; arithmetic makes only quiet ones
        with np.errstate(invalid="ignore"):
            got = ad.diagnostics._modulus(values)
        assert got.shape == values.shape and got.dtype == np.float64
        _assert_same_bits(got, _modulus_loop(values))
    # every pair of special values; max + i max overflows, and only the
    # vectorised form warns about it
    tiny, big = np.finfo(float).smallest_normal, np.finfo(float).max
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         tiny, big, -big, 1.0, 3.0, 1e160, 1e-160])
    re, im = np.meshgrid(specials, specials)
    values = np.stack([re, im], axis=-1).view(np.complex128)[..., 0]
    assert values.size == 196
    with np.errstate(over="ignore"):
        got = ad.diagnostics._modulus(values)
    _assert_same_bits(got, _modulus_loop(values))


def test_initial_channel_weights_sum_to_one():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.5, 0.3), detuning=0.4)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 4.0)
    weights = ad.initial_channel_weights(ad.to_adiabatic(psi, frame))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights >= 0.0)


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def test_fidelity_initial_overlap_is_one():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.5, 0.3), detuning=0.4)
    grid = ad.Grid(512, -60.0, 60.0)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, -10.0, 2.0, 4.0)
    reference = ad.to_adiabatic(psi, frame)
    overlap = ad.fidelity(psi, reference, frame)
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_fidelity_grid_and_frame_checks():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    g1 = ad.Grid(256, -40.0, 40.0)
    g2 = ad.Grid(256, -50.0, 50.0)
    frame = ad.adiabatic_frame(params, g1)
    psi1 = ad.gaussian_bare_state(g1, 0.0, 1.0, 3.0)
    psi2 = ad.gaussian_bare_state(g2, 0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        ad.fidelity(psi1, psi2, frame)  # grid mismatch
    with pytest.raises(ValueError):
        ad.fidelity(psi1, psi1, frame)  # reference not adiabatic


def test_run_record_invariants():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.4, 0.5), detuning=0.8)
    rec = small_run(params)
    assert np.all(rec.fidelity_magnitude <= 1.0 + 1e-9)
    assert abs(rec.fidelity[0] - 1.0) < 1e-9
    assert rec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(rec.adiabaticity >= 0.0)
    # the total is the weighted per-channel terms
    terms = rec.adiabaticity_terms
    combined = (rec.weights[0] * np.nan_to_num(terms[0])
                + rec.weights[1] * np.nan_to_num(terms[1]))
    np.testing.assert_allclose(combined, rec.adiabaticity, rtol=1e-12)


# ---------------------------------------------------------------------------
# Maximum locus
# ---------------------------------------------------------------------------

def test_max_locus_large_detuning_sits_at_mode_width():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=5.0)
    locus = ad.adiabaticity_max_locus(params, [5.0], 10.0, window=(0.5, 300.0))
    assert locus.shape == (1, 3)
    assert locus[0, 1] == pytest.approx(50.0, abs=0.1)


def test_max_locus_value_column_is_the_parameter_at_the_locus():
    # fig2's config: the third column is the pointwise parameter at the
    # row's detuning and x_max, bit for bit
    config = load_config(CONFIGS / "fig2_max_locus.json")
    p0 = config.state.p0
    locus = ad.adiabaticity_max_locus(
        config.base_params, config.detunings, p0,
        (config.search.x_lo, config.search.x_hi), config.search.scan_points)
    assert locus.shape == (config.detunings.size, 3)
    assert np.array_equal(locus[:, 0], config.detunings)
    for d, x_max, value in locus:
        local = replace(config.base_params, detuning=float(d))
        assert value == ad.local_adiabaticity(local, x_max, p0)


def test_max_locus_reads_a_one_shot_iterable():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=1.0)
    deltas = [1.0, 2.0, 3.0]
    want = ad.adiabaticity_max_locus(params, deltas, 10.0, window=(0.5, 300.0))
    got = ad.adiabaticity_max_locus(params, iter(deltas), 10.0,
                                    window=(0.5, 300.0))
    assert np.array_equal(got, want)


def test_max_locus_flat_profile_rejected():
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    with pytest.raises(ValueError):
        ad.adiabaticity_max_locus(params, [1.0], 10.0, window=(0.5, 300.0))


def test_max_locus_singular_window():
    # the gap sqrt(delta^2 + 4 G^2) falls below SPLITTING_FLOOR where the
    # Gaussian's tail is under 1e-12: a window singular there in part
    # brackets the inf as its peak; one that reads inf everywhere is an error
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=1e-13)
    locus = ad.adiabaticity_max_locus(params, [1e-13], 10.0,
                                      window=(0.5, 600.0), scan_points=16)
    assert locus[0, 2] == math.inf
    faint = replace(params, mode=ad.GaussianMode(1e-20, 50.0))
    with pytest.raises(ValueError, match=r"is inf at every scan point at "
                       r"detuning 1e-13: the gap .* is at most 1e-13, below "
                       r"1e-12$"):
        ad.adiabaticity_max_locus(faint, [1e-13], 10.0, window=(0.5, 600.0))
    # a gap of 1e-5 everywhere, but |theta'| / gap ~ 1e310 overflows
    steep = ad.ModelParams(mode=ad.LinearMode(1e300), detuning=1e-5)
    with pytest.raises(ValueError, match=r"is inf at every scan point at "
                       r"detuning 1e-05: it is singular or overflows there$"):
        ad.adiabaticity_max_locus(steep, [1e-5], 1.0, window=(0.0, 1e-310))


def test_max_locus_window_validation():
    params = ad.ModelParams(mode=ad.LinearMode(1.0), detuning=1.0)
    with pytest.raises(ValueError):
        ad.adiabaticity_max_locus(params, [1.0], 10.0, window=(5.0, 1.0))


# ---------------------------------------------------------------------------
# Peak-area identity
# ---------------------------------------------------------------------------

def test_lorentzian_peak_integral_value_and_c_independence():
    # analytic value |p0 / (m delta)| = 4 for p0 = 2, delta = 0.5
    numerics = []
    for gradient in (0.5, 1.0, 2.0):
        params = ad.ModelParams(mode=ad.LinearMode(gradient), detuning=0.5)
        numeric, analytic = ad.lorentzian_peak_integral(params, p0=2.0)
        assert analytic == 4.0
        assert abs(numeric - analytic) <= 0.01 * analytic
        numerics.append(numeric)
    assert max(numerics) - min(numerics) < 1e-6


def test_lorentzian_peak_integral_standing_wave_mapping():
    # standing wave maps to the linear model with gradient q A at the node
    psw = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=2.0)
    plin = ad.ModelParams(mode=ad.LinearMode(1.0), detuning=2.0)
    nsw, asw = ad.lorentzian_peak_integral(psw, p0=3.0)
    nlin, alin = ad.lorentzian_peak_integral(plin, p0=3.0)
    assert asw == alin
    assert nsw == pytest.approx(nlin, rel=1e-12)


def test_lorentzian_peak_integral_guards():
    params = ad.ModelParams(mode=ad.LinearMode(1.0), detuning=0.0)
    with pytest.raises(ValueError):
        ad.lorentzian_peak_integral(params, p0=1.0)
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    with pytest.raises(ValueError):
        ad.lorentzian_peak_integral(params, p0=1.0)
    # a zero slope at the node raised ZeroDivisionError
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.0, 1.0), detuning=0.5)
    with pytest.raises(ValueError, match="nonzero coupling slope"):
        ad.lorentzian_peak_integral(params, p0=1.0)


# ---------------------------------------------------------------------------
# Order-of-limits probe
# ---------------------------------------------------------------------------

def test_node_limit_probe_exponents_and_divergence():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 0.1), detuning=1.0)
    report = ad.node_limit_probe(params, p0=5.0)
    assert abs(report.off_node_exponent - 1.0) < 0.1
    assert abs(report.node_exponent + 2.0) < 0.02
    # at the smallest default detuning the node diverges against off-node
    smallest = replace(params, detuning=1e-5)
    ratio = (ad.local_adiabaticity(smallest, report.node_position, 5.0)
             / ad.local_adiabaticity(smallest, report.off_node_position, 5.0))
    assert ratio > 1e3


def test_node_limit_probe_requires_standing_wave():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    with pytest.raises(ValueError):
        ad.node_limit_probe(params, p0=1.0)


# ---------------------------------------------------------------------------
# Argument guards of the library
# ---------------------------------------------------------------------------

_GRID = ad.Grid(64, -10.0, 10.0)
_OTHER_GRID = ad.Grid(32, -10.0, 10.0)
_PARAMS = ad.ModelParams(mode=ad.GaussianMode(1.0, 3.0), detuning=1.0)
_EMPTY = np.zeros((2, _GRID.npoints))


def _packet(grid=_GRID):
    return ad.gaussian_bare_state(grid, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ad.adiabaticity_parts(_packet(), ad.adiabatic_frame(_PARAMS, _GRID),
                                   _PARAMS, [1.0, 0.0]),
     "adiabaticity averages need the adiabatic-frame channels"),
    (lambda: ad.initial_channel_weights(ad.SpinorField(_GRID, _EMPTY, ad.ADIABATIC)),
     "cannot take channel weights of an empty field"),
    (lambda: ad.fidelity(_packet(_OTHER_GRID),
                         ad.SpinorField(_GRID, _EMPTY, ad.ADIABATIC),
                         ad.adiabatic_frame(_PARAMS, _GRID)),
     "fidelity operands live on different grids"),
    (lambda: ad.SpinorField(_GRID, np.zeros((2, 3)), ad.BARE),
     "SpinorField.components must have shape (2, npoints)"),
    (lambda: ad.SpinorField(_GRID, _EMPTY, "rotated"),
     "unknown frame tag 'rotated'"),
    (lambda: ad.grids.mean_position(ad.SpinorField(_GRID, _EMPTY, ad.BARE)),
     "mean_position of an empty or non-finite field"),
    (lambda: ad.TabulatedMode(np.arange(3.0), np.zeros(3)),
     "TabulatedMode needs at least 4 sample positions"),
    (lambda: ad.TabulatedMode(np.arange(4.0), np.zeros(5)),
     "TabulatedMode positions and samples must match in length"),
    (lambda: ad.coupling_from_adiabaticity([0.0, 1.0], [0.0, 0.0], 1.0),
     "need matching 1-d arrays with at least 3 samples"),
    (lambda: ad.FullPropagator(_PARAMS, _GRID, 0.01).advance(_packet(_OTHER_GRID), 1),
     "field grid does not match propagator grid"),
    (lambda: ad.lorentzian_peak_integral(
        ad.ModelParams(mode=ad.LinearMode(0.0), detuning=0.5), p0=1.0),
     "peak integral needs a nonzero coupling slope at the node"),
])
def test_library_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
