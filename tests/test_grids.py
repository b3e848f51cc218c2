import numpy as np
import pytest
import scipy.fft as sfft

import adiabatica as ad

from conftest import (constant_mode, generated_packet, generated_params,
                      l2_distance)


def random_field(grid, seed=7, frame=ad.BARE):
    rng = np.random.default_rng(seed)
    comps = rng.normal(size=(2, grid.npoints)) + 1j * rng.normal(size=(2, grid.npoints))
    envelope = np.exp(-((grid.x - 0.2 * grid.x_max) / (0.1 * (grid.x_max - grid.x_min))) ** 2)
    comps *= envelope
    field = ad.SpinorField(grid, comps, frame)
    field.components /= field.norm()
    return field


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def test_grid_spacings():
    grid = ad.Grid(512, -100.0, 100.0)
    assert grid.dx == pytest.approx(200.0 / 512)
    assert grid.dk == pytest.approx(2 * np.pi / 200.0)
    assert grid.x[0] == -100.0
    assert grid.x[-1] == pytest.approx(100.0 - grid.dx)
    assert grid.k_max == pytest.approx(np.pi / grid.dx)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ad.Grid(1000, -1.0, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        ad.Grid(256, 2.0, -2.0)


def test_fourier_round_trip_identity(small_grid):
    field = random_field(small_grid)
    back = sfft.ifft(sfft.fft(field.components, axis=1), axis=1)
    assert np.max(np.abs(back - field.components)) < 1e-12


def test_parseval(small_grid):
    field = random_field(small_grid)
    pos_norm = field.norm_sq()
    spec = np.abs(sfft.fft(field.components, axis=1)) ** 2
    mom_norm = float(np.sum(spec)) * small_grid.dx / small_grid.npoints
    assert abs(pos_norm - mom_norm) < 1e-10


# ---------------------------------------------------------------------------
# Gaussian bare state
# ---------------------------------------------------------------------------

def test_gaussian_state_normalized():
    grid = ad.Grid(2048, -300.0, 300.0)
    psi = ad.gaussian_bare_state(grid, -200.0, 5.0, 10.0)
    assert abs(psi.norm_sq() - 1.0) < 1e-10
    assert np.all(psi.lower == 0.0)


def test_gaussian_state_moments():
    grid = ad.Grid(2048, -300.0, 300.0)
    x0, p0, width = -200.0, 5.0, 10.0
    psi = ad.gaussian_bare_state(grid, x0, p0, width)
    x_mean = ad.expect_position(psi, component=0)
    p_mean = ad.expect_momentum(psi, component=0)
    assert abs(x_mean - x0) < 1e-8
    assert abs(p_mean - p0) < 1e-8
    # <p^2> = p0^2 + 1 / (2 width^2) for this envelope convention
    p2 = ad.grids._expect_spectrum(psi, grid.k**2, 0)
    assert p2 == pytest.approx(p0**2 + 1.0 / (2.0 * width**2), abs=1e-8)
    assert ad.packet_width(psi) == pytest.approx(width, abs=1e-8)
    assert ad.mean_position(psi) == pytest.approx(x0, abs=1e-8)
    assert ad.mean_momentum(psi) == pytest.approx(p0, abs=1e-8)


def test_gaussian_state_guards():
    grid = ad.Grid(256, -40.0, 40.0)
    with pytest.raises(ValueError):
        ad.gaussian_bare_state(grid, 0.0, 1.0, -3.0)
    with pytest.raises(ValueError):
        ad.gaussian_bare_state(grid, -35.0, 1.0, 5.0)  # too close to the edge
    with pytest.raises(ValueError):
        # momentum cutoff pi/dx ~ 10 cannot carry p0 = 50
        ad.gaussian_bare_state(grid, 0.0, 50.0, 5.0)


# ---------------------------------------------------------------------------
# Frame rotations
# ---------------------------------------------------------------------------

def test_to_adiabatic_identity_when_angle_vanishes(small_grid):
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    field = random_field(small_grid)
    rotated = ad.to_adiabatic(field, frame)
    assert l2_distance(
        ad.SpinorField(small_grid, rotated.components, ad.BARE), field) < 1e-14


def test_rotation_round_trip(small_grid):
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 0.5), detuning=0.7)
    frame = ad.adiabatic_frame(params, small_grid)
    field = random_field(small_grid)
    back = ad.to_bare(ad.to_adiabatic(field, frame), frame)
    assert l2_distance(back, field) < 1e-12
    assert abs(back.norm_sq() - field.norm_sq()) < 1e-12


def test_rotation_round_trip_over_generated_inputs():
    # to_bare undoes to_adiabatic over generated modes, detunings and packets,
    # with both bare components populated
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid = ad.Grid(256, -40.0, 40.0)

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(params=generated_params(st),
                      upper=generated_packet(st, grid),
                      lower=generated_packet(st, grid),
                      lower_amplitude=st.complex_numbers(max_magnitude=2.0))
    def check(params, upper, lower, lower_amplitude):
        psi = ad.SpinorField(grid, np.stack([upper.upper,
                                             lower_amplitude * lower.upper]),
                             ad.BARE)
        frame = ad.adiabatic_frame(params, grid)
        back = ad.to_bare(ad.to_adiabatic(psi, frame), frame)
        assert back.frame == ad.BARE
        assert l2_distance(back, psi) <= 1e-13 * psi.norm()

    check()


def test_rotation_quarter_angle(small_grid):
    # constant coupling at zero detuning pins the angle at pi/4
    params = ad.ModelParams(mode=constant_mode(0.3, half_span=50.0), detuning=0.0)
    frame = ad.adiabatic_frame(params, small_grid)
    psi = ad.gaussian_bare_state(small_grid, 0.0, 1.0, 3.0)
    rotated = ad.to_adiabatic(psi, frame)
    c = np.cos(np.pi / 4)
    np.testing.assert_allclose(rotated.upper, c * psi.upper, atol=1e-12)
    np.testing.assert_allclose(rotated.lower, -c * psi.upper, atol=1e-12)


def test_rotation_frame_tag_checks(small_grid):
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 5.0), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    field = random_field(small_grid)
    with pytest.raises(ValueError):
        ad.to_bare(field, frame)  # bare field into the inverse rotation
    rotated = ad.to_adiabatic(field, frame)
    with pytest.raises(ValueError):
        ad.to_adiabatic(rotated, frame)
    other = ad.Grid(small_grid.npoints, -50.0, 50.0)
    with pytest.raises(ValueError):
        ad.to_adiabatic(random_field(other), frame)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def test_expectations_constant_splitting():
    grid = ad.Grid(512, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=-1.5)
    frame = ad.adiabatic_frame(params, grid)
    psi = ad.gaussian_bare_state(grid, 0.0, 2.0, 4.0)
    psi.components[1] = psi.components[0]  # populate both components
    psi.components /= psi.norm()
    up = ad.expect_grid_values(psi, frame.upper)
    dn = ad.expect_grid_values(psi, frame.lower)
    np.testing.assert_allclose(up - dn, abs(params.detuning), atol=1e-12)


def test_expectations_per_component(small_grid):
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.4, 0.5), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    psi = ad.gaussian_bare_state(small_grid, 0.0, 2.0, 3.0)
    psi.components[1] = psi.components[0] / 2.0
    assert ad.expect_position(psi)[0] == pytest.approx(0.0, abs=1e-8)
    assert ad.expect_momentum(psi)[1] == pytest.approx(2.0, abs=1e-8)
    coup = ad.expect_grid_values(psi, frame.coupling)
    assert coup.shape == (2,) and np.all(np.isfinite(coup))


def test_slope_momentum_product_is_complex_and_order_sensitive(small_grid):
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.4, 0.5), detuning=1.0)
    frame = ad.adiabatic_frame(params, small_grid)
    # off the symmetry point so <d2 theta/dx2> does not vanish
    psi = ad.gaussian_bare_state(small_grid, 2.0, 2.0, 3.0)
    psi.components[1] = psi.components[0]
    psi.components /= psi.norm()
    val = ad.expect_slope_momentum(psi, frame.theta_slope)
    assert val.dtype == np.complex128
    # the symmetrized combination (val + <p f>) would be real; as written the
    # product keeps an imaginary part of order <f'>/2
    assert abs(val[0].imag) > 1e-6


def test_expectation_zero_population_errors(small_grid):
    psi = ad.gaussian_bare_state(small_grid, 0.0, 1.0, 3.0)  # lower empty
    with pytest.raises(ValueError):
        ad.expect_position(psi)
    with pytest.raises(ValueError):
        ad.expect_momentum(psi)


def test_hermitian_expectations_real(small_grid):
    field = random_field(small_grid)
    assert np.all(np.isreal(ad.expect_position(field)))
    assert np.all(np.isreal(ad.expect_momentum(field)))
    assert np.all(np.isreal(ad.grids._expect_spectrum(field, small_grid.k**2,
                                                      None)))


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------

def test_snapshot_csv_round_trip(tmp_path, small_grid):
    from adiabatica.experiments import write_csv
    psi = ad.gaussian_bare_state(small_grid, 0.0, 1.0, 3.0)
    header = ["x", "re_upper", "im_upper", "re_lower", "im_lower"]
    columns = [small_grid.x, psi.upper.real, psi.upper.imag,
               psi.lower.real, psi.lower.imag]
    path = write_csv(tmp_path / "state.csv", "# state", header, columns)
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    assert data.shape == (small_grid.npoints, 5)
    np.testing.assert_allclose(data[:, 0], small_grid.x)
    np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], psi.upper, atol=1e-15)
    np.testing.assert_allclose(data[:, 3], 0.0)
