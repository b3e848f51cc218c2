import numpy as np
import pytest

import adiabatica as ad

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    hypothesis = None
else:
    # every run draws the same examples, so two runs pass the same tests,
    # and no example database is kept
    hypothesis.settings.register_profile(
        "deterministic", derandomize=True, database=None, print_blob=True)
    hypothesis.settings.load_profile("deterministic")


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_storage(tmp_path_factory):
    """Hypothesis also caches the constants it reads from the sources, in
    ./.hypothesis by default; keep that out of the checkout."""
    if hypothesis is not None:
        from hypothesis.configuration import set_hypothesis_home_dir
        set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def gaussian_params():
    """Gaussian mode A=1, a=50 at moderate detuning; the workhorse setup."""
    return ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=10.0)


@pytest.fixture
def standing_params():
    return ad.ModelParams(mode=ad.StandingWaveMode(1.0, 1.0), detuning=2.0)


@pytest.fixture
def small_grid():
    return ad.Grid(256, -40.0, 40.0)


def constant_mode(value, half_span=2000.0, points=64):
    """Tabulated mode with a constant coupling (spectral derivatives vanish)."""
    xs = np.linspace(-half_span, half_span, points, endpoint=False)
    return ad.TabulatedMode(xs, np.full(points, value))


def l2_distance(a: ad.SpinorField, b: ad.SpinorField) -> float:
    return float(np.sqrt(np.sum(np.abs(a.components - b.components) ** 2) * a.grid.dx))


def generated_params(st):
    """hypothesis strategy: ModelParams over Gaussian and standing-wave modes,
    signed detunings (zero included), photon indices and both frame cases."""
    modes = st.one_of(
        st.builds(ad.GaussianMode, st.floats(0.0, 20.0), st.floats(1.0, 100.0)),
        st.builds(ad.StandingWaveMode, st.floats(0.0, 5.0),
                  st.floats(0.05, 3.0)))
    return st.builds(ad.ModelParams, mode=modes,
                     detuning=st.floats(-20.0, 20.0),
                     photon_index=st.integers(1, 4),
                     frame_case=st.sampled_from(list(ad.FrameCase)))


def generated_packet(st, grid):
    """hypothesis strategy: a Gaussian packet (upper bare component) that
    `grid` holds and resolves; grid is Grid(256, -40, 40) or wider."""
    return st.builds(lambda x0, p0, width: ad.gaussian_bare_state(
                         grid, x0, p0, width),
                     st.floats(-15.0, 15.0), st.floats(-3.0, 3.0),
                     st.floats(1.0, 4.0))


def sampled_states(scenario, exact=True):
    """(t, exact, reference) at every sample of run_scenario(scenario), from
    chunked FullPropagator and AdiabaticPropagator advance calls: the states
    a run's record describes, which the record does not keep.  With
    exact=False only the reference is propagated, and exact reads None."""
    params, grid, dt = scenario.params, scenario.grid, scenario.dt
    frame = ad.adiabatic_frame(params, grid)
    full = ad.FullPropagator(params, grid, dt) if exact else None
    adiabatic = ad.AdiabaticPropagator(frame, params, dt)
    n_steps = round(scenario.t_final / dt)
    state = scenario.initial if exact else None
    reference = ad.to_adiabatic(scenario.initial, frame)
    previous = 0
    for step in [*range(0, n_steps, scenario.stride), n_steps]:
        if exact:
            state = full.advance(state, step - previous)
        reference = adiabatic.advance(reference, step - previous)
        previous = step
        yield step * dt, state, reference
