"""Time evolution: exact two-channel and diagonal adiabatic split-operator schemes.

Both propagators use Strang splitting,

    exp(-i H dt) ~ exp(-i T dt/2) exp(-i V dt) exp(-i T dt/2),

with the kinetic factor applied in momentum space and the potential factor in
position space.  The coupled 2x2 potential exponential is computed in closed
form from its Pauli decomposition by `model._su2_step`, the same helper that
steps the effective two-level model in `twolevel.solve_two_level`, so each
factor is exactly unitary and the scheme is second order in dt.  Consecutive
steps fuse the adjacent kinetic half-steps, which halves the FFT count
without changing the result.

One kernel, `_strang`, runs the steps in place on the rows of a complex
array: each kinetic factor is one in-place forward FFT, phase multiply and
inverse FFT over all rows, and each potential factor is applied by the
propagator that owns the rows.  FullPropagator (a 2x2 unitary per point) and
AdiabaticPropagator (diagonal phases) differ only in that potential factor.
run_scenario keeps the exact state (bare rows 0-1) and the adiabatic
reference (rows 2-3) in one (4, N) array, so every kinetic factor is one
forward and one inverse transform for both states.

run_scenario samples the pair in one pass: per sampled instant it builds
|psi|^2 of the pair once, Fourier transforms the pair once and rotates the
exact state into the adiabatic frame once, and reduces every recorded column
from those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import diagnostics
# expect_position, expect_momentum, mean_position, mean_momentum and
# packet_width go unused here but stay bound: perfbench/tracer.py rebinds
# them by this module's name.
from .grids import (ADIABATIC, BARE, Grid, SpinorField, _centre,
                    _component_norms, _grid_average, _mean_momentum, _norm_sq,
                    _rotate_to_adiabatic, _spectrum_average, _width,
                    expect_momentum, expect_position, mean_momentum,
                    mean_position, packet_width, to_adiabatic)
from .model import (AdiabaticFrame, ModelParams, _su2_step, adiabatic_eigenvalues,
                    adiabatic_frame)


class DomainGuardError(RuntimeError):
    """A packet drifted too close to a periodic domain edge during a run."""


def _kinetic_phases(grid: Grid, mass: float, dt: float):
    half = np.exp(-0.25j * grid.k**2 * dt / mass)
    return half, half * half


def _kinetic(rows: np.ndarray, phase: np.ndarray) -> None:
    np.fft.fft(rows, axis=1, out=rows)
    rows *= phase
    np.fft.ifft(rows, axis=1, out=rows)


def _strang(rows: np.ndarray, n_steps: int, half_kin: np.ndarray,
            full_kin: np.ndarray, kick) -> None:
    """Apply n_steps Strang steps in place to the (m, N) array `rows`.

    Interior kinetic half-steps are fused; kick(rows) multiplies the rows by
    their pointwise potential factor in place.
    """
    if n_steps <= 0:
        return
    _kinetic(rows, half_kin)
    for j in range(n_steps):
        kick(rows)
        _kinetic(rows, half_kin if j == n_steps - 1 else full_kin)


class FullPropagator:
    """Split-operator stepper for the coupled two-channel problem (bare basis)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(grid, params.mass, dt)
        g = np.asarray(params.coupling(grid.x), dtype=float)
        p11, p22, p12 = _su2_step(0.5 * params.level_splitting, g, dt)
        phase = np.exp(-1j * params.mean_shift * dt)
        # rows (p11, p22) of the unitary and its symmetric off-diagonal p12
        self._diag = phase * np.stack([p11, p22])
        self._p12 = phase * p12
        self._scratch = np.empty((2, 2, grid.npoints), dtype=np.complex128)

    def _apply_potential(self, comps: np.ndarray) -> None:
        diag, cross = self._scratch
        np.multiply(self._diag, comps, out=diag)        # p11 up, p22 dn
        np.multiply(self._p12, comps[::-1], out=cross)  # p12 dn, p12 up
        np.add(diag, cross, out=comps)

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        """Apply n_steps Strang steps with fused interior kinetic factors."""
        if field.frame != BARE:
            raise ValueError("FullPropagator expects a bare-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        _strang(comps, n_steps, self._half_kin, self._full_kin,
                self._apply_potential)
        return SpinorField(self.grid, comps, BARE)


class AdiabaticPropagator:
    """Independent channel evolution under p^2/2m + Delta_+-(x); no coupling."""

    def __init__(self, frame: AdiabaticFrame, params: ModelParams, dt: float):
        self.frame = frame
        self.grid = frame.grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(self.grid, params.mass, dt)
        self._pot = np.exp(-1j * dt * np.stack([frame.upper, frame.lower]))

    def _apply_potential(self, comps: np.ndarray) -> None:
        comps *= self._pot

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        if field.frame != ADIABATIC:
            raise ValueError("AdiabaticPropagator expects an adiabatic-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        _strang(comps, n_steps, self._half_kin, self._full_kin,
                self._apply_potential)
        return SpinorField(self.grid, comps, ADIABATIC)


def default_time_step(params: ModelParams, grid: Grid, p_max: float) -> float:
    """dt = 0.1 min(1/max|Delta_+-|, m dx / p_max): resolve phases and transport."""
    upper, lower = adiabatic_eigenvalues(params, grid.x)
    scale = max(np.max(np.abs(upper)), np.max(np.abs(lower)))
    phase_limit = 1.0 / scale if scale > 0 else np.inf
    transport_limit = params.mass * grid.dx / p_max if p_max > 0 else np.inf
    dt = 0.1 * min(phase_limit, transport_limit)
    if not np.isfinite(dt):
        raise ValueError("cannot pick a default time step for a free, zero-momentum run")
    return dt


# ---------------------------------------------------------------------------
# Side-by-side exact / adiabatic-reference runs
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """One run configuration: exact state and adiabatic reference evolve together.

    x0/p0 record the nominal initial packet center and momentum; they feed the
    kinematic abscissa x = x0 + p0 t / m used by the sweep outputs.
    """

    params: ModelParams
    grid: Grid
    initial: SpinorField
    t_final: float
    dt: float
    stride: int = 1
    x0: float = 0.0
    p0: float = 0.0
    edge_margin: float = 5.0
    keep_states: bool = False

    def __post_init__(self):
        if self.initial.frame != BARE:
            raise ValueError("Scenario.initial must be a bare-frame field")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("Scenario requires t_final > 0 and dt > 0")
        if self.stride < 1:
            raise ValueError("Scenario.stride must be >= 1")


@dataclass
class RunRecord:
    """Sampled observables of one exact-versus-reference run."""

    times: np.ndarray
    x_kinematic: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    norm: np.ndarray
    pop_upper: np.ndarray
    pop_lower: np.ndarray
    fidelity: np.ndarray
    ref_x: np.ndarray
    ref_p: np.ndarray
    adiabaticity_terms: np.ndarray
    adiabaticity_terms_plain: np.ndarray
    weights: np.ndarray
    dt: float
    stride: int
    final_exact: SpinorField = dataclass_field(repr=False, default=None)
    final_reference: SpinorField = dataclass_field(repr=False, default=None)
    snapshots: list = dataclass_field(repr=False, default=None)

    @property
    def fidelity_magnitude(self) -> np.ndarray:
        return np.abs(self.fidelity)

    @property
    def adiabaticity(self) -> np.ndarray:
        """Packet-averaged parameter per sample, curvature term included."""
        return self._weighted_total(self.adiabaticity_terms)

    @property
    def adiabaticity_plain(self) -> np.ndarray:
        """Packet-averaged parameter per sample without the curvature term."""
        return self._weighted_total(self.adiabaticity_terms_plain)

    def _weighted_total(self, terms: np.ndarray) -> np.ndarray:
        # the sum AdiabaticityParts.total forms, over channels whose weight
        # reaches WEIGHT_FLOOR; nan where the run skipped the parameter
        active = self.weights >= diagnostics.WEIGHT_FLOOR
        return np.where(active[:, None], self.weights[:, None] * terms,
                        0.0).sum(axis=0)


#: Channels with smaller initial weight get no ref_x / ref_p samples.
_GUARD_WEIGHT = 1e-9


def _check_domain(dens: np.ndarray, grid: Grid, margin: float, label: str,
                  t: float, detuning: float):
    """<x> of the packet with total density `dens`, which must keep clear of the edges."""
    x_mean, total = _centre(dens, grid, "mean_position")
    width = _width(dens, grid, x_mean, total)
    if x_mean - margin * width < grid.x_min or x_mean + margin * width > grid.x_max:
        raise DomainGuardError(
            f"{label} packet at <x>={x_mean:.3f} (width {width:.3f}) is within "
            f"{margin} widths of a domain edge at t={t:.6g} (detuning "
            f"{float(detuning)!r}); enlarge the grid")
    return x_mean


def run_scenario(scenario: Scenario, compute_adiabaticity: bool = True) -> RunRecord:
    """Evolve exact and adiabatic-reference states side by side.

    The reference starts as the pointwise rotation of the initial bare state
    into the adiabatic basis and evolves without inter-channel coupling;
    observables, overlap and the averaged adiabaticity parameter are sampled
    every `stride` steps (the final step is always sampled).  Each sample
    computes each state's density, spectrum and frame rotation once.  With
    `keep_states` the full spinor pair is retained at every sample as
    (t, exact, reference) tuples.
    """
    params, grid = scenario.params, scenario.grid
    frame = adiabatic_frame(params, grid)
    n_steps = max(1, int(round(scenario.t_final / scenario.dt)))

    exact_prop = FullPropagator(params, grid, scenario.dt)
    ref_prop = AdiabaticPropagator(frame, params, scenario.dt)

    # exact state in bare rows 0-1, reference in adiabatic rows 2-3; the two
    # fields are views of `pair`, which the kernel advances in place
    pair = np.concatenate([scenario.initial.components,
                           to_adiabatic(scenario.initial, frame).components])
    exact = SpinorField(grid, pair[:2], BARE)
    reference = SpinorField(grid, pair[2:], ADIABATIC)
    weights = diagnostics.initial_channel_weights(reference)

    sample_steps = list(range(0, n_steps + 1, scenario.stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    n_samples = len(sample_steps)

    times = np.asarray(sample_steps, dtype=float) * scenario.dt
    rec = RunRecord(
        times=times,
        x_kinematic=scenario.x0 + scenario.p0 * times / params.mass,
        x_mean=np.empty(n_samples),
        p_mean=np.empty(n_samples),
        norm=np.empty(n_samples),
        pop_upper=np.empty(n_samples),
        pop_lower=np.empty(n_samples),
        fidelity=np.empty(n_samples, dtype=np.complex128),
        ref_x=np.full((2, n_samples), np.nan),
        ref_p=np.full((2, n_samples), np.nan),
        adiabaticity_terms=np.full((2, n_samples), np.nan),
        adiabaticity_terms_plain=np.full((2, n_samples), np.nan),
        weights=weights,
        dt=scenario.dt,
        stride=scenario.stride,
        snapshots=[] if scenario.keep_states else None,
    )

    active = weights >= _GUARD_WEIGHT
    # reference channels whose norm some column divides by
    needed = active | (compute_adiabaticity & (weights >= diagnostics.WEIGHT_FLOOR))
    cos_theta, sin_theta = frame.cos_theta, frame.sin_theta
    margin, dx = scenario.edge_margin, grid.dx

    def sample(idx: int, t: float) -> None:
        dens = np.abs(pair) ** 2
        exact_dens, ref_dens = dens[:2], dens[2:]
        rec.x_mean[idx] = _check_domain(np.sum(exact_dens, axis=0), grid, margin,
                                        "exact", t, params.detuning)
        _check_domain(np.sum(ref_dens, axis=0), grid, margin, "reference", t,
                      params.detuning)
        spectra = np.fft.fft(pair, axis=1)
        rec.p_mean[idx] = _mean_momentum(spectra[:2], grid)
        rec.norm[idx] = np.sqrt(_norm_sq(exact_dens, dx))
        exact_ad = SpinorField(grid, _rotate_to_adiabatic(
            exact.components, cos_theta, sin_theta), ADIABATIC)
        rec.pop_upper[idx], rec.pop_lower[idx] = exact_ad.component_norms_sq()
        rec.fidelity[idx] = diagnostics.fidelity(exact_ad, reference, frame)
        norms = _component_norms(ref_dens, dx, needed)
        spectrum = spectra[2:]
        for ch in range(2):
            if active[ch]:
                row = slice(ch, ch + 1)
                rec.ref_x[ch, idx] = _grid_average(ref_dens[row], grid.x, dx,
                                                   norms[row])[0]
                rec.ref_p[ch, idx] = _spectrum_average(spectrum[row], grid.k,
                                                       grid, norms[row])[0]
        if compute_adiabaticity:
            parts = diagnostics._adiabaticity_parts(
                reference, ref_dens, spectrum, norms, frame, params.mass, weights)
            rec.adiabaticity_terms[:, idx] = parts.channel_terms(include_curvature=True)
            rec.adiabaticity_terms_plain[:, idx] = parts.channel_terms(include_curvature=False)
        if scenario.keep_states:
            rec.snapshots.append((t, exact.copy(), reference.copy()))

    def kick(rows: np.ndarray) -> None:
        exact_prop._apply_potential(rows[:2])
        ref_prop._apply_potential(rows[2:])

    sample(0, 0.0)
    current = 0
    # same grid, mass and dt: the exact kinetic phases serve both states
    for idx, step in enumerate(sample_steps[1:], start=1):
        _strang(pair, step - current, exact_prop._half_kin,
                exact_prop._full_kin, kick)
        current = step
        sample(idx, current * scenario.dt)

    rec.final_exact = exact
    rec.final_reference = reference
    return rec


TRAJECTORY_COLUMNS = ["t", "x_mean", "p_mean", "ref_x_upper", "ref_p_upper",
                      "ref_x_lower", "ref_p_lower", "pop_upper", "pop_lower",
                      "norm"]


def trajectory_rows(record: RunRecord):
    """Rows matching TRAJECTORY_COLUMNS, for CSV export of a run."""
    for i in range(record.times.size):
        yield [record.times[i], record.x_mean[i], record.p_mean[i],
               record.ref_x[0, i], record.ref_p[0, i],
               record.ref_x[1, i], record.ref_p[1, i],
               record.pop_upper[i], record.pop_lower[i], record.norm[i]]
