"""Time evolution: exact two-channel and diagonal adiabatic split-operator schemes.

Both propagators use Strang splitting,

    exp(-i H dt) ~ exp(-i T dt/2) exp(-i V dt) exp(-i T dt/2),

with the kinetic factor applied in momentum space and the potential factor in
position space.  The coupled 2x2 potential exponential is computed in closed
form from its Pauli decomposition, so each factor is exactly unitary and the
scheme is second order in dt.  Consecutive steps fuse the adjacent kinetic
half-steps, which halves the FFT count without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.fft as sfft

from . import diagnostics
from .grids import (ADIABATIC, BARE, Grid, SpinorField, expect_momentum,
                    expect_position, mean_momentum, mean_position,
                    packet_width, to_adiabatic)
from .model import AdiabaticFrame, ModelParams, adiabatic_eigenvalues, adiabatic_frame


class DomainGuardError(RuntimeError):
    """A packet drifted too close to a periodic domain edge during a run."""


def _kinetic_phases(grid: Grid, mass: float, dt: float):
    half = np.exp(-0.25j * grid.k**2 * dt / mass)
    return half, half * half


class FullPropagator:
    """Split-operator stepper for the coupled two-channel problem (bare basis)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(grid, params.mass, dt)
        g = np.asarray(params.coupling(grid.x), dtype=float)
        half_split = 0.5 * params.level_splitting
        rot = np.hypot(half_split, g)
        cos = np.cos(rot * dt)
        # sin(r dt)/r with its r -> 0 limit dt
        sinc = np.where(rot > 0.0,
                        np.sin(rot * dt) / np.where(rot > 0.0, rot, 1.0),
                        dt)
        phase = np.exp(-1j * params.mean_shift * dt)
        self._p11 = phase * (cos - 1j * half_split * sinc)
        self._p22 = phase * (cos + 1j * half_split * sinc)
        self._p12 = phase * (-1j * g * sinc)

    def _apply_potential(self, comps: np.ndarray) -> None:
        up = self._p11 * comps[0] + self._p12 * comps[1]
        dn = self._p12 * comps[0] + self._p22 * comps[1]
        comps[0] = up
        comps[1] = dn

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        """Apply n_steps Strang steps with fused interior kinetic factors."""
        if field.frame != BARE:
            raise ValueError("FullPropagator expects a bare-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        if n_steps > 0:
            comps = sfft.ifft(sfft.fft(comps, axis=1) * self._half_kin,
                              axis=1, overwrite_x=True)
            for j in range(n_steps):
                self._apply_potential(comps)
                kin = self._half_kin if j == n_steps - 1 else self._full_kin
                comps = sfft.ifft(sfft.fft(comps, axis=1, overwrite_x=True) * kin,
                                  axis=1, overwrite_x=True)
        return SpinorField(self.grid, comps, BARE)


class AdiabaticPropagator:
    """Independent channel evolution under p^2/2m + Delta_+-(x); no coupling."""

    def __init__(self, frame: AdiabaticFrame, params: ModelParams, dt: float):
        self.frame = frame
        self.grid = frame.grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(self.grid, params.mass, dt)
        self._pot = np.exp(-1j * dt * np.stack([frame.upper, frame.lower]))

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        if field.frame != ADIABATIC:
            raise ValueError("AdiabaticPropagator expects an adiabatic-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        if n_steps > 0:
            comps = sfft.ifft(sfft.fft(comps, axis=1) * self._half_kin,
                              axis=1, overwrite_x=True)
            for j in range(n_steps):
                comps *= self._pot
                kin = self._half_kin if j == n_steps - 1 else self._full_kin
                comps = sfft.ifft(sfft.fft(comps, axis=1, overwrite_x=True) * kin,
                                  axis=1, overwrite_x=True)
        return SpinorField(self.grid, comps, ADIABATIC)


def split_step_full(field: SpinorField, params: ModelParams, dt: float) -> SpinorField:
    """One Strang step of the full two-channel Hamiltonian."""
    return FullPropagator(params, field.grid, dt).step(field)


def propagate_adiabatic(field: SpinorField, frame: AdiabaticFrame,
                        params: ModelParams, dt: float,
                        n_steps: int = 1) -> SpinorField:
    """n_steps Strang steps of the decoupled adiabatic channels."""
    return AdiabaticPropagator(frame, params, dt).advance(field, n_steps)


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
    adiabaticity: np.ndarray
    adiabaticity_plain: np.ndarray
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


_GUARD_WEIGHT = 1e-9


def _check_domain(field: SpinorField, margin: float, label: str, t: float,
                  detuning: float) -> None:
    x_mean = mean_position(field)
    width = packet_width(field)
    grid = field.grid
    if x_mean - margin * width < grid.x_min or x_mean + margin * width > grid.x_max:
        raise DomainGuardError(
            f"{label} packet at <x>={x_mean:.3f} (width {width:.3f}) is within "
            f"{margin} widths of a domain edge at t={t:.6g} (detuning "
            f"{float(detuning)!r}); enlarge the grid")


def run_scenario(scenario: Scenario, compute_adiabaticity: bool = True) -> RunRecord:
    """Evolve exact and adiabatic-reference states side by side.

    The reference starts as the pointwise rotation of the initial bare state
    into the adiabatic basis and evolves without inter-channel coupling;
    observables, overlap and the averaged adiabaticity parameter are sampled
    every `stride` steps (the final step is always sampled).  With
    `keep_states` the full spinor pair is retained at every sample as
    (t, exact, reference) tuples.
    """
    params, grid = scenario.params, scenario.grid
    frame = adiabatic_frame(params, grid)
    n_steps = max(1, int(round(scenario.t_final / scenario.dt)))

    exact_prop = FullPropagator(params, grid, scenario.dt)
    ref_prop = AdiabaticPropagator(frame, params, scenario.dt)

    exact = scenario.initial.copy()
    reference = to_adiabatic(scenario.initial, frame)
    weights = reference.component_norms_sq()
    weights = weights / weights.sum()

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
        adiabaticity=np.full(n_samples, np.nan),
        adiabaticity_plain=np.full(n_samples, np.nan),
        adiabaticity_terms=np.full((2, n_samples), np.nan),
        adiabaticity_terms_plain=np.full((2, n_samples), np.nan),
        weights=weights,
        dt=scenario.dt,
        stride=scenario.stride,
        snapshots=[] if scenario.keep_states else None,
    )

    active = weights >= _GUARD_WEIGHT

    def sample(idx: int, t: float) -> None:
        _check_domain(exact, scenario.edge_margin, "exact", t, params.detuning)
        _check_domain(reference, scenario.edge_margin, "reference", t,
                      params.detuning)
        rec.x_mean[idx] = mean_position(exact)
        rec.p_mean[idx] = mean_momentum(exact)
        rec.norm[idx] = exact.norm()
        exact_ad = to_adiabatic(exact, frame)
        pops = exact_ad.component_norms_sq()
        rec.pop_upper[idx], rec.pop_lower[idx] = pops
        rec.fidelity[idx] = diagnostics.fidelity(exact, reference, frame)
        for ch in range(2):
            if active[ch]:
                rec.ref_x[ch, idx] = expect_position(reference, ch)
                rec.ref_p[ch, idx] = expect_momentum(reference, ch)
        if compute_adiabaticity:
            parts = diagnostics.adiabaticity_parts(reference, frame, params, weights)
            rec.adiabaticity_terms[:, idx] = parts.channel_terms(include_curvature=True)
            rec.adiabaticity_terms_plain[:, idx] = parts.channel_terms(include_curvature=False)
            rec.adiabaticity[idx] = parts.total(include_curvature=True)
            rec.adiabaticity_plain[idx] = parts.total(include_curvature=False)
        if scenario.keep_states:
            rec.snapshots.append((t, exact.copy(), reference.copy()))

    sample(0, 0.0)
    current = 0
    for idx, step in enumerate(sample_steps[1:], start=1):
        chunk = step - current
        exact = exact_prop.advance(exact, chunk)
        reference = ref_prop.advance(reference, chunk)
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
