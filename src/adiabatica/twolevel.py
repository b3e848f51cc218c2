"""Effective time-dependent two-level models derived from the spatial problem.

A packet moving at nearly constant momentum sees the coupling as a pulse in
time, G(t) = sqrt(n) g(x0 + p0 t / m), with a constant diagonal splitting
delta; the matching Hamiltonian is

    H(t) = [[delta/2, G(t)], [G(t), -delta/2]].

The module also inverts the construction: given a target adiabaticity trace
it rebuilds the coupling pulse that produces it, and it closes the loop with
classical channel trajectories for regimes where the momentum is not a good
constant of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (DEGENERACY_FLOOR, ModelParams, _angle_slope_raw,
                    _su2_step, adiabatic_eigenvalues, adiabatic_gradient)


@dataclass
class EffectiveModel:
    """Constant-splitting two-level model with a time-dependent coupling."""

    detuning: float
    coupling: Callable[[np.ndarray], np.ndarray]
    coupling_rate: Callable[[np.ndarray], np.ndarray] | None = None

    def hamiltonian(self, t: float) -> np.ndarray:
        g = float(np.asarray(self.coupling(t)))
        h = 0.5 * self.detuning
        return np.array([[h, g], [g, -h]])

    def coupling_rate_at(self, t):
        """dG/dt, analytic when available, else a central difference."""
        if self.coupling_rate is not None:
            return self.coupling_rate(t)
        t = np.asarray(t, dtype=float)
        h = 1e-6 * max(1.0, float(np.max(np.abs(t))) if t.size else 1.0)
        return (np.asarray(self.coupling(t + h)) - np.asarray(self.coupling(t - h))) / (2.0 * h)


def substitution_model(params: ModelParams, p0: float, x0: float) -> EffectiveModel:
    """Effective model from the replacement p -> p0, x -> x0 + p0 t / m."""
    rate = p0 / params.mass

    def coupling(t):
        return params.coupling(x0 + rate * np.asarray(t, dtype=float))

    def coupling_slope(t):
        return rate * params.coupling_slope(x0 + rate * np.asarray(t, dtype=float))

    return EffectiveModel(params.level_splitting, coupling, coupling_slope)


def time_adiabaticity(model: EffectiveModel, t):
    """|delta dG/dt / (delta^2 + 4 G^2)^(3/2)|, the time-domain criterion.

    Evaluations with delta^2 + 4 G^2 < 1e-24 return inf, matching the
    singularity convention of the pointwise spatial parameter.
    """
    t = np.asarray(t, dtype=float)
    g = np.asarray(model.coupling(t), dtype=float)
    rate = np.asarray(model.coupling_rate_at(t), dtype=float)
    delta = model.detuning
    den_sq = delta * delta + 4.0 * g * g
    singular = den_sq < DEGENERACY_FLOOR
    safe = np.where(singular, 1.0, den_sq)
    value = np.abs(delta * rate) / safe**1.5
    out = np.where(singular, np.inf, value)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Direct integration of the two-level Schroedinger equation
# ---------------------------------------------------------------------------

@dataclass
class TwoLevelTrace:
    times: np.ndarray
    states: np.ndarray

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2


def solve_two_level(model: EffectiveModel, initial, t_final: float,
                    dt: float, t0: float = 0.0) -> TwoLevelTrace:
    """Integrate i d/dt psi = H(t) psi with per-step midpoint exponentials.

    Each step applies the exact unitary of the Hamiltonian frozen at the step
    midpoint, so the norm is conserved to rounding and the scheme is second
    order in dt.  The midpoint couplings and step unitaries are evaluated in
    one vectorised call; only the 2-vector recursion runs per step.
    """
    if dt <= 0 or t_final <= t0:
        raise ValueError("need dt > 0 and t_final > t0")
    n_steps = max(1, int(round((t_final - t0) / dt)))
    times = t0 + dt * np.arange(n_steps + 1)

    g_samples = np.abs(np.asarray(model.coupling(times), dtype=float))
    scale = max(abs(model.detuning), float(np.max(g_samples)))
    if dt * scale > 1.0:
        raise ValueError(
            f"dt={dt} does not resolve the largest Hamiltonian scale {scale:.3g}; "
            "reduce the step")

    psi = np.asarray(initial, dtype=np.complex128)
    if psi.shape != (2,):
        raise ValueError("initial state must be a 2-component vector")
    midpoints = times[:-1] + 0.5 * dt
    g_mid = np.broadcast_to(np.asarray(model.coupling(midpoints), dtype=float),
                            midpoints.shape)
    u11, u22, u12 = _su2_step(0.5 * model.detuning, g_mid, dt)
    up, dn = complex(psi[0]), complex(psi[1])
    states = [(up, dn)]
    for a, b, c in zip(u11.tolist(), u22.tolist(), u12.tolist()):
        up, dn = a * up + c * dn, c * up + b * dn
        states.append((up, dn))
    return TwoLevelTrace(times, np.array(states, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Inverse construction: coupling pulse from a target adiabaticity trace
# ---------------------------------------------------------------------------

def coupling_from_adiabaticity(times, values, delta: float,
                               initial_coupling: float = 0.0) -> np.ndarray:
    """Coupling G(t) whose time-domain adiabaticity equals the given trace.

    Separating delta dG / (delta^2 + 4 G^2)^(3/2) = a(t) and integrating with
    G(-inf) = 0 gives G / (delta sqrt(delta^2 + 4 G^2)) = f(t) = int a dt',
    hence G = delta^2 f / sqrt(1 - 4 delta^2 f^2).  A trace that starts at a
    finite time with a nonzero coupling enters through initial_coupling,
    which fixes the accumulated f at the first sample.

    The construction requires a nonnegative trace (the coupling rises
    monotonically); it fails with the critical time once f reaches the
    invertibility bound 1 / (2 |delta|), where the coupling would diverge.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("the target adiabaticity trace must be nonnegative")
    if delta == 0.0:
        raise ValueError("the inverse construction needs a nonzero splitting delta")

    # Imported on first use: no CLI experiment needs scipy.integrate, and
    # importing it adds about 0.3 s to every start-up.
    from scipy.integrate import cumulative_simpson

    f0 = initial_coupling / (delta * math.sqrt(delta**2 + 4.0 * initial_coupling**2))
    f = f0 + cumulative_simpson(values, x=times, initial=0.0)

    bound = 1.0 / (2.0 * abs(delta))
    blown = np.abs(f) >= bound
    if np.any(blown):
        k = int(np.argmax(blown))
        raise ValueError(
            "accumulated adiabaticity exceeds the invertibility bound "
            f"1/(2|delta|) at t={times[k]:.6g}: the coupling would diverge")
    return delta * delta * f / np.sqrt(1.0 - 4.0 * delta * delta * f * f)


# ---------------------------------------------------------------------------
# Classical channel trajectories on the adiabatic surfaces
# ---------------------------------------------------------------------------

@dataclass
class TrajectorySet:
    """Velocity-Verlet trajectories, one per channel, on the channel's surface."""

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    energies: np.ndarray

    CHANNELS = ("upper", "lower")


def classical_trajectories(params: ModelParams, initial, t_final: float,
                           dt: float) -> TrajectorySet:
    """Integrate dot x = p/m, dot p = -d Delta_ch/dx per channel.

    `initial` maps channel names ("upper", "lower") to (x, p) pairs; each
    channel feels only its own adiabatic surface.  The symplectic stepper
    conserves p^2/2m + Delta_ch(x) to second order; a step guard rejects
    steps that would hop a sizable fraction of the mode's length scale.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    names = list(initial)
    for name in names:
        if name not in TrajectorySet.CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
    n_steps = max(1, int(round(t_final / dt)))
    times = dt * np.arange(n_steps + 1)
    m = params.mass
    scale = params.mode.length_scale()
    guard = 0.25 * scale if scale is not None else None

    pos = np.full((2, n_steps + 1), np.nan)
    mom = np.full((2, n_steps + 1), np.nan)
    eng = np.full((2, n_steps + 1), np.nan)

    for ch, name in enumerate(TrajectorySet.CHANNELS):
        if name not in initial:
            continue
        sign = 0 if name == "upper" else 1
        x, p = map(float, initial[name])

        def surface(xv):
            up, lo = adiabatic_eigenvalues(params, xv)
            return float(up) if sign == 0 else float(lo)

        def force(xv):
            gup, glo = adiabatic_gradient(params, xv)
            return -float(gup) if sign == 0 else -float(glo)

        pos[ch, 0], mom[ch, 0] = x, p
        eng[ch, 0] = p * p / (2.0 * m) + surface(x)
        f = force(x)
        for k in range(n_steps):
            p_half = p + 0.5 * dt * f
            step = dt * p_half / m
            if guard is not None and abs(step) > guard:
                raise ValueError(
                    f"channel {name!r} would move {abs(step):.3g} in one step "
                    f"(> {guard:.3g}); reduce dt near steep surface regions")
            x = x + step
            f = force(x)
            p = p_half + 0.5 * dt * f
            pos[ch, k + 1], mom[ch, k + 1] = x, p
            eng[ch, k + 1] = p * p / (2.0 * m) + surface(x)

    return TrajectorySet(times, pos, mom, eng)


def trajectory_adiabaticity(params: ModelParams, trajectories: TrajectorySet,
                            weights) -> np.ndarray:
    """Averaged-parameter estimate along classical channel trajectories.

    Each channel contributes |2 theta'(x_ch) p_ch| over its local surface
    splitting, weighted by the initial channel populations; channels absent
    from the trajectory set are skipped.
    """
    weights = np.asarray(weights, dtype=float)
    out = np.zeros_like(trajectories.times)
    for ch in range(2):
        if np.isnan(trajectories.positions[ch, 0]) or weights[ch] == 0.0:
            continue
        x = trajectories.positions[ch]
        p = trajectories.momenta[ch]
        slope = _angle_slope_raw(params, x, raise_on_degenerate=False)
        up, lo = adiabatic_eigenvalues(params, x)
        split = np.asarray(up) - np.asarray(lo)
        term = np.abs(2.0 * slope * p) / np.maximum(split, 1e-300)
        out = out + weights[ch] * term / (2.0 * params.mass)
    return out
