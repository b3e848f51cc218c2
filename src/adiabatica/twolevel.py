"""Effective time-dependent two-level models derived from the spatial problem.

A packet moving at nearly constant momentum sees the coupling as a pulse in
time, G(t) = sqrt(n) g(x0 + p0 t / m), with a constant diagonal splitting
delta; the matching Hamiltonian is

    H(t) = [[delta/2, G(t)], [G(t), -delta/2]].

The module evaluates the time-domain adiabaticity criterion of such a model
and inverts the construction: given a target adiabaticity trace it rebuilds
the coupling pulse that produces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams, _gap_ratio


@dataclass
class EffectiveModel:
    """Constant-splitting two-level model with a time-dependent coupling."""

    detuning: float
    coupling: Callable[[np.ndarray], np.ndarray]
    coupling_rate: Callable[[np.ndarray], np.ndarray]


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

    Evaluations where the gap sqrt(delta^2 + 4 G^2) is below
    model.SPLITTING_FLOOR return inf, with the same guard as the pointwise
    spatial parameter.  A value that reads nan (numerator and denominator
    both overflow) is evaluated again as |dG/dt| |delta / gap| / gap^2, and
    raises ValueError if it still reads nan.
    """
    t = np.asarray(t, dtype=float)
    g = np.asarray(model.coupling(t), dtype=float)
    rate = np.asarray(model.coupling_rate(t), dtype=float)
    delta = model.detuning

    def rescaled():
        gap = np.hypot(delta, 2.0 * g)
        return np.abs(rate) * np.abs(delta / gap) / gap / gap

    with np.errstate(over="ignore", invalid="ignore"):
        return _gap_ratio(delta * delta + 4.0 * g * g,
                          lambda den_sq: np.abs(delta * rate) / den_sq**1.5,
                          rescaled, "time-domain", delta)


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
    if not (np.isfinite(times).all() and np.isfinite(values).all()
            and math.isfinite(delta) and math.isfinite(initial_coupling)):
        raise ValueError("times, values, delta and initial_coupling must be finite")
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

