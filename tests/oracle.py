"""Reference solvers for the tests, independent of the propagators in src/."""

import numpy as np

from adiabatica.model import _su2_step


def two_level_transfer(coupling, detuning, x0, v, t_final, dt):
    """Lower-level population of the two-level model driven along the
    classical path x0 + v t: H = (detuning/2) sigma_z + G(x) sigma_x, from
    the upper level, in round(t_final/dt) closed-form steps, each with G at
    its midpoint."""
    steps = round(t_final / dt)
    g = coupling(x0 + v * dt * (np.arange(steps) + 0.5))
    u11, u22, u12 = _su2_step(0.5 * detuning, np.asarray(g, dtype=float), dt)
    upper, lower = 1.0 + 0.0j, 0.0j
    for a, b, c in zip(u11.tolist(), u22.tolist(), u12.tolist()):
        upper, lower = a * upper + c * lower, c * upper + b * lower
    return abs(lower) ** 2
