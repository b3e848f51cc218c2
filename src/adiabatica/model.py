"""Two-channel model of a moving two-level emitter in a shaped field mode.

A single excitation block reduces the emitter-field problem to two coupled
channels with the position-dependent potential

    V(x) = [[eps_+, G(x)], [G(x), eps_-]],      G(x) = sqrt(n) * g(x),

where g(x) is the mode shape and n the photon index of the block.  The
diagonal shifts eps_+- depend on the chosen rotating frame only through
their common offset; their difference, the level splitting, is the detuning
in both frames, so every pointwise quantity but the surfaces' offset is the
same in both.  Diagonalizing V(x) pointwise with the rotation

    U(x) = [[cos(theta), sin(theta)], [-sin(theta), cos(theta)]]

gives the adiabatic surfaces Delta_+-(x) and the mixing angle
tan(2*theta) = 2 G / (eps_+ - eps_-).  Everything here is a pure function
of (params, x); scaled units with hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)

#: Surface gap below which an adiabaticity ratio is singular: pointwise gaps
#: return inf, averaged ones raise.
SPLITTING_FLOOR = 1e-12
_SMALLEST_NORMAL = np.finfo(float).smallest_normal


class DegeneratePointError(ValueError):
    """The mixing angle is undefined: zero coupling and zero level splitting."""


def _require_finite(owner: str, **fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{owner}.{name} must be finite")


# ---------------------------------------------------------------------------
# Mode shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMode:
    """Bell-shaped coupling g(x) = A / (sqrt(2 pi) a) * exp(-x^2 / 2 a^2)."""

    amplitude: float
    width: float

    def __post_init__(self):
        _require_finite("GaussianMode", amplitude=self.amplitude, width=self.width)
        if self.width <= 0:
            raise ValueError("GaussianMode.width must be > 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        a = self.width
        return self.amplitude / (_SQRT2PI * a) * np.exp(-(x * x) / (2.0 * a * a))

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        return -(x / self.width**2) * self.value(x)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        a2 = self.width**2
        return ((x * x) / (a2 * a2) - 1.0 / a2) * self.value(x)


@dataclass(frozen=True)
class StandingWaveMode:
    """Periodic coupling g(x) = A sin(q x); nodes at x = k pi / q."""

    amplitude: float
    wavenumber: float

    def __post_init__(self):
        _require_finite("StandingWaveMode", amplitude=self.amplitude,
                        wavenumber=self.wavenumber)
        if self.wavenumber <= 0:
            raise ValueError("StandingWaveMode.wavenumber must be > 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.sin(self.wavenumber * x)

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * self.wavenumber * np.cos(self.wavenumber * x)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        q = self.wavenumber
        return -self.amplitude * q * q * np.sin(q * x)


@dataclass(frozen=True)
class LinearMode:
    """Locally linear coupling g(x) = C x (model for the region around a node)."""

    gradient: float

    def __post_init__(self):
        _require_finite("LinearMode", gradient=self.gradient)

    def value(self, x):
        return self.gradient * np.asarray(x, dtype=float)

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.gradient, dtype=float)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x, dtype=float)


@dataclass(frozen=True, eq=False)
class TabulatedMode:
    """Coupling sampled on a uniform periodic grid.

    Derivatives come from spectral differentiation of the samples; values at
    arbitrary x are linearly interpolated with periodic wrap-around.  Second
    class compared with the analytic shapes: no closed forms, and features
    must be well resolved by the sample spacing.
    """

    positions: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        val = np.asarray(self.samples, dtype=float)
        if pos.ndim != 1 or pos.size < 4:
            raise ValueError("TabulatedMode needs at least 4 sample positions")
        if val.shape != pos.shape:
            raise ValueError("TabulatedMode positions and samples must match in length")
        _require_finite("TabulatedMode", positions=pos, samples=val)
        steps = np.diff(pos)
        if steps.min() <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("TabulatedMode positions must be uniformly increasing")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "samples", val)
        dx = float(steps[0])
        period = dx * pos.size
        k = 2.0 * np.pi * np.fft.fftfreq(pos.size, d=dx)
        spectrum = np.fft.fft(val)
        object.__setattr__(self, "_period", period)
        object.__setattr__(self, "_slope_samples", np.fft.ifft(1j * k * spectrum).real)
        object.__setattr__(self, "_curvature_samples", np.fft.ifft(-(k * k) * spectrum).real)

    def _interp(self, x, table):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.positions, table, period=self._period)

    def value(self, x):
        return self._interp(x, self.samples)

    def slope(self, x):
        return self._interp(x, self._slope_samples)

    def curvature(self, x):
        return self._interp(x, self._curvature_samples)


ModeShape = Union[GaussianMode, StandingWaveMode, LinearMode, TabulatedMode]


# ---------------------------------------------------------------------------
# Physical configuration
# ---------------------------------------------------------------------------

class FrameCase(Enum):
    """Which multiple of the excitation number was removed as a rotating frame.

    CASE1 rotates at the mode frequency, CASE2 at the emitter frequency; the
    level splitting eps_+ - eps_- equals the detuning in both cases, only the
    common offset differs.
    """

    CASE1 = "case1"
    CASE2 = "case2"


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of one excitation block.

    detuning is the emitter-mode frequency difference; photon_index labels
    the excitation block (n >= 1) and enters only through the effective
    coupling G = sqrt(n) g and the CASE2 offsets.
    """

    mode: ModeShape
    detuning: float
    photon_index: int = 1
    mass: float = 1.0
    frame_case: FrameCase = FrameCase.CASE1

    def __post_init__(self):
        _require_finite("ModelParams", detuning=self.detuning, mass=self.mass)
        if self.mass <= 0:
            raise ValueError("ModelParams.mass must be > 0")
        if int(self.photon_index) != self.photon_index or self.photon_index < 1:
            raise ValueError("ModelParams.photon_index must be an integer >= 1")

    @property
    def level_shifts(self) -> tuple[float, float]:
        """Diagonal entries (eps_+, eps_-) of the bare potential."""
        d = self.detuning
        n = self.photon_index
        if self.frame_case is FrameCase.CASE1:
            return (0.5 * d, -0.5 * d)
        return (-d * (n - 1), -d * n)

    @property
    def level_splitting(self) -> float:
        """eps_+ - eps_-, which is the detuning in both frame cases."""
        return self.detuning

    @property
    def mean_shift(self) -> float:
        """(eps_+ + eps_-) / 2, the frame-dependent common offset."""
        up, dn = self.level_shifts
        return 0.5 * (up + dn)

    def coupling(self, x):
        """Effective coupling G(x) = sqrt(n) g(x)."""
        return math.sqrt(self.photon_index) * self.mode.value(x)

    def coupling_slope(self, x):
        return math.sqrt(self.photon_index) * self.mode.slope(x)


# ---------------------------------------------------------------------------
# Adiabatic diagonalization
# ---------------------------------------------------------------------------

def _su2_step(half_split, g, dt: float):
    """exp(-i dt (half_split sigma_z + g sigma_x)) in closed form, elementwise.

    Returns the entries (u11, u22, u12) as arrays, one matrix per element of
    g; the matrix is symmetric, so u21 = u12.
    """
    rot = np.hypot(half_split, g)
    cos = np.cos(rot * dt)
    # sin(r dt)/r with its r -> 0 limit dt
    sinc = np.where(rot > 0.0,
                    np.sin(rot * dt) / np.where(rot > 0.0, rot, 1.0),
                    dt)
    return (cos - 1j * half_split * sinc, cos + 1j * half_split * sinc,
            -1j * g * sinc)


def _theta(params: ModelParams, x):
    """Mixing angle without the degeneracy check."""
    return 0.5 * np.arctan2(2.0 * params.coupling(x), params.level_splitting)


def mixing_angle(params: ModelParams, x):
    """Continuous branch theta = atan2(2 G, eps_+ - eps_-) / 2 in (-pi/2, pi/2].

    Raises DegeneratePointError where both arguments vanish (the angle is
    undefined there); with this branch the rotation puts the upper surface in
    the first matrix slot everywhere.
    """
    if params.level_splitting == 0.0 and np.any(params.coupling(x) == 0.0):
        raise DegeneratePointError(
            "mixing angle undefined: coupling and level splitting both vanish")
    return _theta(params, x)


def adiabatic_eigenvalues(params: ModelParams, x):
    """Adiabatic surfaces (Delta_+, Delta_-); Delta_+ >= Delta_- everywhere."""
    g = params.coupling(x)
    half = 0.5 * params.level_splitting
    root = np.hypot(half, g)
    mean = params.mean_shift
    return mean + root, mean - root


def _phase_rate(params: ModelParams, x):
    """max |Delta_+- - mean_shift| = max hypot(split/2, G) over x, the fastest
    phase a step must resolve: both propagators apply the frame offset
    mean_shift as an exact global phase."""
    return np.max(np.hypot(0.5 * params.level_splitting, params.coupling(x)))


def _normal(value):
    """Elementwise: a finite number of at least the smallest normal magnitude."""
    return np.isfinite(value) & (np.abs(value) >= _SMALLEST_NORMAL)


def _angle_derivatives(params: ModelParams, x):
    """(theta', theta'') at x; both read 0 where the gap is 0.

    With D = split^2 + 4 n g^2, theta' = split sqrt(n) g' / D and
    theta'' = split sqrt(n) [g'' D - 8 n g g'^2] / D^2 where D^2 and the
    numerator are finite normal numbers.  Elsewhere the gap Delta = sqrt(D)
    is factored out of every term, with cos = cos(2 theta) = split / Delta:
    theta' = cos sqrt(n) (g'/Delta) and theta'' = cos sqrt(n) (g''/Delta -
    8 n (g/Delta) (g'/Delta)^2), so both keep their value wherever it is
    representable, and an exact 0 keeps its signed bits.
    """
    split = params.level_splitting
    g = params.mode.value(x)
    dg = params.mode.slope(x)
    ddg = params.mode.curvature(x)
    n = params.photon_index
    root_n = math.sqrt(n)
    with np.errstate(all="ignore"):
        den = split * split + 4.0 * n * g * g
        den_sq = den * den
        slope_num = split * root_n * dg
        curvature_num = split * root_n * (ddg * den - 8.0 * n * g * dg * dg)
        slope = slope_num / den
        curvature = curvature_num / den_sq
        direct_slope = _normal(den_sq) & _normal(slope_num)
        direct_curvature = _normal(den_sq) & _normal(curvature_num)
        if not np.all(direct_slope & direct_curvature):
            gap = np.hypot(split, 2.0 * root_n * g)
            # split and g both vanish where the gap does: a unit gap reads 0
            gap = np.where(gap > 0.0, gap, 1.0)
            cos = split / gap
            slope = np.where(direct_slope, slope, cos * root_n * (dg / gap))
            # g's signed 0 where g is 0, even where g'/Delta overflows
            cross = np.where(g == 0.0, g,
                             8.0 * n * (g / gap) * (dg / gap) * (dg / gap))
            curvature = np.where(direct_curvature, curvature,
                                 cos * root_n * (ddg / gap - cross))
    return slope, curvature


# ---------------------------------------------------------------------------
# Adiabatic frame sampled on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AdiabaticFrame:
    """Mixing angle, its derivatives and the adiabatic surfaces on a grid.

    At grid points where the angle is undefined (possible only at exactly
    zero detuning on nodes of the coupling) the angle and its derivatives
    are the analytic zero-detuning limits.
    """

    grid: "object"
    theta: np.ndarray
    theta_slope: np.ndarray
    theta_curvature: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        # Evaluated once per frame and shared by every caller, hence read-only.
        for name, value in (("_cos_theta", np.cos(self.theta)),
                            ("_sin_theta", np.sin(self.theta)),
                            ("_splitting", self.upper - self.lower)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def cos_theta(self):
        return self._cos_theta

    @property
    def sin_theta(self):
        return self._sin_theta

    @property
    def splitting(self):
        return self._splitting


def adiabatic_frame(params: ModelParams, grid) -> AdiabaticFrame:
    """Evaluate the adiabatic diagonalization on every grid point."""
    x = grid.x
    slope, curvature = _angle_derivatives(params, x)
    upper, lower = adiabatic_eigenvalues(params, x)
    return AdiabaticFrame(grid=grid, theta=_theta(params, x), theta_slope=slope,
                          theta_curvature=curvature, upper=upper, lower=lower)
