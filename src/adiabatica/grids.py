"""Uniform periodic grid, two-component wave functions and observables.

Components live on a periodic grid of N = 2^m points; momentum-space
quantities use the standard discrete Fourier ordering.  All norms and
expectation values are plain Riemann sums, which are spectrally accurate for
periodic decaying states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AdiabaticFrame

BARE = "bare"
ADIABATIC = "adiabatic"

_NORM_FLOOR = 1e-150


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [x_min, x_max) with a power-of-two point count."""

    npoints: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.npoints
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("Grid.npoints must be a power of two >= 2")
        if not self.x_max > self.x_min:
            raise ValueError("Grid requires x_max > x_min")
        dx = (self.x_max - self.x_min) / n
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dk", 2.0 * np.pi / (n * dx))
        object.__setattr__(self, "x", self.x_min + dx * np.arange(n))
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.fftfreq(n, d=dx))

    @property
    def k_max(self) -> float:
        """Largest representable momentum magnitude pi/dx."""
        return np.pi / self.dx

    def supports_momentum(self, p_needed: float) -> bool:
        return self.k_max > p_needed


@dataclass(eq=False)
class SpinorField:
    """Two complex components on a grid, tagged with the basis they refer to."""

    grid: Grid
    components: np.ndarray
    frame: str

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=np.complex128)
        if arr.shape != (2, self.grid.npoints):
            raise ValueError("SpinorField.components must have shape (2, npoints)")
        if self.frame not in (BARE, ADIABATIC):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        self.components = arr

    @property
    def upper(self):
        return self.components[0]

    @property
    def lower(self):
        return self.components[1]

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.components.copy(), self.frame)

    def norm_sq(self) -> float:
        """Total integral of |psi_upper|^2 + |psi_lower|^2."""
        return _norm_sq(np.abs(self.components) ** 2, self.grid.dx)

    def norm(self) -> float:
        return np.sqrt(self.norm_sq())

    def component_norms_sq(self) -> np.ndarray:
        """Per-component populations, shape (2,)."""
        return np.sum(np.abs(self.components) ** 2, axis=1) * self.grid.dx


def _norm_sq(dens: np.ndarray, dx: float) -> float:
    return float(np.sum(dens)) * dx


def gaussian_bare_state(grid: Grid, x0: float, p0: float, width: float,
                        edge_margin: float = 5.0) -> SpinorField:
    """Normalized Gaussian packet in the upper bare component.

    upper = (pi width^2)^(-1/4) exp(-(x - x0)^2 / 2 width^2) exp(i p0 x),
    lower = 0.  The packet must sit at least edge_margin * width from both
    domain edges, and the grid must resolve momenta up to p0 + 6 / width.
    """
    if width <= 0:
        raise ValueError("gaussian packet width must be > 0")
    if x0 - edge_margin * width < grid.x_min or x0 + edge_margin * width > grid.x_max:
        raise ValueError(
            f"packet at x0={x0} with width {width} sits closer than "
            f"{edge_margin} widths to a domain edge")
    p_needed = abs(p0) + 6.0 / width
    if not grid.supports_momentum(p_needed):
        raise ValueError(
            f"grid momentum cutoff {grid.k_max:.3g} does not cover p0 + 6/width "
            f"= {p_needed:.3g}; refine the grid")
    x = grid.x
    envelope = (np.pi * width**2) ** (-0.25) * np.exp(-((x - x0) ** 2) / (2.0 * width**2))
    upper = envelope * np.exp(1j * p0 * x)
    comps = np.zeros((2, grid.npoints), dtype=np.complex128)
    comps[0] = upper
    return SpinorField(grid, comps, BARE)


# ---------------------------------------------------------------------------
# Frame rotations
# ---------------------------------------------------------------------------

def _check_grids(field: SpinorField, frame: AdiabaticFrame):
    if field.grid != frame.grid:
        raise ValueError("field and adiabatic frame live on different grids")


def to_adiabatic(field: SpinorField, frame: AdiabaticFrame) -> SpinorField:
    """Rotate a bare-basis field into the adiabatic basis, pointwise."""
    if field.frame != BARE:
        raise ValueError("to_adiabatic expects a bare-frame field")
    _check_grids(field, frame)
    comps = _rotate_to_adiabatic(field.components, frame.cos_theta, frame.sin_theta)
    return SpinorField(field.grid, comps, ADIABATIC)


def _rotate_to_adiabatic(comps: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    up = c * comps[0] + s * comps[1]
    dn = -s * comps[0] + c * comps[1]
    return np.stack([up, dn])


def to_bare(field: SpinorField, frame: AdiabaticFrame) -> SpinorField:
    """Inverse rotation of to_adiabatic."""
    if field.frame != ADIABATIC:
        raise ValueError("to_bare expects an adiabatic-frame field")
    _check_grids(field, frame)
    comps = _rotate_to_adiabatic(field.components, frame.cos_theta,
                                 -frame.sin_theta)
    return SpinorField(field.grid, comps, BARE)


# ---------------------------------------------------------------------------
# Expectation values (per component, each with its own normalized density)
# ---------------------------------------------------------------------------

def _rows(field: SpinorField, component: int | None) -> np.ndarray:
    if component is None:
        return field.components
    if component not in (0, 1):
        raise ValueError("component must be 0 (upper), 1 (lower) or None (both)")
    return field.components[component:component + 1]


def _component_norms(dens: np.ndarray, dx: float,
                     checked=slice(None)) -> np.ndarray:
    """Row populations of |psi|^2; the rows picked by `checked` must be nonempty."""
    norms = np.sum(dens, axis=1) * dx
    if np.any(norms[checked] <= _NORM_FLOOR):
        raise ValueError("expectation over a zero-population component")
    return norms


def _squeeze(values: np.ndarray, component: int | None):
    return values if component is None else values[0]


def _grid_average(dens: np.ndarray, values: np.ndarray, dx: float,
                  norms: np.ndarray) -> np.ndarray:
    """Per-row average of a position-diagonal observable over |psi|^2 rows."""
    return (dens @ values) * dx / norms


def _spectrum_average(spectrum: np.ndarray, values: np.ndarray, grid: Grid,
                      norms: np.ndarray) -> np.ndarray:
    """Per-row average of a momentum-diagonal observable over FFT rows."""
    # Parseval: sum |psi~|^2 / N = sum |psi|^2
    weights = np.abs(spectrum) ** 2 * (grid.dx / grid.npoints)
    return (weights @ values) / norms


def _slope_momentum_average(rows: np.ndarray, spectrum: np.ndarray,
                            slope_values: np.ndarray, grid: Grid,
                            norms: np.ndarray) -> np.ndarray:
    """Per-row <f(x) p>, with p psi taken from the rows' FFT `spectrum`."""
    p_psi = np.fft.ifft(grid.k * spectrum, axis=1)
    integrand = np.conj(rows) * slope_values * p_psi
    return np.sum(integrand, axis=1) * grid.dx / norms


def expect_grid_values(field: SpinorField, values: np.ndarray,
                       component: int | None = None):
    """Average of a position-diagonal observable per component.

    Each component uses its own normalized density; shape (2,) for both
    components, a scalar when one is selected.  An exactly empty component
    is an error.
    """
    dens = np.abs(_rows(field, component)) ** 2
    norms = _component_norms(dens, field.grid.dx)
    out = _grid_average(dens, np.asarray(values, dtype=float), field.grid.dx, norms)
    return _squeeze(out, component)


def expect_position(field: SpinorField, component: int | None = None):
    return expect_grid_values(field, field.grid.x, component)


def _expect_spectrum(field: SpinorField, values: np.ndarray,
                     component: int | None):
    rows = _rows(field, component)
    norms = _component_norms(np.abs(rows) ** 2, field.grid.dx)
    out = _spectrum_average(np.fft.fft(rows, axis=1), values, field.grid, norms)
    return _squeeze(out, component)


def expect_momentum(field: SpinorField, component: int | None = None):
    return _expect_spectrum(field, field.grid.k, component)


def expect_momentum_sq(field: SpinorField, component: int | None = None):
    return _expect_spectrum(field, field.grid.k**2, component)


def expect_slope_momentum(field: SpinorField, slope_values: np.ndarray,
                          component: int | None = None):
    """<f(x) p> per component with the operator product as written (f then p).

    Not symmetrized, so the result is complex in general; callers take the
    modulus where a real rate is needed.
    """
    rows = _rows(field, component)
    norms = _component_norms(np.abs(rows) ** 2, field.grid.dx)
    out = _slope_momentum_average(rows, np.fft.fft(rows, axis=1),
                                  np.asarray(slope_values, dtype=float),
                                  field.grid, norms)
    return _squeeze(out, component)


# ---------------------------------------------------------------------------
# Whole-state summaries (both components combined)
# ---------------------------------------------------------------------------

def _centre(dens: np.ndarray, grid: Grid, caller: str):
    """(<x>, total) of a total density; `caller` names the empty-field error."""
    total = np.sum(dens) * grid.dx
    if total <= _NORM_FLOOR:
        raise ValueError(f"{caller} of an empty field")
    return np.sum(dens * grid.x) * grid.dx / total, total


def _width(dens: np.ndarray, grid: Grid, mean, total) -> float:
    var = np.sum(dens * (grid.x - mean) ** 2) * grid.dx / total
    return float(np.sqrt(2.0 * var))


def mean_position(field: SpinorField) -> float:
    """<x> over the total density; invariant under pointwise frame rotations."""
    dens = np.sum(np.abs(field.components) ** 2, axis=0)
    return float(_centre(dens, field.grid, "mean_position")[0])


def mean_momentum(field: SpinorField) -> float:
    return _mean_momentum(np.fft.fft(field.components, axis=1), field.grid)


def _mean_momentum(spectrum: np.ndarray, grid: Grid) -> float:
    """<p> over the total momentum density of the FFT rows `spectrum`."""
    spec = np.sum(np.abs(spectrum) ** 2, axis=0)
    total = np.sum(spec)
    if total <= _NORM_FLOOR:
        raise ValueError("mean_momentum of an empty field")
    return float(np.sum(spec * grid.k) / total)


def packet_width(field: SpinorField) -> float:
    """Width parameter sqrt(2 var(x)) of the total density.

    Matches the Gaussian convention where the initial value equals the width
    argument of gaussian_bare_state.
    """
    dens = np.sum(np.abs(field.components) ** 2, axis=0)
    mean, total = _centre(dens, field.grid, "packet_width")
    return _width(dens, field.grid, mean, total)

