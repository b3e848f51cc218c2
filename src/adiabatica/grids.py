"""Uniform periodic grid, two-component wave functions and observables.

Components live on a periodic grid of N = 2^m points; momentum-space
quantities use the standard discrete Fourier ordering.  All norms and
expectation values are plain Riemann sums, which are spectrally accurate for
periodic decaying states.

The private helpers behind the observables reduce over the last axis and
accept leading batch axes, so the run sampler in `propagation` evaluates a
block of sampled states with the same formulas the public observables use
on one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the gufuncs behind np.fft.fft and np.fft.ifft (numpy >= 2.0)
from numpy.fft._pocketfft_umath import fft as _pocketfft_fft
from numpy.fft._pocketfft_umath import ifft as _pocketfft_ifft

from .model import AdiabaticFrame

BARE = "bare"
ADIABATIC = "adiabatic"

_NORM_FLOOR = 1e-150
#: Widths a packet keeps clear of each domain edge, at the start of a run
#: and at every sample of it.
EDGE_MARGIN = 5.0


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
        with np.errstate(over="ignore"):  # numpy scalar bounds
            dx = (self.x_max - self.x_min) / n
            k_max = np.pi / dx
        if not np.isfinite(dx):
            raise ValueError("Grid spacing (x_max - x_min)/npoints overflows")
        if not np.isfinite(k_max):
            raise ValueError(f"Grid momentum cutoff pi/dx overflows at "
                             f"dx={float(dx)!r}")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", self.x_min + dx * np.arange(n))
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.fftfreq(n, d=dx))

    @property
    def k_max(self) -> float:
        """Largest representable momentum magnitude pi/dx."""
        return np.pi / self.dx


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

    def norm_sq(self) -> float:
        """Total integral of |psi_upper|^2 + |psi_lower|^2."""
        return float(_norm_sq(np.abs(self.components) ** 2, self.grid.dx))

    def component_norms_sq(self) -> np.ndarray:
        """Per-component populations, shape (2,)."""
        return _populations(np.abs(self.components) ** 2, self.grid.dx)


def _fft(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.fft.fft over the last axis, bit for bit, written into `out` (which
    may be `values`) without np.fft's per-call argument handling."""
    return _pocketfft_fft(values, 1, out=out)


def _ifft(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.fft.ifft over the last axis, bit for bit, written into `out`."""
    return _pocketfft_ifft(values, 1.0 / values.shape[-1], out=out)


def _norm_sq(dens: np.ndarray, dx: float):
    """Population of |psi|^2 over its last two axes (components, points)."""
    return np.sum(dens, axis=(-2, -1)) * dx


def _abs2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|values|^2 elementwise, written into `out` when given."""
    out = np.abs(values, out=out)
    return np.square(out, out=out)


def _populations(dens: np.ndarray, dx: float):
    """Populations of |psi|^2 rows, or of total densities, along the last axis."""
    return np.sum(dens, axis=-1) * dx


def _near_edge(grid: Grid, centre, width):
    """Whether a packet does not keep EDGE_MARGIN widths clear of both domain
    edges, a nan centre or width included; elementwise for arrays of them."""
    return np.logical_not((centre - EDGE_MARGIN * width >= grid.x_min)
                          & (centre + EDGE_MARGIN * width <= grid.x_max))


def momentum_cover(p0: float, width: float) -> float:
    """|p0| + 6/width: the momentum a grid must resolve for a Gaussian packet."""
    return abs(p0) + 6.0 / width


def gaussian_bare_state(grid: Grid, x0: float, p0: float,
                        width: float) -> SpinorField:
    """Normalized Gaussian packet in the upper bare component.

    upper = (pi width^2)^(-1/4) exp(-(x - x0)^2 / 2 width^2) exp(i p0 x),
    lower = 0.  The packet must sit at least EDGE_MARGIN widths from both
    domain edges, and the grid must resolve momenta up to momentum_cover.
    """
    if width <= 0:
        raise ValueError("gaussian packet width must be > 0")
    if _near_edge(grid, x0, width):
        raise ValueError(
            f"packet at x0={x0} with width {width} sits closer than "
            f"{EDGE_MARGIN} widths to a domain edge")
    p_needed = momentum_cover(p0, width)
    if not grid.k_max > p_needed:
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


def _rotate_to_adiabatic(comps: np.ndarray, c: np.ndarray, s: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Rotate components (axis -2) pointwise by the angle with cos c, sin s."""
    if out is None:
        out = np.empty(comps.shape, dtype=np.complex128)
    up, dn = out[..., 0, :], out[..., 1, :]
    np.multiply(c, comps[..., 0, :], out=up)
    up += s * comps[..., 1, :]
    np.multiply(-s, comps[..., 0, :], out=dn)
    dn += c * comps[..., 1, :]
    return out


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

def _unpopulated(norms):
    """Whether a population is too small, or not finite, to normalise by;
    elementwise."""
    return np.logical_not(np.isfinite(norms) & (norms > _NORM_FLOOR))


def _require_populated(norms: np.ndarray) -> None:
    if _unpopulated(norms).any():
        raise ValueError("expectation over a zero-population or non-finite "
                         "component")


def _component_norms(dens: np.ndarray, dx: float,
                     checked=slice(None)) -> np.ndarray:
    """Row populations of |psi|^2; the rows picked by `checked` must be nonempty."""
    norms = _populations(dens, dx)
    _require_populated(norms[..., checked])
    return norms


def _grid_average(dens: np.ndarray, values: np.ndarray, dx: float,
                  norms: np.ndarray) -> np.ndarray:
    """Per-row average of a position-diagonal observable over |psi|^2 rows."""
    # one (1, N) @ (N,) product per row: a stacked (rows, N) @ (N,) takes
    # another BLAS path and rounds differently
    return (dens[..., None, :] @ values)[..., 0] * dx / norms


def _spectrum_average(power: np.ndarray, values: np.ndarray, grid: Grid,
                      norms: np.ndarray) -> np.ndarray:
    """Per-row average of a momentum-diagonal observable over |FFT|^2 rows."""
    # Parseval: sum |psi~|^2 / N = sum |psi|^2
    weights = power * (grid.dx / grid.npoints)
    return (weights[..., None, :] @ values)[..., 0] / norms


def _slope_momentum_average(conj_rows: np.ndarray, spectrum: np.ndarray,
                            slope_values: np.ndarray, grid: Grid,
                            norms: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Per-row <f(x) p> from the complex conjugates of the rows and their FFT
    `spectrum`: one inverse transform over all rows, formed in `out` when
    given."""
    p_psi = np.multiply(grid.k, spectrum, out=out)
    _ifft(p_psi, out=p_psi)
    integrand = conj_rows * slope_values
    integrand *= p_psi
    return np.sum(integrand, axis=-1) * grid.dx / norms


def expect_grid_values(field: SpinorField, values: np.ndarray):
    """Average of a position-diagonal observable per component, shape (2,).

    Each component uses its own normalized density.  An empty component is
    an error.
    """
    dens = np.abs(field.components) ** 2
    norms = _component_norms(dens, field.grid.dx)
    return _grid_average(dens, np.asarray(values, dtype=float), field.grid.dx,
                         norms)


def expect_position(field: SpinorField):
    return expect_grid_values(field, field.grid.x)


def _expect_spectrum(field: SpinorField, values: np.ndarray):
    rows = field.components
    norms = _component_norms(np.abs(rows) ** 2, field.grid.dx)
    return _spectrum_average(_abs2(np.fft.fft(rows, axis=1)), values, field.grid,
                             norms)


def expect_momentum(field: SpinorField):
    return _expect_spectrum(field, field.grid.k)


def expect_slope_momentum(field: SpinorField, slope_values: np.ndarray):
    """<f(x) p> per component with the operator product as written (f then p).

    Not symmetrized, so the result is complex in general; callers take the
    modulus where a real rate is needed.
    """
    rows = field.components
    norms = _component_norms(np.abs(rows) ** 2, field.grid.dx)
    return _slope_momentum_average(np.conj(rows), np.fft.fft(rows, axis=1),
                                   np.asarray(slope_values, dtype=float),
                                   field.grid, norms)


# ---------------------------------------------------------------------------
# Whole-state summaries (both components combined)
# ---------------------------------------------------------------------------

def _require_field(total, caller: str) -> None:
    """Raise if the whole-field population `total` is empty or not finite;
    `caller` names it."""
    if _unpopulated(total):
        raise ValueError(f"{caller} of an empty or non-finite field")


def _centre(dens: np.ndarray, grid: Grid, total):
    """<x> of total densities along the last axis with populations `total`."""
    return np.sum(dens * grid.x, axis=-1) * grid.dx / total


def _width(dens: np.ndarray, grid: Grid, mean, total):
    var = np.sum(dens * (grid.x - mean[..., None]) ** 2, axis=-1) * grid.dx / total
    return np.sqrt(2.0 * var)


def mean_position(field: SpinorField) -> float:
    """<x> over the total density; invariant under pointwise frame rotations."""
    dens = np.sum(np.abs(field.components) ** 2, axis=0)
    total = _populations(dens, field.grid.dx)
    _require_field(total, "mean_position")
    return float(_centre(dens, field.grid, total))


def mean_momentum(field: SpinorField) -> float:
    spec = np.sum(_abs2(np.fft.fft(field.components, axis=1)), axis=0)
    total = np.sum(spec, axis=-1)
    _require_field(total, "mean_momentum")
    return float(_mean_momentum(spec, field.grid, total))


def _mean_momentum(spec: np.ndarray, grid: Grid, total):
    """<p> of momentum densities along the last axis with sums `total`."""
    return np.sum(spec * grid.k, axis=-1) / total


def packet_width(field: SpinorField) -> float:
    """Width parameter sqrt(2 var(x)) of the total density.

    Matches the Gaussian convention where the initial value equals the width
    argument of gaussian_bare_state.
    """
    dens = np.sum(np.abs(field.components) ** 2, axis=0)
    total = _populations(dens, field.grid.dx)
    _require_field(total, "packet_width")
    return float(_width(dens, field.grid, _centre(dens, field.grid, total), total))
