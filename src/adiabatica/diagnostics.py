"""Adiabaticity diagnostics: pointwise criterion, packet-averaged parameter,
overlap fidelity and the special-case studies built on them.

The pointwise parameter treats the packet as a classical point with momentum
p0; the packet-averaged parameter evaluates the same ratio with expectation
values over the two independently propagated adiabatic channel packets,
weighted by their initial populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# expect_grid_values and expect_slope_momentum go unused here but stay bound:
# perfbench/tracer.py rebinds them by this module's name.
from .grids import (ADIABATIC, BARE, SpinorField, _component_norms,
                    _grid_average, _slope_momentum_average, expect_grid_values,
                    expect_slope_momentum, to_adiabatic)
# SPLITTING_FLOOR is re-exported: averaged splittings below it collapse.
from .model import (SPLITTING_FLOOR, AdiabaticFrame, LinearMode, ModelParams,
                    StandingWaveMode, _angle_derivatives)

#: Channels with smaller initial population are skipped: a run fills no
#: per-channel column for them and checks none of their norms.
WEIGHT_FLOOR = 1e-12
#: Default number of points of adiabaticity_max_locus's bracketing scan.
SCAN_POINTS = 400


# ---------------------------------------------------------------------------
# Pointwise (semiclassical) adiabaticity parameter
# ---------------------------------------------------------------------------

def local_adiabaticity(params: ModelParams, x, p0,
                       include_curvature: bool = False):
    """Pointwise adiabaticity parameter for a packet moving at momentum p0.

    |(p0/m) split sqrt(n) g' / Delta^3| = |2 p0 theta'| / (2 m Delta) with
    Delta^2 = split^2 + 4 n g^2, optionally with theta'' added inside the
    modulus; p0 may be an array that broadcasts with x.  Evaluations where
    the gap Delta is below SPLITTING_FLOOR return inf (the singular points
    of the zero-detuning limit) instead of overflowing.  Where Delta^3
    overflows (from a detuning of about 1.8e103) or a direct value is not
    finite, the entry reads |(p0/m) theta' (+ theta''/2m)| / Delta, with
    theta' and theta'' from model._angle_derivatives, so it keeps its value
    wherever that is representable; a nan there raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    split = params.level_splitting
    n = params.photon_index
    g = np.asarray(params.mode.value(x), dtype=float)
    rate = p0 / params.mass
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # an array even for scalar x: the CSVs keep the bits of the ufunc
        # power, and a float64 scalar's ** rounds differently
        den_sq = np.asarray(split * split + 4.0 * n * g * g)
        cube = den_sq**1.5
        if include_curvature:
            slope, curv = _angle_derivatives(params, x)
            out = (np.abs(2.0 * rate * slope + curv / params.mass)
                   / (2.0 * np.sqrt(den_sq)))
        else:
            dg = np.asarray(params.mode.slope(x), dtype=float)
            out = np.abs(rate * split * math.sqrt(n) * dg) / cube
        redo = (~(np.isfinite(out) & np.isfinite(cube))
                | (den_sq < SPLITTING_FLOOR**2))
        if redo.any():
            if not include_curvature:
                slope, curv = _angle_derivatives(params, x)[0], 0.0
            gap = np.hypot(split, 2.0 * math.sqrt(n) * g)
            num = np.abs(rate * slope + curv / (2.0 * params.mass))
            out = np.where(redo, np.where(gap < SPLITTING_FLOOR, np.inf, num / gap), out)
            if np.isnan(out).any():
                raise ValueError("pointwise adiabaticity parameter overflows "
                                 f"at detuning {split}")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Packet-averaged adiabaticity parameter
# ---------------------------------------------------------------------------

@dataclass
class AdiabaticityParts:
    """Per-channel ingredients of the averaged adiabaticity parameter.

    Channels are ordered (upper, lower) along the last axis; leading axes of
    the averages are batch axes.  slope_averages holds the complex
    <2 (d theta/dx) p> averages, curvature_averages the real <d2 theta/dx2>,
    splittings the averaged surface separations.  Inactive channels (initial
    weight below WEIGHT_FLOOR) carry nan entries.
    """

    slope_averages: np.ndarray
    curvature_averages: np.ndarray
    splittings: np.ndarray
    weights: np.ndarray
    mass: float
    active: np.ndarray

    def channel_terms(self, include_curvature: bool = True) -> np.ndarray:
        """|<2 theta' p> (+ <theta''>)| / |<Delta_+> - <Delta_->| / 2m per channel."""
        _require_splitting(self.splittings[..., self.active])
        num = self.slope_averages
        if include_curvature:
            num = num + self.curvature_averages
        terms = _modulus(num) / np.abs(self.splittings) / (2.0 * self.mass)
        return np.where(self.active, terms, np.nan)

    def total(self, include_curvature: bool = True) -> float:
        return _weighted_total(self.weights,
                               self.channel_terms(include_curvature))


def _weighted_total(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of weight * term over the channels (last axis of `terms`) whose
    weight reaches WEIGHT_FLOOR; the others, whose terms are nan, add 0."""
    return np.where(weights >= WEIGHT_FLOOR, weights * terms, 0.0).sum(axis=-1)


def _modulus(values: np.ndarray) -> np.ndarray:
    """|z| of each complex element with the bits of the scalar abs(z): np.abs
    on a complex array rounds differently in the last bit, and the CSVs keep
    the scalar modulus."""
    return np.hypot(values.real, values.imag)


def _collapsed(splittings):
    """Whether an averaged splitting is too small to divide by; elementwise."""
    return np.abs(splittings) < SPLITTING_FLOOR


def _require_splitting(splittings: np.ndarray) -> None:
    if _collapsed(splittings).any():
        raise ValueError(
            "averaged surface splitting collapsed below "
            f"{SPLITTING_FLOOR}; adiabaticity ratio undefined")


def adiabaticity_parts(reference: SpinorField, frame: AdiabaticFrame,
                       params: ModelParams, weights) -> AdiabaticityParts:
    """Channel averages entering the packet-averaged adiabaticity parameter."""
    if reference.frame != ADIABATIC:
        raise ValueError("adiabaticity averages need the adiabatic-frame channels")
    weights = np.asarray(weights, dtype=float)
    active = weights >= WEIGHT_FLOOR
    rows = reference.components
    dens = np.abs(rows) ** 2
    norms = _component_norms(dens, reference.grid.dx, active)
    slope, curv, split = _adiabaticity_parts(
        np.conj(rows), dens, np.fft.fft(rows, axis=1), norms, frame, active)
    return AdiabaticityParts(slope, curv, split, weights, params.mass, active)


def _adiabaticity_parts(conj_rows: np.ndarray, dens: np.ndarray,
                        spectrum: np.ndarray, norms: np.ndarray,
                        frame: AdiabaticFrame, active: np.ndarray,
                        out: np.ndarray | None = None):
    """(slope, curvature, splitting) averages of adiabatic channel rows.

    Channels lie on axis -2 of the rows' complex conjugates `conj_rows`,
    their |psi|^2 `dens` and FFT `spectrum`, and on the last axis of `norms`
    (checked by the caller for every active channel) and of the results,
    which are nan for inactive channels.  Leading axes are batch axes.  Both
    channels are averaged at once, the slope term in `out` when given; an
    inactive channel's population may be zero, so its quotients are taken
    silently before they are masked.
    """
    grid = frame.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = 2.0 * _slope_momentum_average(
            conj_rows, spectrum, frame.theta_slope, grid, norms, out=out)
        curv = _grid_average(dens, frame.theta_curvature, grid.dx, norms)
        split = _grid_average(dens, frame.splitting, grid.dx, norms)
    return tuple(np.where(active, avg, np.nan) for avg in (slope, curv, split))


def packet_adiabaticity(reference: SpinorField, frame: AdiabaticFrame,
                        params: ModelParams, weights,
                        include_curvature: bool = True) -> float:
    """Weighted, packet-averaged adiabaticity parameter at one instant."""
    return adiabaticity_parts(reference, frame, params, weights).total(include_curvature)


def initial_channel_weights(reference: SpinorField) -> np.ndarray:
    """Normalized initial channel populations (upper, lower)."""
    pops = reference.component_norms_sq()
    total = pops.sum()
    if total <= 0:
        raise ValueError("cannot take channel weights of an empty field")
    return pops / total


# ---------------------------------------------------------------------------
# Overlap fidelity
# ---------------------------------------------------------------------------

def fidelity(exact: SpinorField, reference: SpinorField,
             frame: AdiabaticFrame) -> complex:
    """Complex overlap of the adiabatic reference with the exact state.

    The exact state is rotated into the adiabatic basis first when it carries
    the bare tag; the spinor inner product sums both components.
    """
    if reference.frame != ADIABATIC:
        raise ValueError("fidelity reference must be an adiabatic-frame field")
    if exact.grid != reference.grid:
        raise ValueError("fidelity operands live on different grids")
    probe = to_adiabatic(exact, frame) if exact.frame == BARE else exact
    return complex(_overlap(np.conj(reference.components), probe.components,
                            exact.grid.dx))


def _overlap(conj_reference: np.ndarray, probe: np.ndarray, dx: float,
             out: np.ndarray | None = None):
    """<reference|probe> over the last two axes (components, points), from
    the complex conjugate of the reference; the integrand is formed in `out`
    when given."""
    integrand = np.multiply(conj_reference, probe, out=out)
    return np.sum(integrand, axis=(-2, -1)) * dx


# ---------------------------------------------------------------------------
# Maximum locus of the pointwise parameter
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def adiabaticity_max_locus(params: ModelParams, deltas, p0: float,
                           window: tuple[float, float],
                           scan_points: int = SCAN_POINTS) -> np.ndarray:
    """Location of the pointwise-parameter maximum per detuning.

    A grid scan over window = (x_lo, x_hi), which a max-locus config
    resolves at load time, brackets the maximum and a golden-section
    refinement polishes it; returns rows (detuning, x_max).
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("search window must satisfy x_hi > x_lo")
    xs = np.linspace(lo, hi, scan_points)
    deltas = list(deltas)  # a one-shot iterable is read once, here
    out = np.empty((len(deltas), 2))
    for i, delta in enumerate(deltas):
        local = replace(params, detuning=float(delta))
        vals = local_adiabaticity(local, xs, p0)
        peak = np.max(vals[np.isfinite(vals)], initial=0.0)
        if peak <= 0.0:
            raise ValueError("flat adiabaticity profile: nothing to maximize")
        j = int(np.argmax(vals))
        a = xs[max(j - 1, 0)]
        b = xs[min(j + 1, scan_points - 1)]
        tol = max(1e-10 * (hi - lo), 1e-12)
        x_best = _golden_max(lambda x: local_adiabaticity(local, x, p0), a, b, tol)
        out[i] = (delta, x_best)
    return out


# ---------------------------------------------------------------------------
# Area identity of the node-peak approximant
# ---------------------------------------------------------------------------

def lorentzian_peak_integral(params: ModelParams, p0: float,
                             window_halfwidths: float = 200.0) -> tuple[float, float]:
    """Quadrature vs closed form for the peak approximant around a coupling zero.

    The pointwise parameter near a linear zero of the coupling is
    amp / (1 + C^2 x^2)^(3/2) with C = 2 sqrt(n) g' / split evaluated at the
    zero; its integral is |p0 / (m split)| independent of C.  Returns
    (numeric, analytic).
    """
    split = params.level_splitting
    if split == 0.0:
        raise ValueError("peak integral needs a nonzero level splitting")
    n = params.photon_index
    if not isinstance(params.mode, (LinearMode, StandingWaveMode)):
        raise ValueError("peak integral is defined for linear or standing-wave modes")
    c = 2.0 * math.sqrt(n) * float(params.mode.slope(0.0)) / split
    if c == 0.0:
        raise ValueError("peak integral needs a nonzero coupling slope at the node")
    amp = abs(p0 * c / (2.0 * params.mass * split))
    analytic = abs(p0 / (params.mass * split))
    half_width = window_halfwidths / abs(c)
    tail = analytic * (1.0 - abs(c) * half_width / math.hypot(1.0, c * half_width))
    if tail > 0.01 * analytic:
        raise ValueError(
            f"integration window of {window_halfwidths} half-widths leaves a "
            f"{tail / analytic:.2%} tail; enlarge it")
    # Imported on first use: no CLI experiment needs scipy.integrate, and
    # importing it adds about 0.3 s to every start-up.
    from scipy.integrate import quad

    numeric, _ = quad(lambda x: amp / (1.0 + (c * x) ** 2) ** 1.5,
                      -half_width, half_width, limit=200)
    return float(numeric), float(analytic)


# ---------------------------------------------------------------------------
# Order-of-limits probe at a standing-wave node
# ---------------------------------------------------------------------------

@dataclass
class NodeLimitReport:
    """Two limit paths of the pointwise parameter near a coupling node.

    Fixing x off the node and shrinking the detuning sends the parameter to
    zero (fitted exponent ~ +1); sitting exactly on the node it diverges as
    the detuning shrinks (fitted exponent ~ -2).  The two iterated limits
    therefore disagree.
    """

    deltas: np.ndarray
    off_node_values: np.ndarray
    node_values: np.ndarray
    off_node_exponent: float
    node_exponent: float
    approach_offsets: np.ndarray
    approach_values: np.ndarray
    probe_delta: float
    off_node_position: float
    node_position: float

    @property
    def iterated_limit_ratio(self) -> float:
        """Node value over off-node value at the smallest probed detuning."""
        return float(self.node_values[-1] / self.off_node_values[-1])


def node_limit_probe(params: ModelParams, p0: float,
                     deltas=None) -> NodeLimitReport:
    """Evaluate the pointwise parameter along the two limit orderings, at
    the node x = 0 and at x = 0.3/q, whose offset the approach halves."""
    mode = params.mode
    if not isinstance(mode, StandingWaveMode):
        raise ValueError("the limit-ordering probe needs a standing-wave mode")
    if deltas is None:
        deltas = np.logspace(-2, -5, 13)
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if np.unique(deltas).size < 2 or not np.all((deltas > 0.0) & (deltas < np.inf)):
        raise ValueError("the limit-ordering probe needs at least two distinct "
                         "positive finite detunings")
    node = 0.0
    off_x = 0.3 / mode.wavenumber

    off_vals, node_vals = np.transpose([
        local_adiabaticity(replace(params, detuning=float(d)), [off_x, node], p0)
        for d in deltas])

    off_fit = np.polyfit(np.log(deltas), np.log(off_vals), 1)
    node_fit = np.polyfit(np.log(deltas), np.log(node_vals), 1)

    probe_delta = float(deltas[-1])
    local = replace(params, detuning=probe_delta)
    offsets = off_x * 0.5 ** np.arange(12)
    approach = np.asarray(
        [local_adiabaticity(local, node + off, p0) for off in offsets])

    return NodeLimitReport(
        deltas=deltas, off_node_values=off_vals, node_values=node_vals,
        off_node_exponent=float(off_fit[0]), node_exponent=float(node_fit[0]),
        approach_offsets=offsets, approach_values=approach,
        probe_delta=probe_delta, off_node_position=off_x, node_position=node)
