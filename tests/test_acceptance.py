"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 8 and 9a assert the configured fidelity margins verbatim; see the
trend tests at the bottom for the coupling-strength comparisons evaluated
where the effect is actually visible in this model.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import adiabatica as ad

from conftest import l2_distance


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def local_peak_positions(x, y, floor_frac=0.2):
    """Positions of prominent interior local maxima of y(x)."""
    peaks = [i for i in range(1, len(y) - 1)
             if y[i] >= y[i - 1] and y[i] >= y[i + 1]]
    top = max(y)
    return sorted(x[i] for i in peaks if y[i] > floor_frac * top)


def steepest_descent_positions(x, f, top=3):
    """Positions of the strongest local maxima of |df/dx|."""
    slope = np.abs(np.gradient(f, x))
    peaks = [i for i in range(1, len(slope) - 1)
             if slope[i] >= slope[i - 1] and slope[i] >= slope[i + 1]]
    peaks.sort(key=lambda i: -slope[i])
    return [x[i] for i in peaks[:top]]


def fwhm(x, y, x_peak):
    """Full width at half maximum of the peak of y nearest x_peak."""
    i = int(np.argmin(np.abs(x - x_peak)))
    lo_probe = max(0, i - 5)
    i = lo_probe + int(np.argmax(y[lo_probe:i + 6]))
    half = y[i] / 2.0
    lo = i
    while lo > 0 and y[lo] > half:
        lo -= 1
    hi = i
    while hi < len(y) - 1 and y[hi] > half:
        hi += 1
    xl = x[lo] + (half - y[lo]) * (x[lo + 1] - x[lo]) / (y[lo + 1] - y[lo])
    xr = x[hi - 1] + (half - y[hi - 1]) * (x[hi] - x[hi - 1]) / (y[hi] - y[hi - 1])
    return xr - xl


def gaussian_transit(amplitude, detuning, x_stop=200.0, x0=-200.0, p0=5.0,
                     width=10.0, dt=0.02, stride=25, domain=(-300.0, 300.0),
                     points=2048, adiabaticity=False, keep_states=False):
    params = ad.ModelParams(mode=ad.GaussianMode(amplitude, 50.0),
                            detuning=detuning)
    grid = ad.Grid(points, *domain)
    psi = ad.gaussian_bare_state(grid, x0, p0, width)
    scenario = ad.Scenario(params=params, grid=grid, initial=psi,
                           t_final=(x_stop - x0) / p0, dt=dt, stride=stride,
                           x0=x0, p0=p0, keep_states=keep_states)
    return ad.run_scenario(scenario, compute_adiabaticity=adiabaticity)


# ---------------------------------------------------------------------------
# 1. Unitarity and reversibility
# ---------------------------------------------------------------------------

def test_criterion_01_unitarity_and_reversibility():
    grid = ad.Grid(4096, -60.0, 60.0)
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.8, 0.7), detuning=0.9)
    psi = ad.gaussian_bare_state(grid, -20.0, 3.0, 4.0)
    prop = ad.FullPropagator(params, grid, 0.005)

    start = time.perf_counter()
    out = prop.advance(psi, 100_000)
    elapsed = time.perf_counter() - start
    drift = abs(out.norm_sq() - 1.0)

    mid = prop.advance(psi, 2000)
    back = ad.FullPropagator(params, grid, -0.005).advance(mid, 2000)
    round_trip = l2_distance(back, psi)

    ok = drift <= 1e-10 and round_trip <= 1e-8 and elapsed < 120.0
    _report("1 (unitarity & reversibility)", ok,
            f"norm drift {drift:.2e} per 1e5 steps, round trip {round_trip:.2e}, "
            f"{elapsed:.1f} s at N=4096")


# ---------------------------------------------------------------------------
# 2. Free-packet oracle
# ---------------------------------------------------------------------------

def test_criterion_02_free_packet_oracle():
    grid = ad.Grid(2048, -300.0, 300.0)
    params = ad.ModelParams(mode=ad.GaussianMode(0.0, 50.0), detuning=1.0)
    psi = ad.gaussian_bare_state(grid, -100.0, 2.0, 5.0)
    scenario = ad.Scenario(params=params, grid=grid, initial=psi, t_final=30.0,
                           dt=0.01, stride=300, x0=-100.0, p0=2.0)
    rec = ad.run_scenario(scenario)
    widths = []
    state = psi
    prop = ad.FullPropagator(params, grid, 0.01)
    for _ in rec.times[1:]:
        state = prop.advance(state, 300)
        widths.append(ad.packet_width(state))
    law = 5.0 * np.sqrt(1.0 + (rec.times[1:] / 25.0) ** 2)
    width_err = float(np.max(np.abs(np.asarray(widths) - law)))
    fid_err = float(np.max(np.abs(np.abs(rec.fidelity) - 1.0)))
    ok = width_err <= 1e-6 and fid_err <= 1e-9
    _report("2 (free-packet oracle)", ok,
            f"width error {width_err:.2e}, |F|-1 error {fid_err:.2e}")


# ---------------------------------------------------------------------------
# 3. Strang order on the weak-coupling transit
# ---------------------------------------------------------------------------

def test_criterion_03_strang_order():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=10.0)
    grid = ad.Grid(2048, -300.0, 300.0)
    psi = ad.gaussian_bare_state(grid, -200.0, 5.0, 10.0)
    t_final = 80.0

    def evolve(dt):
        return ad.FullPropagator(params, grid, dt).advance(
            psi, int(round(t_final / dt)))

    ref = evolve(0.1 / 8)
    ratio = l2_distance(evolve(0.1), ref) / l2_distance(evolve(0.05), ref)
    ok = 3.5 <= ratio <= 4.5
    _report("3 (Strang self-convergence)", ok, f"halving ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 4. Frame identity between the two rotating-frame cases
# ---------------------------------------------------------------------------

def test_criterion_04_frame_identity():
    xs = np.linspace(-300.0, 300.0, 10_000)
    worst_split = 0.0
    worst_offdiag = 0.0
    worst_diag = 0.0
    for mode in (ad.GaussianMode(1.0, 50.0), ad.StandingWaveMode(0.8, 0.3)):
        for detuning in (1.7, 0.05):
            p1 = ad.ModelParams(mode=mode, detuning=detuning, photon_index=2)
            p2 = replace(p1, frame_case=ad.FrameCase.CASE2)
            u1, d1 = ad.adiabatic_eigenvalues(p1, xs)
            u2, d2 = ad.adiabatic_eigenvalues(p2, xs)
            worst_split = max(worst_split, float(np.max(np.abs((u1 - d1) - (u2 - d2)))))
            for params in (p1, p2):
                theta = ad.mixing_angle(params, xs)
                g = params.coupling(xs)
                half = 0.5 * params.level_splitting
                upper, lower = ad.adiabatic_eigenvalues(params, xs)
                off = np.cos(2 * theta) * g - np.sin(2 * theta) * half
                diag = params.mean_shift + half * np.cos(2 * theta) + g * np.sin(2 * theta)
                worst_offdiag = max(worst_offdiag, float(np.max(np.abs(off))))
                worst_diag = max(worst_diag, float(np.max(np.abs(diag - upper))))
    ok = worst_split <= 1e-12 and worst_offdiag <= 1e-12 and worst_diag <= 1e-12
    _report("4 (frame identity)", ok,
            f"splitting diff {worst_split:.2e}, rotated off-diagonal "
            f"{worst_offdiag:.2e}, diagonal {worst_diag:.2e}")


# ---------------------------------------------------------------------------
# 5. Time-domain criterion equals the pointwise spatial one
# ---------------------------------------------------------------------------

def test_criterion_05_time_domain_identity():
    params = ad.ModelParams(mode=ad.GaussianMode(2.0, 30.0), detuning=1.3,
                            photon_index=2)
    model = ad.substitution_model(params, 3.0, -100.0)
    ts = np.linspace(0.0, 70.0, 2001)
    lhs = ad.time_adiabaticity(model, ts)
    rhs = ad.local_adiabaticity(params, -100.0 + 3.0 * ts, 3.0)
    err = float(np.max(np.abs(lhs - rhs)))
    ok = err <= 1e-10
    _report("5 (time-domain identity)", ok, f"max pointwise deviation {err:.2e}")


# ---------------------------------------------------------------------------
# 6. Area identity of the node-peak approximant
# ---------------------------------------------------------------------------

def test_criterion_06_peak_integral():
    analytic_expected = 4.0  # |p0 / (m delta)| with p0 = 2, delta = 0.5
    numerics = []
    for gradient in (0.5, 1.0, 2.0):
        params = ad.ModelParams(mode=ad.LinearMode(gradient), detuning=0.5)
        numeric, analytic = ad.lorentzian_peak_integral(params, p0=2.0)
        assert analytic == analytic_expected
        numerics.append(numeric)
    spread = max(numerics) - min(numerics)
    errs = [abs(n - analytic_expected) / analytic_expected for n in numerics]
    ok = max(errs) <= 0.01 and spread <= 1e-4 * analytic_expected
    _report("6 (peak-area identity)", ok,
            f"relative errors {[f'{e:.2e}' for e in errs]}, spread {spread:.2e}")


# ---------------------------------------------------------------------------
# 7. Maximum locus trend
# ---------------------------------------------------------------------------

def test_criterion_07_max_locus():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=1.0)
    deltas = np.geomspace(0.01, 10.0, 13)
    start = time.perf_counter()
    locus = ad.adiabaticity_max_locus(params, deltas, 10.0,
                                      window=(0.5, 300.0), scan_points=800)
    elapsed = time.perf_counter() - start
    x_max = locus[:, 1]
    large = x_max[deltas >= 1.0]
    ok = (np.all((large >= 48.0) & (large <= 52.0))
          and x_max[0] > 75.0
          and np.all(np.diff(x_max) <= 1e-9)
          and elapsed < 60.0)
    _report("7 (maximum locus)", ok,
            f"x_max at delta>=1 in [{large.min():.2f}, {large.max():.2f}], "
            f"x_max(0.01)={x_max[0]:.2f}, monotone, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 8 and 9: fidelity margins at the configured detunings
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_detuning_runs():
    kw = dict(x_stop=300.0, domain=(-300.0, 400.0), stride=25)
    return {1.0: gaussian_transit(1.0, 0.05, **kw),
            10.0: gaussian_transit(10.0, 0.05, **kw)}


def test_criterion_08_fidelity_trend_large_detuning():
    weak = gaussian_transit(1.0, 10.0)
    strong = gaussian_transit(10.0, 10.0)
    margin = abs(weak.fidelity[-1]) - abs(strong.fidelity[-1])
    ok = margin >= 0.05
    _report("8 (fidelity trend, large detuning)", ok,
            f"|F|(A=1)={abs(weak.fidelity[-1]):.6f}, "
            f"|F|(A=10)={abs(strong.fidelity[-1]):.6f}, margin {margin:+.6f} "
            f"(required >= +0.05)")


def test_criterion_09a_fidelity_trend_small_detuning(small_detuning_runs):
    weak = small_detuning_runs[1.0]
    strong = small_detuning_runs[10.0]
    margin = abs(strong.fidelity[-1]) - abs(weak.fidelity[-1])
    ok = margin >= 0.05
    _report("9a (fidelity trend, small detuning)", ok,
            f"|F|(A=10)={abs(strong.fidelity[-1]):.6f}, "
            f"|F|(A=1)={abs(weak.fidelity[-1]):.6f}, margin {margin:+.6f} "
            f"(required >= +0.05)")


def test_criterion_09b_fidelity_drop_location(small_detuning_runs):
    details = []
    ok = True
    for amplitude, rec in small_detuning_runs.items():
        params = ad.ModelParams(mode=ad.GaussianMode(amplitude, 50.0),
                                detuning=0.05)
        locus = ad.adiabaticity_max_locus(params, [0.05], 5.0,
                                          window=(0.5, 300.0))
        x_max = locus[0, 1]
        onset = steepest_descent_positions(rec.x_mean, np.abs(rec.fidelity),
                                           top=1)[0]
        dist = min(abs(onset - x_max), abs(onset + x_max))
        ok = ok and dist <= 25.0
        details.append(f"A={amplitude:g}: drop at {onset:.1f}, "
                       f"max at +-{x_max:.1f} (dist {dist:.1f})")
    _report("9b (fidelity drop location)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. Standing-wave node localization of fidelity changes
# ---------------------------------------------------------------------------

def test_criterion_10_node_localization():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 0.1), detuning=0.05)
    grid = ad.Grid(1024, -120.0, 120.0)
    psi = ad.gaussian_bare_state(grid, -50.0, 5.0, 4.0)
    scenario = ad.Scenario(params=params, grid=grid, initial=psi, t_final=20.0,
                           dt=0.01, stride=10, x0=-50.0, p0=5.0)
    rec = ad.run_scenario(scenario, compute_adiabaticity=False)
    tops = steepest_descent_positions(rec.x_mean, np.abs(rec.fidelity), top=3)
    node_spacing = math.pi / 0.1
    dists = [min(abs(x - n * node_spacing) for n in range(-2, 3)) for x in tops]
    ok = all(d <= 4.0 for d in dists)
    _report("10 (node localization)", ok,
            f"steepest changes at {[f'{x:.1f}' for x in tops]}, node distances "
            f"{[f'{d:.1f}' for d in dists]} (packet width 4)")


# ---------------------------------------------------------------------------
# 11. Packet-averaged parameter versus its pointwise approximation
# ---------------------------------------------------------------------------

def test_criterion_11_averaged_vs_pointwise_peaks():
    details = []
    ok = True
    runs = (
        dict(detuning=10.0, x0=-200.0, x_stop=150.0, dt=0.02,
             domain=(-300.0, 300.0)),
        dict(detuning=0.05, x0=-300.0, x_stop=150.0, dt=0.05,
             domain=(-400.0, 350.0)),
    )
    for cfg in runs:
        rec = gaussian_transit(1.0, cfg["detuning"], x_stop=cfg["x_stop"],
                               x0=cfg["x0"], p0=1.5, dt=cfg["dt"], stride=100,
                               domain=cfg["domain"], adiabaticity=True,
                               keep_states=True)
        params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0),
                                detuning=cfg["detuning"])
        frame = ad.adiabatic_frame(params, rec.final_reference.grid)
        plain = np.array([ad.packet_adiabaticity(reference, frame, params,
                                                 rec.weights,
                                                 include_curvature=False)
                          for _, _, reference in rec.snapshots])
        approx = ad.local_adiabaticity(params, rec.x_kinematic, 1.5)
        peaks_avg = local_peak_positions(rec.x_kinematic, rec.adiabaticity)
        peaks_approx = local_peak_positions(rec.x_kinematic, approx)
        worst = max(min(abs(pa - pb) for pb in peaks_approx)
                    for pa in peaks_avg)
        curvature_shift = float(np.max(np.abs(rec.adiabaticity - plain)))
        rel = curvature_shift / float(np.max(rec.adiabaticity))
        ok = ok and worst <= 10.0 and rel <= 0.2
        details.append(f"delta={cfg['detuning']:g}: peak offset {worst:.1f} "
                       f"(<= width 10), curvature shift {rel:.1%} of peak")
    _report("11 (averaged vs pointwise peaks)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 12. Packet averaging broadens the standing-wave peaks
# ---------------------------------------------------------------------------

def test_criterion_12_averaging_broadens_peaks():
    params = ad.ModelParams(mode=ad.StandingWaveMode(0.1, 0.1), detuning=0.5)
    grid = ad.Grid(1024, -150.0, 150.0)
    psi = ad.gaussian_bare_state(grid, -50.0, 5.0, 4.0)
    scenario = ad.Scenario(params=params, grid=grid, initial=psi, t_final=20.0,
                           dt=0.01, stride=20, x0=-50.0, p0=5.0)
    rec = ad.run_scenario(scenario)
    approx = ad.local_adiabaticity(params, rec.x_kinematic, 5.0)
    width_avg = fwhm(rec.x_kinematic, rec.adiabaticity, 0.0)
    width_approx = fwhm(rec.x_kinematic, approx, 0.0)
    ok = width_avg > width_approx
    _report("12 (averaging broadens peaks)", ok,
            f"FWHM averaged {width_avg:.2f} vs pointwise {width_approx:.2f}")


# ---------------------------------------------------------------------------
# 13. Order of limits at a coupling node
# ---------------------------------------------------------------------------

def test_criterion_13_limit_ordering():
    params = ad.ModelParams(mode=ad.StandingWaveMode(1.0, 0.1), detuning=1.0)
    report = ad.node_limit_probe(params, p0=5.0,
                                 deltas=np.logspace(-2, -5, 13))
    at_probe = replace(params, detuning=1e-3)
    ratio = (ad.local_adiabaticity(at_probe, report.node_position, 5.0)
             / ad.local_adiabaticity(at_probe, report.off_node_position, 5.0))
    ok = (abs(report.off_node_exponent - 1.0) <= 0.1
          and abs(report.node_exponent + 2.0) <= 0.05
          and ratio >= 1e3)
    _report("13 (limit ordering)", ok,
            f"off-node exponent {report.off_node_exponent:+.3f}, node exponent "
            f"{report.node_exponent:+.3f}, on/off ratio at delta=1e-3: {ratio:.2e}")


# ---------------------------------------------------------------------------
# 14. Inverse construction of the coupling pulse
# ---------------------------------------------------------------------------

def test_criterion_14_inverse_construction():
    params = ad.ModelParams(mode=ad.GaussianMode(1.0, 50.0), detuning=0.5)
    model = ad.substitution_model(params, 5.0, -200.0)
    ts = np.linspace(0.0, 40.0, 4001)  # rising half of the pulse
    target = ad.time_adiabaticity(model, ts)
    g0 = float(np.asarray(model.coupling(0.0)))
    rebuilt = ad.coupling_from_adiabaticity(ts, target, delta=0.5,
                                            initial_coupling=g0)
    expected = np.asarray(model.coupling(ts), dtype=float)
    round_trip = float(np.max(np.abs(rebuilt - expected))) / expected.max()

    h = ts[1] - ts[0]
    rate = (-rebuilt[4:] + 8 * rebuilt[3:-1]
            - 8 * rebuilt[1:-3] + rebuilt[:-4]) / (12 * h)
    mid = slice(2, -2)
    residual = float(np.max(np.abs(
        0.5 * rate / (0.25 + 4.0 * rebuilt[mid] ** 2) ** 1.5 - target[mid])))
    residual_rel = residual / float(target.max())

    ok = round_trip <= 1e-6 and residual_rel <= 1e-6
    _report("14 (inverse construction)", ok,
            f"round-trip error {round_trip:.2e}, back-substitution residual "
            f"{residual_rel:.2e} of max")


# ---------------------------------------------------------------------------
# Paper-faithful coupling-strength trends (supplement to criteria 8 and 9a):
# the weak-coupling advantage at moderate detuning, and the strong-coupling
# advantage at small detuning in the interior of the transit, before the
# packet meets the outer ridge of the pointwise parameter.
# ---------------------------------------------------------------------------

def test_paper_trend_weak_coupling_wins_at_moderate_detuning():
    weak = gaussian_transit(1.0, 0.2)
    strong = gaussian_transit(10.0, 0.2)
    margin = abs(weak.fidelity[-1]) - abs(strong.fidelity[-1])
    print(f"[trend] moderate detuning 0.2: |F|(A=1)-|F|(A=10) = {margin:+.2e}")
    assert margin > 2e-4


def test_paper_trend_strong_coupling_wins_inside_small_detuning_transit():
    # at the bottom of the small-detuning range the strong coupling holds the
    # higher fidelity across the interior of the transit, before the packet
    # reaches the outer ridge of the pointwise parameter
    weak = gaussian_transit(1.0, 1e-4, stride=25)
    strong = gaussian_transit(10.0, 1e-4, stride=25)
    for x_probe in (0.0, 100.0):
        idx = np.argmin(np.abs(weak.x_kinematic - x_probe))
        f_weak = abs(weak.fidelity[idx])
        f_strong = abs(strong.fidelity[idx])
        print(f"[trend] detuning 1e-4 at <x>={x_probe:g}: "
              f"|F|(A=10)={f_strong:.4f} > |F|(A=1)={f_weak:.4f}")
        assert f_strong > f_weak + 0.05
