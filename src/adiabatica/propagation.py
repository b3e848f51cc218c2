"""Time evolution: exact two-channel and diagonal adiabatic split-operator schemes.

Both propagators use Strang splitting,

    exp(-i H dt) ~ exp(-i T dt/2) exp(-i V dt) exp(-i T dt/2),

with the kinetic factor applied in momentum space and the potential factor in
position space.  The coupled 2x2 potential exponential is computed in closed
form from its Pauli decomposition by `model._su2_step`, so each factor is
exactly unitary and the scheme is second order in dt.  Consecutive steps
fuse the adjacent kinetic half-steps, which halves the FFT count without
changing the result.

One kernel, `_strang`, runs the steps in place on the rows of a complex
array: each kinetic factor is one in-place forward FFT, phase multiply and
inverse FFT over all rows, and each potential factor is applied by the
propagator that owns the rows.  The transforms call the pocketfft gufuncs
behind np.fft directly (grids._fft, grids._ifft: the same bits without
np.fft's argument handling), the loop runs its last step, which ends on a
half kinetic factor, after the loop instead of testing for it on every
step, and each potential factor is a closure over its arrays.  FullPropagator (a 2x2 unitary per point) and
AdiabaticPropagator (diagonal phases) differ only in that potential factor.
run_scenario keeps the exact state (bare rows 0-1) and the adiabatic
reference (rows 2-3) in one (4, N) array, so every kinetic factor is one
forward and one inverse transform for both states.

run_scenario samples the pair in blocks.  The states of up to B consecutive
sampled instants and their spectra are kept in a ring of B slots, with B
set by a fixed byte budget on one block of states (_BLOCK_BYTES: B=4 at
N=1024, B=2 at N=2048, B=1 from N=4096 up), so the block and its
temporaries stay in a per-core L2 cache.  One vectorised pass over a full
block builds |psi|^2 and |FFT|^2 once, rotates the exact states into the
adiabatic frame once and reduces every recorded column, using the batched
private helpers behind the public observables.  The largest arrays of
that pass live in buffers allocated once per run: fresh temporaries of this
size (128 KiB at B=4, N=1024) go back to the operating system when freed and
are faulted in again on every block.
The pass conjugates the reference rows once for the overlap and <theta' p>,
and averages both reference channels at once: one inverse transform of the
block's (B, 2, N) channels for <theta' p>.  The checks then test the
block's arrays at once; only a block that fails them is checked sample by
sample, so a failing run raises the error of its first failing sample.
The forward FFT each sample needs is also the first transform of the next
chunk: _strang starts from that spectrum instead of transforming the state
again.

Propagation is one loop, propagate(hand_off), that fills the ring and calls
hand_off(first, count) on each finished block; the calling process always
runs the block pass on every block and so owns the record.  Inline, hand_off
is the block pass itself.  A run that samples densely pipelines the two
stages when its affinity set holds a second CPU: a forked helper process
runs the same loop up to three blocks ahead, propagating blocks k+1 to k+3
while the caller samples block k.  The ring then holds 4B slots
(_RING_BLOCKS blocks), and it is the one array in anonymous shared memory:
sample idx sits in slot idx mod the ring size, so the helper names a
finished block by one (first, count) message.  The chunk that starts a
block reads the last spectrum of the block before.  Block k+4 reuses the
slots of block k, so before writing it the helper waits for the caller to
acknowledge block k; the caller acknowledges only those blocks, so it never
writes to a helper that has finished.  Nothing else crosses the pipe, so
the record is bit-identical to an inline run.  A failing sample raises in
the caller, which terminates and reaps the helper, after at most 4B-1
chunks propagated past that sample (B-1 inline); a helper that dies fails
the run with a RuntimeError.

The pipeline saves at most the sampling time of a run, while starting and
stopping the helper and the hand-offs cost some 10-50 ms.  So a run
pipelines only when its samples hold at least _PIPELINE_BYTES of pair states
(256 samples at N=1024: a stride of 7 or less in the fig9a geometry), which
fill at least two blocks: _PIPELINE_BYTES is 64 block budgets, and a pair
larger than one budget makes blocks of one sample.  Sparser and shorter
runs, runs inside a worker process (the fidelity-map pool) or beside other
threads of the caller, and runs with one CPU stay inline, with a ring of B
slots.  Whether the second CPU is idle is not checked: runs started side by
side on a busy machine each still fork.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import diagnostics
# expect_position, expect_momentum, mean_position, mean_momentum and
# packet_width go unused here but stay bound: perfbench/tracer.py rebinds
# them by this module's name.
from .grids import (ADIABATIC, BARE, EDGE_MARGIN, Grid, SpinorField, _centre,
                    _abs2, _fft, _grid_average, _ifft, _mean_momentum,
                    _near_edge, _norm_sq, _populations, _require_field,
                    _require_populated, _rotate_to_adiabatic,
                    _spectrum_average, _unpopulated, _width, expect_momentum,
                    expect_position, mean_momentum, mean_position,
                    packet_width, to_adiabatic)
from .model import AdiabaticFrame, ModelParams, _su2_step, adiabatic_frame


class DomainGuardError(RuntimeError):
    """A packet drifted too close to a periodic domain edge during a run."""


def _kinetic_phases(grid: Grid, mass: float, dt: float):
    half = np.exp(-0.25j * grid.k**2 * dt / mass)
    return half, half * half


def _kinetic(rows: np.ndarray, phase: np.ndarray) -> None:
    _fft(rows, out=rows)
    rows *= phase
    _ifft(rows, out=rows)


def _strang(rows: np.ndarray, n_steps: int, half_kin: np.ndarray,
            full_kin: np.ndarray, kick, spectrum: np.ndarray | None = None) -> None:
    """Apply n_steps Strang steps in place to the (m, N) array `rows`.

    Interior kinetic half-steps are fused; kick(rows) multiplies the rows by
    their pointwise potential factor in place.  With `spectrum`, the FFT of
    the starting state, the steps start from it and the contents of `rows`
    are overwritten unread.
    """
    if n_steps <= 0:
        return
    if spectrum is None:
        _kinetic(rows, half_kin)
    else:
        np.multiply(spectrum, half_kin, out=rows)
        _ifft(rows, out=rows)
    for _ in range(n_steps - 1):
        kick(rows)
        _kinetic(rows, full_kin)
    kick(rows)
    _kinetic(rows, half_kin)


class _Stepper:
    """The body of advance, shared by both propagators."""

    def _advance(self, field: SpinorField, n_steps: int, frame: str,
                 wrong_frame: str) -> SpinorField:
        if field.frame != frame:
            raise ValueError(wrong_frame)
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        _strang(comps, n_steps, self._half_kin, self._full_kin, self._apply_potential)
        return SpinorField(self.grid, comps, frame)


class FullPropagator(_Stepper):
    """Split-operator stepper for the coupled two-channel problem (bare basis)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.grid = grid
        self._half_kin, self._full_kin = _kinetic_phases(grid, params.mass, dt)
        g = np.asarray(params.coupling(grid.x), dtype=float)
        p11, p22, p12 = _su2_step(0.5 * params.level_splitting, g, dt)
        phase = np.exp(-1j * params.mean_shift * dt)
        # rows (p11, p22) of the unitary and its symmetric off-diagonal p12
        diag_factor = phase * np.stack([p11, p22])
        cross_factor = phase * p12
        diag, cross = np.empty((2, 2, grid.npoints), dtype=np.complex128)

        def apply_potential(comps: np.ndarray) -> None:
            np.multiply(diag_factor, comps, out=diag)        # p11 up, p22 dn
            np.multiply(cross_factor, comps[::-1], out=cross)  # p12 dn, p12 up
            np.add(diag, cross, out=comps)

        # a closure over its arrays, which the Strang loop calls every step
        self._apply_potential = apply_potential

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        """Apply n_steps Strang steps with fused interior kinetic factors."""
        return self._advance(field, n_steps, BARE,
                             "FullPropagator expects a bare-frame field")


class AdiabaticPropagator(_Stepper):
    """Independent channel evolution under p^2/2m + Delta_+-(x); no coupling."""

    def __init__(self, frame: AdiabaticFrame, params: ModelParams, dt: float):
        self.grid = frame.grid
        self._half_kin, self._full_kin = _kinetic_phases(self.grid, params.mass, dt)
        pot = np.exp(-1j * dt * np.stack([frame.upper, frame.lower]))

        def apply_potential(comps: np.ndarray) -> None:
            comps *= pot

        self._apply_potential = apply_potential

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        return self._advance(field, n_steps, ADIABATIC,
                             "AdiabaticPropagator expects an adiabatic-frame field")


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
    keep_states: bool = False

    def __post_init__(self):
        if self.initial.frame != BARE:
            raise ValueError("Scenario.initial must be a bare-frame field")
        # t_final/dt <= 1/2 rounds to no step
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)
                and self.dt > 0 and self.t_final / self.dt > 0.5):
            raise ValueError("Scenario requires finite t_final > 0 and dt > 0 "
                             "with t_final/dt > 1/2")
        if self.stride < 1:
            raise ValueError("Scenario.stride must be >= 1")


@dataclass
class RunRecord:
    """Sampled observables of one exact-versus-reference run.

    Per-channel columns have shape (2, samples), upper channel first.
    ref_x, ref_p and adiabaticity_terms are nan for a channel whose initial
    weight is below diagnostics.WEIGHT_FLOOR; every other entry is filled on
    every run.
    """

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
    weights: np.ndarray
    final_exact: SpinorField = dataclass_field(repr=False, default=None)
    final_reference: SpinorField = dataclass_field(repr=False, default=None)
    snapshots: list = dataclass_field(repr=False, default=None)

    @property
    def fidelity_magnitude(self) -> np.ndarray:
        """|F| per sample: the modulus the fidelity-map CSV holds."""
        return diagnostics._modulus(self.fidelity)

    @property
    def adiabaticity(self) -> np.ndarray:
        """Packet-averaged parameter per sample, curvature term included."""
        return diagnostics._weighted_total(self.weights,
                                           self.adiabaticity_terms.T)


#: Byte budget of run_scenario's block of sampled pair states.
_BLOCK_BYTES = 256 * 1024
#: Sampled pair-state bytes from which run_scenario pipelines its sampling
#: (see the module docstring): 256 samples at N=1024, 16 at N=16384.
_PIPELINE_BYTES = 16 * 1024 * 1024
#: Blocks of slots in the ring of a pipelined run.
_RING_BLOCKS = 4


def _check_domain(mean: float, width: float, total: float, grid: Grid,
                  label: str, t: float, detuning: float) -> None:
    """A packet with centre `mean` and population `total` must keep clear of the edges."""
    _require_field(total, "mean_position")
    if _near_edge(grid, mean, width):
        raise DomainGuardError(
            f"{label} packet at <x>={mean:.3f} (width {width:.3f}) is within "
            f"{EDGE_MARGIN} widths of a domain edge at t={t:.6g} (detuning "
            f"{float(detuning)!r}); enlarge the grid")


def _available_cpus() -> int:
    """CPUs in this process's affinity set."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _fork_context():
    """The multiprocessing fork context when this process may start worker
    processes (a run's helper, a fidelity map's pool), else None.

    fork, not spawn: a child inherits the imported package and numpy, and
    a run's helper also the shared ring and the propagation closure, which a
    spawned process would have to re-import or could not take at all.
    """
    if _available_cpus() < 2:
        return None
    # imported here: only a pipelined run or a multi-cell map needs it, and
    # at module level it would add about 13 ms to every start-up of the CLI
    import multiprocessing
    import threading

    # A pool worker stays serial: the pool already uses every CPU.  So does
    # a caller with threads (a thread pool, a notebook kernel): a lock
    # another thread holds at the fork stays held forever in the child.
    if (multiprocessing.parent_process() is not None
            or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


def _run_ahead(conn, caller_end, propagate, reuses_slots) -> None:
    """Helper process: propagate(hand_off) up to _RING_BLOCKS - 1 blocks
    ahead of the caller.

    Each finished block is announced as (first, count).  When the next
    block, which starts at first + count, reuses the slots of an earlier
    block (reuses_slots), the helper first waits for the caller to
    acknowledge that earlier block."""
    import signal  # loaded with multiprocessing already

    # Ctrl-C reaches the whole process group; the caller handles it and
    # reaps this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    caller_end.close()

    def hand_off(first: int, count: int) -> None:
        conn.send((first, count))
        if reuses_slots(first + count):
            conn.recv()

    try:
        propagate(hand_off)
    except (EOFError, ConnectionError):  # the caller has gone
        pass


def run_scenario(scenario: Scenario) -> RunRecord:
    """Evolve exact and adiabatic-reference states side by side.

    The reference starts as the pointwise rotation of the initial bare state
    into the adiabatic basis and evolves without inter-channel coupling;
    observables, overlap and the averaged adiabaticity terms are sampled
    every `stride` steps (the final step is always sampled).  Every sample
    is checked: both packets clear of the domain edges, and each channel
    the terms divide by populated, with an averaged splitting of at least
    diagnostics.SPLITTING_FLOOR.  Samples are evaluated in blocks of
    consecutive instants in the calling process; a densely sampled run
    propagates in a second process, up to three blocks ahead (see the
    module docstring).  With `keep_states` the full spinor pair is retained
    at every sample as (t, exact, reference) tuples.
    """
    params, grid = scenario.params, scenario.grid
    frame = adiabatic_frame(params, grid)
    n_steps = int(round(scenario.t_final / scenario.dt))

    exact_prop = FullPropagator(params, grid, scenario.dt)
    ref_prop = AdiabaticPropagator(frame, params, scenario.dt)

    # exact state in bare rows 0-1, reference in adiabatic rows 2-3
    pair = np.concatenate([scenario.initial.components,
                           to_adiabatic(scenario.initial, frame).components])
    weights = diagnostics.initial_channel_weights(
        SpinorField(grid, pair[2:], ADIABATIC))

    sample_steps = list(range(0, n_steps + 1, scenario.stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    n_samples = len(sample_steps)

    # a ring of pair states (index 0) and their FFTs (index 1): one block of
    # consecutive samples, _RING_BLOCKS times over when a helper process
    # propagates ahead, in the one mapping it shares (see the module
    # docstring)
    block = max(1, _BLOCK_BYTES // pair.nbytes)
    pipelined = n_samples * pair.nbytes >= _PIPELINE_BYTES
    context = _fork_context() if pipelined else None
    ring_size = block * (1 if context is None else _RING_BLOCKS)
    ring, ring_spectra = np.frombuffer(
        mmap.mmap(-1, 2 * ring_size * pair.nbytes),
        np.complex128).reshape((2, ring_size) + pair.shape)
    # per-channel columns stay nan where a channel is skipped
    columns = {name: np.empty(n_samples) for name in
               ("x_mean", "p_mean", "norm", "pop_upper", "pop_lower")}
    columns["fidelity"] = np.empty(n_samples, dtype=np.complex128)
    columns.update({name: np.full((2, n_samples), np.nan) for name in
                    ("ref_x", "ref_p", "adiabaticity_terms")})

    times = np.asarray(sample_steps, dtype=float) * scenario.dt
    rec = RunRecord(
        times=times,
        x_kinematic=scenario.x0 + scenario.p0 * times / params.mass,
        **columns,
        weights=weights,
        snapshots=[] if scenario.keep_states else None,
    )

    # the per-channel columns and the norm checks skip the channels below
    # WEIGHT_FLOOR
    active = weights >= diagnostics.WEIGHT_FLOOR
    cos_theta, sin_theta = frame.cos_theta, frame.sin_theta
    dx = grid.dx

    # scratch of the block pass (see the module docstring)
    dens_buf = np.empty((block,) + pair.shape)
    power_buf = np.empty_like(dens_buf)
    rotated_buf = np.empty((block, 2, grid.npoints), dtype=np.complex128)
    conj_buf = np.empty_like(rotated_buf)
    product_buf = np.empty_like(rotated_buf)

    def sample_block(first: int, count: int) -> None:
        slots = slice(first % ring_size, first % ring_size + count)
        rows, spec = ring[slots], ring_spectra[slots]
        dens = _abs2(rows, out=dens_buf[:count])
        power = _abs2(spec, out=power_buf[:count])
        ref_dens = dens[:, 2:]
        # the conjugated reference rows serve the overlap and <theta' p>
        conj_ref = np.conj(rows[:, 2:], out=conj_buf[:count])
        span = slice(first, first + count)
        # every column of the block first (an empty row or an unused channel
        # gives inf or nan here), then the checks
        with np.errstate(divide="ignore", invalid="ignore"):
            # total densities of the exact state and of the reference
            tot = np.sum(dens.reshape(count, 2, 2, -1), axis=2)
            total = _populations(tot, dx)
            mean = _centre(tot, grid, total)
            width = _width(tot, grid, mean, total)
            rec.x_mean[span] = mean[:, 0]
            p_dens = np.sum(power[:, :2], axis=1)
            p_total = np.sum(p_dens, axis=-1)
            rec.p_mean[span] = _mean_momentum(p_dens, grid, p_total)
            rec.norm[span] = np.sqrt(_norm_sq(dens[:, :2], dx))
            exact_ad = _rotate_to_adiabatic(rows[:, :2], cos_theta, sin_theta,
                                            out=rotated_buf[:count])
            rec.pop_upper[span], rec.pop_lower[span] = _populations(
                _abs2(exact_ad), dx).T
            rec.fidelity[span] = diagnostics._overlap(conj_ref, exact_ad, dx,
                                                     out=product_buf[:count])
            norms = _populations(ref_dens, dx)
            rec.ref_x[active, span] = _grid_average(ref_dens, grid.x, dx,
                                                    norms).T[active]
            rec.ref_p[active, span] = _spectrum_average(power[:, 2:], grid.k,
                                                        grid, norms).T[active]
            parts = diagnostics.AdiabaticityParts(
                *diagnostics._adiabaticity_parts(
                    conj_ref, ref_dens, spec[:, 2:], norms, frame,
                    active, out=product_buf[:count]),
                weights, params.mass, active)
            splittings = parts.splittings[:, active]
        if scenario.keep_states:
            for i in range(count):
                rec.snapshots.append((
                    sample_steps[first + i] * scenario.dt,
                    SpinorField(grid, rows[i, :2].copy(), BARE),
                    SpinorField(grid, rows[i, 2:].copy(), ADIABATIC)))
        # the checks test the whole block at once; only a failing block
        # runs them sample by sample, so that its first failing sample raises
        ref_norms = norms[:, active]
        domain = _unpopulated(total) | _near_edge(grid, mean, width)
        failing = (domain.any(axis=1) | _unpopulated(p_total)
                   | _unpopulated(ref_norms).any(axis=1)
                   | diagnostics._collapsed(splittings).any(axis=1))
        for i in np.flatnonzero(failing):
            t = sample_steps[first + i] * scenario.dt
            for k, label in enumerate(("exact", "reference")):
                _check_domain(mean[i, k], width[i, k], total[i, k], grid,
                              label, t, params.detuning)
            _require_field(p_total[i], "mean_momentum")
            _require_populated(ref_norms[i])
            diagnostics._require_splitting(splittings[i])
        rec.adiabaticity_terms[:, span] = parts.channel_terms(True).T

    exact_kick, ref_kick = exact_prop._apply_potential, ref_prop._apply_potential

    def kick(rows: np.ndarray) -> None:
        exact_kick(rows[:2])
        ref_kick(rows[2:])

    # same grid, mass and dt: the exact kinetic phases serve both states
    half_kin, full_kin = exact_prop._half_kin, exact_prop._full_kin

    # sample idx goes to slot idx mod ring size, and its chunk starts from
    # the spectrum in the slot before; each finished block is handed off
    def propagate(hand_off) -> None:
        for idx, step in enumerate(sample_steps):
            pos = idx % ring_size
            if idx:
                _strang(ring[pos], step - sample_steps[idx - 1], half_kin,
                        full_kin, kick, spectrum=ring_spectra[pos - 1])
            _fft(ring[pos], out=ring_spectra[pos])
            slot = pos % block
            if slot == block - 1 or idx == n_samples - 1:
                hand_off(idx - slot, slot + 1)

    def reuses_slots(first: int) -> bool:
        """Whether the block starting at sample `first` reuses the slots of
        an earlier block, which the caller must have sampled first."""
        return ring_size <= first < n_samples

    ring[0] = pair
    if context is None:
        propagate(sample_block)
    else:
        # forked, so the helper inherits the ring and the propagate closure
        conn, child_end = context.Pipe()
        helper = context.Process(
            target=_run_ahead, args=(child_end, conn, propagate, reuses_slots),
            daemon=True)
        helper.start()
        child_end.close()
        try:
            done = 0
            while done < n_samples:
                first, count = conn.recv()
                sample_block(first, count)
                done = first + count
                # only a block whose slots the helper reuses is acknowledged,
                # so nothing is sent to a helper that has finished
                if reuses_slots(first + ring_size):
                    conn.send(None)
        except (EOFError, ConnectionError):  # a broken pipe or a reset socket
            raise RuntimeError(
                "the propagation process exited unexpectedly") from None
        finally:
            helper.terminate()
            helper.join()
            conn.close()

    final = ring[(n_samples - 1) % ring_size].copy()
    rec.final_exact = SpinorField(grid, final[:2], BARE)
    rec.final_reference = SpinorField(grid, final[2:], ADIABATIC)
    return rec
