"""Time evolution: exact two-channel and diagonal adiabatic split-operator schemes.

Both propagators use Strang splitting,

    exp(-i H dt) ~ exp(-i T dt/2) exp(-i V dt) exp(-i T dt/2),

with the kinetic factor applied in momentum space and the potential factor in
position space.  The coupled 2x2 potential exponential is computed in closed
form from its Pauli decomposition by `model._su2_step`, the same helper that
steps the effective two-level model in `twolevel.solve_two_level`, so each
factor is exactly unitary and the scheme is second order in dt.  Consecutive
steps fuse the adjacent kinetic half-steps, which halves the FFT count
without changing the result.

One kernel, `_strang`, runs the steps in place on the rows of a complex
array: each kinetic factor is one in-place forward FFT, phase multiply and
inverse FFT over all rows, and each potential factor is applied by the
propagator that owns the rows.  FullPropagator (a 2x2 unitary per point) and
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
private helpers behind the public observables.  The largest arrays of that pass live in buffers allocated once
per run: fresh temporaries of this size (128 KiB at B=4, N=1024) go back to
the operating system when freed and are faulted in again on every block.
Checks then run sample by sample, so a failing run raises the error of its
first failing sample.  The forward FFT each sample needs is also the first
transform of the next chunk: _strang starts from that spectrum instead of
transforming the state again.

A run that samples densely pipelines the two stages when its affinity set
holds a second CPU: a forked sampler process runs the block pass on block k
while the calling process propagates block k+1.  The ring then holds 2B
slots, and it is the one array in anonymous shared memory: sample idx sits
in slot idx mod the ring size, so a block is named by one (first, count)
message and answered with one acknowledgement.  The chunk that starts a
block reads the last spectrum of the block before, and nothing writes a
block's slots again before its acknowledgement arrives.  Each sampled column
belongs to the process that fills it: the sampler fills the copies it
inherits at the fork and, after the last acknowledgement, sends them back in
answer to one final None message, so the record is bit-identical to an
inline run.  The sampler stops at its first failing sample and sends the
exception back, which the calling process raises at its next hand-off, after
at most 2B-1 chunks propagated past that sample (B-1 inline).

The pipeline saves at most the sampling time of a run, while starting and
stopping the sampler and the hand-offs cost some 10-50 ms.  So a run
pipelines only when its samples hold at least _PIPELINE_BYTES of pair states
(256 samples at N=1024: a stride of 7 or less in the fig9a geometry) and
fill two blocks.  Sparser and shorter runs, runs inside a worker process
(the fidelity-map pool) or beside other threads of the caller, and runs with
one CPU stay inline, with a ring of B slots.  Whether the second CPU is
idle is not checked: runs started side by side on a busy machine each still
fork.
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
                    _abs2, _grid_average, _mean_momentum, _near_edge, _norm_sq,
                    _populations, _require_field, _require_populated,
                    _rotate_to_adiabatic, _spectrum_average, _width,
                    expect_momentum, expect_position, mean_momentum,
                    mean_position, packet_width, to_adiabatic)
from .model import (AdiabaticFrame, ModelParams, _su2_step, adiabatic_eigenvalues,
                    adiabatic_frame)


class DomainGuardError(RuntimeError):
    """A packet drifted too close to a periodic domain edge during a run."""


def _kinetic_phases(grid: Grid, mass: float, dt: float):
    half = np.exp(-0.25j * grid.k**2 * dt / mass)
    return half, half * half


def _kinetic(rows: np.ndarray, phase: np.ndarray) -> None:
    np.fft.fft(rows, axis=1, out=rows)
    rows *= phase
    np.fft.ifft(rows, axis=1, out=rows)


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
        np.fft.ifft(rows, axis=1, out=rows)
    for j in range(n_steps):
        kick(rows)
        _kinetic(rows, half_kin if j == n_steps - 1 else full_kin)


class FullPropagator:
    """Split-operator stepper for the coupled two-channel problem (bare basis)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(grid, params.mass, dt)
        g = np.asarray(params.coupling(grid.x), dtype=float)
        p11, p22, p12 = _su2_step(0.5 * params.level_splitting, g, dt)
        phase = np.exp(-1j * params.mean_shift * dt)
        # rows (p11, p22) of the unitary and its symmetric off-diagonal p12
        self._diag = phase * np.stack([p11, p22])
        self._p12 = phase * p12
        self._scratch = np.empty((2, 2, grid.npoints), dtype=np.complex128)

    def _apply_potential(self, comps: np.ndarray) -> None:
        diag, cross = self._scratch
        np.multiply(self._diag, comps, out=diag)        # p11 up, p22 dn
        np.multiply(self._p12, comps[::-1], out=cross)  # p12 dn, p12 up
        np.add(diag, cross, out=comps)

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        """Apply n_steps Strang steps with fused interior kinetic factors."""
        if field.frame != BARE:
            raise ValueError("FullPropagator expects a bare-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        _strang(comps, n_steps, self._half_kin, self._full_kin,
                self._apply_potential)
        return SpinorField(self.grid, comps, BARE)


class AdiabaticPropagator:
    """Independent channel evolution under p^2/2m + Delta_+-(x); no coupling."""

    def __init__(self, frame: AdiabaticFrame, params: ModelParams, dt: float):
        self.frame = frame
        self.grid = frame.grid
        self.dt = dt
        self._half_kin, self._full_kin = _kinetic_phases(self.grid, params.mass, dt)
        self._pot = np.exp(-1j * dt * np.stack([frame.upper, frame.lower]))

    def _apply_potential(self, comps: np.ndarray) -> None:
        comps *= self._pot

    def step(self, field: SpinorField) -> SpinorField:
        return self.advance(field, 1)

    def advance(self, field: SpinorField, n_steps: int) -> SpinorField:
        if field.frame != ADIABATIC:
            raise ValueError("AdiabaticPropagator expects an adiabatic-frame field")
        if field.grid != self.grid:
            raise ValueError("field grid does not match propagator grid")
        comps = field.components.copy()
        _strang(comps, n_steps, self._half_kin, self._full_kin,
                self._apply_potential)
        return SpinorField(self.grid, comps, ADIABATIC)


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
    keep_states: bool = False

    def __post_init__(self):
        if self.initial.frame != BARE:
            raise ValueError("Scenario.initial must be a bare-frame field")
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)
                and self.t_final > 0 and self.dt > 0):
            raise ValueError("Scenario requires finite t_final > 0 and dt > 0")
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


#: Channels with smaller initial weight get no ref_x / ref_p samples.
_GUARD_WEIGHT = 1e-9
#: Byte budget of run_scenario's block of sampled pair states.
_BLOCK_BYTES = 256 * 1024
#: Sampled pair-state bytes from which run_scenario pipelines its sampling
#: (see the module docstring): 256 samples at N=1024, 16 at N=16384.
_PIPELINE_BYTES = 16 * 1024 * 1024


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
    processes (a run's sampler, a fidelity map's pool), else None.

    fork, not spawn: a child inherits the imported package and numpy, and
    the sampler also the shared buffers and the sampling closure, which a
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


def _serve_blocks(conn, parent_end, sample_block, columns) -> None:
    """Sampler process: run sample_block(first, count) per message and
    answer None, or the first exception.  It samples nothing after that and
    waits to be reaped, since the parent may send one more block before it
    reads the error.  A None message ends a run that did not fail: the
    answer is `columns`, the arrays sample_block filled in this process."""
    import signal  # loaded with multiprocessing already

    # Ctrl-C reaches the whole process group; the parent handles it and
    # reaps this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    failed = False
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent has gone
            return
        if failed:
            continue
        if message is None:
            conn.send(columns)
            return
        try:
            sample_block(*message)
        except Exception as exc:
            failed = True
            conn.send(exc)
        else:
            conn.send(None)


class _SamplerProcess:
    """A forked process that samples one block while the caller propagates
    the next one into the other half of the ring."""

    def __init__(self, context, sample_block, columns):
        # forked, so the closure, the shared ring it reads and the columns
        # it fills are inherited, not pickled
        self._conn, child_end = context.Pipe()
        self._process = context.Process(
            target=_serve_blocks,
            args=(child_end, self._conn, sample_block, columns), daemon=True)
        self._process.start()
        child_end.close()
        self._in_flight = 0

    def hand_off(self, first: int, count: int) -> None:
        """Queue a block, then wait until the block before it is sampled, so
        the caller may overwrite that block's slots."""
        self._send((first, count))
        self._in_flight += 1
        self._settle(1)

    def columns(self) -> dict:
        """Wait until every block is sampled, then take the columns the
        process filled; raise the sampler's error, if it sent one."""
        self._settle(0)
        self._send(None)
        return self._receive()

    def _settle(self, limit: int) -> None:
        while self._in_flight > limit:
            reply = self._receive()
            self._in_flight -= 1
            if reply is not None:
                raise reply

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except ConnectionError:  # a broken pipe or a reset socket
            self._lost()

    def _receive(self):
        try:
            return self._conn.recv()
        except (EOFError, ConnectionError):
            self._lost()

    @staticmethod
    def _lost():
        raise RuntimeError("the sampler process exited unexpectedly") from None

    def close(self) -> None:
        """Stop and reap the process, whether it is idle or mid-block."""
        self._process.terminate()
        self._process.join()
        self._conn.close()


def run_scenario(scenario: Scenario, compute_adiabaticity: bool = True) -> RunRecord:
    """Evolve exact and adiabatic-reference states side by side.

    The reference starts as the pointwise rotation of the initial bare state
    into the adiabatic basis and evolves without inter-channel coupling;
    observables, overlap and the averaged adiabaticity parameter are sampled
    every `stride` steps (the final step is always sampled).  Samples are
    evaluated in blocks of consecutive instants, for a densely sampled run
    in a second process (see the module docstring).
    With `keep_states` the full spinor pair is retained at every sample as
    (t, exact, reference) tuples.
    """
    params, grid = scenario.params, scenario.grid
    frame = adiabatic_frame(params, grid)
    n_steps = max(1, int(round(scenario.t_final / scenario.dt)))

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
    # consecutive samples, twice over when a sampler process takes every
    # other block, in the one mapping it shares (see the module docstring)
    block = max(1, _BLOCK_BYTES // pair.nbytes)
    pipelined = (n_samples // block >= 2
                 and n_samples * pair.nbytes >= _PIPELINE_BYTES)
    context = _fork_context() if pipelined else None
    ring_size = block * (1 if context is None else 2)
    ring, ring_spectra = np.frombuffer(
        mmap.mmap(-1, 2 * ring_size * pair.nbytes),
        np.complex128).reshape((2, ring_size) + pair.shape)
    # the process that samples owns the columns; per-channel columns stay
    # nan where a channel is skipped
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

    active = weights >= _GUARD_WEIGHT
    terms_active = weights >= diagnostics.WEIGHT_FLOOR
    # reference channels whose norm some column divides by
    needed = active | (compute_adiabaticity & terms_active)
    cos_theta, sin_theta = frame.cos_theta, frame.sin_theta
    dx = grid.dx

    # scratch of the block pass (see the module docstring)
    dens_buf = np.empty((block,) + pair.shape)
    power_buf = np.empty_like(dens_buf)
    rotated_buf = np.empty((block, 2, grid.npoints), dtype=np.complex128)
    overlap_buf = np.empty_like(rotated_buf)

    def sample_block(first: int, count: int) -> None:
        slots = slice(first % ring_size, first % ring_size + count)
        rows, spec = ring[slots], ring_spectra[slots]
        dens = _abs2(rows, out=dens_buf[:count])
        power = _abs2(spec, out=power_buf[:count])
        ref_rows, ref_dens = rows[:, 2:], dens[:, 2:]
        span = slice(first, first + count)
        # every column of the block first (an empty row or an unused channel
        # gives inf or nan here), then the checks sample by sample
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
            rec.fidelity[span] = diagnostics._overlap(ref_rows, exact_ad, dx,
                                                     out=overlap_buf[:count])
            norms = _populations(ref_dens, dx)
            rec.ref_x[active, span] = _grid_average(ref_dens, grid.x, dx,
                                                    norms).T[active]
            rec.ref_p[active, span] = _spectrum_average(power[:, 2:], grid.k,
                                                        grid, norms).T[active]
            if compute_adiabaticity:
                parts = diagnostics.AdiabaticityParts(
                    *diagnostics._adiabaticity_parts(
                        ref_rows, ref_dens, spec[:, 2:], norms, frame,
                        terms_active),
                    weights, params.mass, terms_active)
                splittings = parts.splittings[:, terms_active]
        needed_norms = norms[:, needed]
        for i in range(count):
            t = sample_steps[first + i] * scenario.dt
            for k, label in enumerate(("exact", "reference")):
                _check_domain(mean[i, k], width[i, k], total[i, k], grid,
                              label, t, params.detuning)
            _require_field(p_total[i], "mean_momentum")
            _require_populated(needed_norms[i])
            if compute_adiabaticity:
                diagnostics._require_splitting(splittings[i])
        if compute_adiabaticity:
            rec.adiabaticity_terms[:, span] = parts.channel_terms(True).T

    def kick(rows: np.ndarray) -> None:
        exact_prop._apply_potential(rows[:2])
        ref_prop._apply_potential(rows[2:])

    # sample idx goes to slot idx mod ring size, and its chunk starts from
    # the slot before
    ring[0] = pair
    sampler = (None if context is None
               else _SamplerProcess(context, sample_block, columns))
    hand_off = sample_block if sampler is None else sampler.hand_off
    try:
        for idx, step in enumerate(sample_steps):
            pos = idx % ring_size
            if idx:
                # same grid, mass and dt: the exact kinetic phases serve both
                # states; the chunk starts from the previous sample's spectrum
                _strang(ring[pos], step - sample_steps[idx - 1],
                        exact_prop._half_kin, exact_prop._full_kin, kick,
                        spectrum=ring_spectra[pos - 1])
            np.fft.fft(ring[pos], axis=1, out=ring_spectra[pos])
            if scenario.keep_states:
                rec.snapshots.append((
                    step * scenario.dt,
                    SpinorField(grid, ring[pos, :2].copy(), BARE),
                    SpinorField(grid, ring[pos, 2:].copy(), ADIABATIC)))
            slot = pos % block
            if slot == block - 1 or idx == n_samples - 1:
                hand_off(idx - slot, slot + 1)
        if sampler is not None:
            for name, values in sampler.columns().items():
                setattr(rec, name, values)
    finally:
        if sampler is not None:
            sampler.close()

    final = ring[pos].copy()
    rec.final_exact = SpinorField(grid, final[:2], BARE)
    rec.final_reference = SpinorField(grid, final[2:], ADIABATIC)
    return rec
