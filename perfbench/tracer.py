"""Traced CLI run: times calls into each adiabatica module from outside.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <cli arguments...>

Runs ``adiabatica.cli.main`` in this interpreter after rebinding each module's
public functions where their callers look them up (for example
``adiabatica.propagation.mean_position`` and
``adiabatica.experiments.run_scenario``).  Each wrapped call records a span
[name, start, end, parent] in memory; counters record the work the call was
asked to do.  Both are written to SPANS.json when the run ends.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = [-1]
        self.counters = {}

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def record(self, name, start, end):
        self.spans.append([name, start, end, self.stack[-1]])

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            setattr(owner, attr, property(self.wrap(name, original.fget, **hooks)))
        else:
            setattr(owner, attr, self.wrap(name, original, **hooks))


def _advance_counter(prefix, potential_bytes_per_point):
    """Count steps, FFT pairs and computed flops/bytes of one advance call.

    advance(field, n) does n+1 FFT pairs (forward and inverse transform of
    the (2, N) state) for n steps.  A complex FFT of size N is counted as
    5 N log2 N flops.  Bytes are the arrays each pass must read and write:
    per pair the two transforms (2 x read+write of 32 N bytes) and the
    kinetic multiply (state in and out plus a 16 N phase), per step the
    potential multiply.
    """
    def before(tracer, args, kwargs):
        prop, n = args[0], (args[2] if len(args) > 2 else kwargs["n_steps"])
        if n <= 0:
            return
        npts = prop.grid.npoints
        pairs = n + 1
        tracer.count(f"{prefix}.steps", n)
        tracer.count(f"{prefix}.fft_pairs", pairs)
        tracer.count("propagation.fft_flop", pairs * 4 * 5 * npts * math.log2(npts))
        tracer.count("propagation.bytes",
                     pairs * (128 + 80) * npts + n * potential_bytes_per_point * npts)
    return before


def _csv_counter(tracer, args, kwargs, path):
    with open(path, "rb") as handle:
        data = handle.read()
    header = args[2]
    rows = data.count(b"\n") - 2
    tracer.count("experiments.csv_bytes", len(data))
    tracer.count("experiments.csv_cells", rows * len(header))


def install(tracer: Tracer):
    from adiabatica import (cli, diagnostics, experiments, grids, model,
                            propagation)

    p = tracer.patch
    # propagation: the two split-operator kernels, their set-up, the run loop
    p(propagation.FullPropagator, "advance", "propagation.full_advance",
      before=_advance_counter("propagation.full", 32 + 48 + 32))
    p(propagation.AdiabaticPropagator, "advance", "propagation.adiabatic_advance",
      before=_advance_counter("propagation.adiabatic", 32 + 32 + 32))
    p(propagation.FullPropagator, "__init__", "propagation.init")
    p(propagation.AdiabaticPropagator, "__init__", "propagation.init")
    p(experiments, "run_scenario", "propagation.run_scenario")
    # grids: frame rotations, observables and whole-state summaries
    for ns in (propagation, diagnostics):
        p(ns, "to_adiabatic", "grids.to_adiabatic")
    for attr in ("expect_position", "expect_momentum"):
        p(propagation, attr, "grids.expect")
    for attr in ("expect_grid_values", "expect_slope_momentum"):
        p(diagnostics, attr, "grids.expect")
    p(grids, "expect_grid_values", "grids.expect")
    for attr in ("mean_position", "mean_momentum", "packet_width"):
        p(propagation, attr, "grids.summary")
    for attr in ("norm_sq", "component_norms_sq"):
        p(grids.SpinorField, attr, "grids.norms")
    for attr in ("gaussian_bare_state", "to_bare"):
        p(experiments, attr, "grids.state_init")
    # diagnostics
    p(diagnostics, "fidelity", "diagnostics.fidelity")
    p(diagnostics, "adiabaticity_parts", "diagnostics.adiabaticity_parts")
    for attr in ("channel_terms", "total"):
        p(diagnostics.AdiabaticityParts, attr, "diagnostics.adiabaticity_terms")
    for ns in (experiments, diagnostics):
        p(ns, "local_adiabaticity", "diagnostics.local_adiabaticity")
    p(experiments, "adiabaticity_max_locus", "diagnostics.max_locus")
    # model: the frame and the trigonometry its properties recompute per access
    for ns in (propagation, experiments):
        p(ns, "adiabatic_frame", "model.adiabatic_frame")
    for attr in ("cos_theta", "sin_theta"):
        p(model.AdiabaticFrame, attr, "model.frame_trig")
    p(model.AdiabaticFrame, "splitting", "model.frame_splitting")
    # twolevel, experiments, config
    p(experiments, "substitution_model", "twolevel.substitution_model")
    p(experiments, "write_csv", "experiments.write_csv", after=_csv_counter)
    p(cli, "run_experiment", "experiments.run_experiment")
    p(cli, "load_config", "config.load")


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import adiabatica.cli
    import scipy.fft
    tracer.record("import.adiabatica", start, time.perf_counter())
    install(tracer)
    main_fn = tracer.wrap("cli.main", adiabatica.cli.main)
    with scipy.fft.set_workers(1):
        rc = main_fn(cli_args)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(spans_path, "w") as handle:
        json.dump({"names": names,
                   "spans": [[index[n], a, b, parent]
                             for n, a, b, parent in tracer.spans],
                   "counters": tracer.counters}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
