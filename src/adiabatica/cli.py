"""Command-line entry point: one subcommand per experiment tag."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .config import EXPERIMENTS, load_config
from .experiments import run_experiment

OUTPUT_DIR_ENV = "ADIABATICA_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatica",
        description="Wave-packet adiabaticity experiments; results land as "
                    "deterministic CSV files.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for tag in EXPERIMENTS:
        p = sub.add_parser(tag, help=f"run the {tag} experiment")
        p.add_argument("--config", required=True, help="JSON scenario file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key, e.g. model.detuning=0.5")
    return parser


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where the wheel ships no such library or it lacks the symbols."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    try:
        lib = ctypes.CDLL(os.path.join(libs, min(
            name for name in os.listdir(libs)
            if name.startswith("libscipy_openblas64_"))))
        return (lib.scipy_openblas_get_num_threads64_,
                lib.scipy_openblas_set_num_threads64_)
    except (OSError, ValueError, AttributeError):
        return None


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, forked children
    included; the caller's count is restored after it.

    Above 10 000 points OpenBLAS threads the samplers' (..., 1, N) @ (N,)
    reductions, so their last bits follow the CPU count, and a spinning BLAS
    thread takes the CPU from the other pool worker.  Where the count is not
    reachable, nothing is pinned.
    """
    counts = _openblas_threads()
    if counts is None:
        yield
        return
    get, set_count = counts
    previous = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV, ".")
    try:
        with _one_blas_thread():
            config = load_config(args.config, experiment=args.experiment,
                                 overrides=args.override)
            paths = run_experiment(config, out_dir)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"adiabatica: error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
