"""adiabatica benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,trace,figures} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it runs workload passes back to back for S seconds, each
CLI invocation in a fresh interpreter (a closed loop with one client), checks
every output, and reports the end-to-end metrics.  With ``--trace 1`` it
alternates traced passes (``tracer.py``, one interpreter per invocation) with
untraced ones and reports per-layer metrics.  The last line of standard
output is one JSON object; an ``info`` line before it carries the
environment, the raw output deviations and ``csv_identical``.  A detailed
report is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 100.0
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

SETUP_CODE = """\
import sys, time
import adiabatica.cli
from adiabatica.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(repr(time.monotonic()))
"""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env, log_path):
    """Run one child process; returns its exit code, wall time from spawn to
    reap, and peak RSS in MB."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_invocation(inv, cfg_path, out_dir, env, log_path, spans_path=None):
    """Run one CLI invocation (traced when spans_path is set) and check it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cli = inv.argv(cfg_path, out_dir)
    if spans_path is None:
        argv = [sys.executable, "-m", "adiabatica.cli"] + cli
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path)] + cli
    rc, wall, rss = run_child(argv, env, log_path)
    result = {"name": inv.name, "rc": rc, "wall_s": wall, "rss_mb": rss,
              "errors": [], "problem": None, "digests": {}}
    if rc != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        result["problem"] = f"exit code {rc}: {' '.join(tail)}"
        return result
    try:
        result["errors"] = inv.check(inv, out_dir)
    except wl.OutputError as exc:
        result["problem"] = str(exc)
    for fname in inv.outputs:
        path = out_dir / fname
        if path.exists():
            result["digests"][f"{inv.name}/{fname}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return result


def measure_setup(cfg_paths, env):
    """Fresh interpreter to `import adiabatica.cli` + load_config done."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE]
                              + [str(p) for p in cfg_paths], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def measure_importtime(env):
    """Cumulative import times from `python -X importtime`, in seconds."""
    wanted = {"adiabatica": [], "scipy.integrate": [], "numpy": [], "scipy.fft": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import adiabatica.cli"], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [s.strip() for s in line[len("import time:"):].split("|")]
            if parts[2] in wanted and parts[1].isdigit():
                seen[parts[2]] = int(parts[1]) * 1e-6
        for key, values in wanted.items():
            values.append(seen.get(key, 0.0))
    return {k: statistics.median(v) for k, v in wanted.items()}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(invs):
    import numpy
    import scipy
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    l2 = caches.get("L2") or ""
    l2_bytes = int(l2[:-1]) * 1024 if l2.endswith("K") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_pins": THREAD_PINS,
        "scipy_fft_workers": 1,
        "cli_threads": 1,
        "working_set_bytes": {inv.name: wl.working_set_bytes(inv) for inv in invs},
        "l2_bytes": l2_bytes,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def span_table(spans_path):
    """Self time and call count per span name, plus the counters."""
    data = json.loads(Path(spans_path).read_text())
    names, spans = data["names"], data["spans"]
    child_time = [0.0] * len(spans)
    for name_i, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for i, (name_i, start, end, _) in enumerate(spans):
        entry = table.setdefault(names[name_i], [0.0, 0])
        entry[0] += (end - start) - child_time[i]
        entry[1] += 1
    return table, data["counters"]


def merge(dst, src):
    for key, value in src.items():
        if isinstance(value, list):
            cur = dst.setdefault(key, [0.0, 0])
            cur[0] += value[0]
            cur[1] += value[1]
        else:
            dst[key] = dst.get(key, 0) + value


def layer_metrics(table, counters, samples, traced_wall, untraced_wall,
                  importtime):
    def self_s(name):
        return table.get(name, [0.0, 0])[0]

    def calls(name):
        return table.get(name, [0.0, 0])[1]

    def layer_self(prefix):
        return sum(v[0] for k, v in table.items() if k.startswith(prefix + "."))

    program = sum(v[0] for k, v in table.items() if k != "import.adiabatica")
    steps = counters.get("propagation.full.steps", 0)
    pairs = counters.get("propagation.full.fft_pairs", 0)
    kernels = self_s("propagation.full_advance") + self_s("propagation.adiabatic_advance")
    m = {}
    for name in ("propagation.full_advance", "propagation.adiabatic_advance"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    m["propagation.init.self_s"] = self_s("propagation.init")
    m["propagation.run_scenario.self_s"] = self_s("propagation.run_scenario")
    m["propagation.steps"] = steps
    m["propagation.us_per_step"] = kernels / steps * 1e6 if steps else 0.0
    m["propagation.fft_pairs_per_step"] = pairs / steps if steps else 0.0
    m["propagation.fft_gflop_computed"] = counters.get("propagation.fft_flop", 0) / 1e9
    m["propagation.bytes_computed"] = counters.get("propagation.bytes", 0)
    for name in ("grids.to_adiabatic", "grids.expect", "grids.summary",
                 "grids.norms", "diagnostics.fidelity", "model.adiabatic_frame",
                 "model.frame_trig", "experiments.write_csv"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    m["model.frame_trig_per_sample"] = calls("model.frame_trig") / samples if samples else 0.0
    m["experiments.csv_cells"] = counters.get("experiments.csv_cells", 0)
    m["experiments.csv_bytes"] = counters.get("experiments.csv_bytes", 0)
    m["experiments.run_experiment.self_s"] = self_s("experiments.run_experiment")
    m["config.load.self_s"] = self_s("config.load")
    for layer in ("propagation", "grids", "diagnostics", "model", "experiments"):
        m[f"{layer}.self_s"] = layer_self(layer)
    m["program.self_s"] = program
    m["import.in_process_s"] = self_s("import.adiabatica")
    m["import.adiabatica_s"] = importtime["adiabatica"]
    m["import.scipy_integrate_s"] = importtime["scipy.integrate"]
    m["traced.wall_s"] = traced_wall
    m["trace_overhead"] = traced_wall / untraced_wall
    m["share.propagation"] = layer_self("propagation") / program
    m["share.grids_diagnostics"] = (layer_self("grids") + layer_self("diagnostics")) / program
    m["share.import_write_csv_of_wall"] = (
        self_s("import.adiabatica") + self_s("experiments.write_csv")) / traced_wall
    return m


def full_table(table):
    return {k: {"self_s": v[0], "calls": v[1]} for k, v in sorted(table.items())}


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def run_pass(invs, cfg_paths, work, env, traced, spans_paths=None):
    results = []
    for i, inv in enumerate(invs):
        spans = spans_paths[i] if traced else None
        results.append(run_invocation(inv, cfg_paths[i], work / f"out-{i}", env,
                                      work / f"log-{i}.txt", spans))
    return results


def pass_summary(results):
    ok = all(r["problem"] is None for r in results)
    return {"ok": ok,
            "wall_s": sum(r["wall_s"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "ratios": [e.ratio for r in results for e in r["errors"]]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="adiabatica benchmark")
    parser.add_argument("--workload", required=True, choices=["sweep", "trace", "figures"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adiabatica" / "cli.py").is_file():
        print("perfbench: no adiabatica sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2

    invs = wl.build(args.workload, args.seed)
    work = OUT_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, invs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, invs, work):
    work.mkdir(parents=True, exist_ok=True)
    cfg_paths = []
    for i, inv in enumerate(invs):
        path = work / f"config-{i}.json"
        path.write_text(json.dumps(inv.config, indent=1))
        cfg_paths.append(path)
    env = child_env()
    steps = sum(inv.steps for inv in invs)
    samples = sum(inv.samples for inv in invs)

    # untimed warm-up: byte-compiles the package once, as an installed copy would be
    subprocess.run([sys.executable, "-c", "import adiabatica.cli"], env=env,
                   cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT)
    setup = measure_setup(cfg_paths, env)
    importtime = measure_importtime(env) if args.trace else None

    passes, traced_passes, results_all = [], [], []
    spans_paths = [work / f"spans-{i}.json" for i in range(len(invs))]
    layer_runs, table_total = [], {}
    start = iter_start = time.perf_counter()
    while True:
        if args.trace:
            traced = run_pass(invs, cfg_paths, work, env, True, spans_paths)
            results_all += traced
            tsum = pass_summary(traced)
            traced_passes.append(tsum)
        results = run_pass(invs, cfg_paths, work, env, False)
        results_all += results
        passes.append(pass_summary(results))
        if args.trace and tsum["ok"]:
            table, counters = {}, {}
            for path in spans_paths:
                t, c = span_table(path)
                merge(table, t)
                merge(counters, c)
            layer_runs.append(layer_metrics(table, counters, samples,
                                            tsum["wall_s"], passes[-1]["wall_s"],
                                            importtime))
            table_total = table
        # stop at the pass boundary nearest to the requested duration, and
        # early enough to finish within the time limit on a slow program
        now = time.perf_counter()
        last, iter_start = now - iter_start, now
        elapsed = now - start
        if (len(passes) >= MIN_PASSES and elapsed + last / 2 >= args.seconds) \
                or elapsed + last > 3 * args.seconds:
            break

    attempted = len(results_all)
    failed = sum(r["problem"] is not None for r in results_all)
    good = [p for p in passes if p["ok"]] or passes
    wall = statistics.median(p["wall_s"] for p in good)
    ratios = [r for p in passes for r in p["ratios"]]
    if args.trace:
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        # 0 for every metric when no traced pass succeeded (correct is false)
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   if layer_runs else 0.0 for key in units}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "steps_per_s": statistics.median(steps / p["wall_s"] for p in good),
            "samples_per_s": statistics.median(samples / p["wall_s"] for p in good),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in good),
            # 1e9 flags a run in which no output could be checked at all
            "max_err": max(ratios) if ratios else 1e9,
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}

    baseline = wl.baseline_digests().get(args.workload, {}).get(str(args.seed))
    digests = {}
    for r in results_all:
        digests.update(r["digests"])
    problems = sorted({r["problem"] for r in results_all if r["problem"]})
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_s_samples": setup,
        "steps_per_pass": steps, "samples_per_pass": samples,
        "ops_failed": failed / attempted,
        "csv_identical": (None if baseline is None
                          else all(digests.get(k) == v for k, v in baseline.items())),
        "output_deviation": _deviation_summary(results_all),
        "problems": problems[:5],
        "environment": environment(invs),
    }
    if args.trace:
        info["importtime_s"] = importtime
        info["traced_pass_wall_s"] = [p["wall_s"] for p in traced_passes]
        info["layers"] = full_table(table_total)
    OUT_ROOT.mkdir(exist_ok=True)
    report = OUT_ROOT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    if args.trace and layer_runs:
        for i, path in enumerate(spans_paths):
            if path.exists():
                shutil.copyfile(path, OUT_ROOT / f"spans-{args.workload}-{args.seed}-{i}.json")

    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()},
    }))
    return 0


def _deviation_summary(results):
    worst = {}
    for r in results:
        for e in r["errors"]:
            cur = worst.get(e.label)
            if cur is None or e.deviation > cur["deviation"]:
                worst[e.label] = {"deviation": e.deviation,
                                  "seed_deviation": e.seed_deviation,
                                  "tolerance": e.tolerance}
    return worst


def _benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
