#!/usr/bin/env python3
"""srlaser benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload threshold_grid --seed 0 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then timed passes over the workload until ``--seconds``
have passed (at least two), each followed by the output checks.  Its times are
rescaled to a reference machine speed that a calibration kernel measures
between the operations (see ``calibrate.py``); the raw times are printed
and recorded too.  ``--trace 1`` runs untraced passes for half the budget
and one traced pass, and reports the per-layer metrics, unscaled.
``--smoke`` shrinks every grid to a few cells.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit and sample count, and the same record, with the environment, is
written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5
MIN_PASSES = 2  # so each operation time is a median over passes
# One BLAS/OpenMP thread.  On two shared vCPUs a second BLAS thread made a
# 320 x 320 solve five times slower at the median and far less steady.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

IMPORT_METRICS = {"import.srlaser_cli_s": "srlaser.cli",
                  "import.scipy_integrate_s": "scipy.integrate",
                  "import.scipy_optimize_s": "scipy.optimize",
                  "import.scipy_sparse_linalg_s": "scipy.sparse.linalg"}
# per-layer metrics taken from the pass result rather than from the spans
RUN_LAYER_METRICS = ("sweep.cells_failed", "sweep.csv_bytes", "trace.overhead_s")

_SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench.workloads import prepare
prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
print("ready", flush=True)
"""


def cap_threads() -> tuple[int, int]:
    """One BLAS/OpenMP thread, on one CPU; children inherit both.

    Pinning keeps the calibration samples, the timed work and the set-up
    children on the same CPU, whose speed may differ from its sibling's.
    Returns nproc and the CPU used.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def measure_setup(workload: str, seed: int, smoke: bool, workdir: Path,
                  calibrator) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready.

    The calibrator samples the speed just before and after.
    """
    calibrator.sample(repeats=3)
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(ROOT),
           workload, str(seed), "1" if smoke else "0"]
    with open(workdir / "setup.stderr", "w+") as err:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                              text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                child.communicate(timeout=170)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        if child.returncode != 0 or line.strip() != "ready":
            err.seek(0)
            raise RuntimeError(f"set-up child failed:\n{err.read()[-4000:]}")
    calibrator.sample(repeats=3)
    return elapsed


def import_times() -> dict[str, float]:
    """Cumulative import seconds of selected modules, from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import sys; sys.path.insert(0, sys.argv[1]); import srlaser.cli", str(SRC)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    return {metric: cumulative.get(module, 0) * 1e-6
            for metric, module in IMPORT_METRICS.items()}


def run_passes(workload, budget: float, workdir: Path, trace, calibrator=None,
               min_passes: int = 1) -> list:
    """Untraced passes until ``budget`` seconds have passed, at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < budget or len(passes) < min_passes:
        recorder = trace.Recorder(calibrator)
        with trace.Patches() as patches:
            recorder.install(patches)
            passes.append(workload.run_pass(workdir, recorder))
    return passes


def traced_pass(workload, workdir: Path, trace):
    recorder = trace.Recorder()
    tracer = trace.Tracer(recorder)
    with trace.Patches() as patches:
        tracer.install(patches)
        recorder.install(patches)
        result = workload.run_pass(workdir, recorder)
    return result, tracer, patches.missing


def scaled(passes, calibrator) -> tuple[list, list]:
    """Pass wall times and operation times at the reference speed.

    Each operation is scaled by the speed sampled around it; the rest of
    a pass (CSV and checkpoint handling) by the speed over the pass.  An
    operation's time is its median over the passes that ran it.
    """
    walls, ops = [], {}
    for p in passes:
        own = {k: s * calibrator.factor(p.op_start[k], p.op_start[k] + s)
               for k, s in p.op_s.items()}
        rest = p.wall_s - sum(p.op_s.values())
        walls.append(sum(own.values()) + rest * calibrator.factor(p.start, p.end))
        for k, s in own.items():
            ops.setdefault(k, []).append(s)
    return walls, [statistics.median(times) for times in ops.values()]


def environment(args, workload, cpus: tuple[int, int]) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, cwd=ROOT, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "srlaser").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "cells_per_pass": workload.cells,
        "nproc": cpus[0], "pinned_cpu": cpus[1], "cpu_model": cpu, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "git_commit": commit or "unknown",
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few cells per grid")
    args = parser.parse_args(argv)

    if not (SRC / "srlaser" / "__init__.py").is_file():
        print(f"perfbench: no srlaser sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc, cpu = cap_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, (nproc, cpu), workdir, trace, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cpus, workdir, trace, workloads) -> int:
    import resource

    from perfbench.calibrate import Calibrator

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    setups, calibrator = [], None
    if not args.trace:
        # set-up is mostly importing and running Python, like the ODE kernel
        setup_cal = Calibrator("ode")
        setups = [measure_setup(args.workload, args.seed, args.smoke, workdir, setup_cal)
                  for _ in range(SETUP_RUNS)]
        # one factor over the whole phase: a sample right after a child
        # has run starts with cold caches, so per-child factors are noisy
        setup_factor = setup_cal.factor(setup_cal.times[0], setup_cal.times[-1])
    workload = workloads.prepare(args.workload, args.seed, args.smoke)
    if not args.trace:
        calibrator = Calibrator("oracle" if args.workload == "oracle_small" else "ode")
    passes = run_passes(workload, args.seconds / 2 if args.trace else args.seconds,
                        workdir, trace, calibrator, 1 if args.trace else MIN_PASSES)
    raw_walls = [p.wall_s for p in passes]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args, workload, cpus)

    failures: list = []
    if args.trace:
        traced, tracer, missing = traced_pass(workload, workdir, trace)
        passes.append(traced)
        failures = tracer.failures
    # Each operation counts once per run, failed if it failed in any pass,
    # so the counts do not depend on how many passes fit in the budget.
    attempted = workload.cells
    failed = len(set().union(*(p.failed_ops for p in passes)))
    problems = [q for p in passes for q in p.problems]
    raw_ops = [seconds for p in passes for seconds in p.op_s.values()]
    # printed and recorded, but not gated
    info = {"failed_frac": (failed / attempted, "ratio", attempted),
            "raw.wall_s": (statistics.median(raw_walls), "s", len(raw_walls)),
            "raw.cpu_s": (statistics.median([p.cpu_s for p in passes]), "s", len(passes)),
            "raw.cell_ms_p50": (trace.percentile_ms(raw_ops, 50), "ms", len(raw_ops)),
            "raw.cell_ms_p90": (trace.percentile_ms(raw_ops, 90), "ms", len(raw_ops))}

    if args.trace:
        layer = trace.layer_metrics(tracer, traced.wall_s)
        layer.update(import_times())
        grid = isinstance(workload, workloads.GridWorkload)
        layer["sweep.cells_failed"] = traced.failed if grid else 0
        layer["sweep.csv_bytes"] = traced.csv_bytes
        layer["trace.overhead_s"] = traced.wall_s - statistics.median(raw_walls)
        values = {m["name"]: (float(layer[m["name"]]), 1) for m in spec["per_layer"]}
        tracer.dump(OUT / f"{stem}.spans.jsonl",
                    {"env": env, "missing_names": missing, "failures": failures})
    else:
        walls, ops = scaled(passes, calibrator)
        info["raw.setup_s"] = (statistics.median(setups), "s", len(setups))
        info["calibration_ms"] = (statistics.median(calibrator.samples) * 1e3, "ms",
                                  len(calibrator.samples))
        values = {
            "setup_s": (statistics.median(setups) * setup_factor, len(setups)),
            "wall_s": (statistics.median(walls), len(walls)),
            "cell_ms_p50": (trace.percentile_ms(ops, 50), len(ops)),
            "cell_ms_p90": (trace.percentile_ms(ops, 90), len(ops)),
            "ok_frac": (1.0 - failed / attempted, attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name][0], "unit": units[name],
                      "samples": values[name][1]} for name in units}

    record = {"env": env, "passes": [
                  {"start": p.start, "end": p.end, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                   "op_ms": {"/".join(map(str, k)): v * 1e3 for k, v in p.op_s.items()},
                   "op_start": {"/".join(map(str, k)): v for k, v in p.op_start.items()}}
                  for p in passes],
              "setups_s": setups,
              "scaled_walls_s": [] if args.trace else walls,
              "calibration": [] if args.trace else
                             [[t, s] for t, s in zip(calibrator.times, calibrator.samples)],
              "attempted": attempted,
              "failed": failed, "info": {k: v for k, (v, _, _) in info.items()},
              "problems": problems[:200], "failures": failures, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for line in problems[:20]:
        print("problem " + line)
    for name, (value, unit, n) in info.items():
        print(f"{name:<44} {value:>14.6g} {unit:<6} n={n} (not gated)")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
