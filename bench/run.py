"""fraclap benchmark: one seeded workload per run, closed loop, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; fraclap is imported from the
checkout's ``src/`` and nowhere else.  One caller runs the workload in this
process: each solve starts after the previous one returns.  BLAS and OpenMP
thread pools are capped at the number of usable cores.

--trace 0 measures the end-to-end metrics.  The setup (import of fraclap
in a fresh interpreter, and the workload's one-time work) is repeated and
the medians reported.  One untraced warm-up pass over the workload's solves
pays the process's first-call costs; then whole passes run until S seconds
have gone by since the first timed pass began (at least three passes), and
the median pass is reported.  Every pass, the warm-up too, is checked.
Each timed step is normalised to a nominal host speed by a reference mix
timed around it (hostspeed.py); the raw wall times go to the record.

--trace 1 runs an untraced setup and pass, the same with spans recorded
around every call into fraclap, and the untraced pair again.  It reports
the per-layer metrics, each module's self time per op, the time outside any
module (unaccounted) and the tracing overhead: traced minus the second
untraced wall time, and the measured cost per span times the span count.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, inputs,
per-op outcomes, per-op self times, spans) is written to
.bench_build/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
FRESH_IMPORTS = 5
MIN_PASSES = 3
WORKLOAD_NAMES = ("disk2d_convergence", "ball3d_cli", "disk2d_multisource")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_fraclap() -> float:
    """Import fraclap from this checkout and return the seconds it took."""
    package = SRC / "fraclap"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no fraclap sources at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fraclap
    import fraclap.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(fraclap.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported fraclap from {fraclap.__file__}, not {package}")
    return seconds


def fresh_import_s() -> float:
    """Import time of fraclap in a new interpreter (the process is waited for)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import fraclap, fraclap.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "fft_workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "last_level_cache_bytes": last_level_cache_bytes(),
        "machine": platform.machine(),
    }


def last_level_cache_bytes() -> int | None:
    """Size of the highest-level CPU cache that sysfs reports for cpu0."""
    best = (0, None)  # (level, bytes)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(work, tracer=None):
    t0 = time.perf_counter()
    state = work.setup() if tracer is None else tracer.run("setup", 0, work.setup)
    return state, time.perf_counter() - t0


def numbers(outcomes) -> list:
    """What must repeat exactly between passes of one seed."""
    return [(o.label, o.ok, o.iterations, o.l2_error, o.true_residual) for o in outcomes]


def measured_run(work, seconds: float, import_s: float) -> dict:
    from hostspeed import Normaliser
    from workloads import Clock
    setup = Normaliser()
    for _ in range(FRESH_IMPORTS):
        setup.add(fresh_import_s())
    imports = setup.normalised_s[:]
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, dt = timed_setup(work)
        setup.add(dt)
    setups = setup.normalised_s[FRESH_IMPORTS:]
    warm_up = work.run(state, Clock())
    solve = Normaliser()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        clock = Clock()
        passes.append(work.run(state, clock))
        solve.add(clock.solve_s)
    first = passes[0]
    checks = []
    if any(numbers(o) != numbers(warm_up) for o in passes):
        checks.append("passes of one seed disagree in iterations, l2_error or residual")
    l2 = work.headline_l2(first)
    return {
        "outcomes": warm_up + [o for p in passes for o in p],
        "checks": checks,
        "samples": {"in_process_import_wall_s": import_s,
                    "setup_wall_s": setup.wall_s, "setup_normalised_s": setup.normalised_s,
                    "setup_reference_s": setup.references,
                    "pass_solve_wall_s": solve.wall_s, "pass_solve_normalised_s":
                    solve.normalised_s, "pass_reference_s": solve.references},
        "metrics": {
            "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
            "solve_s": (statistics.median(solve.normalised_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "pcg_iterations": (sum(o.iterations for o in first), "count"),
            "l2_error": (l2 if l2 is not None else 0.0, "norm"),
        },
    }


def traced_run(work) -> dict:
    """Untraced pass, traced pass, untraced pass.  The first pays the
    process's first-call costs; the overhead compares the traced pass with
    the last one."""
    from tracing import MODULES, Tracer, layer_metrics
    from workloads import Clock

    def untraced():
        state, setup_s = timed_setup(work)
        clock = Clock()
        return work.run(state, clock), setup_s + clock.solve_s

    first, _ = untraced()
    gc.collect()
    tracer = Tracer()
    with tracer.installed():
        state, traced_setup = timed_setup(work, tracer)
        clock = Clock(tracer)
        traced = work.run(state, clock)
    state = None
    gc.collect()
    last, untraced_s = untraced()
    checks = []
    if not numbers(first) == numbers(traced) == numbers(last):
        checks.append("traced pass differs from the untraced passes in iterations, "
                      "l2_error or residual")
    traced_s = traced_setup + clock.solve_s
    self_times = tracer.self_times()
    metrics = layer_metrics(tracer)
    metrics["trace.unaccounted_s"] = (
        traced_s - sum(self_times.get(m, 0.0) for m in MODULES), "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.span_cost_s"] = (len(tracer.spans) * Tracer.span_cost_s(), "s_computed")
    return {
        "outcomes": first + traced + last,
        "checks": checks,
        "samples": {"traced_s": traced_s, "untraced_s": untraced_s},
        "metrics": metrics,
        "per_op_self_s": {op: tracer.self_times(op) for op in range(1 + len(traced))},
        "op_labels": {0: "setup", **{o.op: o.label for o in traced}},
        "spans": tracer.dump(),
    }


def report(record: dict):
    env = record["environment"]
    print(f"# fraclap bench  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    print(f"# env  nproc={env['nproc']} blas={env['blas']} threads={env['thread_caps']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"llc={env['last_level_cache_bytes']}")
    for info in record["inputs"]:
        print(f"# input  {info}")
    print(f"# working set (computed, bytes)  {record['working_set']}")
    for o in record["outcomes"]:
        status = "ok" if o["ok"] else "FAILED " + "; ".join(o["reasons"])
        print(f"op {o['op']:3d} {o['label']:<22} {o['seconds']:9.4f} s  it={o['iterations']:<4} "
              f"l2={o['l2_error']}  {status}")
    for check in record["checks"]:
        print(f"CHECK FAILED  {check}")
    if "per_op_self_s" in record:
        for op, times in record["per_op_self_s"].items():
            cells = " ".join(f"{m}={t:.4f}" for m, t in sorted(times.items()))
            print(f"self_s op {op} ({record['op_labels'][op]}): {cells}")
    for name, m in record["metrics"].items():
        label = "  (computed)" if m["unit"].endswith("_computed") else ""
        print(f"{name:<36} {m['value']!r:>24} {m['unit']}{label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    import_s = import_fraclap()
    from workloads import WORKLOADS

    scratch = OUT / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    work = WORKLOADS[args.workload](args.seed, scratch)
    generate_s = time.perf_counter() - t0
    if args.trace:
        result = traced_run(work)
        result["metrics"]["mesh.generate_s"] = (generate_s, "s")
    else:
        result = measured_run(work, args.seconds, import_s)

    outcomes = result.pop("outcomes")
    failed = sum(not o.ok for o in outcomes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(nproc),
        "inputs": work.inputs, "working_set": work.working_set(),
        "input_generation_s": generate_s,
        "outcomes": [o.record() for o in outcomes],
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record["correct"] = failed == 0 and not record["checks"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    report(record)
    print(f"# record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": len(outcomes),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
