"""Layered benchmark for bbstl: one workload per process, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 20 --trace 0

Workloads: monitor, shallow, nested, cli (see ``workloads.py`` and
``BENCHMARK.json``).  One client issues one operation at a time; a run
repeats whole corpus cycles until the operations have taken ``--seconds``.
Every output is checked outside the timed region; an operation that raises
or fails its check counts as failed.  The process pins itself to one CPU,
and times are scaled to a reference machine speed (see ``probe.py``).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
cycle untraced, then the same cycle with spans installed, and reports the
per-layer metrics; the spans are written to
``.perfbench-runs/trace-<workload>-seed<n>.json``.  ``--tiny`` shrinks the
inputs for the smoke run.

Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits with code 2, printing no result, when the program or
its data is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from probe import REF_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
CPUS = sorted(os.sched_getaffinity(0))


def load_program():
    """Import bbstl from this checkout's ``src``; returns the package."""
    src = ROOT / "src"
    if not (src / "bbstl" / "__init__.py").is_file() or \
            not (ROOT / "data" / "kernels.json").is_file():
        raise FileNotFoundError(f"no bbstl sources and data under {ROOT}")
    sys.path.insert(0, str(src))
    bbstl = importlib.import_module("bbstl")
    importlib.import_module("bbstl.cli")
    if Path(bbstl.__file__).resolve().parent != src / "bbstl":
        raise ImportError(f"bbstl imported from {bbstl.__file__}, not {src}")
    return bbstl


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "bbstl").rglob("*.py")))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "nproc": len(CPUS), "pinned_cpu": CPUS[0],
           "blas": f"{blas.get('name')} {blas.get('version')}"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    env["repo.src_loc"] = src_loc()
    return env


def timed(fn, probe):
    """Run ``fn``; returns (result or None, error text or None, wall
    seconds, seconds at the reference speed of ``probe``)."""
    before = probe()
    out = error = None
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:   # a failing operation is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    return out, error, wall, wall * 2 * REF_S / (before + probe())


def traced(tracer, fn):
    """Call ``fn`` under a ``bench.op`` span with the tracer recording."""
    tracer.active = True
    try:
        with tracer.span("bench.op"):
            return fn()
    finally:
        tracer.active = False


def run_ops(workload, seconds: float, probe, tracer=None):
    """Run whole cycles until the operations have taken ``seconds``.

    Returns (per-operation wall seconds, the same at the reference speed,
    failed count, samples monitored).
    """
    walls: list[float] = []
    scaled: list[float] = []
    failed = samples = 0
    while True:
        for i, op in enumerate(workload.cycle(tracer)):
            if tracer is not None:
                tracer.op = i
            out, error, wall, ref = timed(
                op.run if tracer is None else partial(traced, tracer, op.run),
                probe)
            walls.append(wall)
            scaled.append(ref)
            if error is None:
                try:
                    op.check(out)
                except Exception:
                    error = traceback.format_exc()
            out = None
            if error is not None:
                failed += 1
                print(f"FAILED {op.label}:\n{error}", file=sys.stderr)
            samples += op.samples
        if sum(walls) >= seconds:
            return walls, scaled, failed, samples


def percentile_ms(durations, q: int) -> float:
    return 1e3 * statistics.quantiles(durations, n=100,
                                      method="inclusive")[q - 1]


def end_to_end(workload, args, import_s: float,
               probe) -> tuple[dict, int, int]:
    setups = [timed(workload.setup, probe) for _ in range(SETUP_REPS)]
    errors = [e for _, e, _, _ in setups if e is not None]
    if errors:
        raise RuntimeError(f"set-up failed:\n{errors[0]}")
    setup_s = statistics.median(ref for _, _, _, ref in setups)
    walls, durations, failed, samples = run_ops(workload, args.seconds, probe)
    n = len(durations)
    # Per corpus item, the median over cycles: a stretch of slow host time
    # then moves no metric, and neither does the number of cycles a run
    # happened to fit.
    kinds = len(workload.cycle())
    typical = [statistics.median(durations[i::kinds]) for i in range(kinds)]
    rss_of = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    values = {
        "setup_s": import_s + setup_s,
        "ops_per_s": kinds / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "peak_rss_mb": resource.getrusage(rss_of).ru_maxrss / 1024,
        "ok_ratio": (n - failed) / n,
    }
    print(f"times below are at the reference speed (probe loop "
          f"{REF_S * 1e3:g} ms); wall-clock operation p50 "
          f"{1e3 * statistics.median(walls):.6g} ms, total "
          f"{sum(walls):.4f} s")
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPS} "
          f"set-ups {setup_s:.4f} s")
    print(f"operations: {n} ({n // kinds} cycles of {kinds}), "
          f"{failed} failed, fail_ratio {failed / n:.4g}")
    if n >= 100:
        print(f"op_p90_ms {percentile_ms(durations, 90):.6g} ms (n={n})")
    else:
        print(f"op_p90_ms not reported: {n} operations < 100")
    print(f"operation mean {1e3 * sum(durations) / n:.6g} ms")
    if samples:
        print(f"samples_per_s {samples / sum(durations):.6g} 1/s")
    return values, n, failed


def per_layer(workload, args, probe) -> tuple[dict, int, int]:
    from spans import Tracer, self_times
    workload.setup()
    plain, _, failed_plain, _ = run_ops(workload, 0, probe)
    tracer = Tracer()
    tracer.install()
    try:
        spanned, _, failed_spanned, _ = run_ops(workload, 0, probe, tracer)
    finally:
        tracer.uninstall()
    values = dict(tracer.counters)
    totals: dict[str, float] = {}
    for name, start, end, _, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + end - start
    for name, value in self_times(tracer.spans).items():
        values[name + ".self_s"] = value
    for name, value in totals.items():
        if name.startswith("cli."):
            key = name[4:]
            values[f"cli.{key}_s" if key in ("interpreter", "import")
                   else f"{name}.wall_s"] = value
    terms_in = values.get("compose.merge_terms.terms_in", 0)
    values["compose.merge_terms.keep_ratio"] = \
        values.get("compose.merge_terms.terms_out", 0) / terms_in \
        if terms_in else 0.0
    values["bench.cycle_s"] = sum(plain)
    values["bench.trace_overhead_s"] = sum(spanned) - sum(plain)
    values["repo.src_loc"] = src_loc()
    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    path = runs / f"trace-{args.workload}-seed{args.seed}.json"
    labels = [op.label for op in workload.cycle()]
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "environment": environment(), "ops": labels,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans, "metrics": values}) + "\n")
    print(f"spans: {len(tracer.spans)} written to {path}")
    return values, len(plain) + len(spanned), failed_plain + failed_spanned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["monitor", "shallow", "nested", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke run")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # One core for everything: the host slows cores independently, and the
    # speed probe must run on the core the operations run on.
    os.sched_setaffinity(0, CPUS[:1])
    with SpeedProbe() as probe:
        before = probe()
        start = time.perf_counter()
        try:
            bbstl = load_program()
        except (ImportError, FileNotFoundError) as exc:
            print(f"perfbench: cannot load the program: {exc}",
                  file=sys.stderr)
            return 2
        import_s = (time.perf_counter() - start) * 2 * REF_S \
            / (before + probe())
        return run_workload(bbstl, args, spec, import_s, probe)


def run_workload(bbstl, args, spec: dict, import_s: float, probe) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](bbstl, args.seed, args.tiny)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} tiny={args.tiny}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            values, attempted, failed = per_layer(workload, args, probe)
            declared = spec["per_layer"]
        else:
            values, attempted, failed = end_to_end(workload, args,
                                                   import_s, probe)
            declared = spec["end_to_end"]
    finally:
        workload.close()
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
