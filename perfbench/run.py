#!/usr/bin/env python3
"""Benchmark of lqobt's reduction pipeline, end to end and per layer.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload time_direct --seed 21 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One run of one workload, in one process with the BLAS threads pinned to the
number of usable cores:

1. Set-up, timed as ``setup_s``: import lqobt, synthesize the system, build
   the rules and run one untimed warm-up pass. Two more set-ups run in fresh
   child processes, one after the other, and ``setup_s`` is the median.
2. Timed passes until their total reaches ``--seconds``. A pass starts from a
   fresh system and ends with all ROMs of the workload. ``solve_s`` is the median pass time.
3. Checks of every pass against intrusive balanced truncation and against
   the warm-up pass's ROMs, which every pass must reproduce bit for bit.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``,
``solve_s``, ``peak_rss_mb`` (``ru_maxrss`` of this process) and
``h2_err_ratio``: the H2 error of the ROM at the workload's reference order
over that of intrusive BT at the same order. On ``intrusive_sweep`` the ROM
is BT itself and the denominator comes from an independent scipy
(Bartels-Stewart) evaluation. ``h2_err_rel`` and ``fail_frac`` are printed
as well; the failures are also in the result's ``attempted``/``failed``.

With ``--trace 1`` untraced and traced passes alternate for ``--seconds``;
the traced ones record spans around every call into the layers (see
``tracing.py``) and the run reports per-pass layer metrics and the tracing
overhead. Spans are written to ``.bench_out/`` when the run ends.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when any check fails.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
CHILD_TIMEOUT_S = 170


def pin_blas_threads():
    """Cap every BLAS pool at the usable core count; must run before numpy
    is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def setup(name, seed):
    """Import, inputs and one untimed warm-up pass; returns the set-up
    time with the state the timed passes need."""
    t0 = time.perf_counter()
    import workloads  # numpy, scipy and lqobt

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    inp = wl.build(seed)
    first, _ = run_pass(wl, inp)
    return wl, inp, first, time.perf_counter() - t0


def child_setup(args):
    """Set-up time of a fresh process running the same workload."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_pass(wl, inp, tracer=None, pass_id=0):
    """One pass from a fresh system to all ROMs; returns (outcome, seconds)."""
    sampler = inp.system()
    context = nullcontext()
    if tracer is not None:
        sampler = tracer.sampler(sampler)
        context = tracer.traced_pass(pass_id)
    with context:
        t = time.perf_counter()
        outcome = wl.solve(sampler, inp)
        dt = time.perf_counter() - t
    return outcome, dt


def judged_pass(wl, inp, ref, first, tracer=None, pass_id=0):
    """A pass and its verdict; a pass that raises fails all its ROMs and
    returns no time."""
    import workloads

    try:
        out, dt = run_pass(wl, inp, tracer, pass_id)
    except Exception:
        traceback.print_exc()
        return None, workloads.Verdict(
            len(inp.orders), float("nan"), float("nan"), problems=["pass raised"]
        )
    verdict = wl.check(out, inp, ref)
    if not workloads.same_roms(out.roms, first.roms):
        verdict.problems.append("ROMs differ from the untraced warm-up pass's")
    return dt, verdict


def environment(nproc):
    import numpy as np
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    try:
        l3 = os.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    except (ValueError, OSError):
        l3 = None
    return {
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_openblas": blas(np),
        "scipy": scipy.__version__,
        "scipy_openblas": blas(scipy),
        "l3_bytes": l3,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile_note(values):
    """The highest percentile with at least ten passes beyond it, if any
    lies above the median."""
    c = len(values)
    p = int(100 * (1 - 10 / c)) if c else 0
    if p <= 50:
        return f"no percentile above the median has ten passes beyond it at {c} passes"
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"


def untraced_run(args, wl, inp, first, ref, setups):
    times, verdicts = [], []
    spent = 0.0
    while spent < args.seconds:
        t = time.perf_counter()
        dt, verdict = judged_pass(wl, inp, ref, first)
        spent += time.perf_counter() - t if dt is None else dt
        verdicts.append(verdict)
        if dt is not None:
            times.append(dt)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratios = [v.h2_err_ratio for v in verdicts if v.h2_err_ratio == v.h2_err_ratio]
    rels = [v.h2_err_rel for v in verdicts if v.h2_err_rel == v.h2_err_rel]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(times) if times else None, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "h2_err_ratio": (statistics.median(ratios) if ratios else None, "1"),
    }
    lines = [f"setup_s       {metrics['setup_s'][0]:.4f} s  median of {len(setups)} set-ups "
             f"[{', '.join(f'{s:.3f}' for s in setups)}]"]
    if times:
        q1, q3 = quartiles(times)
        lines.append(f"solve_s       {metrics['solve_s'][0]:.4f} s  median of {len(times)} passes, "
                     f"quartiles {q1:.4f}..{q3:.4f} s; {percentile_note(times)}")
    lines.append(f"peak_rss_mb   {rss_mb:.1f} MB")
    if rels:
        lines.append(f"h2_err_rel    {statistics.median(rels):.4e} (1) at r={inp.ref_order}")
        lines.append(f"h2_err_ratio  {metrics['h2_err_ratio'][0]:.6f} (1) against the BT reference")
    return metrics, verdicts, lines


def traced_run(args, wl, inp, first, ref):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, verdicts = [], [], []
    spent, pass_id = 0.0, 0
    while spent < args.seconds or not traced or not untraced:
        pass_id += 1
        for use, times in ((None, untraced), (tracer, traced)):
            t = time.perf_counter()
            dt, verdict = judged_pass(wl, inp, ref, first, use, pass_id)
            spent += time.perf_counter() - t if dt is None else dt
            verdicts.append(verdict)
            if dt is not None:
                times.append(dt)
    per_pass = [tracing.pass_metrics(tracer.spans, p) for p in tracer.pass_ids()]
    for name in tracing.COUNTS:
        seen = {m[name] for m in per_pass}
        if len(seen) > 1:
            verdicts[-1].problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        metrics[name] = (statistics.median(m[name] for m in per_pass) if per_pass else None, unit)
    overhead = None
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    span_file.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                     "spans": tracer.dump()}))
    labels = {"databt.assemble_bytes": "computed from shapes"}
    lines = [f"{len(traced)} traced and {len(untraced)} untraced passes; "
             f"values are medians per traced pass; spans in {span_file.relative_to(ROOT)}"]
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({labels[name]})" if name in labels else ""
        lines.append(f"{name:34s} {shown} {unit}{note}")
    return metrics, verdicts, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    # 21 is the system of the acceptance suite and the README quickstart
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args):
    """Each workload in its own process, so each peak RSS is its own."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=30 * CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] &= bool(result["correct"]) and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
                          if v["value"] is not None)
        print(f"  {name:16s} fail_frac {result['failed']}/{result['attempted']}; {shown}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    wl, inp, first, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(nproc)
    print(f"lqobt benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s of passes, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    ref = wl.reference(inp, first)
    if args.trace:
        metrics, verdicts, lines = traced_run(args, wl, inp, first, ref)
    else:
        setups = [setup_s] + [child_setup(args) for _ in range(SETUPS - 1)]
        metrics, verdicts, lines = untraced_run(args, wl, inp, first, ref, setups)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = sorted({p for v in verdicts for p in v.problems}
                      | {f"unstable ROM at r={r}" for v in verdicts for r in v.unstable})
    correct = failed == 0 and not problems and all(v is not None for v, _ in metrics.values())
    print("\n".join(lines))
    print(f"fail_frac     {failed}/{attempted} = {failed / attempted:.4g} (1)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
