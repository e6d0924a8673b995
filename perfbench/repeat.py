#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and summarize the spread.

    python3 perfbench/repeat.py --workloads time_direct,freq_direct --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

For every metric it prints the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread that must stay within the metric's bound). Runs go one
after another, each in its own process, from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report, ok, env = {}, True, None
    for name in args.workloads.split(","):
        metrics, walls, failed = {}, [], []
        for seed in args.seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
            )
            walls.append(time.perf_counter() - t)
            lines = proc.stdout.splitlines()
            env = env or next((x for x in lines if x.startswith("environment: ")), None)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failed.append(seed)
                continue
            if proc.returncode or not result["correct"]:
                failed.append(seed)
            for metric, value in result["metrics"].items():
                metrics.setdefault(metric, []).append(value["value"])
        ok &= not failed
        report[name] = {"failed_seeds": failed, "wall_s": summarize(walls),
                        "metrics": {k: summarize(v) for k, v in metrics.items()}}
        print(f"{name}: failed seeds {failed or 'none'}, wall per run "
              f"{statistics.median(walls):.1f} s (max {max(walls):.1f})")
        for metric, s in report[name]["metrics"].items():
            bound = bounds.get(metric)
            limit = f" (bound {bound})" if bound is not None else ""
            print(f"  {metric:34s} median {s['median']:.6g}  quartiles "
                  f"{s['q1']:.6g}..{s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
             "environment": env, "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
