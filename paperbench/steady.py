#!/usr/bin/env python3
"""Steadiness of the paper benchmark: run each workload over several seeds.

Usage (from the root of the repository):
    python3 paperbench/steady.py [--seeds 10]

Runs paperbench/run.py once per (workload, seed) for every workload in
BENCHMARK.json and seeds 1..N, untraced, one at a time, for the run length
BENCHMARK.json gives. It prints for every end-to-end metric its median, first
and third quartiles (statistics.quantiles(values, n=4)), the quartile spread
and the max-min spread as shares of the median, next to the metric's bound.
A metric is "ok" when its quartile spread is below a third of its bound. It
also prints the native-vs-native noise floor each run measured between its
two identical native configurations, and the share of failed operations.
Exit code 0 only when every run succeeded and every metric is "ok".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "paperbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    ref = next((json.loads(l[4:]) for l in lines if l.startswith("REF ")), {})
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, ref


def spread(values):
    """Median, quartiles, and quartile and max-min spreads over the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    ok_all = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, noise, attempted, failed = {}, [], 0, 0
        for seed in range(1, args.seeds + 1):
            rc, result, ref = run_once(workload, seed, seconds)
            if result is None or rc != 0:
                ok_all = False
                print(f"{workload} seed {seed}: run failed (exit {rc})", flush=True)
            if result is None:
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            noise.append(ref.get("noise_floor", 0.0))
            print(f"{workload} seed {seed}: {ref.get('rounds', '?')} rounds, "
                  f"noise floor {100 * noise[-1]:+.2f}%", flush=True)
        print(f"\n== {workload}: seeds 1-{args.seeds}, {seconds} s runs; "
              f"failed {failed}/{attempted} operations")
        print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'range/med':>11}"
              f"{'bound':>7}  status")
        for name, v in values.items():
            med, q1, q3, iqr, rng = spread(v)
            ok = iqr < bounds[name] / 3
            ok_all &= ok
            print(f"{name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{100 * iqr:>8.2f}%"
                  f"{100 * rng:>10.2f}%{bounds[name]:>7}  {'ok' if ok else 'WIDE'}")
        if noise:
            med, q1, q3, _, _ = spread([1 + x for x in noise])
            print(f"native-vs-native noise floor: median {100 * (med - 1):+.2f}%, "
                  f"quartiles {100 * (q1 - 1):+.2f}% .. {100 * (q3 - 1):+.2f}%, "
                  f"max |x| {100 * max(abs(x) for x in noise):.2f}%")
        print(flush=True)
    sys.exit(0 if ok_all else 1)


if __name__ == "__main__":
    main()
