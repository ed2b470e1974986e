"""Steadiness check: repeat workloads with fresh seeds and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload ingest --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --first-seed 101

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every end-to-end metric its median, the inter-quartile range and the
max–min spread (both as a share of the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from BENCHMARK.json. A spread is steady when the IQR is
below a third of the bound (``setup_s`` has no spread limit). The raw
results are kept in ``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR / median, (max - min) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) or 1.0
    return med, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main(argv=None) -> int:
    common.bootstrap()
    import workloads

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="'all' runs the workloads listed in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    chosen = names if "all" in args.workload else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict = {}
    steady = True
    for workload in chosen:
        runs = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            runs.append(run_once(workload, args.first_seed + i, args.seconds))
            print(f"{workload} seed {args.first_seed + i}: "
                  f"{time.perf_counter() - t0:.1f} s wall", file=sys.stderr)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':34s} {'median':>12s} {'IQR%':>7s} {'max-min%':>9s} "
              f"{'bound%':>7s}  steady")
        for name, bound in bounds.items():
            med, iqr, rng = spread([r["metrics"][name]["value"] for r in runs])
            ok = name == "setup_s" or iqr < bound / 3
            steady &= ok
            print(f"  {name:34s} {med:12.6g} {iqr * 100:7.2f} {rng * 100:9.2f} "
                  f"{bound * 100:7.1f}  {'yes' if ok else 'NO'}")
    out = common.STATE_DIR / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"\nraw results: {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
