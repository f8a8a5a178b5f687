#!/usr/bin/env python3
"""Steadiness check: two sets of ten benchmark runs per workload, compared.

    python3 bench/steadiness.py

Runs `bench/run.py` for every workload of BENCHMARK.json at its
`run_seconds`, one process at a time from the repository root, each run with
its own seed (1-10 in the first set, 101-110 in the second). It prints for
every end-to-end metric of every workload: each set's median, each set's
interquartile range as a share of its median, and the gap between the set
medians as a share of the smaller. A metric passes when every spread and the
gap lie within its bound in BENCHMARK.json. The share of failed operations
must be identical across all runs. Exits 1 when anything fails. The raw
milliseconds behind the ref metrics are shown too, unjudged, to compare
their spread with that of the normalised figures.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
# raw milliseconds from each run's details line, shown next to the ref metrics
RAW = ("frame_p50_ms", "ref_ms", "evaluate_p50_ms", "evaluate_ref_ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["detail"] = json.loads(proc.stderr.strip().splitlines()[-1])
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                r = run_once(w, seed=1 + i + 100 * s, seconds=bench["run_seconds"])
                results[w][s].append(r)
                print(f"set {s} run {i} {w}: failed {r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                      + " " + " ".join(f"{k}={r['detail'][k]:.4g}" for k in RAW),
                      file=sys.stderr, flush=True)

    ok = True
    print(f"sets={SETS} runs={RUNS} seconds={bench['run_seconds']}")
    print(f"{'workload':9} {'metric':16} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>10} {'iqr' + str(s):>7}" for s in range(SETS))
          + f" {'gap':>7}  verdict")
    for w, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{w}: incorrect output, or failed share differs between runs: {sorted(shares)}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            gap = (max(medians) - min(medians)) / min(medians)
            worst = max(gap, *spreads)
            ok &= worst <= bound
            verdict = "steady" if worst <= bound / 3 else "ok" if worst <= bound else "FAIL"
            print(f"{w:9} {name:16} {bound:6.3f} "
                  + " ".join(f"{md:10.4g} {sp:7.4f}" for md, sp in zip(medians, spreads))
                  + f" {gap:7.4f}  {verdict}")
        for name in RAW:
            per_set = [[r["detail"][name] for r in runs] for runs in sets]
            print(f"{w:9} {name:16} {'raw':>6} "
                  + " ".join(f"{statistics.median(v):10.4g} {spread(v):7.4f}" for v in per_set))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
