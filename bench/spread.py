"""Run one workload on several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --workload rearrange --seeds 0-9

Each seed is one `run.py --trace 0` process of BENCHMARK.json's
`run_seconds`, run one after another.  Prints, per metric, the median of the
runs and the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), and writes the same to
`.bench_out/<workload>/spread.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, OUT, ROOT


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict = {}
    units: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else 0.0,
                         "values": vals}
        print(f"{args.workload} {name}: median {med:.5g} {units[name]}, "
              f"IQR/median {summary[name]['iqr_share']:.4f}")
    out = OUT / args.workload / "spread.json"
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds,
                               "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
