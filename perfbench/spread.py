"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train_ecg200 --seeds 1-10

The spread is the distance between the first and third quartile of the
values, as a share of their median.  A metric is steady when its spread is
below a third of the bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import iqr_share

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{v[-1]:.5g}" for v in values.values())
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}: {shown}", flush=True)
    print(f"{'metric':<40} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        mid = median(vals)
        spread = iqr_share(vals) if mid and len(vals) > 1 else 0.0
        bound = bounds.get(name)
        limit = f"{bound / 3:8.4f}" if bound else " " * 8
        flag = "  WIDE" if bound and spread >= bound / 3 else ""
        print(f"{name:<40} {mid:>14.6g} {spread:>8.4f} {limit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
