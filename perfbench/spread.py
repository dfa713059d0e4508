"""Run-to-run spread: repeat run.py over several seeds and report quartiles.

    python3 perfbench/spread.py --workload an-cold --seeds 1-10 --seconds 15
    python3 perfbench/spread.py --workload symbolic --seeds 1-5 --out spread.json

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, their distance as a
share of the median.  A later change resolves a difference on a metric only
when the medians differ by more than this spread.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: incorrect run", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        summary[workload] = {}
        for name in runs[0]:
            stats = summarize([run[name]["value"] for run in runs])
            stats["unit"] = runs[0][name]["unit"]
            summary[workload][name] = stats
            print(f"{workload}  {name:<36} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
