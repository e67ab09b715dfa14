"""Run the benchmark over several seeds and check that it is steady.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a b] [--trace] [--out FILE]

Each (workload, seed) is one `run.py` invocation from the repository
root, exactly as a benchmark driver makes it, with `run_seconds` from
BENCHMARK.json.  For every end-to-end metric this prints the median of
the per-run values, their interquartile range as a share of the median
(the spread), and the metric's bound; a spread above a third of the
bound is flagged.  `--out` writes the figures as JSON, which is how
baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment
from workloads import WORKLOADS


def seeds_from(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [
                *spec["command"],
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(int(args.trace)),
            ]  # fmt: skip
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: FAILED\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        table[name] = {}
        for metric, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  UNSTEADY"
                ok = False
            table[name][metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "unit": units[metric],
                "values": series,
            }
            if bound is not None or not args.trace:
                print(
                    f"{name:12} {metric:12} median {median:10.5g} {units[metric]:4}"
                    f" spread {spread:7.4f} bound {bound}{flag}",
                    flush=True,
                )
    if args.out:
        record = {
            "env": environment(args.seeds[0]) | {"seed": args.seeds},
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "workloads": table,
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
