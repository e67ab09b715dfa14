"""padyn benchmark: cold single-threaded worker processes, one at a time.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every workload is one closed computation (see workloads.py) run in a
fresh worker process, because padyn's lru_caches make warm in-process
repeats misleading.  Workers run sequentially from this one process.

--trace 0 measures the end-to-end metrics for --seconds, finishing the
worker in flight.  It first spawns a few set-up-only workers, then whole
workers, and reports medians:
  wall_s       wall time of the workload's CLI calls, set-up excluded
  cpu_s        user + system CPU time of the worker process
  setup_s      worker spawn to just before the first CLI call
  peak_rss_mb  the worker's ru_maxrss

--trace 1 reports the per-layer metrics (tracing.py).  It runs the exact
self-test, one untraced worker and two traced ones, whose counters must
agree; trace.overhead_s is the traced wall time minus the untraced one.

Every worker's output passes the gate in workloads.py, or the worker
counts as failed and adds no timing.  The last line of stdout is the
JSON result; the lines above it give quartiles, sample counts, the error
rate and the environment, and a full record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS, GateError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_PROBES = 5
MAX_FAILURES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the workers do

# sl2.minimal_flow(5, 2, 1): 480 states, each with 5 generator edges
# (5 act calls) and 3 identification edges.
SELFTEST_COUNTS = {"sl2.act.calls": 2400, "graph.nodes": 480, "graph.edges": 3840}


class Runner:
    """Spawns worker.py processes one at a time and checks what they report.

    PYTHONHASHSEED is fixed so that set and dict order, and with it the
    work done, is the same in every worker."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []

    def spawn(self, mode: str, argvs: list[list[str]]) -> dict | None:
        """Run one worker to completion; None if it failed."""
        self.attempted += 1
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PADYN_SEED")}
        env["PYTHONHASHSEED"] = "0"
        spawned_at = time.monotonic()
        cmd = [
            sys.executable,
            "-s",
            str(HERE / "worker.py"),
            "--mode",
            mode,
            "--argvs",
            json.dumps(argvs),
            "--spawned-at",
            repr(spawned_at),
        ]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
        if proc.returncode != 0:
            return self.fail(f"{mode} worker exited with {proc.returncode}")
        try:
            record = json.loads(out.decode().strip().splitlines()[-1])
        except (IndexError, ValueError) as err:
            return self.fail(f"{mode} worker sent no record: {err!r}")
        record["mode"] = mode
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        record["peak_rss_mb"] = usage.ru_maxrss / 1024
        self.records.append(record)
        return record

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)
        return None

    def gated(self, mode: str, workload, seed: int) -> dict | None:
        record = self.spawn(mode, workload.argvs(seed))
        if record is None:
            return None
        try:
            workload.gate(record["codes"], record["stdouts"], seed)
        except GateError as err:
            self.records.remove(record)
            return self.fail(f"{mode} worker output: {err}")
        return record


def summarise(values: list[float]) -> dict:
    """Median, quartiles and sample count; counters that agree stay exact."""
    if len(set(values)) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed: int, seconds: float, run: Runner) -> dict[str, list[float]]:
    """Untraced samples of every end-to-end metric, taken for `seconds`."""
    deadline = time.monotonic() + seconds
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    for _ in range(SETUP_PROBES):
        record = run.spawn("setup", [])
        if record is not None:
            samples["setup_s"].append(record["setup_s"])
    while len(run.failures) < MAX_FAILURES:
        record = run.gated("run", workload, seed)
        if record is not None:
            for name, _ in END_TO_END:
                samples[name].append(record[name])
        if time.monotonic() >= deadline:
            break
    return samples


def trace(workload, seed: int, run: Runner) -> dict[str, list[float]]:
    """Per-layer samples from two traced workers, after the self-test."""
    selftest = run.spawn("selftest", [])
    if selftest is not None:
        got = {name: selftest["layers"][name] for name in SELFTEST_COUNTS}
        if got != SELFTEST_COUNTS:
            run.records.remove(selftest)
            run.fail(f"self-test counts {got}, expected {SELFTEST_COUNTS}")
    plain = run.gated("run", workload, seed)
    traced = [run.gated("trace", workload, seed) for _ in range(2)]
    traced = [record for record in traced if record is not None]
    if plain is None or not traced:
        return {}
    for record in traced:
        if record["missing"]:
            print(f"not traced, absent from padyn: {record['missing']}", file=sys.stderr)
    timed = {name for name, unit, _, _ in LAYER_METRICS if unit == "s"}
    counters = [{k: v for k, v in r["layers"].items() if k not in timed} for r in traced]
    if len(counters) == 2 and counters[0] != counters[1]:
        diff = sorted(k for k in counters[0] if counters[0][k] != counters[1].get(k))
        run.fail(f"two traced runs disagree on counters {diff}")
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    samples["trace.overhead_s"] = [r["wall_s"] - plain["wall_s"] for r in traced]
    return samples


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    run = Runner(deadline=time.monotonic() + RUN_LIMIT_S)
    if traced:
        samples = trace(workload, seed, run)
        units = {metric: unit for metric, unit, _, _ in LAYER_METRICS}
    else:
        samples = measure(workload, seed, seconds, run)
        units = dict(END_TO_END)
    summary = {}
    for metric, values in samples.items():
        if values:
            summary[metric] = summarise(values)
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and len(summary) == len(units),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": s["median"], "unit": units[m]} for m, s in summary.items()},
    }
    mode = "trace" if traced else "end-to-end"
    print(f"{name} seed {seed} {mode}: {run.attempted} worker(s)")
    for metric, s in summary.items():
        print(
            f"  {metric:34} median {s['median']:.6g} {units[metric]}"
            f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
        )
    print(f"  error_rate {failed / run.attempted:.3g} ({failed} of {run.attempted} failed)")
    env = environment(seed)
    print(f"  env {json.dumps(env, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "trace": int(traced),
        "seconds": seconds,
        "env": env,
        "summary": summary,
        "failures": run.failures,
        "result": result,
        "workers": [{k: v for k, v in r.items() if k != "stdouts"} for r in run.records],
    }
    out = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "padyn" / "__init__.py").is_file():
        print(f"error: no padyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
