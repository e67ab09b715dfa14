"""One cold worker process: set up, make the workload's CLI calls, report.

Started by run.py, one at a time.  Set-up is everything from the moment
the parent spawned this process to just before the first CLI call:
interpreter start and the import of padyn with its CLI, which loads
every module.  The CLI's own stdout is captured and sent back, with the
timings, as one JSON line on the real stdout.

Modes:
  setup     report set-up time and exit before the workload
  run       make the workload's CLI calls untraced
  trace     the same calls with every padyn layer traced
  selftest  trace sl2.minimal_flow(5, 2, 1), whose counts are known exactly
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "selftest"), required=True)
    parser.add_argument("--argvs", required=True, help="JSON list of CLI argument lists")
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import padyn.cli

    if not Path(padyn.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"padyn was imported from {padyn.__file__}, not from {SRC}")
    argvs = json.loads(args.argvs)
    record: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = None
    if args.mode in ("trace", "selftest"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes, stdouts = [], []
    start = time.perf_counter()
    if args.mode == "selftest":
        padyn.sl2.minimal_flow(5, 2, 1)
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None and argv[:2] == ["verify", "--check"]:
                codes.append(tracer.call(f"acceptance.{argv[2]}", padyn.cli.main, argv))
            else:
                codes.append(padyn.cli.main(argv))
        stdouts.append(out.getvalue())
    record["wall_s"] = time.perf_counter() - start
    record["codes"] = codes
    record["stdouts"] = stdouts
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.span_rows()
        record["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
