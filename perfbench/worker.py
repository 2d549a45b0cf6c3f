"""One cold pass of one workload, in a fresh interpreter.

Started by run.py.  After set-up (interpreter start, ``import mixedmult``
from the checkout's ``src/``, input generation) it prints ``ready``; with
``--setup-only`` it stops there.  Otherwise it runs every problem in
sequence, each under a per-problem time limit, checks each answer, and
prints one JSON line: per-problem rows, peak RSS and, with ``--trace``,
the per-layer metrics.  A wrong answer exits with code 3.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBLEM_TIME_LIMIT = 60.0


class ProblemTimeout(Exception):
    """The problem ran past PROBLEM_TIME_LIMIT seconds."""


def _on_alarm(signum, frame):
    raise ProblemTimeout(f"over {PROBLEM_TIME_LIMIT:.0f} s")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the pass's spans to this path")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import mixedmult

    if Path(mixedmult.__file__).resolve().parent != ROOT / "src" / "mixedmult":
        print(f"imported mixedmult from {mixedmult.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, WrongAnswer

    problems = WORKLOADS[args.workload](args.seed, ROOT, Path(args.scratch))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    rows = []
    for i, problem in enumerate(problems):
        if tracer is not None:
            tracer.request = i
        row = {"id": problem.id, "outcome": "ok"}
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBLEM_TIME_LIMIT)
        try:
            value = problem.solve()
        except Exception as e:  # every library failure is counted, by class
            row["outcome"] = "failed"
            row["error"] = getattr(e, "error_class", type(e).__name__)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            row["seconds"] = time.perf_counter() - started
        if row["outcome"] == "ok":
            try:
                problem.check(value)
            except WrongAnswer as e:
                print(f"wrong answer on {problem.id}: {e}", file=sys.stderr)
                return 3
        rows.append(row)

    result = {
        "rows": rows,
        "solve_s": sum(r["seconds"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
