"""mixedmult benchmark: cold passes of one workload, end-to-end or traced.

    python3 perfbench/run.py --workload pfaffian_maps --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  Each pass is a fresh worker process
(worker.py) that runs the workload's problems in sequence, so every pass
starts with cold module caches.  Passes repeat, one at a time, until
``--seconds`` would be exceeded (at least MIN_PASSES).

``--trace 0`` reports the end-to-end metrics: set-up time, solve time, the
slowest problem and peak RSS, each read as ``end_to_end`` explains, plus
the share of problems solved.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, with the tracing
overhead.  A wrong answer in any pass exits non-zero without a result.

The last line of stdout is the result object.  A detail file with run
metadata, per-problem rows, quartiles and the noise floor is written under
perfbench/out/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import is_count, metric_names  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_ONLY_SPAWNS = 10
RUN_LIMIT_S = 170.0  # whole run, so the benchmark exits within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "max_problem_s": "s",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
}


class BenchError(Exception):
    pass


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def spawn(args, started: float, *flags: str) -> tuple[float, dict | None]:
    """Run worker.py once; return its set-up time (up to ``ready``) and result."""
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached")
    scratch = OUT / "scratch" / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scratch", str(scratch), *flags,
    ]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - spawned
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup_s, json.loads(rest) if rest.strip() else None


def fingerprint() -> str:
    """Hash of the package and benchmark sources, to group comparable runs."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixedmult").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END_UNITS:
        raise BenchError("BENCHMARK.json end_to_end metrics differ from run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != dict(layer_units()):
        raise BenchError("BENCHMARK.json per_layer metrics differ from tracer.py")
    return spec


def layer_units() -> list[tuple[str, str]]:
    return metric_names() + [("trace.overhead_ratio", "ratio")]


def run_passes(args, started: float) -> list[dict]:
    passes: list[dict] = []
    last_wall = 0.0

    def enough():
        if args.trace and sum(p["traced"] for p in passes) < MIN_TRACED_PASSES:
            return False
        return len(passes) >= MIN_PASSES and (
            time.perf_counter() - started + last_wall > args.seconds
        )

    while not enough():
        traced = args.trace == 1 and len(passes) % 2 == 1
        flags = []
        if traced:
            flags.append("--trace")
            if not any(p["traced"] for p in passes):
                flags += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")]
        t0 = time.perf_counter()
        setup_s, result = spawn(args, started, *flags)
        last_wall = time.perf_counter() - t0
        result.update(traced=traced, setup_s=setup_s, wall_s=last_wall)
        passes.append(result)
    return passes


def steady(values: list[float]) -> float:
    """Second-slowest reading: the contended steady state, past one spike."""
    return sorted(values)[-2] if len(values) > 1 else values[0]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Gated values, chosen for a shared host whose noise is stretches (up to
    minutes) where the same work runs up to a third faster than in the
    contended steady state, plus rare slow spikes.  solve_s and
    max_problem_s are the sum and the maximum over problems of each
    problem's ``steady`` time over the run's cold passes.  setup_s, with
    many short samples, is their upper quartile; peak_rss_mb is the largest
    peak."""
    rows = [r for p in passes for r in p["rows"]]
    per_problem = [
        steady([p["rows"][i]["seconds"] for p in passes])
        for i in range(len(passes[0]["rows"]))
    ]
    setup = quartiles(setups + [p["setup_s"] for p in passes])
    metrics = {
        "setup_s": setup["q3"],
        "solve_s": sum(per_problem),
        "max_problem_s": max(per_problem),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "solved_ratio": sum(r["outcome"] == "ok" for r in rows) / len(rows),
    }
    stats = {
        "setup_s": setup,
        "pass_solve_s": quartiles([p["solve_s"] for p in passes]),
        "pass_max_problem_s": quartiles([max(r["seconds"] for r in p["rows"]) for p in passes]),
        "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in passes]),
    }
    return metrics, stats


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [p["layers"] for p in traced]
    metrics = {}
    mismatched = []
    for name, _ in metric_names():
        values = [m[name] for m in layers]
        if is_count(name):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(
        p["solve_s"] for p in traced
    ) / statistics.median(p["solve_s"] for p in plain)
    return metrics, mismatched


def compare_counts(args, fp: str, metrics: dict) -> list[str]:
    """Counts must repeat across runs of the same code and seed."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    counts = {k: v for k, v in metrics.items() if is_count(k)}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["fingerprint"] == fp:
            return sorted(k for k, v in counts.items() if previous["counts"].get(k) != v)
    path.write_text(json.dumps({"fingerprint": fp, "counts": counts}, indent=1) + "\n")
    return []


def noise_floor(args, fp: str, metrics: dict, spec: dict) -> dict:
    """Spread of the metrics of earlier runs of this code, next to the bounds."""
    history = OUT / "history.jsonl"
    entry = {"fingerprint": fp, "workload": args.workload, "trace": args.trace,
             "seed": args.seed, "metrics": metrics}
    with history.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    runs = [
        e for e in map(json.loads, history.read_text().splitlines())
        if e["fingerprint"] == fp and e["workload"] == args.workload and e["trace"] == args.trace
    ]
    floor = {"runs": len(runs)}
    if args.trace == 0 and len(runs) >= 4:
        for m in spec["end_to_end"]:
            q = quartiles([r["metrics"][m["name"]] for r in runs])
            floor[m["name"]] = {"spread": q["spread"], "bound": m["bound"]}
    return floor


def problem_rows(passes: list[dict]) -> list[dict]:
    out = []
    for i, first in enumerate(passes[0]["rows"]):
        seconds = [p["rows"][i]["seconds"] for p in passes if not p["traced"]]
        outcomes = sorted({p["rows"][i]["outcome"] for p in passes})
        row = {"id": first["id"], "outcome": "/".join(outcomes),
               "seconds": steady(seconds), "passes": seconds}
        errors = sorted({p["rows"][i]["error"] for p in passes if "error" in p["rows"][i]})
        if errors:
            row["errors"] = errors
        out.append(row)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    try:
        if not (ROOT / "src" / "mixedmult" / "__init__.py").is_file():
            raise BenchError(f"no mixedmult sources under {ROOT / 'src'}")
        spec = load_spec()
        OUT.mkdir(exist_ok=True)
        setups = []
        if args.trace == 0:
            setups = [spawn(args, started, "--setup-only")[0] for _ in range(SETUP_ONLY_SPAWNS)]
        passes = run_passes(args, started)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    fp = fingerprint()
    rows = [r for p in passes for r in p["rows"]]
    failed = sum(r["outcome"] != "ok" for r in rows)
    detail = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "fingerprint": fp,
            "passes": len(passes),
            "wall_s": time.perf_counter() - started,
        },
        "failed_ratio": failed / len(rows),
        "failures": sorted({r["error"] for r in rows if "error" in r}),
    }
    if args.trace == 0:
        metrics, stats = end_to_end(passes, setups)
        units = END_TO_END_UNITS
        detail["quartiles"] = stats
    else:
        metrics, mismatched = per_layer(passes)
        units = dict(layer_units())
        detail["count_mismatches"] = {
            "between_passes": mismatched,
            "against_earlier_runs": compare_counts(args, fp, metrics),
        }
    detail["metrics"] = metrics
    detail["noise_floor"] = noise_floor(args, fp, metrics, spec)
    detail["problems"] = problem_rows(passes)
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    for row in detail["problems"]:
        print(f"  {row['id']:<40} {row['outcome']:<10} {row['seconds']:.4f} s"
              + (f"  {','.join(row['errors'])}" if "errors" in row else ""))
    if args.trace == 0:
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
        for name, q in detail["quartiles"].items():
            print(f"  {name}: median {q['median']:.4g}, q1 {q['q1']:.4g}, q3 {q['q3']:.4g}, n={q['n']}")
    print(f"failed_ratio = {detail['failed_ratio']:.6g} ratio"
          + (f"  ({', '.join(detail['failures'])})" if detail["failures"] else ""))
    for kind, names in detail.get("count_mismatches", {}).items():
        if names:
            print(f"count mismatch {kind}: {', '.join(names)}")
    print(f"detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": True,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
