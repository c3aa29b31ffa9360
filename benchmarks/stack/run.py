"""Stack benchmark: five workloads, end-to-end and per-layer metrics.

    python benchmarks/stack/run.py                      # everything, both runs
    python benchmarks/stack/run.py --scale tiny         # seconds, for smoke tests
    python benchmarks/stack/run.py --check-repeat       # end-to-end set twice
    python benchmarks/stack/run.py --workload W --seed N --seconds S --trace 0|1

One run is one workload in one mode (``--trace 0``: end-to-end metrics,
tracing off; ``--trace 1``: the per-layer ladder, spans on) in a fresh
interpreter, so ``peak_rss_mb`` and import cost never leak between
workloads.  With both ``--workload`` and ``--trace`` given this process
*is* that run and its last stdout line is the machine-readable result;
otherwise it spawns one child per selected run and prints a summary.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

from spec import (  # noqa: E402  (sibling module; the script's directory is on sys.path)
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    SCALES,
    UNITS,
    WORKLOAD_NAMES,
)

MODES = {0: "end_to_end", 1: "per_layer"}


def provenance() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_revision": revision,
    }


def result_path(out_dir: str, workload: str, trace: int) -> str:
    return os.path.join(out_dir, f"result-{workload}-{MODES[trace]}.json")


# -- one run, in this interpreter ------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    from harness import Spans
    from workloads import (
        WORKLOAD_CLASSES,
        Context,
        run_end_to_end,
        run_per_layer,
    )

    started = time.perf_counter()
    name, trace = args.workload, args.trace
    with open(os.path.join(HERE, "inputs.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    tmp_root = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(tmp_root)
    spans = Spans(name, recording=bool(trace))
    ctx = Context(spans, args.scale, args.seed, tmp_root)
    workload = WORKLOAD_CLASSES[name]()
    try:
        if trace:
            outcome = asyncio.run(run_per_layer(workload, ctx, pins))
            spans.write(os.path.join(args.out, f"trace-{name}.json"))
        else:
            outcome = asyncio.run(
                run_end_to_end(workload, ctx, args.seconds, pins)
            )
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    named = END_TO_END if not trace else PER_LAYER
    known = {entry[0] for entry in named}
    unknown = sorted(set(outcome.metrics) - known)
    if unknown:
        raise AssertionError(f"metrics missing from spec.py: {unknown}")
    if not trace and set(outcome.metrics) != known:
        raise AssertionError(
            f"end-to-end metrics not reported: {sorted(known - set(outcome.metrics))}"
        )
    correct = outcome.failed == 0 and not outcome.problems
    wall = time.perf_counter() - started

    print(f"{name} [{MODES[trace]}] seed={args.seed} scale={args.scale}")
    for key, value in outcome.details.items():
        print(f"  {key}: {value}")
    for entry in named:
        if entry[0] in outcome.metrics:
            print(f"  {entry[0]:<38} {outcome.metrics[entry[0]]:>16.6g} {entry[1]}")
    for problem in outcome.problems:
        print(f"  PROBLEM {problem}")
    print(
        f"  attempted={outcome.attempted} failed={outcome.failed} "
        f"correct={correct} wall={wall:.1f}s"
    )

    document = {
        "workload": name,
        "mode": MODES[trace],
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            key: {"value": value, "unit": UNITS[key]}
            for key, value in outcome.metrics.items()
        },
        "details": outcome.details,
        "wall_s": wall,
        **provenance(),
    }
    with open(result_path(args.out, name, trace), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    # The driver's line: every metric of the mode, a layer the workload
    # never enters reporting the 0 work it did.
    line = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            entry[0]: {
                "value": outcome.metrics.get(entry[0], 0),
                "unit": entry[1],
            }
            for entry in named
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


# -- many runs, one child each --------------------------------------------------


def spawn(args: argparse.Namespace, workload: str, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--trace", str(trace),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--out", args.out,
    ]
    code = subprocess.run(command, check=False).returncode
    try:
        with open(result_path(args.out, workload, trace), encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"{workload} [{MODES[trace]}] exited {code} with no result")
    document["exit_code"] = code
    return document


def run_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = [spawn(args, name, trace) for name in workloads for trace in modes]
    wall = time.perf_counter() - started

    print()
    print(f"{'workload':<18}" + "".join(f"{e[0] + ' ' + e[1]:>24}" for e in END_TO_END))
    for document in results:
        if document["mode"] != MODES[0]:
            continue
        row = "".join(
            f"{document['metrics'][e[0]]['value']:>24.6g}" for e in END_TO_END
        )
        print(f"{document['workload']:<18}{row}")
    failed = [d for d in results if not d["correct"] or d["exit_code"]]
    for document in failed:
        print(f"FAILED {document['workload']} [{document['mode']}]: "
              f"{document['problems']}")
    print(f"whole benchmark: {wall:.1f} s wall, {len(results)} runs, "
          f"{len(failed)} failed")
    summary = {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "sizes": SCALES[args.scale],
        "wall_s": wall,
        **provenance(),
        "runs": results,
    }
    with open(os.path.join(args.out, "stack.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return 1 if failed else 0


def check_repeat(args: argparse.Namespace) -> int:
    """The end-to-end set twice, back to back; every metric within its bound."""
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    sets = [
        {name: spawn(args, name, 0) for name in workloads} for _ in range(2)
    ]
    exceeded = 0
    print()
    print(f"{'workload':<18}{'metric':<20}{'first':>14}{'second':>14}"
          f"{'diff':>9}{'bound':>8}")
    for name in workloads:
        for metric, _unit, _better, bound in END_TO_END:
            first, second = (
                run[name]["metrics"][metric]["value"] for run in sets
            )
            diff = abs(second - first) / first
            flag = "" if diff <= bound else "  EXCEEDED"
            exceeded += diff > bound
            print(f"{name:<18}{metric:<20}{first:>14.6g}{second:>14.6g}"
                  f"{diff:>8.1%}{bound:>8.0%}{flag}")
    incorrect = sum(
        not run[name]["correct"] for run in sets for name in workloads
    )
    print(f"{exceeded} metric(s) outside their bound, {incorrect} incorrect run(s)")
    return 1 if exceeded or incorrect else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="end-to-end measuring budget per run at std scale")
    parser.add_argument("--scale", choices=sorted(SCALES), default="std")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="0: end-to-end run, 1: per-layer run (default: both)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="result files, span traces and scratch directories")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Cluster workers are `python -m repro` subprocesses and find the
    # package through the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)

    if args.check_repeat:
        return check_repeat(args)
    if args.workload and args.trace is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
