"""apfam benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {tabulate,verify,refute} --seed N --seconds S --trace {0,1}

Run from the root of a source tree; apfam is imported from its src/
directory, so nothing needs installing. The run sets up its inputs from the
seed, then repeats whole rounds of the workload's operations for about S
seconds of timed operations. The last round is the checked one: every output
goes to its reference in checks.py, and every earlier round's outputs must
equal it. The run prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s, setup_s,
peak_rss_mb); with --trace 1 rounds alternate untraced and traced, and the
metrics are the per-layer ones derived from the traced rounds' spans, plus
the tracing overhead. Spans are written to perfbench/runs/<run>/spans.jsonl.
See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("tabulate", "verify", "refute")


def pin_one_thread() -> None:
    """For this process and the set-up processes it starts: apfam's thread
    override unset, numeric libraries on one thread."""
    os.environ.pop("APFAM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_source_tree() -> None:
    src = ROOT / "src"
    if not (src / "apfam" / "__init__.py").is_file():
        print(f"error: no apfam sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def setup_child(args, rundir: Path, k: int) -> list[float]:
    """One fresh interpreter runs the workload's set-up; returns the seconds
    of its steps: interpreter start and imports, warm-up, building and
    writing the inputs. The child prints the system-wide monotonic clock
    at the end of each step."""
    workdir = rundir / f"setup{k}"
    workdir.mkdir()
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    started = time.monotonic()
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    shutil.rmtree(workdir)
    marks = [started] + [float(t) for t in child.stdout.split()[-3:]]
    return [b - a for a, b in zip(marks, marks[1:])]


def setup_seconds(steps: list[list[float]]) -> float:
    """Sum over set-up steps of each step's median over the processes."""
    return sum(statistics.median(column) for column in zip(*steps))


def clock() -> tuple[float, float]:
    """(wall, process CPU) seconds."""
    return time.perf_counter(), time.process_time()


def per_op_sum(ops: list[list[tuple[str, float, float]]], field: int) -> float:
    """Sum over operations of each operation's median over rounds."""
    samples: dict[str, list[float]] = {}
    for round_ops in ops:
        for op in round_ops:
            samples.setdefault(op[0], []).append(op[field])
    return sum(statistics.median(v) for v in samples.values())


def run(args) -> dict:
    import workloads
    from tracing import Tracer, layer_metrics

    rundir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True)
    try:
        tracer = Tracer(bool(args.trace))
        with tracer.span("setup"):
            workloads.warm_up(inputs, tracer)
            workload = workloads.WORKLOADS[args.workload](args.seed, inputs, tracer)

        attempted, failed = 0, 0
        walls: dict[bool, list[float]] = {False: [], True: []}
        ops: list[list] = []
        unchecked = []
        setup_steps: list[list[float]] = []
        measured = 0.0

        def play(traced: bool, checked: bool):
            nonlocal attempted, failed, measured
            tracer.enabled = traced
            runner = workloads.Runner(tracer, clock, checked=checked)
            with tracer.span("round") if traced else contextlib.nullcontext():
                workload.round(runner)
            attempted += runner.attempted
            failed += len(runner.failed)
            walls[traced].append(runner.wall)
            ops.append(runner.ops)
            measured += runner.wall
            return runner

        # Unchecked rounds until the checked round would end the budget, and
        # at least two: the process's peak settles in the second. The set-up
        # processes are spread between them, so that set-up and rounds
        # sample the same stretch of the machine's time.
        while True:
            traced = bool(args.trace) and len(unchecked) % 2 == 1
            runner = play(traced, checked=False)
            unchecked.append((runner.fingerprints, runner.failed))
            if not args.trace:
                while len(setup_steps) < SETUP_REPEATS * min(1.0, measured / args.seconds):
                    setup_steps.append(setup_child(args, rundir, len(setup_steps)))
            if len(unchecked) >= 2 and measured + runner.wall >= args.seconds and not (args.trace and len(unchecked) % 2):
                break
        while not args.trace and len(setup_steps) < SETUP_REPEATS:
            setup_steps.append(setup_child(args, rundir, len(setup_steps)))
        # the program's peak, read before any check runs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = play(False, checked=True)

        problems = list(checked.problems)
        for k, outcome in enumerate(unchecked):
            if outcome != (checked.fingerprints, checked.failed):
                problems.append(f"round {k} outputs differ from the checked round")
        for line in checked.failed:
            print(f"failed: {line}", file=sys.stderr)
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        print(f"{args.workload}: {len(ops)} rounds, round walls {[round(w, 3) for w in walls[False] + walls[True]]}",
              file=sys.stderr)

        if args.trace:
            tracer.write(rundir / "spans.jsonl")
            metrics = layer_metrics(tracer.spans, walls)
        else:
            metrics = {
                "wall_s": (per_op_sum(ops, 1), "s"),
                "cpu_s": (per_op_sum(ops, 2), "s"),
                "setup_s": (setup_seconds(setup_steps), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        with contextlib.suppress(OSError):
            rundir.rmdir()  # kept only when it holds spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="apfam benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_one_thread()
    use_source_tree()
    if args.setup_only:
        import workloads
        from tracing import Tracer

        imported = time.monotonic()
        workloads.warm_up(Path(args.setup_only), Tracer(False))
        warmed = time.monotonic()
        workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only), Tracer(False))
        print(imported, warmed, time.monotonic(), flush=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
