"""Benchmark of the walraskit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``walraskit.cli.main`` in this process, one thread, on inputs made
from ``--seed`` (see ``workloads.py`` and ``README.md``), checks every
output against an independent oracle and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` runs a fixed number of ops
and reports the end-to-end metrics from speed-normalised times (see
``speed.py``); ``--trace 1`` alternates untraced and traced passes over a fixed list of
invocations and reports the per-layer metrics.  Work files go under
``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("experiment", "solve", "realize", "sarp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Runner:
    """Invokes the CLI and tallies the oracle outcomes."""

    def __init__(self, workload, argvs):
        from walraskit import cli

        self.cli = cli
        self.workload = workload
        self.argvs = argvs
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.notes: list[str] = []
        self.window = (0.0, 0.0)  # perf_counter bounds of the last op

    def op(self, index: int) -> float:
        """Run pool entry ``index``, check its output, return its wall time."""
        k = index % len(self.argvs)
        argv = self.argvs[k]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a harness error
                rc = f"exception {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.window = (t0, t1)
        outcome = self.workload.check(k, rc, Path(argv[argv.index("--out") + 1]))
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.known_defect += outcome.known_defect
        self.notes += outcome.notes
        return t1 - t0


def setup(spec, seed: int, smoke: bool, work: Path):
    """Generate and write the inputs, then run one untimed, checked warm-up op."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = spec(seed, smoke)
    runner = Runner(workload, workload.write(work))
    runner.op(0)
    return runner


def op_count(spec, seconds: float) -> int:
    """Ops in one timed part: fixed by ``--seconds``, so every run of a seed attempts the same ops."""
    return max(1, round(seconds / spec.op_s))


def timed_loop(runner: Runner, ops: int, speed) -> tuple[list[float], list[float]]:
    """Run ``ops`` ops, cycling through the pool; return their work and normalised times."""
    work: list[float] = []
    norm: list[float] = []
    for j in range(ops):
        runner.op(j)
        w, n = speed.window(*runner.window)
        work.append(w)
        norm.append(n)
    return work, norm


def end_to_end(times: list[float], setup_s: float):
    """End-to-end metrics from the normalised op times, plus run-record fields."""
    ordered = sorted(times)
    n = len(ordered)
    tail_at = max(n - TAIL_BEYOND - 1, 0)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (ordered[tail_at], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "tail_percentile": round(100.0 * (tail_at + 1) / n, 1),
        "samples": n,
        "op_times_s": times,
    }


def traced_passes(runner: Runner, ops: int, pairs: int, spans_path: Path):
    """Alternate ``pairs`` untraced and traced passes over the first ``ops`` pool entries."""
    from tracer import Tracer, layer_metrics

    tr = Tracer()
    untraced = traced = 0.0
    summaries = []
    for _ in range(pairs):
        untraced += sum(runner.op(j) for j in range(ops))
        tr.clear()
        tr.install()
        try:
            for j in range(ops):
                tr.op = j
                traced += runner.op(j)
        finally:
            tr.uninstall()
        summaries.append(tr.pass_summary())
        if len(summaries) == 1:
            tr.save(spans_path)
    tr.clear()
    first = summaries[0].counts()
    checks = {
        "counts_repeat": all(s.counts() == first for s in summaries),
        "self_times_sum_to_op_time": all(s.self_sums_match for s in summaries),
    }
    info = {"passes": len(summaries), "ops_per_pass": ops, **checks}
    return layer_metrics(summaries, untraced, traced), info, all(checks.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walraskit" / "__init__.py").is_file():
        print(f"error: no walraskit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    import numpy
    numpy_s = time.perf_counter() - t0

    sys.path.insert(0, str(BENCH))
    from speed import REF_S, Speedometer, reference_now

    # numpy is imported before the speedometer can run: scale it by the speed just after.
    numpy_s *= REF_S / reference_now()
    smoke = args.size == "smoke"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}"
    work = RUN_DIR / f"{tag}-{os.getpid()}"
    setup_times = []
    try:
        with Speedometer() as speed:
            t0 = time.perf_counter()
            sys.path.insert(0, str(SRC))
            import walraskit.cli  # noqa: F401 - timed: import is part of set-up
            import_s = numpy_s + speed.window(t0, time.perf_counter())[1]

            import scipy
            import walraskit
            from workloads import WORKLOADS

            if SRC not in Path(walraskit.__file__).resolve().parents:
                print(f"error: walraskit was imported from {walraskit.__file__}, not {SRC}", file=sys.stderr)
                return 2
            spec = WORKLOADS[args.workload]
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                runner = setup(spec, args.seed, smoke, work)
                setup_times.append(speed.window(t, time.perf_counter()))
            warm = (runner.attempted, runner.failed, runner.known_defect)
            runner.attempted = runner.failed = runner.known_defect = 0
            if not args.trace:
                work_s, norm_s = timed_loop(runner, op_count(spec, args.seconds), speed)
        setup_s = import_s + statistics.median(n for _, n in setup_times)

        sound = True
        if args.trace:
            # Traced passes run without the speedometer: no timer interrupts inside spans.
            ops = min(spec.trace_ops, len(runner.argvs))
            pairs = max(1, round(args.seconds / (2 * ops * spec.op_s)))
            metrics, info, sound = traced_passes(runner, ops, pairs, RUN_DIR / f"spans-{tag}.npz")
        else:
            metrics, info = end_to_end(norm_s, setup_s)
            info["op_work_s"] = work_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if speed.samples:
        info["reference_pass_s"] = {
            "median": statistics.median(speed.samples),
            "min": min(speed.samples),
            "max": max(speed.samples),
            "samples": len(speed.samples),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "import_s": import_s,
        "setup_repeats_work_normalised_s": setup_times,
        "warmup_attempted_failed_known": warm,
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "known_defect_failures": runner.known_defect,
        **info,
    }
    (RUN_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("run record:", json.dumps(record))
    for note in list(dict.fromkeys(runner.notes))[:20]:
        print("failure:", note)
    print(f"fail_frac = {record['fail_frac']:.6g} ({runner.failed}/{runner.attempted}; "
          f"{runner.known_defect} from the known rescaled-endowment tolerance defect)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = sound and runner.failed == runner.known_defect and warm[1] == warm[2]
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
