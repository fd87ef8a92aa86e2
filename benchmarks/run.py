"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload evaluate --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from its ``src/``
and nowhere else, and the run exits with code 2 if that tree is missing.
The BLAS thread pools are pinned to one thread before numpy is imported,
so each workload is one single-threaded process.

Set-up is done ``SETUP_REPEATS`` times and ``setup_s`` is the time to
import isrlab plus the fastest set-up, for the reason ``first_quartile``
gives.  After each set-up, whole rounds of the workload's operations run
until the timed phase reaches the next third of ``--seconds``, at least one
round each time; then the outputs are checked.  With ``--trace 0`` the last
line holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a run whose isrlab functions are wrapped (see ``tracing.py``).
Check results go to standard error.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402 - the thread pins above must precede numpy
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("guesser-train", "enquirer-ppo", "evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import isrlab from this checkout; return the seconds it took.

    numpy is imported first and untimed: it is not the program's code, and
    its import time swings by 0.2 s from run to run with the file cache.
    """
    if not (SRC / "isrlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no isrlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    start = time.perf_counter()
    import isrlab
    seconds = time.perf_counter() - start
    if Path(isrlab.__file__).resolve().parent != SRC / "isrlab":
        raise ImportError(f"isrlab imported from {isrlab.__file__}, not {SRC}")
    return seconds


def first_quartile(times: list) -> float:
    """Q1 of equal-work timings: the program's speed when the machine lets it.

    On the 2-core VM of the reference figures (README.md) the CPU switches
    between speeds about 1.3-1.45x apart, every second or so and at times
    for a minute.  The median and the mean of a run's timings mostly
    measure how long the run spent slowed: over ten 10 s runs of live games
    their spread was 3-4x that of the first quartile.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def run(args, import_s: float, workdir: Path) -> dict:
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    sizes = workloads.TINY if args.tiny else workloads.Sizes()
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

    # The timed rounds are split into one stretch after each set-up, so they
    # sample the machine's speed over the whole run rather than one part.
    # A stretch ends once the timed phase so far reaches its share of
    # --seconds, so one stretch's overrun shortens the next.
    setup_times, rounds, timed_s = [], [], 0.0
    for repeat in range(SETUP_REPEATS):
        if tracer:
            tracer.phase = "setup"
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.phase = "timed"
        deadline, stretch = args.seconds * (repeat + 1) / SETUP_REPEATS, 0
        while not stretch or timed_s < deadline:
            start = time.perf_counter()
            rounds.append(workload.run_round())
            timed_s += time.perf_counter() - start
            stretch += 1
            if len(rounds) == 1:
                # later rounds repeat this work; only allocator drift, whose
                # extent depends on how many rounds fit, could raise the peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.phase = "check"
    results = workload.verify()
    for name, ok, detail in results:
        print(f"check {args.workload}: {'PASS' if ok else 'FAIL'} {name} ({detail})",
              file=sys.stderr)
    for error in workload.errors:
        print(f"failed operation: {error}", file=sys.stderr)

    games = rounds[0].games
    # a round's time: each of its operations at that operation's first quartile
    round_s = sum(first_quartile([r.op_seconds[name] for r in rounds])
                  for name in rounds[0].op_seconds)
    if tracer:
        metrics = tracing.layer_metrics(tracer, SETUP_REPEATS, len(rounds))
    else:
        metrics = {
            # the fastest of three set-ups: the Q1 analogue for so few samples
            "setup_s": {"value": import_s + min(setup_times), "unit": "s"},
            "games_per_s": {"value": games / round_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {len(rounds)} rounds of {games} games, round time "
          f"{round_s:.4f} s at first quartiles; set-ups {[round(t, 3) for t in setup_times]} s; "
          f"BLAS threads {BLAS_THREADS}", file=sys.stderr)
    return {"correct": all(ok for _, ok, _ in results),
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = RUN_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:     # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
