"""thzlink benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold_links --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory and driven through ``thzlink.cli.main``
in this process, on one thread. The run sets up (import, inputs, warm-up;
the input and warm-up part several times, reporting the median), then
repeats whole passes over the workload's fixed list of operations until
``--seconds`` have gone, checks every pass's outputs, and prints one JSON
object as its last line of output:

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, pass_s,
points_per_s, peak_rss_mb). Their times are wall times scaled to a fixed
host speed by ``hostspeed.HostClock``, which times a reference mix before
and after each set-up and each operation; pass_s is the sum of each
operation's median. With ``--trace 1`` every other pass runs with
the per-layer tracer installed and the metrics are the per-layer ones,
averaged per traced pass, plus the tracer's overhead on pass_s. Scratch
files live under ``.perfbench_work/`` in the checkout; per-run details are
kept in ``.perfbench_work/results/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def import_program():
    """Import thzlink from this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "thzlink"
    if not (package / "cli.py").is_file():
        print(f"perfbench: no thzlink sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import thzlink.cli

    if Path(thzlink.cli.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported thzlink from {thzlink.cli.__file__}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)
    return thzlink.cli.main


class Runner:
    """Calls ``thzlink.cli.main`` with stdout captured; returns the exit code.

    A traceback out of the program counts as a failed operation (code 1).
    """

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None

    def __call__(self, argv: list[str]) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if self.tracer is None:
                    return self.cli_main(argv)
                return self.tracer.call("cli.main", self.cli_main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median_pass(operation_times: dict[str, list[float]]) -> float:
    """A pass's time as the sum of each operation's median time."""
    return sum(statistics.median(v) for v in operation_times.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    cli_main = import_program()
    import_s = time.perf_counter() - _START
    clock = hostspeed.HostClock()

    runner = Runner(cli_main)
    workload_cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    problems = checks.Problems()
    try:
        setup_times = []       # wall time
        setup_scaled = []      # at the reference host speed
        for rep in range(workload_cls.setup_reps):
            start = time.perf_counter()
            workload = workload_cls(runner)
            root = run_root / f"setup{rep}"
            root.mkdir()
            workload.prepare(root, random.Random(args.seed))
            workload.warm_up()
            setup_times.append(time.perf_counter() - start)
            setup_scaled.append(clock.scale(setup_times[-1]))
            if rep + 1 < workload_cls.setup_reps:
                shutil.rmtree(root)

        tracer = layertrace.Tracer()
        times = {False: [], True: []}     # pass wall times, keyed by traced
        # operation times at the reference speed: {traced: {label: [s]}}
        scaled = {False: {}, True: {}}
        attempted = failed = 0
        min_passes = max(workload_cls.min_passes, 2 if args.trace else 1)
        loop_start = time.perf_counter()
        index = 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            pass_dir = run_root / f"pass{index}"
            operations = workload.operations(pass_dir)
            ok = set()
            if traced:
                tracer.install()
                runner.tracer = tracer
            elapsed = 0.0
            try:
                for label, op in operations:
                    start = time.perf_counter()
                    code = runner(op)
                    took = time.perf_counter() - start
                    elapsed += took
                    scaled[traced].setdefault(label, []).append(
                        clock.scale(took))
                    if code == 0:
                        ok.add(label)
                    else:
                        print(f"perfbench: {label} exited {code}: "
                              f"{' '.join(op)}", file=sys.stderr)
            finally:
                runner.tracer = None
                if traced:
                    tracer.uninstall()
            times[traced].append(elapsed)
            attempted += len(operations)
            failed += len(operations) - len(ok)
            try:
                problems.extend(workload.check_pass(pass_dir, ok))
            except Exception as exc:   # unreadable output is a wrong output
                problems.add(f"pass {index}: checking raised {exc!r}")
            shutil.rmtree(pass_dir, ignore_errors=True)
            index += 1
            so_far = time.perf_counter() - loop_start
            typical = statistics.median(times[False] + times[True])
            if index >= min_passes and so_far + typical / 2 >= args.seconds:
                break
        try:
            problems.extend(workload.check_run())
        except Exception as exc:
            problems.add(f"run checks raised {exc!r}")
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        values = tracer.per_pass(len(times[True]))
        values["trace.overhead_s"] = (median_pass(scaled[True])
                                      - median_pass(scaled[False]))
        units = {name: unit for name, unit, _ in layertrace.METRICS}
    else:
        total = sum(sum(v) for v in scaled[False].values())
        values = {
            "setup_s": (clock.scale_before(import_s)
                        + statistics.median(setup_scaled)),
            "pass_s": median_pass(scaled[False]),
            "points_per_s": workload.points() * len(times[False]) / total,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "points_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, import_s=import_s,
                   setup_times=setup_times, setup_scaled=setup_scaled,
                   untraced_pass_times=times[False],
                   traced_pass_times=times[True],
                   untraced_operations_scaled=scaled[False],
                   traced_operations_scaled=scaled[True],
                   reference_times=clock.references, problems=list(problems))
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(details, indent=1) + "\n")

    for problem in problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations "
          f"attempted, {failed} failed, "
          f"{'outputs correct' if not problems else 'OUTPUTS WRONG'}")
    print(f"  wall-clock pass median {statistics.median(times[False]):.4g} s,"
          f" reference median {statistics.median(clock.references):.4g} s"
          f" (times below are at {hostspeed.REFERENCE_S} s)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
