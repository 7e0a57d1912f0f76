"""Steadiness of the benchmark: run each workload on many seeds.

    python3 perfbench/steady.py [--runs 10] [--seconds N]

Runs ``perfbench/run.py`` on every workload once per seed, seeds 1 to
``--runs``, one run at a time, and prints for every workload and end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, which is the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``. It also prints the operations
attempted and failed per workload. The bounds in ``BENCHMARK.json`` are set
from this output; a spread above a third of its bound is marked. The full
table is written to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    table = {}
    for name in names:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(one_run(name, seed, args.seconds))
            print(f"  {name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        table[name] = {
            "attempted": attempted, "failed": failed,
            "correct": all(r["correct"] for r in results),
            "metrics": {metric: summarize([r["metrics"][metric]["value"]
                                           for r in results])
                        for metric in bounds},
        }
        print(f"{name}: {args.runs} runs, {attempted} operations attempted, "
              f"{failed} failed, outputs "
              f"{'correct' if table[name]['correct'] else 'WRONG'}")
        for metric, s in table[name]["metrics"].items():
            unit = next(m["unit"] for m in SPEC["end_to_end"]
                        if m["name"] == metric)
            mark = "" if s["spread"] < bounds[metric] / 3 else "  <-- wide"
            print(f"  {metric:14s} median {s['median']:10.4g} {unit:5s} "
                  f"q1 {s['q1']:10.4g}  q3 {s['q3']:10.4g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]}){mark}",
                  flush=True)

    out = ROOT / ".perfbench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds,
                               "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
