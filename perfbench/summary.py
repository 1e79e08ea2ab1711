"""Run the benchmark over seeds 1..10 and print every end-to-end metric.

    python3 perfbench/summary.py

Each run is one ``run.py --trace 0`` process with its own seed, on every
workload of workloads.WORKLOADS, for the run_seconds of BENCHMARK.json.  For
every workload and metric the table gives the median over runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the sample count, and
the spread (q3 - q1) / median that the regression bounds in BENCHMARK.json
are compared with.  failed_frac is failed invocations over attempted
invocations, summed over all runs of the workload, printed with that base.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        context = None
        for seed in SEEDS:
            context, result = one_run(name, seed, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"# {name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.4f}" for m, e in result["metrics"].items()), flush=True)
        print(f"\n{name}  (python {context['python']}, nproc {context['nproc']}, "
              f"git {context['git_sha']}, basis sizes {context['basis_sizes']})")
        print(f"  {'metric':<14} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'n':>3} {'spread':>7}")
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:<14} {units[metric]:<6} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{len(vals):>3} {spread:>7.3f}")
        frac = failed / attempted if attempted else float("nan")
        print(f"  {'failed_frac':<14} {'1':<6} {frac:>10.4f}   ({failed} of {attempted} "
              f"invocations failed)\n", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
