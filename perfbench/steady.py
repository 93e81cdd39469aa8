"""Steadiness mode: run each workload repeatedly on the same code.

``python3 perfbench/run.py --steady N [--workload W] [--seeds a,b,...]``
runs every workload (or just *W*) N times, one fresh process per run,
each with another seed (1..N unless ``--seeds`` names them).  For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread -- the
distance between the quartiles as a share of the median -- and the
metric's bound from ``BENCHMARK.json``.  A spread under a third of the
bound reads ``steady``; under the bound, ``within``; above, ``NOISY``.
It also prints the provenance of the measurement and, per seed, whether
repeated runs produced the same content digest.  The full record is
written to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict

from perfbench.common import ROOT, WORK_DIR


def provenance() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    digest = next(line.split()[-1] for line in lines
                  if line.startswith(f"{workload} digest "))
    return {"seed": seed, "digest": digest, **json.loads(lines[-1])}


def main(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.steady + 1)))
    record = {"provenance": provenance(), "seconds": args.seconds,
              "workloads": {}}
    for key, value in record["provenance"].items():
        print(f"# {key} {value}")
    rank = ["steady", "within", "NOISY"]
    worst = 0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(_one_run(workload, seed, args.seconds))
            print(f"# {workload} seed {seed} done", flush=True)
        digests = defaultdict(set)
        for run in runs:
            digests[run["seed"]].add(run["digest"])
        rows = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            verdict = ("steady" if spread <= bound / 3 else
                       "within" if spread <= bound else "NOISY")
            if name != "setup_s":
                worst = max(worst, rank.index(verdict))
            rows[name] = {"values": values, "median": median, "q1": q1,
                          "q3": q3, "spread": spread, "bound": bound,
                          "verdict": verdict}
            print(f"{workload:12s} {name:20s} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%} "
                  f"bound {bound:.0%} {verdict}")
        repeated = {seed: len(d) == 1 for seed, d in digests.items()
                    if seeds.count(seed) > 1}
        if repeated:
            print(f"{workload:12s} digest identical across repeats: "
                  f"{all(repeated.values())}")
        record["workloads"][workload] = {
            "metrics": rows,
            "digests": {str(s): sorted(d) for s, d in digests.items()},
            "failed": sum(run["failed"] for run in runs),
        }
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, "steady.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# overall (setup_s aside): {rank[worst]}")
    return 0
