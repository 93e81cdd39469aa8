"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30
    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --steady 5 --seconds 30      # steadiness mode

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
print the per-layer metrics and write the span JSON under
``.perfbench/``.  Human-readable lines (every metric with its unit, the
content digest, the error ratio) come first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output matched its
reference.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "kernels", "service_mix")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="check against a deliberately wrong reference (the command "
             "must then exit non-zero)")
    parser.add_argument(
        "--steady", type=int, metavar="N", default=0,
        help="run each workload N times (seeds 1..N, or --seeds) and "
             "report each metric's median, quartiles and spread")
    parser.add_argument("--seeds", help="comma-separated seeds for --steady")
    args = parser.parse_args(argv)
    if not args.steady and args.workload is None:
        parser.error("--workload is required (or use --steady N)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[0:1] = [ROOT, src]
    if args.steady:
        from perfbench import steady

        return steady.main(args)

    from perfbench.common import result_line

    module = importlib.import_module(f"perfbench.{args.workload}")
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace),
                         args.corrupt_reference)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed", file=sys.stderr)
        return 1
    for note in out.notes:
        print(f"# {note}")
    for name, value in out.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {out.units[name]}")
    print(f"{args.workload} error_ratio {out.error_ratio:g} "
          f"({out.failed}/{out.attempted})")
    print(f"{args.workload} digest {out.digest}")
    correct = out.failed == 0 and out.attempted > 0
    print(result_line(out, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
