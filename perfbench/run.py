"""Run one rasqp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eq-logreg --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports rasqp from ./src. One process
runs one workload as a closed loop: a single caller issues the workload's
solves one after another through `rasqp.bench.run_config`, never through
the `sweep` process pool, so RA_SQP_THREADS has no effect. BLAS runs on one
thread.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 prints the per-layer metrics of traced passes, each after an
untraced pass that gives the tracing overhead and must repeat its work
counters exactly. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The full record, with versions and per-solve rows, and the
spans of a traced run are written under ./.perfbench/.
"""

import os

# one BLAS thread; must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("eq-logreg", "quad-geometric", "ineq-logreg")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one solver seed and small budgets (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rasqp" / "bench.py").is_file():
        print(f"perfbench: no rasqp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported here so a tree without sources fails with the message above
    import harness

    record = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), SRC, OUT, args.smoke)
    summary = record["summary"]
    env = record["environment"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['passes']} passes of {record['solves_per_pass']} solves")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, metric in summary["metrics"].items():
        value = metric["value"]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:36s} {text:>16s} {metric['unit']}")
    print(f"  {'fail_frac':36s} {record['fail_frac']:>16.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} solves)")
    if not args.trace:
        print(f"  solve_s_p90 over {record['solve_time_samples']} solve times")
        paces = ", ".join(f"{p:.3f}" for p in record["pass_pace"])
        print(f"  pace {paces} (passes), {record['setup_pace']:.3f} (set-up);"
              f" raw seconds are the metrics above times the pace")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
