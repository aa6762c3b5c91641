"""Per-solve work counters and result digests of a benchmark solve list.

    python3 tools/work_digest.py --workload eq-logreg --seed 0 1 2 3 > a.jsonl
    python3 tools/work_digest.py --workload eq-logreg --seed 0 1 2 3 \\
        --src ../parent/src > b.jsonl
    python3 tools/work_digest.py --compare b.jsonl a.jsonl

The first form runs every solve of `perfbench/workloads.py` `solve_list`
for each seed, in order, or with `--workload registry` every
`rasqp.bench.PROBLEMS` x `METHODS` pair at solver seed `--seed`, each RA
method under adaptive and geometric sampling and `det-sqp` once (budget
2e5 gradient evaluations, 60 outer iterations), or with `--workload tight` the benchmark's logistic
methods at stops past the benchmark's 1e-2 (`tight_list`), and writes one
JSON line per solve: its place in the
list, problem, method, sampling rule and solver seed, status, the four
`Counters`, the batch sizes, a sha256 over every `OuterRecord` field
(floats and iterates as IEEE bytes) and the final x, and a result digest:
the same sha256 without the `*_cum` work counters, so it holds what the
solve found, not what it spent. Each solved row also holds `evals_to`: for
each eps in 1e-2, 1e-3 and 1e-4, the `grad_evals_cum` of the first record
with violation <= the solve's bound and stationarity <= eps (0 when the
initial record does, Infinity when none does). The bound is 1e-6, or the
solve's `stop_violation` when that is looser, since a solve that stops at
violation 1e-5 need never reach 1e-6; the row holds it as
`violation_bound`. `--src` picks the `src/` tree rasqp is
imported from, so this one copy of the tool also runs against another
checkout, such as the parent commit's. BLAS runs on one thread, as in the
benchmark.

`--compare A B` lists the solves whose work (status, counters, batch sizes)
or digest differs between two such files, and labels a work difference
whose result digest and status are equal "same results": less (or more)
work for the same answer. Under each work difference it prints each side's
status, counters and number of outers (or its error), then the first outer
whose batch size differs. It ends with a table of each method's median
`evals_to` in A and in B (rows without the field are left out of it),
then one of each method's summed gradient evaluations, MINRES and barrier
iterations and count of each status, in A and in B, and the same sums and
counts over every method in a last row, `all`. It exits 1 when any
work differs or the two files do not hold the same solve list, and 0
otherwise: a digest difference alone means a change moved rounding, not
the work done; `evals_to` does not enter it. A file it cannot read (missing,
a directory, or a line that is not a solve row) ends it with one `error:`
line naming the file on stderr and exit 2. A reader that closes the
pipe early (`| head`) cuts the report short, not the exit code; in the first
form it ends the run, with exit 0, after the solve whose line found the pipe
closed.
"""

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import statistics
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTERS = ("gradient_evals", "function_evals", "minres_iters",
            "barrier_iters")
# the OuterRecord fields that count work, left out of the result digest
WORK_FIELDS = ("grad_evals_cum", "minres_iters_cum", "barrier_iters_cum")
# the accuracy targets of `evals_to`: the tightest violation bound, and the
# stationarity levels by their JSON keys
VIOLATION_TARGET = 1e-6
EPSILONS = ("1e-2", "1e-3", "1e-4")
# the fields `--compare` reads of every row
ROW_KEYS = {"index", "workload", "list_seed", "method", "seed", "status"}


def digest(outcome, skip=()) -> str:
    """sha256 over every field of every OuterRecord, except the fields
    named in `skip`, then the final x."""
    import numpy as np

    h = hashlib.sha256()

    def put(value):
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        elif isinstance(value, float):
            h.update(struct.pack("<d", value))
        else:
            h.update(repr(value).encode())

    for rec in outcome.trace:
        for f in dataclasses.fields(rec):
            if f.name not in skip:
                put(getattr(rec, f.name))
    put(np.asarray(outcome.x, dtype=float))
    return h.hexdigest()


def violation_bound(stop_violation) -> float:
    """The violation bound of `evals_to` for a solve that stops at
    `stop_violation` (None: on its budget only): the looser of that and
    VIOLATION_TARGET."""
    return max(VIOLATION_TARGET, stop_violation or 0.0)


def evals_to(trace, bound=VIOLATION_TARGET) -> dict:
    """eps key -> the `grad_evals_cum` of the first record of `trace` with
    violation_inf <= bound and stationarity <= eps, or inf when no record
    gets there."""
    return {eps: next((r.grad_evals_cum for r in trace
                       if r.violation_inf <= bound
                       and r.stationarity <= float(eps)), math.inf)
            for eps in EPSILONS}


def registry_list(seed: int, smoke: bool) -> list:
    """Every registered problem x method pair at solver seed `seed`: each
    RA method under both RA sampling rules, and `det-sqp`, which overrides
    the rule with fixed sampling, once, as "fixed"; `smoke` cuts each
    solve to 2 outer iterations. A pair the driver rejects is in the list
    and raises when run."""
    from rasqp.bench import METHODS, PROBLEMS, RunConfig

    return [RunConfig(problem=problem, method=method, seed=seed,
                      sampling=sampling, max_gradient_evals=200_000,
                      max_outer=2 if smoke else 60)
            for problem in PROBLEMS for method in METHODS
            for sampling in (("fixed",) if method == "det-sqp"
                             else ("adaptive", "geometric"))]


def tight_list(seed: int, smoke: bool) -> list:
    """At solver seed `seed`, budget 1e6 gradient evaluations each: the
    `eq-logreg` methods and `det-sqp` on `synth-logreg-eq` at stops
    1e-5/1e-4, then `ra-sqp-linf`, `ra-sqp-l1` and `det-sqp` on
    `synth-logreg-ineq` at 1e-6/1e-4. The benchmark's lists stop at
    stationarity 1e-2, so only these reach `evals_to` at 1e-4. `smoke`
    cuts each budget to 2e4."""
    from perfbench.workloads import EQ_METHODS
    from rasqp.bench import RunConfig

    solves = ([("synth-logreg-eq", m, 1e-5)
               for m in EQ_METHODS + ("det-sqp",)]
              + [("synth-logreg-ineq", m, 1e-6)
                 for m in ("ra-sqp-linf", "ra-sqp-l1", "det-sqp")])
    return [RunConfig(problem=problem, method=method, seed=seed,
                      stop_violation=stop_v, stop_stationarity=1e-4,
                      max_gradient_evals=20_000 if smoke else 10 ** 6)
            for problem, method, stop_v in solves]


def solve_rows(workload: str, seeds, smoke: bool):
    """One dict per solve of the workload's lists for `seeds`, in order."""
    from perfbench.workloads import solve_list
    from rasqp.bench import run_config

    lists = {"registry": registry_list, "tight": tight_list}
    configs = [(seed, config) for seed in seeds
               for config in (lists[workload](seed, smoke)
                              if workload in lists
                              else solve_list(workload, seed, smoke=smoke))]
    for index, (seed, config) in enumerate(configs):
        row = {"index": index, "workload": workload, "list_seed": seed,
               "problem": config.problem, "method": config.method,
               "sampling": config.sampling, "seed": config.seed}
        try:
            outcome = run_config(config)
        except Exception as exc:  # a raising solve is a result too
            row.update(status="Error", error=f"{type(exc).__name__}: {exc}")
            yield row
            continue
        bound = violation_bound(config.stop_violation)
        row.update(
            status=outcome.status,
            counters={c: getattr(outcome.counters, c) for c in COUNTERS},
            batch_sizes=[rec.batch_size for rec in outcome.trace[1:]],
            digest=digest(outcome),
            result_digest=digest(outcome, skip=WORK_FIELDS),
            evals_to=evals_to(outcome.trace, bound), violation_bound=bound)
        yield row


def work(row) -> tuple:
    return (row["status"], row.get("counters"), row.get("batch_sizes"),
            row.get("error"))


def work_summary(row) -> str:
    """A row's status, four counters and number of outers, or its error."""
    if "counters" not in row:
        return f"{row['status']}: {row.get('error')}"
    counts = ", ".join(f"{c} {row['counters'][c]:,}" for c in COUNTERS)
    return f"{row['status']}, {counts}, outers {len(row['batch_sizes']):,}"


def first_batch_difference(a, b) -> str:
    """The first outer (from 1) whose batch size differs between two rows,
    with both sizes ("-" past a side's last outer)."""
    pairs = itertools.zip_longest(a.get("batch_sizes") or [],
                                  b.get("batch_sizes") or [])
    for outer, (size_a, size_b) in enumerate(pairs, 1):
        if size_a != size_b:
            return (f"batch sizes first differ at outer {outer}: "
                    f"{_count(size_a)} != {_count(size_b)}")
    return "same batch sizes"


def method_totals(rows, method=lambda r: r["method"]) -> dict:
    """method -> (Counter of its solves' summed counters, Counter of their
    statuses), in order of first appearance; `method(row)` names a row's
    group."""
    totals = {}
    for r in rows:
        work, statuses = totals.setdefault(
            method(r), (collections.Counter(), collections.Counter()))
        work.update(r.get("counters") or {})  # a raising solve has none
        statuses[r["status"]] += 1
    return totals


def print_totals(a, b):
    """The per-method work table of two files holding one solve list,
    ending with the row `all` that sums every method."""
    print(f"{'method':<20} {'gradient evals':>14} {'MINRES':>10} "
          f"{'barrier':>10}  statuses")
    ta, tb = ({**method_totals(rows), **method_totals(rows, lambda r: "all")}
              for rows in (a, b))
    for method in ta:
        for side, (work, statuses) in (("A", ta[method]), ("B", tb[method])):
            counts = ", ".join(f"{s} {n}" for s, n in sorted(statuses.items()))
            print(f"{method if side == 'A' else '':<18} {side} "
                  f"{work['gradient_evals']:>14,} {work['minres_iters']:>10,} "
                  f"{work['barrier_iters']:>10,}  {counts}")


def print_evals_to(a, b):
    """The per-method table of median `evals_to` in two files, from the
    rows that hold it; nothing when no row does."""
    if not any("evals_to" in r for r in a + b):
        return
    print(f"{'evals to eps':<20} "
          + " ".join(f"{eps:>12}" for eps in EPSILONS))
    for method in dict.fromkeys(r["method"] for r in a):
        for side, rows in (("A", a), ("B", b)):
            reached = [r["evals_to"] for r in rows
                       if r["method"] == method and "evals_to" in r]
            medians = [statistics.median(e[eps] for e in reached)
                       if reached else None for eps in EPSILONS]
            print(f"{method if side == 'A' else '':<18} {side} "
                  + " ".join(f"{_count(m):>12}" for m in medians))


def _count(value) -> str:
    if value is None:
        return "-"
    if math.isinf(value):
        return "inf"
    return f"{value:,.0f}" if value == int(value) else f"{value:,.1f}"


def read_rows(path: str) -> list:
    """The rows of a file the first form wrote. Raises ValueError, with a
    message naming the file, when it cannot be read or a line is not a
    JSON object with the ROW_KEYS."""
    try:
        with open(path) as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        if not (isinstance(row, dict) and ROW_KEYS <= row.keys()):
            raise ValueError(f"{path} line {number}: not a solve row")
        rows.append(row)
    return rows


def compare(a: list, b: list) -> int:
    """Print each solve whose work or digest differs between the rows of
    two files; 1 on a work difference or mismatched solve lists, else 0."""
    # files written before rows named their problem and sampling rule
    # compare on the other keys
    key = ("workload", "list_seed", "problem", "method", "sampling", "seed")
    if ([[r.get(k) for k in key] for r in a]
            != [[r.get(k) for k in key] for r in b]):
        print(f"the two files hold different solve lists "
              f"({len(a)} and {len(b)} solves)")
        return 1
    work_diff = same_results = digest_diff = 0
    for ra, rb in zip(a, b):
        label = (f"#{ra['index']} {ra['workload']} seed {ra['list_seed']} "
                 f"{ra.get('problem')} {ra['method']} {ra.get('sampling')} "
                 f"solver seed {ra['seed']}")
        if work(ra) != work(rb):
            work_diff += 1
            same = (ra["status"] == rb["status"]
                    and ra.get("result_digest") is not None
                    and ra.get("result_digest") == rb.get("result_digest"))
            same_results += same
            print(f"WORK   {label}{' (same results)' if same else ''}")
            for side, row in (("A", ra), ("B", rb)):
                print(f"       {side}: {work_summary(row)}")
            print(f"       {first_batch_difference(ra, rb)}")
        elif ra.get("digest") != rb.get("digest"):
            digest_diff += 1
            print(f"DIGEST {label}")
    print(f"{len(a)} solves: {work_diff} with different work, "
          f"{digest_diff} more with equal work and a different digest; "
          f"{same_results} of the work differences have the same results")
    print_evals_to(a, b)
    print_totals(a, b)
    return 1 if work_diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("eq-logreg", "quad-geometric",
                                               "ineq-logreg", "registry",
                                               "tight"))
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the short solve lists the tests use")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ tree to import rasqp from")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        try:
            rows = [read_rows(path) for path in args.compare]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with contextlib.redirect_stdout(io.StringIO()) as report:
            code = compare(*rows)
        try:
            sys.stdout.write(report.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:
            # the exit code still tells whether the work differs
            _reader_gone()
        return code
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if min(args.seed) < 0:
        parser.error("--seed must be >= 0")
    src = Path(args.src).resolve()
    if not (src / "rasqp" / "bench.py").is_file():
        parser.error(f"no rasqp sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for row in solve_rows(args.workload, args.seed, args.smoke):
            print(json.dumps(row), file=out, flush=True)
    except BrokenPipeError:
        _reader_gone()  # no one reads the solves left
    finally:
        if args.out:
            out.close()
    return 0


def _reader_gone():
    """After a reader closed stdout early (`| head`): point stdout at
    /dev/null, so the flush at exit goes nowhere instead of raising."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    # one BLAS thread, as in perfbench; numpy is first imported in main
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
