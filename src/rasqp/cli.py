"""Command-line interface: run single solves, sweep grids, build
performance profiles, and report active-set stability."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import fields, replace

from .bench import (EPS_TOL_GRID, METHODS, PROBLEMS, RESULT_COLUMNS,
                    RunConfig, active_set_report, build_problem,
                    performance_profile, profile_curve, read_trace_csv,
                    result_row, run_config, write_trace_csv)
from .errors import ConfigError, RasqpError


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys use the CLI flag
    names with '-' or '_'. Each value is converted and checked as its flag's
    is, and a bad key or value raises ConfigError naming the line."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            flag = _FILE_FLAGS.get(key)
            if flag is None:
                raise ConfigError(f"{path}:{lineno}: unknown config key "
                                  f"{key!r}")
            try:
                value = flag.type(text) if flag.type else text
                if flag.choices is not None and value not in flag.choices:
                    raise ValueError
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid {key} value "
                                  f"{text!r}") from None
            values[key] = value
    return values


def _apply_config(args) -> RunConfig:
    """RunConfig from file values overridden by explicitly passed flags."""
    values = load_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return RunConfig(**values)


def _add_run_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--seed", type=int)
    p.add_argument("--data-seed", type=int, dest="data_seed")
    p.add_argument("--sampling", choices=("adaptive", "geometric"))
    p.add_argument("--initial-size", type=int, dest="initial_size")
    p.add_argument("--beta", type=float)
    p.add_argument("--max-gradient-evals", type=int, dest="max_gradient_evals")
    p.add_argument("--max-outer", type=int, dest="max_outer")
    p.add_argument("--stop-violation", type=float, dest="stop_violation")
    p.add_argument("--stop-stationarity", type=float, dest="stop_stationarity")
    return p


# RunConfig field -> the flag that sets it, whose type and choices a config
# file's value passes too
_FILE_FLAGS = {action.dest: action
               for action in _add_run_flags(argparse.ArgumentParser())._actions
               if action.dest in {f.name for f in fields(RunConfig)}}


def _check_writable(path: str) -> None:
    """Raise ConfigError unless a file can be written at `path`. Called
    before the solves, so that a bad output path costs none of them."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if not ok:
        raise ConfigError(f"cannot write output file {path!r}")


def cmd_run(args) -> int:
    cfg = _apply_config(args)
    path = args.output or f"trace_{cfg.problem}_{cfg.method}_{cfg.seed}.csv"
    _check_writable(path)
    outcome = run_config(cfg)
    write_trace_csv(path, outcome)
    last = outcome.trace[-1]
    print(f"{cfg.problem} {cfg.method} seed={cfg.seed}: {outcome.status}, "
          f"violation={last.violation_inf:.3e}, "
          f"stationarity={last.stationarity:.3e}, "
          f"grad_evals={outcome.counters.gradient_evals}, trace={path}")
    return 0


def cmd_sweep(args) -> int:
    base = _apply_config(args)
    problems = args.problems.split(",") if args.problems else [base.problem]
    methods = args.methods.split(",") if args.methods else [base.method]
    seeds = _parse_seeds(args.seeds) if args.seeds else [base.seed]
    for kind, names, known in (("problem", problems, PROBLEMS),
                               ("method", methods, METHODS)):
        for i, name in enumerate(names):
            if name not in known:
                raise ConfigError(f"unknown {kind} {name!r}")
            if name in names[:i]:
                raise ConfigError(f"{kind} {name!r} repeated in --{kind}s")
    configs = [replace(base, problem=prob, method=method, seed=seed)
               for prob in problems for method in methods for seed in seeds]
    traces = [f"{args.trace_dir}/trace_{cfg.problem}_{cfg.method}_"
              f"{cfg.seed}.csv" if args.trace_dir else None
              for cfg in configs]
    for path in [args.out, *filter(None, traces)]:
        _check_writable(path)
    written = 0
    # line-buffered, and each solve's row and trace are written as it ends,
    # so a sweep cut short keeps the header and every finished solve
    with open(args.out, "w", newline="", buffering=1) as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for cfg, trace in zip(configs, traces):
            try:
                outcome = run_config(cfg)
            except Exception as exc:  # a failed solve is reported, not fatal
                print(f"{cfg.problem} {cfg.method} seed={cfg.seed}: FAILED "
                      f"({type(exc).__name__}: {exc})", file=sys.stderr)
                continue
            writer.writerow(result_row(cfg, outcome))
            if trace is not None:
                write_trace_csv(trace, outcome)
            written += 1
    print(f"wrote {written} results to {args.out}")
    return 0


def _parse_seeds(text: str):
    """Seeds from comma-separated parts, each N or an inclusive range LO-HI
    with LO <= HI, no seed named twice."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            span = range(int(lo), int(hi if dash else lo) + 1)
            if not span:
                raise ValueError
        except ValueError:
            raise ConfigError(f"invalid --seeds part {part!r}: expected N or "
                              f"LO-HI with LO <= HI") from None
        again = sorted(set(seeds).intersection(span))
        if again:
            raise ConfigError(f"seed {again[0]} repeated in --seeds")
        seeds.extend(span)
    return seeds


def cmd_profile(args) -> int:
    rows = read_trace_csv(args.inputs)
    column = ("cost" if args.metric == "grad_evals" else "iters")
    column = f"{column}@{args.tol:g}"
    for name in ("problem", "method", "seed", column):
        if rows and name not in rows[0]:
            raise ConfigError(f"{args.inputs} has no {name!r} column")
    costs, row_of = {}, {}
    for i, row in enumerate(rows, start=1):
        inst = (row["problem"], row["seed"])
        key = (inst, row["method"])
        if key in row_of:
            raise ConfigError(f"{args.inputs}: rows {row_of[key]} and {i} "
                              f"both hold problem {inst[0]!r}, seed "
                              f"{inst[1]!r}, method {key[1]!r}")
        row_of[key] = i
        val = row.get(column, "")
        try:
            cost = float(val) if val else None
            if cost is not None and not 0.0 < cost < math.inf:
                raise ValueError
        except ValueError:
            raise ConfigError(f"{args.inputs}: row {i}, column {column!r}: "
                              f"expected an empty cell or a finite number "
                              f"> 0, got {val!r}") from None
        costs[key] = cost
    methods, instances, ratios = performance_profile(costs)
    taus = [1.0 + 0.25 * i for i in range(0, 37)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau"] + methods)
        curves = {m: profile_curve(ratios[m], taus) for m in methods}
        for i, tau in enumerate(taus):
            writer.writerow([f"{tau:g}"] +
                            [f"{curves[m][i]:.6g}" for m in methods])
    print(f"wrote profile over {len(instances)} instances to {args.out}")
    return 0


def cmd_active_set(args) -> int:
    cfg = _apply_config(args)
    _check_writable(args.out)
    problem = build_problem(cfg.problem, cfg.data_seed)
    if problem.m_I == 0:
        raise ConfigError("active-set reports need inequality constraints")
    outcome = run_config(cfg)
    ref = run_config(replace(cfg, method="det-sqp", stop_violation=1e-9,
                             stop_stationarity=1e-7))
    report = active_set_report(problem, [r.x for r in outcome.trace], ref.x)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "jaccard", "violation_inf", "active_set"])
        for rec, (aset, jac, viol) in zip(outcome.trace, report):
            writer.writerow([rec.k, f"{jac:.6g}", f"{viol:.6g}",
                             " ".join(str(i) for i in sorted(aset))])
    print(f"wrote active-set report to {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rasqp",
        description="Retrospective-approximation SQP benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single solve, emit a trace CSV")
    _add_run_flags(p_run)
    p_run.add_argument("--output", help="trace CSV path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="problem x method x seed grid")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--problems", help="comma-separated problem names")
    p_sweep.add_argument("--methods", help="comma-separated method names")
    p_sweep.add_argument("--seeds", help="e.g. 0-9 or 1,2,5")
    p_sweep.add_argument("--out", default="results.csv")
    p_sweep.add_argument("--trace-dir", dest="trace_dir")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profile", help="Dolan-More performance profile")
    p_prof.add_argument("--inputs", required=True, help="results CSV")
    p_prof.add_argument("--tol", type=float, default=1e-2,
                        choices=list(EPS_TOL_GRID))
    p_prof.add_argument("--metric", default="grad_evals",
                        choices=("grad_evals", "solver_iters"))
    p_prof.add_argument("--out", default="profile.csv")
    p_prof.set_defaults(func=cmd_profile)

    p_act = sub.add_parser("active-set", help="active-set stability report")
    _add_run_flags(p_act)
    p_act.add_argument("--out", default="active_set.csv")
    p_act.set_defaults(func=cmd_active_set)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RasqpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
