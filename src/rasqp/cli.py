"""Command-line interface: run single solves, sweep grids, build
performance profiles, and report active-set stability."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

from .bench import (EPS_TOL_GRID, METHODS, PROBLEMS, RunConfig,
                    active_set_report, build_problem, performance_profile,
                    profile_curve, run_config, sweep, write_results_csv,
                    write_trace_csv)
from .errors import ConfigError, RasqpError


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys use the CLI flag
    names with '-' or '_'."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = _parse_value(val.strip())
    return values


def _apply_config(args, parser) -> RunConfig:
    """RunConfig from file values overridden by explicitly passed flags."""
    base = {}
    if getattr(args, "config", None):
        base = load_config_file(args.config)
    cfg = RunConfig()
    names = {f.name for f in fields(RunConfig)}
    for key, val in base.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, val)
    for name in names:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    return cfg


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
    p.add_argument("--output", help="trace CSV path")


def cmd_run(args, parser) -> int:
    cfg = _apply_config(args, parser)
    outcome = run_config(cfg)
    path = cfg.output or f"trace_{cfg.problem}_{cfg.method}_{cfg.seed}.csv"
    write_trace_csv(path, outcome)
    last = outcome.trace[-1]
    print(f"{cfg.problem} {cfg.method} seed={cfg.seed}: {outcome.status}, "
          f"violation={last.violation_inf:.3e}, "
          f"stationarity={last.stationarity:.3e}, "
          f"grad_evals={outcome.counters.gradient_evals}, trace={path}")
    return 0


def cmd_sweep(args, parser) -> int:
    base = _apply_config(args, parser)
    problems = args.problems.split(",") if args.problems else [base.problem]
    methods = args.methods.split(",") if args.methods else [base.method]
    seeds = _parse_seeds(args.seeds) if args.seeds else [base.seed]
    configs = []
    for prob in problems:
        for method in methods:
            for seed in seeds:
                cfg = RunConfig(**{**base.__dict__, "problem": prob,
                                   "method": method, "seed": seed,
                                   "output": None})
                configs.append(cfg)
    results = sweep(configs, workers=args.workers)
    rows = []
    for cfg, row, outcome, err in results:
        if err is not None:
            print(f"{cfg.problem} {cfg.method} seed={cfg.seed}: FAILED ({err})",
                  file=sys.stderr)
            continue
        rows.append(row)
        if args.trace_dir:
            path = (f"{args.trace_dir}/trace_{cfg.problem}_{cfg.method}_"
                    f"{cfg.seed}.csv")
            write_trace_csv(path, outcome)
    write_results_csv(args.out, rows)
    print(f"wrote {len(rows)} results to {args.out}")
    return 0


def _parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_profile(args, parser) -> int:
    with open(args.inputs) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    column = ("cost" if args.metric == "grad_evals" else "iters")
    column = f"{column}@{args.tol:g}"
    costs = {}
    for row in rows:
        inst = (row["problem"], row["seed"])
        val = row.get(column, "")
        costs[(inst, row["method"])] = float(val) if val else None
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


def cmd_active_set(args, parser) -> int:
    cfg = _apply_config(args, parser)
    problem = build_problem(cfg.problem, cfg.data_seed)
    if problem.m_I == 0:
        raise ConfigError("active-set reports need inequality constraints")
    outcome = run_config(cfg)
    ref_cfg = RunConfig(**{**cfg.__dict__, "method": "det-sqp",
                           "stop_violation": 1e-9,
                           "stop_stationarity": 1e-7})
    ref = run_config(ref_cfg)
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
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="problem x method x seed grid")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--problems", help="comma-separated problem names")
    p_sweep.add_argument("--methods", help="comma-separated method names")
    p_sweep.add_argument("--seeds", help="e.g. 0-9 or 1,2,5")
    p_sweep.add_argument("--out", default="results.csv")
    p_sweep.add_argument("--trace-dir", dest="trace_dir")
    p_sweep.add_argument("--workers", type=int, default=1)
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
        return args.func(args, parser)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RasqpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
