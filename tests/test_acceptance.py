"""Acceptance gate: ten end-to-end criteria covering oracle equivalence,
formula correctness, algorithmic invariants, step-error bounds, desk-scale
benchmark reproductions, and accounting/determinism. Each test prints a
single PASS/FAIL line."""

import itertools
import math
import statistics

import numpy as np
import pytest

from rasqp.bench import (RunConfig, active_set, build_problem, jaccard,
                         run_config, success_test)
from rasqp.driver import (DriverConfig, _robust_progress, adaptive_batch_size,
                          metrics_at)
from rasqp.errors import InfeasibleStationary, MeritCollapse
from rasqp.ipm import solve_program
from rasqp.linalg import LbfgsModel, lbfgs_apply, lbfgs_update, minres_solve
from rasqp.sqp_eq import (ETA, Evaluator, InnerContext,
                          compute_step, inner_iteration, model_decrease,
                          trial_tau, update_tau)
from rasqp.sqp_ineq import direction_step, sigma_bounds


def report(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


_solve_cache = {}


def solve(problem, method, seed, stop_v, stop_s, budget, **kw):
    key = (problem, method, seed, stop_v, stop_s, budget, tuple(sorted(
        kw.items())))
    if key not in _solve_cache:
        cfg = RunConfig(problem=problem, method=method, seed=seed,
                        stop_violation=stop_v, stop_stationarity=stop_s,
                        max_gradient_evals=budget, **kw)
        _solve_cache[key] = run_config(cfg)
    return _solve_cache[key]


def test_criterion_1_linear_algebra_oracles():
    rng = np.random.default_rng(101)
    worst_minres = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        A = rng.standard_normal((n, n))
        M = (A + A.T) / 2 + n * np.eye(n)
        b = rng.standard_normal(n)
        rep = minres_solve(M.__matmul__, b, 1e-8, 20 * n)
        rel = np.linalg.norm(M @ rep.solution - b) / np.linalg.norm(b)
        worst_minres = max(worst_minres, rel)

    worst_lbfgs = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 21))
        model = LbfgsModel(dim=n, capacity=50)
        A = rng.standard_normal((n, n))
        H = (A + A.T) / 2 + (n + 1) * np.eye(n)
        pairs = []
        for _ in range(8):
            s = rng.standard_normal(n)
            y = H @ s
            pairs.append((s, y))
            model = lbfgs_update(model, s, y)
        s_l, y_l = pairs[-1]
        B = (y_l @ y_l / (s_l @ y_l)) * np.eye(n)
        for s, y in pairs:
            Bs = B @ s
            B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
        v = rng.standard_normal(n)
        err = (np.linalg.norm(lbfgs_apply(model, v) - B @ v)
               / max(1.0, np.linalg.norm(B @ v)))
        worst_lbfgs = max(worst_lbfgs, err)

    report(1, "iterative linear algebra matches dense oracles",
           worst_minres <= 1e-6 and worst_lbfgs <= 1e-10,
           f"minres {worst_minres:.2e}, lbfgs {worst_lbfgs:.2e}")


def _brute_force_qp(H, g, C, d):
    n, q = len(g), C.shape[0]
    best = None
    for r in range(0, min(q, n) + 1):
        for rows in itertools.combinations(range(q), r):
            A = C[list(rows)]
            K = np.zeros((n + r, n + r))
            K[:n, :n] = H
            K[:n, n:] = A.T
            K[n:, :n] = A
            rhs = np.concatenate([-g, d[list(rows)]])
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            if np.linalg.norm(K @ sol - rhs) > 1e-7:
                continue
            x, mu = sol[:n], sol[n:]
            if np.any(C @ x - d > 1e-7) or np.any(mu < -1e-7):
                continue
            val = 0.5 * x @ (H @ x) + g @ x
            if best is None or val < best:
                best = val
    return best


def test_criterion_2_subproblem_oracles():
    rng = np.random.default_rng(202)
    checked, worst = 0, 0.0
    while checked < 200:
        if rng.random() < 0.5:
            n = int(rng.integers(1, 7))
            q = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            H = A @ A.T + 0.5 * np.eye(n)
            C = rng.standard_normal((q, n))
            d = rng.uniform(0.1, 1.0, q)
            is_qp = True
        else:
            n = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            H = np.zeros((n, n))
            C = np.vstack([rng.standard_normal((q, n)), np.eye(n),
                           -np.eye(n)])
            d = np.concatenate([rng.uniform(0.1, 1.0, q), np.full(2 * n, 3.0)])
            is_qp = False
        g = rng.standard_normal(n)
        oracle = _brute_force_qp(H, g, C, d)
        if oracle is None:
            continue
        sol = solve_program(g, C, d, H=H if is_qp else None)
        if sol.status != "optimal":
            report(2, "interior-point subproblem solver matches enumeration",
                   False, f"status {sol.status}")
        worst = max(worst, abs(sol.objective - oracle)
                    / max(1.0, abs(oracle)))
        checked += 1

    # the stationarity measure at planted KKT points: 20 with fewer rows
    # than variables, 20 with more (m_E + m_I > n), and 20 whose J_E
    # repeats a row, with either
    worst_kkt = 0.0
    for k in range(60):
        n = int(rng.integers(2, 6))
        if k < 20:
            m_e, m_i = int(rng.integers(0, 2)), int(rng.integers(1, 4))
        elif k < 40:
            m_e = int(rng.integers(0, n + 1))
            m_i = int(rng.integers(n - m_e + 1, n + 3))
        else:
            m_e, m_i = 2, int(rng.integers(1, n + 2))
        J_E = rng.standard_normal((m_e, n))
        J_I = rng.standard_normal((m_i, n))
        if k >= 40:
            J_E[1] = J_E[0]
        lam_e = rng.standard_normal(m_e)
        lam_i = rng.uniform(0.1, 2.0, m_i)
        grad = -(J_E.T @ lam_e + J_I.T @ lam_i)
        _, t, _ = metrics_at(grad, (np.zeros(m_e), np.zeros(m_i), J_E, J_I))
        worst_kkt = max(worst_kkt, t)

    report(2, "interior-point subproblem solver matches enumeration",
           worst <= 1e-6 and worst_kkt <= 1e-6,
           f"objective {worst:.2e}, kkt {worst_kkt:.2e}")


def test_criterion_3_formula_unit_suite():
    checks = [
        # the shared merit-parameter rule: trial values and updates
        trial_tau(-1.0, 0.5, 0.2, 1.0, 0.0) == math.inf,
        abs(trial_tau(1.0, 1.0, 1.0, 1.0, 0.0) - 0.25) < 1e-15,
        abs(update_tau(1.0, 0.25) - 0.25) < 1e-15,
        update_tau(0.1, 0.25) == 0.1,
        # model decrease
        abs(model_decrease(0.5, -2.0, 3.0, 1.0) - 3.0) < 1e-15,
        # the rule with the robust solver's arguments (g'd, d'd, d'd,
        # delta_c, 0), and step-norm bounds
        abs(trial_tau(0.0, 0.25, 0.25, 0.5, 0.0) - 1.0) < 1e-15,
        abs(update_tau(1.0, 0.4) - 0.4) < 1e-15,
        sigma_bounds(0.5, "linf", 3) == (1e2, 2e2),
        sigma_bounds(50.0, "linf", 3) == (500.0, 1000.0),
        # adaptive batch formula including the growth-capped case
        adaptive_batch_size(32, 100.0, 1.0, None) == 160,
        adaptive_batch_size(32, 0.0, 1.0, None) == 32,
        # success rules and set similarity
        success_test(10.0, 0.9, 1e-1),
        not success_test(10.0, 1.1, 1e-1),
        success_test(0.5, 0.05, 1e-1),
        jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3),
        jaccard(frozenset(), frozenset()) == 1.0,
    ]
    zero_trial = False
    try:
        update_tau(1.0, 0.0)
    except MeritCollapse:
        zero_trial = True
    checks.append(zero_trial)
    report(3, "closed-form update formulas match hand calculations",
           all(checks), f"{sum(checks)}/{len(checks)} checks")


def _eq_instance(rng, n=5, m=2):
    A = rng.standard_normal((n, n))
    Q = A @ A.T + np.eye(n)
    b = rng.standard_normal(n)
    J = rng.standard_normal((m, n))
    t = rng.standard_normal(m)
    ev = Evaluator(
        value=lambda x: float(0.5 * x @ (Q @ x) + b @ x),
        value_grad=lambda x: (float(0.5 * x @ (Q @ x) + b @ x), Q @ x + b),
        constraints=lambda x: (J @ x - t, np.zeros(0), J, np.zeros((0, n))))
    return ev


def _general_instance(rng, n=4, m_e=1, m_i=2):
    A = rng.standard_normal((n, n))
    Q = A @ A.T + np.eye(n)
    b = rng.standard_normal(n)
    J_E = rng.standard_normal((m_e, n))
    t_E = rng.standard_normal(m_e)
    J_I = rng.standard_normal((m_i, n))
    t_I = rng.standard_normal(m_i) + 1.0
    return Evaluator(
        value=lambda x: float(0.5 * x @ (Q @ x) + b @ x),
        value_grad=lambda x: (float(0.5 * x @ (Q @ x) + b @ x), Q @ x + b),
        constraints=lambda x: (J_E @ x - t_E, J_I @ x - t_I, J_E, J_I))


def test_criterion_4_merit_line_search_invariants():
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(50):
        ev = _eq_instance(rng)
        x = rng.standard_normal(5)
        F, g = ev.value_grad(x)
        c, c_I, J, J_I = ev.constraints(x)
        ctx = InnerContext(x=x, lam=np.zeros(c.size), F_S=F, g_S=g, c_E=c,
                           c_I=c_I, J_E=J, J_I=J_I, tau_prev=1.0)
        taus = []
        for _ in range(6):
            try:
                step = compute_step(ctx, True)
                new_ctx, alpha = inner_iteration(ctx, step, ev,
                                                 DriverConfig(), None)
            except MeritCollapse:
                break
            if alpha > 0.0:
                tau = new_ctx.tau_prev
                gTd = float(ctx.g_S @ step.d)
                dl = model_decrease(tau, gTd,
                                    float(np.linalg.norm(ctx.c_E, 1)),
                                    float(np.linalg.norm(step.r, 1)))
                if dl <= 0 or tau <= 0:
                    violations += 1
                phi0 = tau * ctx.F_S + np.linalg.norm(ctx.c_E, 1)
                xt = ctx.x + alpha * step.d
                ct = ev.constraints(xt)[0]
                phi = tau * ev.value(xt) + np.linalg.norm(ct, 1)
                if phi > phi0 - ETA * alpha * dl + 1e-10:
                    violations += 1
                taus.append(tau)
            ctx = new_ctx
        if any(a < b - 1e-15 for a, b in zip(taus, taus[1:])):
            violations += 1

    rob_config = DriverConfig(termination="robust_dnorm")
    for _ in range(50):
        ev = _general_instance(rng)
        x = rng.standard_normal(4)
        F, g = ev.value_grad(x)
        cE, cI, JE, JI = ev.constraints(x)
        ctx = InnerContext(x=x, lam=np.zeros(cE.size), F_S=F, g_S=g, c_E=cE,
                           c_I=cI, J_E=JE, J_I=JI, tau_prev=1.0)
        taus = []
        for _ in range(6):
            try:
                _, _, step = _robust_progress(ctx, rob_config, None)
            except InfeasibleStationary:
                break
            try:
                new_ctx, alpha = inner_iteration(ctx, step, ev, rob_config,
                                                 None)
            except MeritCollapse:
                break
            tau = new_ctx.tau_prev
            gTd = float(ctx.g_S @ step.d)
            # the robust step's v_x is its linearized violation decrease
            dl = -tau * gTd + step.v_x
            if tau <= 0 or dl <= 0 or alpha <= 0:
                violations += 1
            taus.append(tau)
            ctx = new_ctx
        if any(a < b - 1e-15 for a, b in zip(taus, taus[1:])):
            violations += 1

    report(4, "merit parameter and line-search invariants on 100 instances",
           violations == 0, f"{violations} violations")


def test_criterion_5_step_error_bounds():
    rng = np.random.default_rng(505)
    violations = 0
    # equality KKT system: the exact step is linear in the right-hand side
    for _ in range(100):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, n - 1))
        A = rng.standard_normal((n, n))
        H = A @ A.T + np.eye(n)
        J = rng.standard_normal((m, n))
        K = np.block([[H, J.T], [J, np.zeros((m, m))]])
        bound = np.linalg.norm(np.linalg.inv(K), 2)
        g1 = rng.standard_normal(n)
        g2 = g1 + rng.standard_normal(n) * 0.1
        c = rng.standard_normal(m)
        steps = []
        for g in (g1, g2):
            ctx = InnerContext(x=np.zeros(n), lam=np.zeros(m), F_S=0.0,
                               g_S=g, c_E=c, c_I=np.zeros(0), J_E=J,
                               J_I=np.zeros((0, n)), tau_prev=1.0)
            ctx.h_apply = lambda v, H=H: H @ v
            s = compute_step(ctx, True)
            steps.append(np.concatenate([s.d, s.delta]))
        if (np.linalg.norm(steps[0] - steps[1])
                > bound * np.linalg.norm(g1 - g2) + 1e-7):
            violations += 1

    # robust direction QP with H = I: the solution map is nonexpansive in g
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m_i = int(rng.integers(1, 4))
        J_I = rng.standard_normal((m_i, n))
        c_I = rng.standard_normal(m_i) - 1.0
        g1 = rng.standard_normal(n)
        g2 = g1 + rng.standard_normal(n) * 0.1
        d = []
        for g in (g1, g2):
            d.append(direction_step(g, np.zeros(0), c_I,
                                    np.zeros((0, n)), J_I,
                                    float(max(np.max(np.maximum(c_I, 0.0)),
                                              0.0)),
                                    100.0, "linf"))
        if np.linalg.norm(d[0] - d[1]) > np.linalg.norm(g1 - g2) + 1e-5:
            violations += 1

    report(5, "step maps respect their perturbation bounds (200 instances)",
           violations == 0, f"{violations} violations")


def test_criterion_6_equality_benchmark_beats_full_batch():
    budget = 500000
    ra_costs, converged = [], 0
    for seed in range(10):
        out = solve("synth-logreg-eq", "ra-sqp-dl", seed, 1e-5, 1e-2, budget)
        if out.status == "Converged":
            converged += 1
            ra_costs.append(out.counters.gradient_evals)
    det = solve("synth-logreg-eq", "det-sqp", 0, 1e-5, 1e-2, 2 * budget)
    det_cost = det.counters.gradient_evals
    ok = (converged >= 8 and det.status == "Converged"
          and statistics.median(ra_costs) <= 0.5 * det_cost)
    report(6, "adaptive subsampling beats the full-batch baseline",
           ok, f"{converged}/10 converged, median RA "
               f"{statistics.median(ra_costs):.0f} vs full-batch {det_cost}")


def test_criterion_7_lbfgs_benefit():
    budget = 500000
    costs = {}
    for method in ("ra-sqp-dl", "ra-sqp-dl-lbfgs"):
        vals = []
        for seed in range(10):
            out = solve("synth-logreg-eq", method, seed, 1e-5, 1e-2, budget)
            vals.append(out.counters.gradient_evals
                        if out.status == "Converged" else math.inf)
        costs[method] = statistics.median(vals)
    ok = costs["ra-sqp-dl-lbfgs"] <= costs["ra-sqp-dl"] < math.inf
    report(7, "quasi-Newton model does not cost more gradients",
           ok, f"median lbfgs {costs['ra-sqp-dl-lbfgs']:.0f} "
               f"vs identity {costs['ra-sqp-dl']:.0f}")


def test_criterion_8_geometric_outer_rate():
    ratios = []
    for seed in range(10):
        cfg = RunConfig(problem="synth-eq-quad", method="ra-sqp-dl",
                        seed=seed, sampling="geometric", beta=0.5,
                        max_outer=10, max_gradient_evals=10 ** 9)
        out = run_config(cfg)
        first, last = out.trace[0], out.trace[-1]
        err0 = max(first.violation_inf, first.stationarity)
        err = max(last.violation_inf, last.stationarity)
        ratios.append(err / err0)
    med = statistics.median(ratios)
    report(8, "geometric batch growth contracts the optimality error",
           med <= 1e-2, f"median error ratio {med:.2e} after 10 outer steps")


def test_criterion_9_robust_solver_behavior():
    # (a) provably inconsistent constraints are certified quickly
    details = []
    ok = True
    for method in ("ra-sqp-linf", "ra-sqp-l1"):
        out = solve("infeasible-1d", method, 0, None, None, 10 ** 4)
        good = out.status == "InfeasibleStationary"
        ok = ok and good
        details.append(f"{method} infeasible cert "
                       f"{'yes' if good else 'NO'}")

    # (b) inequality-constrained benchmark converges on most seeds
    for method in ("ra-sqp-linf", "ra-sqp-l1"):
        converged = 0
        for seed in range(10):
            out = solve("synth-logreg-ineq", method, seed, 1e-6, 1e-2,
                        500000)
            if out.status == "Converged":
                converged += 1
        ok = ok and converged >= 8
        details.append(f"{method} {converged}/10 converged")

    # (c) the full-batch run settles on a fixed active set at the end, with
    # each of its last records moving x or meeting the stop thresholds: an
    # iterate that stops moving keeps any set "stable"
    det = solve("synth-logreg-ineq", "det-sqp", 0, 1e-9, 1e-7, 10 ** 6)
    problem = build_problem("synth-logreg-ineq")
    tail = [rec for rec in det.trace if rec.k >= 0][-5:]
    sets = [active_set(problem, rec.x) for rec in tail]
    moving = all(rec.updates > 0 or (rec.violation_inf <= 1e-9
                                     and rec.stationarity <= 1e-7)
                 for rec in tail)
    stable = len(tail) == 5 and all(s == sets[0] for s in sets)
    ok = ok and stable and moving
    details.append(f"active set stable over final {len(tail)} outer steps: "
                   f"{'yes' if stable else 'NO'}, each moving x or "
                   f"converged: {'yes' if moving else 'NO'}")

    report(9, "robust solver detects infeasibility and solves benchmarks",
           ok, "; ".join(details))


def test_criterion_10_accounting_and_determinism():
    # conservation: every counted gradient is either a batch-sizing pass or
    # an update pass over the whole batch
    bad = 0
    runs = 0
    for out in _solve_cache.values():
        prev = out.trace[0].grad_evals_cum
        for rec in out.trace[1:]:
            delta = rec.grad_evals_cum - prev
            expected = rec.batch_size * (1 + rec.updates)
            if rec.term_cause != "budget" and delta != expected:
                bad += 1
            prev = rec.grad_evals_cum
        runs += 1

    # determinism: identical config and seed reproduce the identical trace
    outs = [run_config(RunConfig(problem="synth-logreg-eq",
                                 method="ra-sqp-dl", seed=3,
                                 max_gradient_evals=20000))
            for _ in range(2)]
    same = (np.array_equal(outs[0].x, outs[1].x)
            and [r.grad_evals_cum for r in outs[0].trace]
            == [r.grad_evals_cum for r in outs[1].trace]
            and [r.batch_size for r in outs[0].trace]
            == [r.batch_size for r in outs[1].trace])

    report(10, "gradient accounting conserves and runs are reproducible",
           bad == 0 and same and runs > 0,
           f"{runs} runs checked, {bad} conservation violations, "
           f"deterministic {'yes' if same else 'NO'}")
