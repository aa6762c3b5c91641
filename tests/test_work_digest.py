"""tools/work_digest.py: one JSON line per solve of a benchmark solve list,
and the comparison that tells a work change from a rounding change."""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from rasqp.bench import RunConfig, run_config

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "work_digest.py"


def tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def write(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_smoke_list_digest_and_compare(tmp_path):
    a = tmp_path / "a.jsonl"
    run = tool("--workload", "eq-logreg", "--smoke", "--src", ROOT / "src",
               "--out", a)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    # five RA methods and det-sqp on one solver seed
    assert [r["method"] for r in rows][-1] == "det-sqp"
    assert len(rows) == 6
    for r in rows:
        assert r["status"] in ("Converged", "BudgetExhausted")
        # the list stops at violation 1e-5, the bound each row records
        assert r["violation_bound"] == 1e-5
        assert r["counters"]["gradient_evals"] > 0
        assert len(r["batch_sizes"]) > 0
        assert len(r["digest"]) == 64

    same = tool("--compare", a, a)
    assert same.returncode == 0
    assert "0 with different work, 0 more" in same.stdout

    # a moved digest alone is a rounding change: listed, exit 0
    b = tmp_path / "b.jsonl"
    write(b, [dict(r, digest="0" * 64) if r["index"] == 1 else r
              for r in rows])
    rounding = tool("--compare", a, b)
    assert rounding.returncode == 0
    assert rounding.stdout.count("DIGEST") == 1

    # a moved counter is a work change: exit 1
    c = tmp_path / "c.jsonl"
    moved = dict(rows[2]["counters"], minres_iters=-1)
    write(c, [dict(r, counters=moved) if r["index"] == 2 else r
              for r in rows])
    work = tool("--compare", a, c)
    assert work.returncode == 1
    assert work.stdout.count("WORK") == 1

    # less work for the same results is still a work change, labelled
    fewer = dict(rows[3]["counters"],
                 barrier_iters=rows[3]["counters"]["barrier_iters"] + 1)
    write(c, [dict(r, counters=fewer, digest="1" * 64) if r["index"] == 3
              else r for r in rows])
    labelled = tool("--compare", a, c)
    assert labelled.returncode == 1
    assert labelled.stdout.count("WORK") == 1
    assert labelled.stdout.count("(same results)") == 1
    assert "1 of the work differences have the same results" in labelled.stdout
    write(c, [dict(r, counters=fewer, result_digest="1" * 64)
              if r["index"] == 3 else r for r in rows])
    moved = tool("--compare", a, c)
    assert moved.returncode == 1
    assert "(same results)" not in moved.stdout

    # a different solve list cannot be compared
    write(c, rows[:-1])
    assert tool("--compare", a, c).returncode == 1


def test_registry_smoke_list(tmp_path):
    # every problem x method pair, each RA method under both sampling
    # rules and det-sqp, whose sampling is fixed, once; a pair the driver
    # rejects is an Error row, and a file compares equal to itself
    from rasqp.bench import METHODS, PROBLEMS

    a = tmp_path / "a.jsonl"
    run = tool("--workload", "registry", "--smoke", "--out", a)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert [(r["problem"], r["method"], r["sampling"]) for r in rows] == [
        (p, m, s) for p in PROBLEMS for m in METHODS
        for s in (("fixed",) if m == "det-sqp"
                  else ("adaptive", "geometric"))]
    assert {r["status"] for r in rows
            if r["problem"] == "synth-logreg-ineq"
            and r["method"].startswith("ra-sqp-dl")} == {"Error"}
    assert all("digest" in r for r in rows if r["status"] != "Error")
    same = tool("--compare", a, a)
    assert same.returncode == 0
    assert f"{len(rows)} solves: 0 with different work" in same.stdout


def test_tight_smoke_list(tmp_path):
    # the logistic methods at stationarity 1e-4, each row bounded by its
    # own stop violation
    eq = ("ra-sqp-kkt", "ra-sqp-dnorm", "ra-sqp-dl", "ra-sqp-dl-lbfgs",
          "ra-sqp-dl-inexact", "det-sqp")
    a = tmp_path / "a.jsonl"
    run = tool("--workload", "tight", "--smoke", "--seed", 2, "--out", a)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert [(r["problem"], r["method"], r["violation_bound"], r["seed"])
            for r in rows] == (
        [("synth-logreg-eq", m, 1e-5, 2) for m in eq]
        + [("synth-logreg-ineq", m, 1e-6, 2)
           for m in ("ra-sqp-linf", "ra-sqp-l1", "det-sqp")])
    for r in rows:
        # a 2e4 budget ends every solve short of stationarity 1e-4
        assert r["status"] == "BudgetExhausted"
        assert r["evals_to"]["1e-4"] == math.inf
    same = tool("--compare", a, a)
    assert same.returncode == 0
    assert "9 solves: 0 with different work" in same.stdout


def load_tool():
    spec = importlib.util.spec_from_file_location("work_digest", TOOL)
    wd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wd)
    return wd


def test_result_digest_leaves_out_the_work_counters():
    wd = load_tool()
    out = run_config(RunConfig(problem="synth-logreg-ineq",
                               method="ra-sqp-linf", max_outer=2))
    full, result = wd.digest(out), wd.digest(out, skip=wd.WORK_FIELDS)
    assert full != result

    # fewer programs solved for the same records: only the full digest moves
    cheaper = dataclasses.replace(out, trace=[
        dataclasses.replace(r, barrier_iters_cum=r.barrier_iters_cum - 1,
                            grad_evals_cum=0, minres_iters_cum=7)
        for r in out.trace])
    assert wd.digest(cheaper) != full
    assert wd.digest(cheaper, skip=wd.WORK_FIELDS) == result

    # any other field, or the final x, is a result
    moved = dataclasses.replace(out, trace=out.trace[:-1] + [
        dataclasses.replace(out.trace[-1],
                            stationarity=out.trace[-1].stationarity * 2)])
    assert wd.digest(moved, skip=wd.WORK_FIELDS) != result
    moved_x = dataclasses.replace(out, x=out.x + 1.0)
    assert wd.digest(moved_x, skip=wd.WORK_FIELDS) != result


def record(grads, violation, stationarity):
    return SimpleNamespace(grad_evals_cum=grads, violation_inf=violation,
                           stationarity=stationarity)


def test_evals_to_is_the_first_crossing():
    wd = load_tool()
    # the initial record already meets 1e-2; 1e-3 is first met at 300, not
    # at 200 (violation too large) nor again at 400; 1e-4 is never met
    trace = [record(0, 1e-7, 5e-3), record(100, 1e-7, 2e-3),
             record(200, 1e-5, 1e-4), record(300, 1e-6, 9e-4),
             record(400, 0.0, 2e-4)]
    assert wd.evals_to(trace) == {"1e-2": 0, "1e-3": 300, "1e-4": math.inf}
    # a threshold equal to the value counts as reached
    assert wd.evals_to([record(0, 1.0, 1.0), record(50, 1e-6, 1e-4)]) == {
        "1e-2": 50, "1e-3": 50, "1e-4": 50}
    # never reached is written as Infinity and read back as inf
    assert json.loads(json.dumps(wd.evals_to(trace)))["1e-4"] == math.inf


def test_evals_to_takes_a_looser_stop_violation():
    wd = load_tool()
    # a solve that stops at violation 1e-5 is held to 1e-5: the record at
    # 100 now counts for 1e-2 and 1e-3, and the one at 200 for 1e-4
    trace = [record(0, 1.0, 1.0), record(100, 5e-6, 5e-4),
             record(200, 1e-5, 1e-4), record(300, 1e-7, 5e-5)]
    assert wd.evals_to(trace) == {"1e-2": 300, "1e-3": 300, "1e-4": 300}
    bound = wd.violation_bound(1e-5)
    assert bound == 1e-5
    assert wd.evals_to(trace, bound) == {"1e-2": 100, "1e-3": 100,
                                         "1e-4": 200}
    # no stop, or a tighter one, keeps the 1e-6 bound
    assert wd.violation_bound(None) == wd.violation_bound(1e-8) == 1e-6


def test_compare_prints_median_evals_to(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    reach = [{"1e-2": 100, "1e-3": 400, "1e-4": math.inf},
             {"1e-2": 200, "1e-3": 500, "1e-4": math.inf},
             {"1e-2": 0, "1e-3": 900, "1e-4": 1000}]
    rows = [dict(solve(i, "ra-sqp-dl", i, "Converged", 1000, 12),
                 evals_to=e) for i, e in enumerate(reach)]
    # a raising solve and a row from an older file hold no evals_to
    rows += [solve(3, "ra-sqp-dl", 3, "Error"),
             solve(4, "det-sqp", 0, "Converged", 5000, 16)]
    write(a, rows)
    write(b, [dict(r, evals_to={"1e-2": 50, "1e-3": 60, "1e-4": 70})
              if r["index"] == 0 else r for r in rows])
    out = tool("--compare", a, b)
    # the field is not work: equal counters still exit 0
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.startswith("evals to eps"))
    assert lines[head].split()[3:] == ["1e-2", "1e-3", "1e-4"]
    assert [line.split() for line in lines[head + 1:head + 5]] == [
        ["ra-sqp-dl", "A", "100", "500", "inf"],
        ["B", "50", "500", "1,000"],
        ["det-sqp", "A", "-", "-", "-"],
        ["B", "-", "-", "-"],
    ]
    # the method totals still end the report
    assert lines[head + 5].split()[0] == "method"


def solve(index, method, seed, status, grads=None, minres=0, barrier=0):
    row = {"index": index, "workload": "eq-logreg", "list_seed": 0,
           "method": method, "seed": seed, "status": status,
           "digest": "0" * 64, "result_digest": "1" * 64}
    if grads is None:
        row["error"] = "NumericalFailure: non-finite iterate"
    else:
        row.update(counters={"gradient_evals": grads, "function_evals": 1,
                             "minres_iters": minres,
                             "barrier_iters": barrier},
                   batch_sizes=[32])
    return row


def test_compare_ends_with_method_totals(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write(a, [solve(0, "ra-sqp-dl", 0, "Converged", 1000, 12),
              solve(1, "ra-sqp-dl", 1, "BudgetExhausted", 2500, 3),
              solve(2, "ra-sqp-linf", 0, "Converged", 700, 0, 40),
              solve(3, "det-sqp", 0, "Error")])
    write(b, [solve(0, "ra-sqp-dl", 0, "Converged", 900, 10),
              solve(1, "ra-sqp-dl", 1, "Converged", 1500, 3),
              solve(2, "ra-sqp-linf", 0, "Converged", 700, 0, 40),
              solve(3, "det-sqp", 0, "Converged", 5000, 16)])
    out = tool("--compare", a, b)
    # the table changes nothing of the exit code rule
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.split()[:1] == ["method"])
    assert [line.split() for line in lines[head + 1:]] == [
        ["ra-sqp-dl", "A", "3,500", "15", "0",
         "BudgetExhausted", "1,", "Converged", "1"],
        ["B", "2,400", "13", "0", "Converged", "2"],
        ["ra-sqp-linf", "A", "700", "0", "40", "Converged", "1"],
        ["B", "700", "0", "40", "Converged", "1"],
        ["det-sqp", "A", "0", "0", "0", "Error", "1"],
        ["B", "5,000", "16", "0", "Converged", "1"],
        # every method summed, statuses counted over the whole list
        ["all", "A", "4,200", "15", "40", "BudgetExhausted", "1,",
         "Converged", "2,", "Error", "1"],
        ["B", "8,100", "29", "40", "Converged", "4"],
    ]

    # equal work: exit 0, and the table still ends the report
    same = tool("--compare", a, a)
    assert same.returncode == 0
    assert [line.split() for line in same.stdout.splitlines()[-2:]] == [
        ["all", "A", "4,200", "15", "40", "BudgetExhausted", "1,",
         "Converged", "2,", "Error", "1"],
        ["B", "4,200", "15", "40", "BudgetExhausted", "1,", "Converged",
         "2,", "Error", "1"]]


def test_compare_summarizes_a_work_difference(tmp_path):
    # long batch-size lists that part late, and a solve that raised on one
    # side: each side's status, counters and outers, then the first outer
    # whose batch size differs, never the lists themselves
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    long_a = dict(solve(0, "ra-sqp-dl", 0, "BudgetExhausted", 203_514, 12),
                  batch_sizes=[32] * 3000 + [64] * 2000)
    long_b = dict(solve(0, "ra-sqp-dl", 0, "Converged", 201_326, 12),
                  batch_sizes=[32] * 3000 + [128] * 1000)
    write(a, [long_a, solve(1, "det-sqp", 0, "Converged", 5000, 16)])
    write(b, [long_b, solve(1, "det-sqp", 0, "Error")])
    out = tool("--compare", a, b)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[:8] == [
        "WORK   #0 eq-logreg seed 0 None ra-sqp-dl None solver seed 0",
        "       A: BudgetExhausted, gradient_evals 203,514, function_evals 1,"
        " minres_iters 12, barrier_iters 0, outers 5,000",
        "       B: Converged, gradient_evals 201,326, function_evals 1,"
        " minres_iters 12, barrier_iters 0, outers 4,000",
        "       batch sizes first differ at outer 3001: 64 != 128",
        "WORK   #1 eq-logreg seed 0 None det-sqp None solver seed 0",
        "       A: Converged, gradient_evals 5,000, function_evals 1,"
        " minres_iters 16, barrier_iters 0, outers 1",
        "       B: Error: NumericalFailure: non-finite iterate",
        "       batch sizes first differ at outer 1: 32 != -",
    ]
    assert lines[8].startswith("2 solves: 2 with different work")

    # equal batch sizes under different counters say so
    write(b, [dict(long_a, counters=dict(long_a["counters"],
                                         minres_iters=13)),
              solve(1, "det-sqp", 0, "Converged", 5000, 16)])
    out = tool("--compare", a, b)
    assert out.returncode == 1
    assert out.stdout.splitlines()[3] == "       same batch sizes"


@pytest.mark.parametrize("bad", ["missing", "directory", "malformed",
                                 "not_a_row"])
def test_compare_refuses_unreadable_input(tmp_path, bad):
    # exit 1 means "work differs": an unreadable file is exit 2, with one
    # error line that names it and no traceback
    a = tmp_path / "a.jsonl"
    write(a, [solve(0, "ra-sqp-dl", 0, "Converged", 1000)])
    b = tmp_path / "b.jsonl"
    if bad == "directory":
        b.mkdir()
    elif bad == "malformed":
        b.write_text(a.read_text() + '{"index": 1, "method"\n')
    elif bad == "not_a_row":  # JSON, but without the fields compared
        b.write_text(a.read_text() + '{"index": 1}\n')
    out = tool("--compare", a, b)
    assert out.returncode == 2
    assert out.stdout == ""
    (line,) = out.stderr.splitlines()
    assert line.startswith("error: ") and str(b) in line
    if bad in ("malformed", "not_a_row"):
        assert "line 2" in line


@pytest.mark.parametrize("moved,code", [("digest", 0), ("counters", 1)])
def test_compare_survives_a_reader_that_stops_early(tmp_path, moved, code):
    # a report far longer than a pipe buffer, read one line, as `| head -1`
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    rows = [solve(i, "ra-sqp-dl", i, "Converged", 1000, 12)
            for i in range(3000)]
    write(a, rows)
    write(b, [dict(r, digest="2" * 64) if moved == "digest"
              else dict(r, counters=dict(r["counters"], minres_iters=13))
              for r in rows])
    first, returncode, err = read_one_line(["--compare", a, b])
    assert first.split()[0] in ("WORK", "DIGEST")
    assert returncode == code
    assert "BrokenPipeError" not in err and "Traceback" not in err


def test_run_survives_a_reader_that_stops_early():
    # the first solve's line, then the pipe closes: the run ends quietly
    first, returncode, err = read_one_line(["--workload", "eq-logreg",
                                            "--smoke"])
    assert json.loads(first)["index"] == 0
    assert returncode == 0
    assert "BrokenPipeError" not in err and "Traceback" not in err


def read_one_line(args):
    """Run the tool, read one line of its output and close the pipe, as
    `| head -1`; (that line, exit code, stderr)."""
    proc = subprocess.Popen([sys.executable, str(TOOL), *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    returncode = proc.wait(timeout=300)  # stderr holds a traceback at most
    err = proc.stderr.read()
    proc.stderr.close()
    return first, returncode, err
