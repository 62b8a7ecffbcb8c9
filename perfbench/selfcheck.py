"""Small-size self-check of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs each workload on a few inputs, untraced and traced, and confirms that
every metric named in BENCHMARK.json is emitted.  Then feeds the ``grid``,
``solve`` and ``suite`` output checks a deliberately perturbed row,
solution or record and confirms that they fire.  Exits 1 on the first
failed expectation.
"""

import dataclasses
import json
import shutil
import sys
import tempfile

import run


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def small_workloads():
    from workloads import Grid, Solve, Suite

    class SmallGrid(Grid):
        def __init__(self, seed, workdir, workers):
            super().__init__(seed, workdir, workers, tile=5)

    class SmallSolve(Solve):
        traced_ops = 6

    class SmallSuite(Suite):
        def __init__(self, seed, workdir, workers=None):
            super().__init__(seed, workdir, workers, criteria=("volume", "cuspmodel"))

    return {"grid": SmallGrid, "solve": SmallSolve, "suite": SmallSuite}


def check_metrics(workdir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, cls in small_workloads().items():
        metrics, attempted, failed, ok, _, _ = run.untraced(name, cls, 3, 0.2, workdir)
        expect(set(metrics) == end_to_end, f"{name}: untraced run emits exactly the end-to-end metrics")
        expect(ok and attempted > 0 and failed == 0, f"{name}: untraced outputs pass their checks")
        metrics, attempted, failed, repeat, _, _ = run.traced(name, cls, 3, 0.2, workdir)
        expect(set(metrics) == per_layer, f"{name}: traced run emits exactly the per-layer metrics")
        expect(repeat and attempted > 0 and failed == 0, f"{name}: traced outputs pass, counts repeat")
        if name == "solve":
            expect(metrics["plaques.certify.calls"] == 0, "solve: no certify calls")
        layers = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "bench.self_s")
        expect(abs(layers + metrics["bench.self_s"] - metrics["trace.wall_s"]) < 1e-6,
               f"{name}: layer self times add up to the traced wall time")


def check_perturbations(workdir):
    import csv

    from workloads import Grid, Solve, Suite

    grid = Grid(5, workdir, 1, tile=7)
    op = next(grid.stream())
    with open(grid.run(op), newline="") as fh:
        rows = list(csv.reader(fh))
    expect(grid.check_rows(op, rows) == 0, "grid: unperturbed rows pass")
    flag = [list(r) for r in rows]
    flag[4][7] = "false"
    expect(grid.check_rows(op, flag) == 1, "grid: a row flagged not convex fails")
    nudged = [list(r) for r in rows]
    i = 1 + grid.sample(op)[0]
    nudged[i][4] = f"{float(nudged[i][4]) + 1e-10:.17g}"
    expect(grid.check_rows(op, nudged) == 1, "grid: a sampled row 1e-10 off the scalar reference fails")
    expect(grid.check_rows(op, rows[:-1]) == len(rows) - 1, "grid: a missing row fails the whole sweep")

    solve = Solve(5)
    for _, op in zip(range(3), solve.stream()):
        result = solve.run(op)
        kind = op[0]["a"][0] + "-" + op[0]["b"][0]
        expect(solve.check(op, result) == 0, f"solve: {kind} solution hits its targets")
        off = dataclasses.replace(result, lengths=(result.lengths[0] + 1e-6, result.lengths[1]))
        expect(solve.check(op, off) == 1, f"solve: {kind} solution moved by 1e-6 fails")

    suite = Suite(5, workdir, criteria=("cuspmodel",))
    code, records, text = suite.run(next(suite.stream()))
    expect(suite.check(None, (code, records, text)) == 0, "suite: a passing record passes")
    failing = [dict(records[0], passed=False)]
    expect(suite.check(None, (1, failing, text)) == 1, "suite: a failing criterion fails")


def main():
    run._import_pleatlab()
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    try:
        check_metrics(workdir)
        check_perturbations(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
