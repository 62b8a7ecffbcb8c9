"""pleatlab benchmark: end-to-end and per-layer numbers for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

``--workload`` is ``grid``, ``solve``, ``suite`` or ``all`` (each in turn).
The pleatlab sources are imported from ``src/`` next to this directory;
without them the run exits 2 and prints no result.

``--trace 0`` runs the workload closed-loop for ``--seconds`` seconds,
single-threaded apart from the sweep's own thread pool, and reports the
end-to-end metrics.  ``--trace 1`` repeats pairs of passes over a fixed,
seed-determined list of inputs until ``--seconds`` have passed: one pass
untraced, one with every layer wrapped by :mod:`tracer`.  It reports call
counts per pass (which must repeat exactly), layer self times and the
tracing overhead, averaged over the pairs.

Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the run metadata and each metric under its
per-workload name.  Full results and the spans of the first traced pass
go to ``.perfbench/`` in the repository root.
"""

import argparse
import cmath
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 7
WINDOW_S = 0.5
CAL_CALLS = 7
# Calibration time (calibrate()) on the 2-CPU container of baseline.json in
# its fast state.  The Python speed of a shared host drifts by up to 1.5x
# over minutes; the single-threaded workloads report their timings scaled
# to this reference speed, which cuts their run-to-run spread about 4x.
CAL_REF_S = 8.0e-4
SETUP_CODE = "from pleatlab import cli; cli.main(['certify', '2.2', '2.2'])"

# Per-layer call counts reported as ``<span>.calls``.
CALL_SPANS = (
    "plaques.certify", "plaques.plaque_circle", "plaques.bending_angle",
    "moebius.chordal_distance", "chartor.matrices_from_traces",
    "lengthmap.volume_between", "doubling.doubled_holonomy",
    "doubling.symmetry_audit", "kernel.eval_word", "kernel.apply_mobius",
    "kernel.normalize_unimodular", "kernel.mat_mul", "kernel.mat_inv",
)

# End-to-end metrics under the name each workload gives them.
ALIASES = {  # name: (metric, factor, unit)
    "grid": {"grid.points_per_s": ("throughput_per_s", 1, "1/s"),
             "grid.peak_rss_mb": ("peak_rss_mb", 1, "MB")},
    "solve": {"solve.solves_per_s": ("throughput_per_s", 1, "1/s"),
              "solve.latency_p50_ms": ("latency_p50_ms", 1, "ms"),
              "solve.latency_tail_ms": ("latency_tail_ms", 1, "ms")},
    "suite": {"suite.wall_s": ("latency_p50_ms", 1e-3, "s")},
}
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
         "peak_rss_mb": "MB"}


def unit_of(key):
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_per_volume_node") else "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "solve", "suite", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_pleatlab():
    if not (SRC / "pleatlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pleatlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pleatlab

    if Path(pleatlab.__file__).resolve().parent != SRC / "pleatlab":
        raise SystemExit(f"perfbench: pleatlab imported from {pleatlab.__file__}, not {SRC}")


def nproc():
    return len(os.sched_getaffinity(0))


def metadata(workload, seed, seconds, trace):
    import numpy
    from pleatlab import kernel

    if kernel.IMPLEMENTATION == "cython":
        compiled = "measured"
    elif find_spec("Cython") is None:
        compiled = "unmeasured: Cython is not installed"
    else:
        compiled = "unmeasured: the compiled kernel is not built"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "kernel_implementation": kernel.IMPLEMENTATION,
        "compiled_kernel": compiled,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "sweep_workers": nproc(),
        "commit": _commit(),
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        return f"unknown: {ref[5:]} is packed"
    return ref


# -- end-to-end ---------------------------------------------------------------


def _calibration_loop(n=400):
    """Fixed pure-Python complex 2x2 arithmetic that calls no pleatlab code."""
    c, s = cmath.cos(0.3), cmath.sin(0.3)
    a = (c, 1j * s, 1j * s, c)
    b = (cmath.exp(0.7j), 0j, 0j, cmath.exp(-0.7j))
    acc = (1 + 0j, 0j, 0j, 1 + 0j)
    total = 0.0
    for i in range(n):
        p, q, r, t = acc
        e, f, g, h = a if i % 3 else b
        acc = (p * e + q * g, p * f + q * h, r * e + t * g, r * f + t * h)
        d = cmath.sqrt(acc[0] * acc[3] - acc[1] * acc[2])
        acc = tuple(v / d for v in acc)
        z = (acc[0] * 0.5 + acc[1]) / (acc[2] * 0.5 + acc[3])
        total += abs(z) / (1.0 + abs(z) ** 2) ** 0.5
    return total


def calibrate():
    """Median seconds of CAL_CALLS calibration loops: the machine's current
    speed at running Python."""
    times = []
    for _ in range(CAL_CALLS):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure_setup(runs=SETUP_RUNS):
    """Median wall seconds for a fresh interpreter to import the CLI and
    certify one structure, and whether every run printed a convex
    certificate.  Not scaled: start-up is mostly process creation and file
    reads, which the calibration loop does not track."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    ok = True
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - start)
        try:
            ok = ok and proc.returncode == 0 and json.loads(proc.stdout)["convex"] is True
        except (ValueError, KeyError):
            ok = False
    return statistics.median(times), ok


def tail_percentile(n):
    """Highest of p99.9, p99, p90 with ten samples beyond it; else 100 (max)."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0


def _timings(latencies, units):
    import numpy as np

    return {
        "throughput_per_s": units / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * float(np.percentile(latencies, tail_percentile(len(latencies)))),
    }


def _failed(workload, ops, outputs):
    """Units that raised or failed their output check."""
    failed = 0
    for op, output in zip(ops, outputs):
        try:
            failed += (workload.units(op) if isinstance(output, Exception)
                       else workload.check(op, output))
        except Exception:  # a malformed output fails its check
            failed += workload.units(op)
    return failed


def closed_loop(workload, seconds):
    """Send inputs one after another until ``seconds`` have passed.

    For a workload with ``calibrated`` set, the inputs are grouped in
    windows of at least WINDOW_S seconds with a calibration before and
    after each, and a window's latencies are scaled by CAL_REF_S over the
    mean of its two calibrations.  Returns the scaled and the raw timings.
    """
    raw, scaled, window, failures = [], [], [], []
    units = attempted = failed = 0
    cal = calibrate() if workload.calibrated else CAL_REF_S
    deadline = perf_counter() + seconds
    window_end = perf_counter() + WINDOW_S
    for op in workload.stream():
        start = perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # counted as failed, the run goes on
            output = exc
        window.append(perf_counter() - start)
        n = workload.units(op)
        bad = _failed(workload, [op], [output])
        if bad and len(failures) < 5:
            failures.append(f"{op!r}: {output!r}" if isinstance(output, Exception)
                            else f"{op!r}: {bad} failed the output check")
        attempted += n
        failed += bad
        units += n
        now = perf_counter()
        if now >= window_end or now >= deadline:
            after = calibrate() if workload.calibrated else CAL_REF_S
            factor = CAL_REF_S / ((cal + after) / 2)
            raw += window
            scaled += [t * factor for t in window]
            window, cal = [], after
            window_end = perf_counter() + WINDOW_S
            if now >= deadline:
                break
    info = {"samples": len(raw), "units": units, "raw": _timings(raw, units),
            "tail_percentile": tail_percentile(len(raw)), "failures": failures}
    return _timings(scaled, units), attempted, failed, info


def untraced(name, workload_cls, seed, seconds, workdir):
    setup_s, setup_ok = measure_setup()
    workload = workload_cls(seed, workdir, nproc())
    timings, attempted, failed, info = closed_loop(workload, seconds)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": timings["throughput_per_s"],
        "latency_p50_ms": timings["latency_p50_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info.update(setup_ok=setup_ok, latency_tail_ms=timings["latency_tail_ms"])
    values = {**metrics, **timings}
    named = {alias: (values[key] * factor, unit)
             for alias, (key, factor, unit) in ALIASES[name].items()}
    named[f"{name}.failed_frac"] = (failed / attempted, "")
    scale = "scaled to reference speed" if workload.calibrated else "wall time"
    lines = [f"{name} {key} = {value:.6g} {UNITS[key]}" for key, value in metrics.items()]
    lines.append(f"{name} latency_tail_ms = {timings['latency_tail_ms']:.6g} ms "
                 f"(p{info['tail_percentile']:g} of {info['samples']} samples; not gated)")
    lines.append(f"{name} timings are {scale}; raw: " + ", ".join(
        f"{key} {value:.6g}" for key, value in info["raw"].items()))
    lines += [f"{alias} = {value:.6g} {unit}".rstrip() for alias, (value, unit) in named.items()]
    lines.append(f"{name} setup check {'passed' if setup_ok else 'FAILED'}")
    lines += [f"{name} failure: {text}" for text in info["failures"]]
    return metrics, attempted, failed, setup_ok, {"named": named, **info}, lines


# -- traced -------------------------------------------------------------------


def _layers():
    from pleatlab import (chartor, cli, doubling, kernel, lengthmap, moebius,
                          plaques, suite, words)

    return {"kernel": kernel, "words": words, "moebius": moebius,
            "chartor": chartor, "plaques": plaques, "doubling": doubling,
            "lengthmap": lengthmap, "suite": suite, "cli": cli}


def _calls_in_thread(tracer, span):
    return sum(n for key, n in tracer.thread_calls().items()
               if key == span or key.endswith(">" + span))


def _volume_hook(call, arguments, tracer):
    before = _calls_in_thread(tracer, "plaques.certify")
    result = call()
    tracer.count("lengthmap.volume_certify", _calls_in_thread(tracer, "plaques.certify") - before)
    tracer.count("lengthmap.volume_nodes", arguments["nodes"])
    return result


def _newton_hook(call, arguments, tracer):
    result = call()
    tracer.count("lengthmap.newton_iterations", result.iterations)
    return result


def make_tracer(keep_spans):
    from pleatlab import cli, suite
    from tracer import Tracer

    tracer = Tracer(
        _layers(),
        extra=[(cli, "main", "cli")],
        hooks={"lengthmap.volume_between": _volume_hook,
               "lengthmap.solve_targets": _newton_hook},
        keep_spans=keep_spans,
    )
    tracer.install()
    # run_suite calls the criteria through this table, not by name.
    tracer.patch(suite, "CRITERIA", tuple((n, d, getattr(suite, fn.__name__))
                                          for n, d, fn in suite.CRITERIA))
    return tracer


def layer_metrics(tracer, wall):
    from tracer import LAYERS
    from workloads import CRITERIA

    calls = tracer.calls()
    selfs = tracer.self_seconds()
    inclusive = tracer.inclusive_s()
    m = {f"{span}.calls": calls.get(span, 0) for span in CALL_SPANS}
    nodes = calls.get("lengthmap.volume_nodes", 0)
    m["lengthmap.newton_iterations"] = calls.get("lengthmap.newton_iterations", 0)
    m["lengthmap.angle_evals"] = calls.get("lengthmap>plaques.bending_angle", 0)
    m["lengthmap.certify_per_volume_node"] = (
        calls.get("lengthmap.volume_certify", 0) / nodes if nodes else 0.0)
    m.update({f"{layer}.self_s": selfs[layer] for layer in LAYERS})
    m.update({f"suite.{c}_s": inclusive.get(f"suite.check_{c}", 0.0) for c in CRITERIA})
    m["bench.self_s"] = wall - tracer.main_top_level_s()
    return m, calls


def _timed_pass(workload, ops):
    outputs = []
    start = perf_counter()
    for op in ops:
        try:
            outputs.append(workload.run(op))
        except Exception as exc:  # counted as failed, the run goes on
            outputs.append(exc)
    return perf_counter() - start, outputs


def traced(name, workload_cls, seed, seconds, workdir):
    from itertools import islice

    workload = workload_cls(seed, workdir, nproc())
    ops = list(islice(workload.stream(), workload_cls.traced_ops))
    units = sum(workload.units(op) for op in ops)
    attempted = failed = 0
    plain, walls, per_pass, first_calls = [], [], [], None
    repeat = True
    deadline = perf_counter() + seconds
    while not per_pass or perf_counter() < deadline:
        wall, outputs = _timed_pass(workload, ops)
        plain.append(wall)
        failed += _failed(workload, ops, outputs)
        tracer = make_tracer(keep_spans=not per_pass)
        try:
            wall, outputs = _timed_pass(workload, ops)
        finally:
            tracer.uninstall()
        failed += _failed(workload, ops, outputs)
        attempted += 2 * units
        walls.append(wall)
        metrics, calls = layer_metrics(tracer, wall)
        if first_calls is None:
            first_calls = calls
            spans = tracer.write_spans(OUT / f"spans-{name}-seed{seed}.npz")
        repeat = repeat and calls == first_calls
        per_pass.append(metrics)
    n = len(per_pass)
    metrics = {key: sum(p[key] for p in per_pass) / n if key.endswith("_s") else per_pass[0][key]
               for key in per_pass[0]}
    metrics["trace.wall_s"] = sum(walls) / n
    metrics["trace.untraced_wall_s"] = sum(plain) / n
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    layer_sum = sum(v for k, v in metrics.items()
                    if k.endswith(".self_s") and not k.startswith("bench."))
    lines = [
        f"{name} traced: {n} pass pairs over {len(ops)} inputs, {spans} spans kept, "
        f"call counts {'repeat exactly' if repeat else 'DIFFER between passes'}",
        f"{name} traced wall {metrics['trace.wall_s']:.4f} s, untraced "
        f"{metrics['trace.untraced_wall_s']:.4f} s, overhead "
        f"{metrics['trace.overhead_s']:.4f} s "
        f"({metrics['trace.overhead_s'] / metrics['trace.untraced_wall_s']:.1%})",
        f"{name} layer self times {layer_sum:.4f} s + bench.self_s "
        f"{metrics['bench.self_s']:.4f} s = {layer_sum + metrics['bench.self_s']:.4f} s",
    ]
    lines += [f"{name} {key} = {value:.6g}" for key, value in metrics.items()]
    return metrics, attempted, failed, repeat, {"passes": n, "spans": spans}, lines


# -- main ---------------------------------------------------------------------


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        measure = traced if trace else untraced
        return measure(name, WORKLOADS[name], seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = _parse(argv)
    _import_pleatlab()
    OUT.mkdir(exist_ok=True)
    names = ("grid", "solve", "suite") if args.workload == "all" else (args.workload,)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"metadata": meta}, sort_keys=True), flush=True)
    metrics, attempted, failed, correct, details = {}, 0, 0, True, {}
    for name in names:
        m, a, f, ok, info, lines = run_one(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": value, "unit": unit_of(key)}
                        for key, value in m.items()})
        attempted += a
        failed += f
        correct = correct and ok and f == 0
        details[name] = info
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"metadata": meta, "details": details, **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
