"""Command-line interface.

Subcommands::

    certify       certify one structure and report angles and flags
    sweep         certify a coordinate grid to CSV
    trace-ray     walk an angle ray to the cusp, reporting volume
    volume        volume difference between two structures
    double        doubled holonomy report for one structure
    jacobian      length Jacobian at one structure
    verify-suite  run the acceptance criteria

Output is deterministic: JSON is emitted with sorted keys, CSV rows end
in ``\r\n`` with floats rendered through ``%.17g``.  Options
resolve as defaults < config file < command-line flags; the config file
is flat ``key=value`` lines with ``#`` comments.  Exit status is 0 on
success, 1 when a requested check or certification fails, and 2 for
usage or configuration errors.
"""

import cmath
import json
import math

import click
import numpy as np

from pleatlab import suite as suite_mod
from pleatlab.chartor import coords, marked_roots, pleating_candidates
from pleatlab.doubling import doubled_holonomy, meridian_data, symmetry_audit
from pleatlab.errors import PleatlabError
from pleatlab.lengthmap import holo_length_jacobian, ray_to_cusp, volume_between
from pleatlab.plaques import certify, certify_batch

SAFE_LO = 2.0
SAFE_HI = 2.8
# Largest grid sweep accepts.  A sweep holds every point in memory at
# once (on the order of 1 kB per point with its CSV text), and a grid
# step far below the range would otherwise never finish.
MAX_SWEEP_POINTS = 10**7

# CSV float cell conversion, and the text of a false/true flag by index.
_FLOAT = "%.17g"
_FLAG_TEXT = np.array(["false", "true"], dtype=object)

TOL_ARGUMENTS = {
    "real_trace": "real_tol",
    "planarity": "planar_tol",
    "parabolic": "parabolic_tol",
    "convex": "convex_tol",
}


def _jsonable(value):
    """Plain JSON data: complex as {"im", "re"}, non-finite floats as null."""
    if hasattr(value, "item"):  # numpy scalars
        value = value.item()
    if isinstance(value, complex):
        return {"im": _jsonable(value.imag), "re": _jsonable(value.real)}
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_json(payload, out):
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _float_cells(values, nan_text=None):
    """``%.17g`` text of a column of floats, formatting each distinct
    value (by bit pattern, so -0.0 and 0.0 stay apart) once.  NaN cells
    read ``nan_text`` when it is given."""
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_FLOAT % v for v in bits.view(np.float64).tolist()], dtype=object)
    cells = text[inverse]
    if nan_text is not None:
        cells[np.isnan(values)] = nan_text
    return cells


def _emit_csv(header, columns, out):
    """Write ``header`` and one ``\r\n``-terminated line per row.

    ``columns`` holds each column's cells as text (:func:`_float_cells`
    for floats).  No cell ever needs quoting: cells are numbers,
    ``true``/``false``/``None`` and fixed header names.
    """
    lines = [",".join(header), *map(",".join, zip(*columns)), ""]
    text = "\r\n".join(lines)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _load_config(path):
    data = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise click.UsageError(f"{path}:{lineno}: empty key")
        data[key] = value
    return data


def _resolve(ctx, key, flag_value, default=None, cast=None):
    """defaults < config file < explicit flag."""
    if flag_value is not None:
        return flag_value
    config = ctx.obj["config"]
    if key in config:
        raw = config[key]
        if cast is None:
            return raw
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise click.UsageError(f"config key {key}: {exc}")
    return default


def _cast_bool(raw):
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _tolerances(ctx):
    """Merged tolerance overrides: config ``tol.NAME`` keys then --tol."""
    merged = {}
    for key, value in ctx.obj["config"].items():
        if key.startswith("tol."):
            merged[key[4:]] = value
    for item in ctx.obj["tol_flags"]:
        if "=" not in item:
            raise click.UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        merged[name.strip()] = value.strip()
    out = {}
    for name, value in merged.items():
        if name not in TOL_ARGUMENTS:
            raise click.UsageError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(TOL_ARGUMENTS))}"
            )
        try:
            out[TOL_ARGUMENTS[name]] = float(value)
        except ValueError:
            raise click.UsageError(f"tolerance {name} is not a number: {value!r}")
    return out


def _parse_complex(text, label):
    try:
        value = complex(text)
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        raise click.UsageError(
            f"{label} must be a finite real or complex number (like 2.2 or 2.42+1.96j), got {text!r}"
        )
    return value


def _structure_from_args(x_text, y_text, z_text):
    x = _parse_complex(x_text, "X")
    y = _parse_complex(y_text, "Y")
    if z_text is None:
        if x.imag != 0.0 or y.imag != 0.0:
            raise click.UsageError("omitting Z requires real X and Y")
        z, _ = pleating_candidates(x.real, y.real)
    else:
        z = _parse_complex(z_text, "Z")
    return coords(x, y, z)


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(
            "--grid expects XMIN:XMAX:STEP,YMIN:YMAX:STEP"
        )
    axes = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 3:
            raise click.UsageError(f"bad grid axis {part!r}: expected MIN:MAX:STEP")
        try:
            lo, hi, step = (float(v) for v in fields)
        except ValueError:
            raise click.UsageError(f"bad grid axis {part!r}: non-numeric field")
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise click.UsageError(f"bad grid axis {part!r}: non-finite field")
        if step <= 0 or hi < lo:
            raise click.UsageError(f"bad grid axis {part!r}: need MIN <= MAX and STEP > 0")
        if lo + step == lo or hi + step == hi:
            # Else MIN + k*STEP can round back and never pass MAX.
            raise click.UsageError(
                f"bad grid axis {part!r}: STEP is below the float resolution of MIN or MAX"
            )
        axes.append((lo, hi, step))
    return tuple(axes)


def _axis_values(lo, hi, step):
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        out.append(round(v, 12))
        k += 1
    return out


def _check_grid_size(axes):
    """Reject grids above MAX_SWEEP_POINTS before building any of them."""
    count = 1.0
    for lo, hi, step in axes:
        count *= (hi + 1e-12 - lo) // step + 1  # _axis_values's count, up to rounding
    if not count <= MAX_SWEEP_POINTS:
        raise click.UsageError(
            f"grid has about {count:.3g} points; sweep accepts at most {MAX_SWEEP_POINTS}"
        )


def _check_safe_region(axes, force):
    if force:
        return
    for lo, hi, _ in axes:
        if lo < SAFE_LO or hi > SAFE_HI:
            raise click.UsageError(
                f"grid leaves the safe region [{SAFE_LO}, {SAFE_HI}]"
                " where certification is untested; pass --force to proceed"
            )


def _pair_of_floats(text, label):
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"{label} expects two comma-separated numbers")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError:
        raise click.UsageError(f"{label}: non-numeric value in {text!r}")
    if not all(math.isfinite(v) for v in pair):
        raise click.UsageError(f"{label}: non-finite value in {text!r}")
    return pair


def _certification_payload(cert):
    th_a, th_b, th_p = cert.theta
    t = cert.coords
    return {
        "convex": cert.is_convex,
        "cusp_residual": t.cusp_residual,
        "fuchsian_boundary": cert.is_fuchsian_boundary,
        "in_pleating_variety": cert.in_pleating_variety,
        "kappa": t.kappa,
        "max_planarity_residual": cert.max_planarity_residual,
        "max_real_trace_residual": cert.max_real_trace_residual,
        "piecewise_geodesic": cert.is_piecewise_geodesic,
        "plaque_errors": dict(cert.plaque_errors),
        "theta_a": th_a,
        "theta_b": th_b,
        "theta_puncture": th_p,
        "x": t.x,
        "y": t.y,
        "z": t.z,
    }


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat key=value config file.")
@click.option("--tol", "tol_flags", multiple=True, metavar="NAME=VALUE",
              help="Certification tolerance override; repeatable.")
@click.option("--seed", type=int, default=None,
              help="Offset for randomized sampling in verify-suite.")
@click.option("--force", is_flag=True, default=None,
              help="Allow grids outside the tested safe region.")
@click.pass_context
def main(ctx, config_path, tol_flags, seed, force):
    """Numerical laboratory for bent projective structures on the
    once-punctured torus and their doubled cone manifolds."""
    config = _load_config(config_path) if config_path else {}
    ctx.obj = {
        "config": config,
        "tol_flags": list(tol_flags),
        "seed": seed,
        "force": force,
    }


@main.command("certify")
@click.argument("x")
@click.argument("y")
@click.argument("z", required=False)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@click.pass_context
def certify_cmd(ctx, x, y, z, out):
    """Certify the structure with trace coordinates X Y [Z].

    With Z omitted, the marked pleating root for real X, Y is used.
    Exits 1 when the structure fails convex certification.
    """
    t = _structure_from_args(x, y, z)
    tols = _tolerances(ctx)
    try:
        cert = certify(t, **tols)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    _emit_json(_certification_payload(cert), out)
    if not cert.is_convex:
        ctx.exit(1)


@main.command("sweep")
@click.option("--grid", "grid_text", default=None,
              metavar="XMIN:XMAX:STEP,YMIN:YMAX:STEP", help="Grid to certify.")
@click.option("--out", type=click.Path(), default=None, help="Write CSV here.")
@click.pass_context
def sweep_cmd(ctx, grid_text, out):
    """Certify every grid point and emit one CSV row per point."""
    grid_text = _resolve(ctx, "grid", grid_text, default="2.05:2.6:0.05,2.05:2.6:0.05")
    axes = _parse_grid(grid_text)
    force = _resolve(ctx, "force", ctx.obj["force"], default=False, cast=_cast_bool)
    _check_safe_region(axes, force)
    _check_grid_size(axes)
    tols = _tolerances(ctx)
    xs = _axis_values(*axes[0])
    ys = _axis_values(*axes[1])
    x = np.repeat(xs, len(ys))
    y = np.tile(ys, len(xs))
    z = marked_roots(x, y)
    try:
        cert = certify_batch(x, y, z, **tols)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    header = (
        "x",
        "y",
        "z_re",
        "z_im",
        "theta_a",
        "theta_b",
        "theta_puncture",
        "convex",
        "fuchsian_boundary",
        "in_pleating_variety",
        "real_trace_residual",
        "planarity_residual",
    )
    # An undefined angle (NaN) prints as None.
    columns = [
        *(_float_cells(v) for v in (x, y, z.real, z.imag)),
        *(_float_cells(th, nan_text="None")
          for th in (cert.theta_a, cert.theta_b, cert.theta_puncture)),
        *(_FLAG_TEXT[f.astype(np.intp)]
          for f in (cert.is_convex, cert.is_fuchsian_boundary, cert.in_pleating_variety)),
        _float_cells(cert.max_real_trace_residual),
        _float_cells(cert.max_planarity_residual),
    ]
    _emit_csv(header, columns, out)


@main.command("trace-ray")
@click.option("--start", "start_text", default=None, metavar="THETA_A,THETA_B",
              help="Starting bending angles.")
@click.option("--samples", type=int, default=None, help="Ray sample count.")
@click.option("--substeps", type=int, default=None,
              help="Quadrature nodes between consecutive samples.")
@click.option("--out", type=click.Path(), default=None, help="Write CSV here.")
@click.pass_context
def trace_ray_cmd(ctx, start_text, samples, substeps, out):
    """Walk the angle ray from the start angles to the maximal cusp.

    Reports the solved structures and cumulative volume along the ray.
    Exits 1 if the volume fails to increase monotonically.
    """
    start_text = _resolve(ctx, "start", start_text, default="2.0,2.0")
    start = _pair_of_floats(start_text, "--start")
    samples = _resolve(ctx, "samples", samples, default=10, cast=int)
    substeps = _resolve(ctx, "substeps", substeps, default=16, cast=int)
    for v in start:
        if not 0.0 < v <= math.pi:
            raise click.UsageError("start angles must lie in (0, pi]")
    if samples < 1:
        raise click.UsageError(f"--samples must be at least 1, got {samples}")
    if substeps < 2:
        raise click.UsageError(f"--substeps must be at least 2, got {substeps}")
    try:
        rows = ray_to_cusp(start, samples=samples, substeps=substeps)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    header = (
        "s",
        "theta_a",
        "theta_b",
        "length_a",
        "length_b",
        "x_re",
        "y_re",
        "z_re",
        "z_im",
        "volume",
        "volume_error",
    )
    table = []
    for row in rows:
        res = row["result"]
        table.append(
            (
                row["s"],
                res.thetas[0],
                res.thetas[1],
                res.lengths[0],
                res.lengths[1],
                res.coords.x.real,
                res.coords.y.real,
                res.coords.z.real,
                res.coords.z.imag,
                row["volume"],
                row["volume_error"],
            )
        )
    _emit_csv(header, [_float_cells(column) for column in zip(*table)], out)
    vols = [row["volume"] for row in rows]
    if any(vols[i + 1] <= vols[i] for i in range(len(vols) - 1)):
        ctx.exit(1)


@main.command("volume")
@click.option("--start", "start_text", required=True, metavar="X0,Y0",
              help="Real coordinates of the first structure.")
@click.option("--end", "end_text", required=True, metavar="X1,Y1",
              help="Real coordinates of the second structure.")
@click.option("--nodes", type=int, default=None, help="Quadrature nodes.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@click.pass_context
def volume_cmd(ctx, start_text, end_text, nodes, out):
    """Volume difference between two marked structures."""
    x0, y0 = _pair_of_floats(start_text, "--start")
    x1, y1 = _pair_of_floats(end_text, "--end")
    nodes = _resolve(ctx, "nodes", nodes, default=128, cast=int)
    if nodes < 2:
        raise click.UsageError(f"--nodes must be at least 2, got {nodes}")
    z0, _ = pleating_candidates(x0, y0)
    z1, _ = pleating_candidates(x1, y1)
    try:
        result = volume_between(coords(x0, y0, z0), coords(x1, y1, z1), nodes=nodes)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    _emit_json(
        {
            "error_estimate": result.error_estimate,
            "nodes": result.nodes,
            "value": result.value,
        },
        out,
    )


@main.command("double")
@click.argument("x")
@click.argument("y")
@click.argument("z", required=False)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@click.pass_context
def double_cmd(ctx, x, y, z, out):
    """Doubled cone-manifold holonomy report at X Y [Z]."""
    t = _structure_from_args(x, y, z)
    tols = _tolerances(ctx)
    try:
        dh = doubled_holonomy(certify(t, **tols))
        meridians = {}
        for curve in ("a", "b", "puncture"):
            md = meridian_data(dh, curve)
            meridians[curve] = {
                "commutation_residual": md.commutation_residual,
                "cone_angle": md.cone_angle,
                "cone_angle_residual": md.cone_angle_residual,
                "kind": md.kind,
                "trace": md.trace,
            }
        audit = symmetry_audit(dh)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    _emit_json(
        {
            "max_relation_residual": dh.max_relation_residual,
            "meridians": meridians,
            "relation_residuals": dict(dh.relation_residuals),
            "symmetry_residual": audit["residual"],
        },
        out,
    )


@main.command("jacobian")
@click.argument("x")
@click.argument("y")
@click.argument("z", required=False)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@click.pass_context
def jacobian_cmd(ctx, x, y, z, out):
    """Length-coordinate Jacobian at X Y [Z]."""
    t = _structure_from_args(x, y, z)
    try:
        rep = holo_length_jacobian(t)
    except PleatlabError as exc:
        raise click.ClickException(str(exc))
    matrix = {
        f"m{i}{j}": rep["matrix"][i][j] for i in range(3) for j in range(3)
    }
    _emit_json(
        {
            "det": rep["det"],
            "det_abs": abs(rep["det"]),
            "fd_residual": rep["fd_residual"],
            "matrix": matrix,
        },
        out,
    )


@main.command("verify-suite")
@click.option("--filter", "filters", multiple=True, metavar="NAME",
              help="Run only the named criteria; repeatable.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the full JSON records here.")
@click.pass_context
def verify_suite_cmd(ctx, filters, out):
    """Run the acceptance criteria and print one line per check.

    Exits 1 when any criterion fails.
    """
    names = list(filters) or None
    if names is None and "filter" in ctx.obj["config"]:
        names = [n.strip() for n in ctx.obj["config"]["filter"].split(",") if n.strip()]
    seed_offset = _resolve(ctx, "seed", ctx.obj["seed"], default=0, cast=int)
    try:
        records = suite_mod.run_suite(names, seed_offset=seed_offset)
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    for line in suite_mod.report_lines(records):
        click.echo(line)
    if out:
        _emit_json({"records": records}, out)
    if any(not rec["passed"] for rec in records):
        ctx.exit(1)


if __name__ == "__main__":
    main()
