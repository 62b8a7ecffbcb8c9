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
import contextlib
import json
import math
import os
import stat

import click
import numpy as np

from pleatlab import suite as suite_mod
from pleatlab.chartor import coords, pleating_candidates
from pleatlab.doubling import audit_words, doubled_holonomy, meridian_data, mirror_residual
from pleatlab.errors import PleatlabError
from pleatlab.lengthmap import (
    VOLUME_MAX_ORDER,
    continuations,
    holo_length_jacobian,
    schlafli_volumes,
)
from pleatlab.plaques import certify, certify_batch

SAFE_LO = 2.0
SAFE_HI = 2.8
# Largest grid sweep accepts, so that a grid step far below the range
# cannot run for days.  A sweep keeps 75 bytes of output columns per
# point (0.75 GB at the cap) on top of one block's working memory.
MAX_SWEEP_POINTS = 10**7
# Points per certify_batch call in sweep.  A call certifies both pants
# sides of its block as one array of twice the block's length, and holds
# about 1.5 kB of temporaries per point while it does (0.8 kB while the
# block is rendered).  It costs ~0.5 ms plus ~2 us a point, and the cost
# a point can grow with that array: against certifying the sides in
# turn, a 2,048-point call ran at 0.75-1.05x and a 4,096-point call at
# 0.92-1.11x (best of 15 calls, two sets of six paired runs).  A
# 111 x 111 sweep's peak RSS rose by 5.1 MB at 2,048, by 9.7 MB at
# 4,096 and by 19.6 MB with the whole grid at once (2-CPU shared x86
# container, numpy 2.4.6).
SWEEP_BLOCK_POINTS = 2048
# CSV columns of sweep after x, y, z_re, z_im: the BatchCertification
# field behind each.
SWEEP_FIELDS = {
    "theta_a": "theta_a",
    "theta_b": "theta_b",
    "theta_puncture": "theta_puncture",
    "convex": "is_convex",
    "fuchsian_boundary": "is_fuchsian_boundary",
    "in_pleating_variety": "in_pleating_variety",
    "real_trace_residual": "max_real_trace_residual",
    "planarity_residual": "max_planarity_residual",
}
SWEEP_HEADER = ("x", "y", "z_re", "z_im", *SWEEP_FIELDS)

# CSV float cell conversion, and the text of a false/true flag by index.
_FLOAT = "%.17g"
_FLAG_TEXT = np.array(["false", "true"], dtype=object)


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


@contextlib.contextmanager
def _output(out, newline=None):
    """A ``write(text)`` into the file ``out``, or onto stdout when
    ``out`` is empty.  A file that cannot be opened is a usage error."""
    if not out:
        yield lambda text: click.echo(text, nl=False)
        return
    try:
        fh = open(out, "w", newline=newline)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}")
    with fh:
        yield fh.write


def _check_out(out):
    """Raise :func:`_output`'s usage error now if ``out`` cannot be
    opened for writing, creating no file and leaving an existing one as
    it is.  A named pipe is left to :func:`_output`: opening it twice
    would end its reader's input."""
    if not out:
        return
    exists = os.path.lexists(out)
    with contextlib.suppress(OSError):
        if stat.S_ISFIFO(os.stat(out).st_mode):
            return
    try:
        os.close(os.open(out, os.O_WRONLY if exists else os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}")
    if not exists:
        os.unlink(out)


def _emit_json(payload, out):
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _output(out) as write:
        write(text)


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


def _emit_csv(header, blocks, out):
    """Write ``header`` and one ``\r\n``-terminated line per row.

    ``blocks`` yields consecutive runs of rows, each as its columns'
    cells in text (:func:`_float_cells` for floats); it is drawn one run
    at a time while writing.  No cell ever needs quoting: cells are
    numbers, ``true``/``false``/``None`` and fixed header names.
    """
    with _output(out, newline="") as write:
        write(",".join(header) + "\r\n")
        for columns in blocks:
            write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


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


def _resolve(ctx, key, flag_value, default, cast=None):
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


def _certify_grid(x, y):
    """Certify the grid ``(x, y)`` on its marked roots one block of
    ``certify_batch`` at a time, keeping only each block's output
    columns (``SWEEP_HEADER``).  The first failing point, in grid order,
    ends the sweep before anything is written."""
    blocks = []
    for k in range(0, len(x), SWEEP_BLOCK_POINTS):
        bx, by = x[k:k + SWEEP_BLOCK_POINTS], y[k:k + SWEEP_BLOCK_POINTS]
        z, _ = pleating_candidates(bx, by)
        cert = certify_batch(bx, by, z)
        blocks.append((bx, by, z.real, z.imag, *(getattr(cert, f) for f in SWEEP_FIELDS.values())))
        del cert  # before the next block's certify_batch builds its own
    return blocks


def _column_cells(values, name):
    """CSV text of one sweep column: flags as true/false, an undefined
    (NaN) angle as None."""
    if values.dtype == bool:
        return _FLAG_TEXT[values.astype(np.intp)]
    return _float_cells(values, nan_text="None" if name.startswith("theta") else None)


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


class _Group(click.Group):
    """The command group: a :class:`PleatlabError` from any command ends
    it with its message and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PleatlabError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat key=value config file.")
@click.option("--seed", type=int, default=None,
              help="Offset (at least 0) for randomized sampling in verify-suite.")
@click.option("--force", is_flag=True, default=None,
              help="Allow grids outside the tested safe region.")
@click.pass_context
def main(ctx, config_path, seed, force):
    """Numerical laboratory for bent projective structures on the
    once-punctured torus and their doubled cone manifolds."""
    config = _load_config(config_path) if config_path else {}
    ctx.obj = {"config": config, "seed": seed, "force": force}


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
    cert = certify(_structure_from_args(x, y, z))
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
    _check_out(out)
    xs = _axis_values(*axes[0])
    ys = _axis_values(*axes[1])
    x = np.repeat(xs, len(ys))
    y = np.tile(ys, len(xs))
    certified = _certify_grid(x, y)
    blocks = (
        [_column_cells(values, name) for values, name in zip(columns, SWEEP_HEADER)]
        for columns in certified
    )
    _emit_csv(SWEEP_HEADER, blocks, out)


@main.command("trace-ray")
@click.option("--start", "start_text", default=None, metavar="THETA_A,THETA_B",
              help="Starting bending angles.")
@click.option("--samples", type=int, default=None, help="Ray sample count.")
@click.option("--substeps", type=int, default=None,
              help="Gauss-Legendre order of the quadrature between consecutive samples.")
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
    if not 2 <= substeps <= VOLUME_MAX_ORDER:
        raise click.UsageError(
            f"--substeps must be at least 2 and at most {VOLUME_MAX_ORDER}, got {substeps}"
        )
    (path,) = continuations([(start, (math.pi, math.pi), samples, substeps)])
    header = (
        "s", "theta_a", "theta_b", "length_a", "length_b",
        "x_re", "y_re", "z_re", "z_im", "volume", "volume_error",
    )
    x, y, z = path.coords
    columns = (
        path.s, *path.thetas, *path.lengths, x.real, y.real, z.real, z.imag,
        path.volume, path.volume_error,
    )
    _emit_csv(header, [[_float_cells(column) for column in columns]], out)
    if np.any(path.volume[1:] <= path.volume[:-1]):
        ctx.exit(1)


@main.command("volume")
@click.option("--start", "start_text", required=True, metavar="X0,Y0",
              help="Real coordinates of the first structure.")
@click.option("--end", "end_text", required=True, metavar="X1,Y1",
              help="Real coordinates of the second structure.")
@click.option("--nodes", type=int, default=None, help="Gauss-Legendre order of the quadrature.")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here.")
@click.pass_context
def volume_cmd(ctx, start_text, end_text, nodes, out):
    """Volume difference between two marked structures."""
    x0, y0 = _pair_of_floats(start_text, "--start")
    x1, y1 = _pair_of_floats(end_text, "--end")
    nodes = _resolve(ctx, "nodes", nodes, default=128, cast=int)
    if not 2 <= nodes <= VOLUME_MAX_ORDER:
        raise click.UsageError(
            f"--nodes must be at least 2 and at most {VOLUME_MAX_ORDER}, got {nodes}"
        )
    result = schlafli_volumes([((x0, y0), (x1, y1), nodes)])[0]
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
    # One structure is a one-point stack: every field is read at row 0,
    # and an undefined (NaN) cone angle is written as null.
    dh = doubled_holonomy(certify_batch([t.x], [t.y], [t.z]))
    meridians = {}
    for curve in ("a", "b", "puncture"):
        md = meridian_data(dh, curve)
        meridians[curve] = {
            "commutation_residual": md.commutation_residual[0],
            "cone_angle": md.cone_angle[0],
            "cone_angle_residual": md.cone_angle_residual[0],
            "kind": md.kind[0],
            "trace": md.trace[0],
        }
    _emit_json(
        {
            "max_relation_residual": dh.max_relation_residual[0],
            "meridians": meridians,
            "relation_residuals": {k: v[0] for k, v in dh.relation_residuals.items()},
            "symmetry_residual": mirror_residual(dh, audit_words())["residual"][0],
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
    # One point is a one-point stack: every field is read at row 0.
    rep = holo_length_jacobian([t.x], [t.y], [t.z])
    det = rep["det"][0]
    _emit_json(
        {
            "det": det,
            "det_abs": abs(det),
            "fd_residual": rep["fd_residual"][0],
            "matrix": {f"m{i}{j}": rep["matrix"][0, i, j] for i in range(3) for j in range(3)},
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
    if seed_offset < 0:
        # A criterion's seed is its base seed plus the offset, and numpy
        # seeds only non-negative integers.
        raise click.UsageError(f"the seed offset must be at least 0, got {seed_offset}")
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
