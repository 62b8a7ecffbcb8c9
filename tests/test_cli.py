"""CLI contract: formats, determinism, option precedence, exit codes."""

import csv
import io
import json
import math
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner

from pleatlab import cli
from pleatlab.chartor import coords, pleating_candidates
from pleatlab.cli import main
from pleatlab.lengthmap import VOLUME_MAX_ORDER, continuations
from pleatlab.plaques import certify, certify_batch

import oracle

THETA_22 = 2.189525017467147


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_certify_json_output():
    result = run("certify", "2.2", "2.2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["convex"] is True
    assert abs(payload["theta_a"] - THETA_22) < 1e-12
    assert abs(payload["z"]["im"] - 1.9554027718094293) < 1e-12
    # keys arrive sorted
    assert list(payload) == sorted(payload)


def test_certify_explicit_complex_z():
    result = run("certify", "2.2", "2.2", "2.42+1.9554027718094293j")
    assert result.exit_code == 0
    assert json.loads(result.output)["convex"] is True


def test_certify_off_locus_exits_one():
    result = run("certify", "2.2", "2.2", "3.0")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["convex"] is False


def test_certify_bad_number_exits_two():
    result = run("certify", "2.2", "spam")
    assert result.exit_code == 2
    for args in (("nan", "nan"), ("inf", "2.2"), ("2.2", "-inf"), ("2.2", "2.2", "nanj")):
        assert run("certify", *args).exit_code == 2


def test_certify_beyond_float_range_exits_one():
    """Overflow inside the plaque fit is a failed certification, not a traceback."""
    for args in (("0", "1.7e-203", "2j"), ("0", "2.2e-313", "1j")):
        result = run("certify", *args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a traceback also exits 1
        payload = json.loads(result.output, parse_constant=_no_constants)
        assert payload["convex"] is False


def test_certify_reports_plaque_errors():
    """The report says which plaque fit failed and why."""
    payload = json.loads(run("certify", "0", "1.7e-203", "2j").output)
    assert payload["plaque_errors"]["top"] is None
    assert "float range" in payload["plaque_errors"]["bottom"]
    payload = json.loads(run("certify", "2.2", "2.2").output)
    assert payload["plaque_errors"] == {"bottom": None, "top": None}


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_certify_json_is_strict():
    """Undefined values (here the missing top plaque) are null, not NaN or Infinity."""
    result = run("certify", "2.2+0.1j", "2.2", "2.4+1.9j")
    assert result.exit_code == 1
    payload = json.loads(result.output, parse_constant=_no_constants)
    assert payload["max_planarity_residual"] is None
    assert payload["theta_a"] is None


def test_sweep_csv_shape_and_determinism():
    args = ("sweep", "--grid", "2.1:2.3:0.1,2.1:2.3:0.1")
    first = run(*args)
    second = run(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    rows = list(csv.reader(io.StringIO(first.output)))
    assert rows[0][:4] == ["x", "y", "z_re", "z_im"]
    assert len(rows) == 1 + 9  # header + 3x3 grid
    for row in rows[1:]:
        assert row[7] == "true"  # convex
        float(row[4])  # theta_a parses


def test_sweep_rows_match_scalar_certify():
    result = run("sweep", "--grid", "2.0:2.2:0.05,2.0:2.2:0.05")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))[1:]
    assert len(rows) == 25
    for row in rows:
        x, y = float(row[0]), float(row[1])
        z, _ = pleating_candidates(x, y)
        cert = certify(coords(x, y, z))
        expected = (
            z.real,
            z.imag,
            *cert.theta,
            cert.max_real_trace_residual,
            cert.max_planarity_residual,
        )
        for got, want in zip((row[i] for i in (2, 3, 4, 5, 6, 10, 11)), expected):
            assert abs(float(got) - want) <= 1e-13
        flags = (cert.is_convex, cert.is_fuchsian_boundary, cert.in_pleating_variety)
        assert row[7:10] == ["true" if f else "false" for f in flags]


def _reference_csv(header, rows):
    """CSV bytes as ``csv.writer`` renders them with the CLI's cell rules:
    a bool as true/false, a float through ``%.17g``, anything else by ``str``."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue().encode()


SWEEP_HEADER = (
    "x", "y", "z_re", "z_im", "theta_a", "theta_b", "theta_puncture",
    "convex", "fuchsian_boundary", "in_pleating_variety",
    "real_trace_residual", "planarity_residual",
)


def _reference_sweep(grid):
    x_axis, y_axis = cli._parse_grid(grid)
    xs, ys = cli._axis_values(*x_axis), cli._axis_values(*y_axis)
    x = np.repeat(xs, len(ys))
    y = np.tile(ys, len(xs))
    z, _ = pleating_candidates(x, y)
    cert = certify_batch(x, y, z)
    angles = [
        [None if math.isnan(v) else v for v in th.tolist()]
        for th in (cert.theta_a, cert.theta_b, cert.theta_puncture)
    ]
    rows = zip(
        x.tolist(), y.tolist(), z.real.tolist(), z.imag.tolist(), *angles,
        cert.is_convex.tolist(), cert.is_fuchsian_boundary.tolist(),
        cert.in_pleating_variety.tolist(),
        cert.max_real_trace_residual.tolist(), cert.max_planarity_residual.tolist(),
    )
    return _reference_csv(SWEEP_HEADER, rows)


def _reference_trace_ray():
    header = (
        "s", "theta_a", "theta_b", "length_a", "length_b",
        "x_re", "y_re", "z_re", "z_im", "volume", "volume_error",
    )
    (path,) = continuations([((2.0, 2.0), (math.pi, math.pi), 10, 16)])
    x, y, z = path.coords
    columns = (
        path.s, *path.thetas, *path.lengths, x.real, y.real, z.real, z.imag,
        path.volume, path.volume_error,
    )
    return _reference_csv(header, zip(*(column.tolist() for column in columns)))


@pytest.mark.parametrize(
    "args,reference,undefined_rows",
    [
        # Rows on x = 2 and y = 2 go through the scalar certify fallback.
        (("sweep", "--grid", "2.0:2.2:0.05,2.0:2.2:0.05"),
         lambda: _reference_sweep("2.0:2.2:0.05,2.0:2.2:0.05"), 0),
        (("--force", "sweep", "--grid", "-3:3:0.25,-3:3:0.25"),
         lambda: _reference_sweep("-3:3:0.25,-3:3:0.25"), 48),
        (("trace-ray",), _reference_trace_ray, 0),
    ],
    ids=["sweep-edges", "sweep-forced", "trace-ray"],
)
def test_csv_bytes_match_reference_renderer(tmp_path, args, reference, undefined_rows):
    result = run(*args)
    assert result.exit_code == 0
    expected = reference()
    assert result.stdout_bytes == expected
    assert expected.count(b"\r\n") == expected.count(b"\n")
    assert sum(b",None," in line for line in expected.splitlines()) == undefined_rows
    out = tmp_path / "out.csv"
    to_file = run(*args, "--out", str(out))
    assert to_file.exit_code == 0
    assert to_file.output == ""
    assert out.read_bytes() == result.stdout_bytes


@pytest.mark.parametrize(
    "grid,block,sizes",
    [("2.0:2.2:0.05,2.0:2.2:0.05", 7, [7, 7, 7, 4]),
     ("-3:3:0.25,-3:3:0.25", 200, [200, 200, 200, 25])],
    ids=["edges", "forced"],
)
def test_sweep_blocks_write_the_reference_bytes(tmp_path, monkeypatch, grid, block, sizes):
    """A grid spanning several blocks is certified one certify_batch call
    per block and written with the bytes of the one-pass reference."""
    monkeypatch.setattr(cli, "SWEEP_BLOCK_POINTS", block)
    calls = []

    def counted(x, *args, **kw):
        calls.append(len(x))
        return certify_batch(x, *args, **kw)

    monkeypatch.setattr(cli, "certify_batch", counted)
    args = ("--force", "sweep", "--grid", grid)
    result = run(*args)
    assert result.exit_code == 0
    assert calls == sizes
    assert result.stdout_bytes == _reference_sweep(grid)
    out = tmp_path / "out.csv"
    assert run(*args, "--out", str(out)).exit_code == 0
    assert out.read_bytes() == result.stdout_bytes


def test_sweep_failure_in_a_late_block_writes_nothing(tmp_path, monkeypatch):
    """At x = 2 only y = 1.9e8, the last point, is reducible to double
    precision; it sits in the fourth block, and the sweep exits 1 with
    its message before writing any row or creating the file."""
    monkeypatch.setattr(cli, "SWEEP_BLOCK_POINTS", 5)
    args = ("--force", "sweep", "--grid", "2:2:1,1e7:1.9e8:1e7")
    result = run(*args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "(190000000+0j)" in result.output
    assert "reducible" in result.output
    assert result.stdout == ""
    out = tmp_path / "out.csv"
    to_file = run(*args, "--out", str(out))
    assert to_file.exit_code == 1
    assert not out.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("old rows\n")
    assert run(*args, "--out", str(kept)).exit_code == 1
    assert kept.read_text() == "old rows\n"


def test_sweep_unopenable_out_fails_before_certifying(tmp_path, monkeypatch):
    """An --out that cannot be opened exits 2 before any point is
    certified, and checking it leaves no file behind."""
    calls = []
    monkeypatch.setattr(cli, "certify_batch", lambda *args: calls.append(args))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        result = run("sweep", "--out", str(out))
        assert result.exit_code == 2
        assert f"cannot write --out {out}" in result.output
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_respects_safe_region():
    result = run("sweep", "--grid", "1.5:2.5:0.5,2.0:2.5:0.5")
    assert result.exit_code == 2
    forced = run("--force", "sweep", "--grid", "2.0:2.2:0.2,2.0:2.2:0.2")
    assert forced.exit_code == 0


def test_sweep_bad_grid_exits_two():
    assert run("sweep", "--grid", "nope").exit_code == 2
    assert run("sweep", "--grid", "2:3:0.5").exit_code == 2
    assert run("sweep", "--grid", "2.4:2.2:0.1,2.1:2.2:0.1").exit_code == 2
    assert run("sweep", "--grid", "nan:2.2:0.1,2.1:2.2:0.1").exit_code == 2
    assert run("sweep", "--grid", "2.1:2.2:inf,2.1:2.2:0.1").exit_code == 2


def test_sweep_oversized_grid_exits_two():
    """Grids above MAX_SWEEP_POINTS are refused before any point is built."""
    assert run("sweep", "--grid", "2.0:2.8:1e-300,2.0:2.8:0.1").exit_code == 2
    # 3163 x 3163 points, just above the 10**7 cap.
    assert run("sweep", "--grid", "2.0:2.8:0.000253,2.0:2.8:0.000253").exit_code == 2


@pytest.mark.parametrize("axis", ["1e300:1e300:1", "1e16:1e16:1", "2:1e300:1e280"])
def test_sweep_stalled_axis_rejected_at_parse(axis):
    """An axis whose step is below the float resolution of its ends
    would round MIN + k*STEP back onto MIN without end."""
    with pytest.raises(click.UsageError, match="float resolution"):
        cli._parse_grid(f"{axis},2:2:1")


EDGE_INPUTS = [
    # Reducible to double precision although kappa reads -2.
    ("certify", "2", "375000000"),
    ("double", "2", "375000000", "375000000"),
    ("volume", "--start", "2,2.5", "--end", "2,3.75e8"),
    ("--force", "sweep", "--grid", "2:2:1,3.75e8:3.75e8:1"),
    # Beyond the float range.
    ("certify", "1e160", "2.5"),
    ("--force", "sweep", "--grid", "1e160:1e160:1e150,2:2:1"),
    ("double", "1e160", "2.5"),
    ("volume", "--start", "2.1,2.1", "--end", "1e160,2.1"),
    ("jacobian", "1e160", "2.5"),
    ("jacobian", "2.2", "2.2", "1e308"),
    ("volume", "--start", "2.1,2.1", "--end", "1e300,2.1"),
    ("volume", "--start", "1e150,2", "--end", "2,2"),
    ("volume", "--start", "2,2", "--end", "1e160,2"),
    # Ends in |x| < 2, or on both sides of it.
    ("volume", "--start", "1.5,2.2", "--end", "1.8,2.3"),
    ("volume", "--start", "-50,2.2", "--end", "50,2.2"),
    ("trace-ray", "--start", "1e-300,1e-300"),
    ("trace-ray", "--start", "1e-300,1"),
    # Near the cusp.
    ("trace-ray", "--start", "3.14159,1e-8", "--samples", "2"),
    ("trace-ray", "--start", "3.14159265358979,3.0"),
    # An --out path that cannot be opened.
    ("sweep", "--grid", "2.1:2.2:0.1,2.1:2.2:0.1", "--out", "/nonexistent/dir/x.csv"),
    ("certify", "2.2", "2.2", "--out", "/nonexistent/x.json"),
    ("verify-suite", "--out", "/nonexistent/x.json"),
    ("trace-ray", "--samples", "1", "--out", "/nonexistent/x.csv"),
    ("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--out", "/nonexistent/x.json"),
    ("double", "2.2", "2.2", "--out", "/nonexistent/x.json"),
    ("jacobian", "2.2", "2.2", "--out", "/nonexistent/x.json"),
]


@pytest.mark.parametrize("args", EDGE_INPUTS, ids=" ".join)
def test_edge_inputs_end_cleanly(args):
    """Exit 0, 1 or 2 with no traceback and no RuntimeWarning, and no
    undefined value (a JSON null, a CSV nan) in a successful report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args)
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if result.exit_code == 0:
        assert "null" not in result.output and "nan" not in result.output


@pytest.mark.parametrize("args", [a for a in EDGE_INPUTS if "--out" in a], ids=" ".join)
def test_unopenable_out_is_a_usage_error(args):
    result = run(*args)
    assert result.exit_code == 2
    assert f"cannot write --out {args[-1]}" in result.output


@pytest.mark.parametrize(
    "args,point",
    [(("certify", "1e160", "2.5"), "(1e+160, 2.5)"),
     (("double", "1e160", "2.5"), "(1e+160, 2.5)"),
     (("jacobian", "1e160", "2.5"), "(1e+160, 2.5)"),
     (("volume", "--start", "2.1,2.1", "--end", "1e160,2.1"), "(1e+160, 2.1)"),
     (("--force", "sweep", "--grid", "1e160:1e160:1e150,2:2:1", "--out", "x.csv"),
      "(1e+160, 2.0)")],
    ids=["certify", "double", "jacobian", "volume", "sweep"],
)
def test_overflowing_pleating_quadratic_names_the_input(args, point, tmp_path, monkeypatch):
    """The sweep, on its array path, fails like the scalar commands and
    creates no --out file."""
    monkeypatch.chdir(tmp_path)
    result = run(*args)
    assert result.exit_code == 1
    assert f"(x, y) = {point}" in result.output
    assert list(tmp_path.iterdir()) == []


def test_tolerance_flag_is_a_usage_error(tmp_path):
    """Certification thresholds are fixed: --tol is an unknown option,
    and tol.* config keys are ignored like any key no command reads."""
    for args in (("--tol", "convex=1e-2"), ("--tol", "bogus=1"), ("--tol", "convex")):
        result = run(*args, "certify", "2.2", "2.2")
        assert result.exit_code == 2
        assert "No such option" in result.output and "--tol" in result.output
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol.planarity = nan\ntol.bogus = spam\n")
    configured = run("--config", str(cfg), "certify", "2.2", "2.2")
    assert configured.exit_code == 0
    assert configured.output == run("certify", "2.2", "2.2").output


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=2.1:2.2:0.1,2.1:2.2:0.1\nworkers=2\n# comment\n")
    from_config = run("--config", str(cfg), "sweep")
    assert from_config.exit_code == 0
    rows = list(csv.reader(io.StringIO(from_config.output)))
    assert len(rows) == 1 + 4  # 2x2 grid from the config
    overridden = run("--config", str(cfg), "sweep", "--grid", "2.1:2.1:0.1,2.1:2.1:0.1")
    rows = list(csv.reader(io.StringIO(overridden.output)))
    assert len(rows) == 1 + 1  # flag wins over config


def test_config_malformed_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    assert run("--config", str(cfg), "certify", "2.2", "2.2").exit_code == 2


def test_volume_json():
    result = run("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--nodes", "64")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - (-1.8273764510572349)) < 1e-13
    assert payload["nodes"] == 64 + 32 + 2


def test_volume_across_a_zero_trace_exits_one():
    """The segment crosses x = 0, where no structure is convex, although
    no node of the order-4 rule falls in |x| < 2."""
    result = run("volume", "--start", "-50,2.2", "--end", "50,2.2", "--nodes", "4")
    assert result.exit_code == 1
    assert "crosses |x| < 2 or |y| < 2" in result.output


def test_volume_bad_nodes_exit_two():
    for nodes in ("0", "1", "-3"):
        args = ("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--nodes", nodes)
        assert run(*args).exit_code == 2
    assert run("volume", "--start", "nan,2.1", "--end", "2.5,2.4").exit_code == 2


@pytest.mark.parametrize(
    "args",
    [("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--nodes"), ("trace-ray", "--substeps")],
    ids=["volume", "trace-ray"],
)
def test_quadrature_order_above_the_cap_exits_two(args, monkeypatch):
    """One order above VOLUME_MAX_ORDER is a usage error, raised before
    any node is placed."""
    def no_work(*a, **kw):
        raise AssertionError("a node was placed before the order was checked")

    monkeypatch.setattr(cli, "continuations", no_work)
    monkeypatch.setattr(cli, "schlafli_volumes", no_work)
    result = run(*args, str(VOLUME_MAX_ORDER + 1))
    assert result.exit_code == 2
    assert f"{args[-1]} must be at least 2 and at most {VOLUME_MAX_ORDER}" in result.output


def test_double_json():
    result = run("double", "2.2", "2.2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert "lift_signs" not in payload
    assert payload["max_relation_residual"] < 1e-12
    assert payload["meridians"]["a"]["kind"] == "elliptic"
    assert abs(payload["meridians"]["a"]["cone_angle"] - 1.9041352722452904) < 1e-12
    assert payload["meridians"]["puncture"]["kind"] == "parabolic"


def test_double_near_cusp_meridian_is_elliptic():
    """At x - 2 = 1e-9 the a-curve is measured, not a cusp: its meridian
    is a rotation by 2 (pi - theta_a), about 1.39e-4, not parabolic."""
    result = run("double", "2.000000001", "2.2")
    assert result.exit_code == 0
    meridian = json.loads(result.output)["meridians"]["a"]
    assert meridian["kind"] == "elliptic"
    assert abs(meridian["cone_angle"] - 1.3914e-4) < 1e-7
    assert meridian["cone_angle_residual"] <= 1e-8


def test_double_unresolved_meridian_reads_the_certified_angle():
    """At x - 2 = 1e-13 the meridian's trace rounds to -2 and reads no
    angle: the report gives the certification's 2 (pi - theta_a) and
    keeps the trace's miss of it as the residual."""
    result = run("double", "2.0000000000001", "2.2")
    assert result.exit_code == 0
    meridian = json.loads(result.output)["meridians"]["a"]
    z = pleating_candidates(2.0000000000001, 2.2)[0]
    theta_a = certify(coords(2.0000000000001, 2.2, z)).theta_a
    assert meridian["kind"] == "elliptic"
    assert meridian["cone_angle"] == 2.0 * (math.pi - theta_a)
    assert abs(meridian["cone_angle"] - 1.3908e-6) < 1e-9
    assert meridian["cone_angle_residual"] == pytest.approx(meridian["cone_angle"], rel=1e-6)


def test_double_loxodromic_meridian_has_no_cone_angle():
    """Off the cusped locus the puncture meridian is loxodromic: no
    rotation, so no cone angle and no residual."""
    result = run("double", "2.2", "2.2", "2.42+1.9j")
    assert result.exit_code == 0
    puncture = json.loads(result.output)["meridians"]["puncture"]
    assert puncture["kind"] == "loxodromic"
    assert puncture["cone_angle"] is None
    assert puncture["cone_angle_residual"] is None


def test_double_negative_lifts_match_their_normalized_mirror():
    """A flipped generator lift doubles in the lift the certification
    normalized to, not in the one given on the command line."""
    reference = run("double", "2.2", "2.2")
    both = run("double", "--", "-2.2", "-2.2")
    assert both.exit_code == 0
    assert both.output == reference.output
    mirror = run("double", "2.2", "2.2", "2.4200000000000004-1.9554027718094293j")
    one = run("double", "--", "-2.2", "2.2")
    assert one.exit_code == 0
    assert one.output == mirror.output


def test_jacobian_json():
    result = run("jacobian", "2.2", "2.2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["det_abs"] - 18.622883541042167) < 1e-9
    assert payload["fd_residual"] < 1e-6


def test_jacobian_degenerate_exits_one():
    result = run("jacobian", "2.0000000001", "2.3")
    assert result.exit_code == 1


def test_trace_ray_csv():
    result = run("trace-ray", "--start", "2.0,2.2", "--samples", "4", "--substeps", "6")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][0] == "s"
    last = rows[-1]
    assert abs(float(last[1]) - math.pi) < 1e-8
    assert abs(float(last[5]) - 2.0) < 1e-8  # x lands on the cusp
    vols = [float(r[9]) for r in rows[1:]]
    assert all(b > a for a, b in zip(vols, vols[1:]))


def test_trace_ray_from_near_the_cusp():
    """A start with one curve near the cusp and the other very long places
    every sample from its angles: the rows are finite, the volume
    increases, and the cusp row reads pi, pi with lengths 0.  The final
    volume is within 1e-14 relative of the 60-digit integral (measured:
    6.1e-16; integrated as sum_i l_i dtheta_i it missed by 1.8e-5)."""
    result = run("trace-ray", "--start", "3.14159,1e-8", "--samples", "2")
    assert result.exit_code == 0, result.output
    rows = np.array(list(csv.reader(io.StringIO(result.output)))[1:], dtype=float)
    assert rows.shape == (3, 11) and np.isfinite(rows).all()
    assert np.all(np.diff(rows[:, 9]) > 0.0)
    assert rows[-1, 1:5].tolist() == [math.pi, math.pi, 0.0, 0.0]
    volume = oracle.angle_path_volume((3.14159, 1e-8), (math.pi, math.pi))
    assert abs(rows[-1, 9] - volume) <= 1e-14 * volume


@pytest.mark.parametrize("start", ["3.14159,1e-9", "3.141592,1e-10", "3.14159,1e-8"])
def test_trace_ray_next_to_a_long_curve(start):
    """Rows with curve b 40 to 49 long print every angle in (0, pi], each
    within 1e-14 relative of the 60-digit closed form at the printed
    lengths; measured on the roof, the first start printed theta_b =
    -6.07e-7 and the last 7.17e-8 for a target of 1e-8."""
    result = run("trace-ray", "--start", start, "--samples", "2")
    assert result.exit_code == 0, result.output
    rows = np.array(list(csv.reader(io.StringIO(result.output)))[1:], dtype=float)
    for theta_a, theta_b, l_a, l_b in rows[:, 1:5].tolist():
        assert 0.0 < theta_a <= math.pi and 0.0 < theta_b <= math.pi
        for theta, want in ((theta_a, oracle.closed_form_angle(l_a, l_b)),
                            (theta_b, oracle.closed_form_angle(l_b, l_a))):
            assert abs(theta - want) <= 1e-14 * want, (theta, l_a, l_b)


@pytest.mark.parametrize(
    "start,samples",
    [("3.141592653589793,2.0", "2"), ("3.1415926535897,3.1415926535897", "3")],
)
def test_trace_ray_from_an_edge_start(start, samples):
    """A start on or next to the angle pi, where a(1 - s) + b s rounds
    samples and nodes past pi, walks the ray: the rows are finite, the
    volume increases, and the cusp row reads pi, pi with lengths 0."""
    result = run("trace-ray", "--start", start, "--samples", samples)
    assert result.exit_code == 0, result.output
    rows = np.array(list(csv.reader(io.StringIO(result.output)))[1:], dtype=float)
    assert rows.shape == (int(samples) + 1, 11) and np.isfinite(rows).all()
    assert np.all(np.diff(rows[:, 9]) > 0.0)
    assert rows[-1, 1:5].tolist() == [math.pi, math.pi, 0.0, 0.0]


def test_trace_ray_from_a_bending_free_start_exits_one():
    """Two start angles 1e-8 place a structure that measures no bending:
    no row is written, the sample is named, and the exit status is 1;
    from 1e-7 every angle printed is in (0, pi]."""
    result = run("trace-ray", "--start", "1e-8,1e-8", "--samples", "4")
    assert result.exit_code == 1
    assert "bending angles (1e-08, 1e-08) place a structure measured at (0.0, 0.0)" in result.output
    assert "theta_a" not in result.output
    result = run("trace-ray", "--start", "1e-7,1e-7", "--samples", "4")
    assert result.exit_code == 0, result.output
    rows = np.array(list(csv.reader(io.StringIO(result.output)))[1:], dtype=float)
    assert np.all((0.0 < rows[:, 1:3]) & (rows[:, 1:3] <= math.pi))


def test_trace_ray_of_zero_length_exits_one():
    """From the cusp itself the ray has no length and the volume does not
    increase: the rows are written, and the exit status is 1."""
    result = run("trace-ray", "--start", f"{math.pi!r},{math.pi!r}", "--samples", "1")
    assert result.exit_code == 1
    rows = list(csv.reader(io.StringIO(result.output)))
    assert len(rows) == 3 and [float(v) for v in rows[-1][9:]] == [0.0, 0.0]


def test_trace_ray_bad_start_exits_two():
    assert run("trace-ray", "--start", "4.0,2.0").exit_code == 2
    assert run("trace-ray", "--start", "1.0").exit_code == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--substeps", "1"), ("--substeps", "0"), ("--substeps", "-4"),
     ("--samples", "0"), ("--samples", "-1")],
)
def test_trace_ray_bad_sizes_exit_two(flag, value, monkeypatch):
    """Sizes that leave no quadrature or no samples are usage errors,
    raised before any solve."""
    def no_solve(*args, **kw):
        raise AssertionError("trace-ray solved before rejecting its sizes")

    monkeypatch.setattr(cli, "continuations", no_solve)
    result = run("trace-ray", flag, value)
    assert result.exit_code == 2
    assert f"{flag} must be at least" in result.output


def test_verify_suite_filter_and_format():
    result = run("verify-suite", "--filter", "lift")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("[PASS]")
    assert "lift:" in lines[0]


def test_verify_suite_unknown_filter_exits_two():
    assert run("verify-suite", "--filter", "nonsense").exit_code == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_offset_exits_two(source, tmp_path, monkeypatch):
    """A negative offset would give a criterion a negative numpy seed; it
    is a usage error, from the flag or the config file, before any
    criterion runs."""
    def no_suite(*args, **kw):
        raise AssertionError("verify-suite ran with a negative seed offset")

    monkeypatch.setattr(cli.suite_mod, "run_suite", no_suite)
    config = tmp_path / "neg.cfg"
    config.write_text("seed = -2\n")
    args = ("--seed", "-2") if source == "flag" else ("--config", str(config))
    result = run(*args, "verify-suite")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "the seed offset must be at least 0, got -2" in result.output


def test_negative_seed_offset_stays_a_usage_error():
    """run_suite itself refuses a negative offset with PleatlabError (exit
    1 through the CLI); verify-suite refuses it first, as a usage error,
    also for criteria that take no seed."""
    result = run("--seed", "-2", "verify-suite", "--filter", "grid")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "the seed offset must be at least 0, got -2" in result.output


def test_verify_suite_json_out(tmp_path):
    out = tmp_path / "records.json"
    result = run("verify-suite", "--filter", "cuspmodel", "--out", str(out))
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["records"][0]["name"] == "cuspmodel"
    assert payload["records"][0]["passed"] is True


def test_outputs_written_to_files(tmp_path):
    out = tmp_path / "cert.json"
    result = run("certify", "2.2", "2.2", "--out", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    assert json.loads(out.read_text())["convex"] is True
