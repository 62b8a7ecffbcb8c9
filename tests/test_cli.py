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
from pleatlab.chartor import coords, marked_roots, pleating_candidates
from pleatlab.cli import main
from pleatlab.lengthmap import ray_to_cusp
from pleatlab.plaques import certify, certify_batch

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
    z = marked_roots(x, y)
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
    rows = []
    for row in ray_to_cusp((2.0, 2.0), samples=10, substeps=16):
        res = row["result"]
        rows.append((
            row["s"], *res.thetas, *res.lengths,
            res.coords.x.real, res.coords.y.real, res.coords.z.real, res.coords.z.imag,
            row["volume"], row["volume_error"],
        ))
    return _reference_csv(header, rows)


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
    ("jacobian", "1e160", "2.5"),
    ("jacobian", "2.2", "2.2", "1e308"),
    ("volume", "--start", "2.1,2.1", "--end", "1e300,2.1"),
    ("trace-ray", "--start", "1e-300,1e-300"),
    ("trace-ray", "--start", "1e-300,1"),
    # Near the cusp.
    ("trace-ray", "--start", "3.14159,1e-8", "--samples", "2"),
    ("trace-ray", "--start", "3.14159265358979,3.0"),
]


@pytest.mark.parametrize("args", EDGE_INPUTS, ids=" ".join)
def test_edge_inputs_end_cleanly(args):
    """Exit 0, 1 or 2 with no traceback and no RuntimeWarning, and no
    undefined (null) value in a successful report."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args)
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if result.exit_code == 0:
        assert "null" not in result.output


def test_tolerance_flag_applies():
    ok = run("--tol", "convex=1e-2", "certify", "2.2", "2.2")
    assert ok.exit_code == 0
    bad = run("--tol", "bogus=1", "certify", "2.2", "2.2")
    assert bad.exit_code == 2
    malformed = run("--tol", "convex", "certify", "2.2", "2.2")
    assert malformed.exit_code == 2


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
    assert abs(payload["value"] - (-1.8273655396883792)) < 1e-4
    assert payload["nodes"] == 65


def test_volume_bad_nodes_exit_two():
    for nodes in ("0", "1", "-3"):
        args = ("volume", "--start", "2.1,2.1", "--end", "2.5,2.4", "--nodes", nodes)
        assert run(*args).exit_code == 2
    assert run("volume", "--start", "nan,2.1", "--end", "2.5,2.4").exit_code == 2


def test_double_json():
    result = run("double", "2.2", "2.2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert "lift_signs" not in payload
    assert payload["max_relation_residual"] < 1e-12
    assert payload["meridians"]["a"]["kind"] == "elliptic"
    assert abs(payload["meridians"]["a"]["cone_angle"] - 1.9041352722452904) < 1e-12
    assert payload["meridians"]["puncture"]["kind"] == "parabolic"


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

    monkeypatch.setattr(cli, "ray_to_cusp", no_solve)
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
