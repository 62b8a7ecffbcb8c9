"""Length coordinates, Jacobians, solvers, volume, deformation probes.

Frozen values: the Jacobian determinant at the frozen marked root is
purely imaginary with the magnitude given by the closed form; the cusp
solve must land on (2, 2, 2+2i) exactly within Newton tolerance.
"""

import dataclasses
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab import cli
from pleatlab.chartor import coords, pair_from_lengths, pleating_candidates
from pleatlab.errors import (
    CoordinateDegeneracy,
    NewtonDivergence,
    NumericalOverflow,
    PleatlabError,
    TargetOutsideImage,
    UncertifiedPathPoint,
)
from pleatlab import lengthmap as lm
from pleatlab import plaques, suite
from pleatlab.plaques import bending_angle, certify, certify_batch
from pleatlab.suite import ROOF_TOL, run_suite

import oracle

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
DET_ABS_22 = 18.622883541042167
DLDPHI_EIGS_21_23 = (0.4043158213445197, 0.618328607660773)
VOLUME_21_TO_2524 = -1.8273764510572349
# The Schlafli volumes from (2.1, 2.1) to (2.5, 2.4) and from the cusp end
# (2.0, 2.2) to (2.6, 2.3), to 50 digits: oracle.trace_path_volume matches
# them to 1e-45.
VOLUME_ORACLE = {
    ((2.1, 2.1), (2.5, 2.4)): "-1.8273764510572349263139372939322333811978838572721",
    ((2.0, 2.2), (2.6, 2.3)): "-1.7795371946912267555424747818151308614418570027957",
}

# A segment across the bending-free boundary P = 1, and one along the cusp
# x = 2, with their volumes to 30 digits: oracle.trace_path_volume at 60
# and at 90 digits agree to 1.5e-31 on the first, 4e-63 on the second.
CROSSING_SEGMENT = ((2.19, 4.88), (5.63, 5.24))
CROSSING_VOLUME = "-0.488930394006994700917731808689"
CUSP_SEGMENT = ((2.0, 2.5), (2.0, 3.0))
CUSP_VOLUME = "-0.650942794901237304862513042693"


def _marked(x, y):
    z, _ = pleating_candidates(x, y)
    return coords(x, y, z)


def _angles(theta_a, theta_b):
    """Angle targets for both curves, as solve_targets takes them."""
    return {"a": ("angle", theta_a), "b": ("angle", theta_b)}


def _segment_volume(start, end):
    """The volume from the marked structure over ``start = (x0, y0)`` to
    the one over ``end``, as the CLI's volume command reads it."""
    (value,) = lm.schlafli_volumes([(start, end)])
    return value


def _assert_same_path(got, want):
    """Two AnglePath records agree bit for bit in every column."""
    for field in dataclasses.fields(lm.AnglePath):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def _jacobian_at(x, y, z):
    """:func:`lm.holo_length_jacobian` at one point, as the jacobian
    command reads it: row 0 of a one-point stack."""
    return {key: value[0] for key, value in lm.holo_length_jacobian([x], [y], [z]).items()}


@pytest.fixture(scope="module")
def criterion_7_points():
    """The (x, y, z) stacks of check_jacobian's one holo_length_jacobian
    call: the 144 grid points, the 10 of the corner path, then the 144 of
    the mirrored grid."""
    calls = []

    def recording(*stacks):
        calls.append(stacks)
        return lm.holo_length_jacobian(*stacks)

    with mock.patch.object(suite, "holo_length_jacobian", recording):
        assert suite.check_jacobian()["passed"]
    (points,) = calls
    return points


def test_jacobian_closed_form_and_fd():
    rep = _jacobian_at(2.2, 2.2, MARKED_ROOT_22)
    assert abs(rep["det"].real) < 1e-12
    assert abs(rep["det"].imag - DET_ABS_22) < 1e-10
    assert rep["fd_residual"] < 1e-6
    assert abs(np.linalg.det(rep["matrix"]) - rep["det"]) < 1e-10


def test_jacobian_rows_are_the_one_point_calls(criterion_7_points):
    """At criterion 7's 298 points each one-point call (the jacobian
    command's) is its row of the stack bit for bit, in every field."""
    rep = lm.holo_length_jacobian(*criterion_7_points)
    assert rep["matrix"].shape == (298, 3, 3)
    assert rep["det"].shape == rep["fd_residual"].shape == (298,)
    for i, point in enumerate(zip(*criterion_7_points)):
        one = _jacobian_at(*point)
        for key, value in rep.items():
            assert np.array_equal(one[key], value[i]), (i, key)


def test_length_jacobian_matches_the_60_digit_oracle(criterion_7_points):
    """Every entry and the determinant at criterion 7's points, against
    mpmath.diff at 60 digits: within 1e-14 relative on the grid and its
    mirror (read: 1.9e-15), and 2e-13 on the corner path, where 2z - xy
    cancels (read: 1.5e-13 at x = y = 2 sqrt(2) - 1e-10)."""
    rep = lm.holo_length_jacobian(*criterion_7_points)
    grid = len(suite._grid_values()) ** 2
    for i, point in enumerate(zip(*criterion_7_points)):
        exact, det = oracle.length_jacobian(*point)
        bound = 2e-13 if grid <= i < grid + suite.JACOBIAN_CORNER_STEPS else 1e-14
        for (r, c), entry in np.ndenumerate(rep["matrix"][i]):
            assert abs(entry - exact[r, c]) <= bound * abs(exact[r, c]), (i, r, c)
        assert abs(rep["det"][i] - det) <= bound * abs(det), i


# Points with Re x < 0 or Re y < 0, the real axis below -2 included, where
# the principal sqrt(x^2 - 4) is minus the derivative of the length.
LEFT_HALF_PLANE = [(-2.2, -2.5, 3.0), (-2.2 + 0.1j, 2.3, 2.4 + 2j), (-2.3 - 0.4j, -2.6 + 0.2j, 1 + 1j),
                   (2.4, -3.1, -2.5 + 0.5j), (-5.0, 2.2, 0.5j), (-2.1 - 1e-3j, -2.05, 2.0)]


def test_length_jacobian_on_the_left_half_plane():
    """Left of the imaginary axis every entry and the determinant lie within
    1e-14 relative of the 60-digit oracle (read: 8.9e-16, on the real
    axis), and the finite differences, taken on the sheet of Re x, agree
    (read: at most 2.5e-9)."""
    rep = lm.holo_length_jacobian(*zip(*LEFT_HALF_PLANE))
    assert np.all(rep["fd_residual"] < suite.JACOBIAN_FD_TOL)
    for i, point in enumerate(LEFT_HALF_PLANE):
        exact, det = oracle.length_jacobian(*point)
        for (r, c), entry in np.ndenumerate(rep["matrix"][i]):
            assert abs(entry - exact[r, c]) <= 1e-14 * abs(exact[r, c]), (i, r, c)
        assert abs(rep["det"][i] - det) <= 1e-14 * abs(det), i


def test_jacobian_degenerate_coordinates_rejected():
    with pytest.raises(CoordinateDegeneracy):
        _jacobian_at(2.0 + 1e-9, 2.3, 3.0 + 1.0j)


@pytest.mark.parametrize("x, y, z", [(1e160, 2.5, complex("nan")), (2.2, 2.2, 1e308)],
                         ids=["overflowing-root", "huge-z"])
def test_jacobian_beyond_float_range_raises(x, y, z):
    """Also at a NaN root, as at a point where the pleating quadratic
    overflows (where pleating_candidates raises)."""
    with pytest.raises(NumericalOverflow):
        _jacobian_at(x, y, z)


def test_jacobian_errors_name_the_first_bad_point():
    """Stack order decides which bad point is named, and which curve at
    that point, a before b."""
    good = (2.2, 2.2, MARKED_ROOT_22)
    stack = [good, (2.3, 2.0 + 1e-9, 3.0), (-2.0 - 1e-9, 2.0 + 1e-9, 3.0)]
    with pytest.raises(CoordinateDegeneracy, match=re.escape("curve b trace (2.000000001+0j)")):
        lm.holo_length_jacobian(*zip(*stack))
    with pytest.raises(CoordinateDegeneracy, match=re.escape("curve a trace (-2.000000001+0j)")):
        lm.holo_length_jacobian(*zip(*stack[::2]))
    stack = [good, (2.2, 2.2, 1e308), (1e160, 2.5, complex("nan"))]
    for bad in (stack, stack[::2]):
        with pytest.raises(NumericalOverflow, match=re.escape(f"at {tuple(map(complex, bad[1]))} ")):
            lm.holo_length_jacobian(*zip(*bad))


def test_jacobian_det_vanishes_at_branch_corner():
    corner = 2.0 * math.sqrt(2.0)
    rep = _jacobian_at(*_marked(corner - 1e-10, corner - 1e-10).astuple())
    assert abs(rep["det"]) < 1e-4


def test_solve_for_lengths_roundtrip():
    res = lm.solve_targets({"a": ("length", 1.3), "b": ("length", 0.9)})
    assert abs(res.lengths[0] - 1.3) < 1e-12
    assert abs(res.lengths[1] - 0.9) < 1e-12
    assert abs(res.coords.x - 2.0 * math.cosh(0.65)) < 1e-12
    assert res.residual < 1e-9


def test_solve_for_angles_interior():
    res = lm.solve_targets(_angles(2.0, 2.4))
    assert abs(res.thetas[0] - 2.0) < 1e-9
    assert abs(res.thetas[1] - 2.4) < 1e-9


def test_solve_reaches_maximal_cusp():
    res = lm.solve_targets(_angles(math.pi, math.pi))
    assert abs(res.coords.x - 2.0) < 1e-8
    assert abs(res.coords.y - 2.0) < 1e-8
    assert abs(res.coords.z - (2.0 + 2.0j)) < 1e-8


def test_solve_mixed_targets():
    res = lm.solve_targets({"a": ("length", 1.1), "b": ("angle", 2.2)})
    assert abs(res.lengths[0] - 1.1) < 1e-9
    assert abs(res.thetas[1] - 2.2) < 1e-9


def test_solve_small_angles_reruns_from_explicit_lengths(monkeypatch):
    """Targets hugging the flat boundary diverge from (1, 1); the solve
    then runs once more from the explicit lengths."""
    runs = []

    def counting(targets):
        runs.append(targets)
        return explicit(targets)

    explicit = lm.explicit_lengths
    monkeypatch.setattr(lm, "explicit_lengths", counting)
    res = lm.solve_targets(_angles(0.2, 0.03))
    assert len(runs) == 1
    assert abs(res.thetas[0] - 0.2) < 1e-9
    assert abs(res.thetas[1] - 0.03) < 1e-9


_KINDS = [("angle", "angle"), ("length", "angle"), ("angle", "length"), ("length", "length")]


@pytest.mark.parametrize("kinds", _KINDS, ids="-".join)
def test_explicit_lengths_round_trip(kinds):
    """The measured structure at the explicit lengths hits every target."""
    rng = np.random.default_rng(15)
    for _ in range(200):
        values = [
            float(rng.uniform(0.1, math.pi) if kind == "angle" else rng.uniform(0.05, 4.0))
            for kind in kinds
        ]
        targets = {name: (kind, v) for name, kind, v in zip("ab", kinds, values)}
        _, lengths, thetas = lm.measure_structure(*lm.explicit_lengths(targets))
        for kind, v, length, theta in zip(kinds, values, lengths, thetas):
            assert abs((theta if kind == "angle" else length) - v) <= 1e-13


@pytest.mark.parametrize("other", [("angle", math.pi), ("angle", 0.7), ("length", 1.3)],
                         ids=["cusp", "angle", "length"])
def test_explicit_lengths_at_angle_pi_are_exactly_zero(other):
    l_a, _ = lm.explicit_lengths({"a": ("angle", math.pi), "b": other})
    _, l_b = lm.explicit_lengths({"a": other, "b": ("angle", math.pi)})
    assert l_a == 0.0 and l_b == 0.0


@pytest.mark.parametrize(
    "targets",
    [{"a": ("angle", 1e-300), "b": ("angle", 1.0)},
     {"a": ("angle", 5e-324), "b": ("angle", 1.0)},
     {"a": ("length", 2000.0), "b": ("angle", 1.0)}],
    ids=["tiny-angle", "subnormal-angle", "long-length"],
)
def test_explicit_lengths_beyond_float_range_raise(targets):
    with pytest.raises(NumericalOverflow):
        lm.measure_structure(*lm.explicit_lengths(targets))


# Per kind mix, target pairs outside the image and pairs whose lengths
# leave the float range (for two lengths, an infinite one).
_BAD_TARGETS = {
    ("angle", "angle"): [((2.0, 4.0), TargetOutsideImage), ((0.0, 2.0), TargetOutsideImage),
                         ((5e-324, 1.0), NumericalOverflow)],
    ("angle", "length"): [((1.0, -1.0), TargetOutsideImage), ((1.0, 2000.0), NumericalOverflow)],
    ("length", "angle"): [((-1.0, 1.0), TargetOutsideImage), ((2000.0, 1.0), NumericalOverflow)],
    ("length", "length"): [((1.0, -1.0), TargetOutsideImage), ((math.inf, 1.0), NumericalOverflow)],
}


@pytest.mark.parametrize("kinds", _KINDS, ids="-".join)
def test_explicit_lengths_arrays_match_one_element_calls(kinds):
    """An array call gives, bit for bit, the one-element and the number
    calls of its elements, an angle pi (length 0) among them; a row that
    is outside the image or leaves the float range raises what its
    one-element call raises."""
    rng = np.random.default_rng(16)
    values = [
        np.append(rng.uniform(0.1, math.pi, 50), math.pi) if kind == "angle"
        else np.append(rng.uniform(0.0, 4.0, 50), 0.0)
        for kind in kinds
    ]

    def call(a, b):
        return lm.explicit_lengths({"a": (kinds[0], a), "b": (kinds[1], b)})

    got = call(*values)
    for k in range(values[0].size):
        one = call(values[0][k:k + 1], values[1][k:k + 1])
        number = call(float(values[0][k]), float(values[1][k]))
        assert [v[k] for v in got] == [v[0] for v in one] == list(number), k
    if "angle" in kinds:
        assert 0.0 in got[kinds.index("angle")]
    for bad, error in _BAD_TARGETS[kinds]:
        with pytest.raises(error):
            call(*([v] for v in bad))
        with pytest.raises(error):
            call(*(np.insert(v, 7, w) for v, w in zip(values, bad)))


def test_lengths_beyond_float_range_raise():
    """A length whose 4 sinh^2(l/2) overflows raises, 710.5 included,
    whose sinh^2 does not: the scalar built an infinite X there; the
    array call names its first such row."""
    for length in (2000.0, 710.5):
        with pytest.raises(NumericalOverflow):
            lm.measure_structure(length, 1.0)
        with pytest.raises(NumericalOverflow, match=rf"^lengths \({length}, 1.0\) leave"):
            lm.measure_structures([1.0, length, 3000.0], [1.0, 1.0, 1.0])
    with pytest.raises(NumericalOverflow):
        lm.solve_targets({"a": ("length", 2000.0), "b": ("length", 1.0)})


# The Jacobian's agreement with a central difference of measured angles,
# relative to max(1, |entry|): the measured angle is good to ~1e-14
# (worse next to a long curve), which a step of up to 1e-6 turns into
# ~1e-8; the truncation error is O(step^2).  Measured worst: 5.7e-8.
ANGLE_JACOBIAN_FD_TOL = 5e-7


def test_closed_form_angle_jacobian_matches_measured_differences():
    """Both rows of the closed-form Jacobian against central differences
    of the roof's bending_angle of curves a and b, at drawn lengths from
    1e-6 to ~16, with a step of min(1e-6, length / 10) on each side."""
    rng = np.random.default_rng(24)
    points = [(1e-6, 1.0), (1.0, 1e-6), (1e-4, 1e-4), (12.0, 1e-5), (1e-3, 8.0)]
    points += [tuple(v) for v in 10.0 ** rng.uniform(-6.0, 1.2, size=(40, 2))]
    checked = 0
    for l_a, l_b in points:
        if math.sinh(l_a / 2.0) * math.sinh(l_b / 2.0) >= 0.99:
            continue  # bending-free or nearly: no roof to measure
        checked += 1
        jacobian = lm._closed_form_angle_jacobian(l_a, l_b)
        assert jacobian[0][1] == jacobian[1][0]
        for j, length in enumerate((l_a, l_b)):
            h = min(1e-6, length / 10.0)
            up, dn = [l_a, l_b], [l_a, l_b]
            up[j] += h
            dn[j] -= h
            for i, curve in enumerate("ab"):
                fd = (bending_angle(pair_from_lengths(*up), curve)
                      - bending_angle(pair_from_lengths(*dn), curve)) / (2.0 * h)
                entry = jacobian[i][j]
                assert abs(entry - fd) <= ANGLE_JACOBIAN_FD_TOL * max(1.0, abs(entry)), (l_a, l_b, i, j)
    assert checked >= 30


@pytest.mark.parametrize(
    "lengths", [(0.3, 1.7), (1.2, 1.2), (1.6, 1.6), (1e-6, 2.0), (2.5, 0.05), (1e-3, 8.0)]
)
def test_closed_form_angle_jacobian_matches_the_60_digit_oracle(lengths):
    """mpmath.diff of the 60-digit closed-form angle gives a symmetric
    Jacobian J, and dl/dphi = (-2 J)^-1 has determinant 1/4, both to
    1e-50; the double-precision Jacobian matches J entry by entry."""
    exact, det = oracle.angle_jacobian(*lengths)
    assert abs(exact[0, 1] - exact[1, 0]) <= 1e-50
    assert abs(det - 0.25) <= 1e-50
    got = lm._closed_form_angle_jacobian(*lengths)
    for i in range(2):
        for j in range(2):
            assert abs(got[i][j] - exact[i, j]) <= 2e-15 * abs(exact[i, j]), (i, j)


def test_closed_form_angle_jacobian_is_infinite_when_bending_free():
    assert lm._closed_form_angle_jacobian(8.0, 8.0) == ((-math.inf,) * 2,) * 2


SWITCH = lm.CLOSED_FORM_LENGTH


def _no_roof(monkeypatch):
    """Make every roof entry, and every pleating root, that lengthmap, cli
    or plaques binds raise."""
    def roof(*args, **kw):
        raise AssertionError("measured on the roof")

    for module, names in ((lm, ("bending_angle", "certify_batch", "pleating_candidates")),
                          (cli, ("certify", "certify_batch", "pleating_candidates")),
                          (plaques, ("bending_angle", "certify_batch", "_certify_arrays",
                                     "_roof_batch", "_side_batch"))):
        for name in names:
            monkeypatch.setattr(module, name, roof)


@pytest.mark.parametrize(
    "length",
    [0.0, 1e-20, 1e-15, 3e-15, 1e-13, math.nextafter(SWITCH, 0.0), SWITCH, 1e-11, 1e-6],
)
def test_measure_structure_at_tiny_lengths(length, monkeypatch):
    """No curve is measured on the roof, which raised ZeroMultiplier or
    CoincidentPoints below ~5e-15 (the lengths straddle CLOSED_FORM_LENGTH,
    where Newton's roof residual switches to the closed form).  Both
    angles match the closed-form oracle to 1e-14, in either slot and with
    both curves tiny."""
    _no_roof(monkeypatch)
    for lengths in ((length, 1.0), (1.0, length), (length, length)):
        _, _, thetas = lm.measure_structure(*lengths)
        assert abs(thetas[0] - oracle.closed_form_angle(*lengths)) <= 1e-14
        assert abs(thetas[1] - oracle.closed_form_angle(*lengths[::-1])) <= 1e-14


def test_measuring_enters_no_roof(monkeypatch):
    """measure_structure and measure_structures call no bending_angle,
    certify_batch or roof helper, on interior, cusp, tiny, long and
    bending-free rows, and agree with each other to 1e-15."""
    rows = [(1.0, 1.2), (0.0, 0.0), (1e-13, 1.0), (0.05, 30.0), (2.0, 8.0), (-0.7, 1.5)]
    _no_roof(monkeypatch)
    coords, lengths, thetas = lm.measure_structures(*np.transpose(rows))
    for i, row in enumerate(rows):
        t, want_lengths, want_thetas = lm.measure_structure(*row)
        assert tuple(lengths[:, i]) == want_lengths
        assert np.max(np.abs(thetas[:, i] - want_thetas)) <= 1e-15, row
        for got, value in zip(coords[:, i], t.astuple()):
            assert abs(got - value) <= 1e-15 * abs(value), row


# Interior, cusp-end, negative-quadrant and long-curve segments.
NO_ROOF_SEGMENTS = [((2.1, 2.1), (2.5, 2.4)), ((2.0, 2.2), (2.6, 2.3)), ((2.2, 2.2), (2.0, 2.0)),
                    ((-2.1, 2.1), (-2.5, 2.4)), ((-2.1, -2.1), (-2.5, -2.4)),
                    ((2.0000001, 100.0), (2.0000001, 1000.0))]


def test_volumes_enter_no_roof(monkeypatch):
    """schlafli_volumes and pleatlab volume call no bending_angle,
    certify_batch, pleating_candidates or roof helper.  A segment in a
    negative quadrant has the volume of its mirror in the positive one,
    and the command prints the library's result."""
    expected = lm.schlafli_volumes(NO_ROOF_SEGMENTS)
    _no_roof(monkeypatch)
    results = lm.schlafli_volumes(NO_ROOF_SEGMENTS)
    assert np.array_equal(results, expected)
    assert results[3] == results[4] == results[0]
    for ends, want in zip(NO_ROOF_SEGMENTS, results.tolist()):
        args = [f"--{name}={x!r},{y!r}" for name, (x, y) in zip(("start", "end"), ends)]
        result = CliRunner().invoke(cli.main, ["volume", *args])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"value": want}


def test_roof_witnesses_the_trace_nodes(monkeypatch):
    """At the segment ends, the only points a volume reads, the angles
    certify_batch measures on the roof agree with the closed-form angles
    the potential is given within suite.ROOF_TOL (measured: 1.8e-15)."""
    placed = []
    potential = lm._schlafli_potential
    monkeypatch.setattr(lm, "_schlafli_potential", lambda half: placed.append(2.0 * half) or potential(half))
    segments = [((2.1, 2.1), (2.5, 2.4)), ((2.3, 2.05), (2.1, 2.5)), ((-2.1, 2.1), (-2.5, 2.4))]
    lm.schlafli_volumes(segments)
    (thetas,) = placed
    xy = np.array(segments).reshape(-1, 2).T
    cert = certify_batch(*xy, pleating_candidates(*xy)[0])
    assert cert.is_convex.all()
    assert np.max(np.abs(np.stack((cert.theta_a, cert.theta_b)) - thetas)) <= ROOF_TOL


@pytest.mark.parametrize("p", [0.9, 0.5])
def test_measure_structures_next_to_a_long_curve(p):
    """A short curve opposite a long one, at P = sinh(l_a/2) sinh(l_b/2):
    both angles match the 60-digit closed form to 1e-13 relative, where
    the roof was off by up to 2.7 relative and raised at (0.5, 39)."""
    l_b = np.array([15.0, 20.0, 25.0, 30.0, 35.0, 39.0])
    l_a = 2.0 * np.arcsinh(p / np.sinh(l_b / 2.0))
    _, _, thetas = lm.measure_structures(l_a, l_b)
    for k, (a, b) in enumerate(zip(l_a.tolist(), l_b.tolist())):
        wants = oracle.closed_form_angle(a, b), oracle.closed_form_angle(b, a)
        for theta, want in zip(thetas[:, k], wants):
            assert abs(theta - want) <= 1e-13 * want, (p, b)


# Lengths log-uniform over [1e-6, 40], of either sign.
_LENGTH = st.builds(
    lambda e, sign: sign * math.exp(e),
    st.floats(math.log(1e-6), math.log(40.0)),
    st.sampled_from((-1.0, 1.0)),
)
# Largest angle gap between measure_structures' rows and the scalar
# measure_structure, the same closed form in numpy and in math; measured
# worst 3.6e-14 over 20,000 rows placed at the explicit lengths of angles
# uniform in (1e-3, pi - 1e-6) (both near flat, where 1 - P loses digits),
# and 8.3e-15 over 40,000 rows drawn as _LENGTH draws them.
TWIN_ANGLE_TOL = 2e-13


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_LENGTH, _LENGTH), min_size=1, max_size=6))
def test_measure_structures_answer_like_measure_structure(rows):
    """Every row agrees with the scalar to TWIN_ANGLE_TOL in its angles and
    to 1e-14 relative in its coordinates, with no call of the scalar, or
    the call raises the scalar's error."""
    scalar = []
    for row in rows:
        try:
            scalar.append(lm.measure_structure(*row))
        except PleatlabError as exc:
            scalar.append(exc)
    with mock.patch.object(lm, "measure_structure", wraps=lm.measure_structure) as spy:
        try:
            coords, lengths, thetas = lm.measure_structures(*np.transpose(rows))
        except PleatlabError as exc:
            raised = next(r for r in scalar if isinstance(r, PleatlabError))
            assert type(exc) is type(raised)
            return
    assert spy.call_count == 0
    for i, (row, want) in enumerate(zip(rows, scalar)):
        assert not isinstance(want, PleatlabError), row
        t, want_lengths, want_thetas = want
        assert tuple(lengths[:, i]) == want_lengths
        assert np.max(np.abs(thetas[:, i] - want_thetas)) <= TWIN_ANGLE_TOL, row
        for got, value in zip(coords[:, i], t.astuple()):
            assert abs(got - value) <= 1e-14 * max(1.0, abs(value)), row


def test_measure_structures_measure_in_one_pass(monkeypatch):
    """Every row is measured by the array expressions, with no roof pass
    and no call of the scalar measure_structure; the cusp, a tiny length
    and a bending-free pair answer pi, the closed form and 0."""
    scalar = []
    single = lm.measure_structure
    monkeypatch.setattr(lm, "measure_structure", lambda *a: scalar.append(a) or single(*a))
    _no_roof(monkeypatch)
    l_a = [1.0, 0.0, 0.7, 1e-13, 2.0, 0.4]
    l_b = [1.2, 0.0, 1.5, 1.0, 8.0, 2.2]
    _, _, thetas = lm.measure_structures(l_a, l_b)
    assert scalar == []
    assert thetas[:, 1].tolist() == [math.pi, math.pi]
    assert abs(thetas[0, 3] - oracle.closed_form_angle(1e-13, 1.0)) <= 1e-14
    assert thetas[:, 4].tolist() == [0.0, 0.0]


def test_solve_reaches_a_tiny_length_target():
    """The roof, on which Newton solves, hits the angle target exactly;
    the returned angles are the closed form's, within 1e-14 of the
    oracle."""
    res = lm.solve_targets({"a": ("length", 3e-15), "b": ("angle", 2.0)})
    assert res.lengths[0] == 3e-15 and bending_angle(pair_from_lengths(*res.lengths), "b") == 2.0
    assert abs(res.thetas[0] - oracle.closed_form_angle(*res.lengths)) <= 1e-14
    assert abs(res.thetas[1] - oracle.closed_form_angle(*res.lengths[::-1])) <= 1e-14


@pytest.mark.parametrize(
    "targets",
    [{"a": ("length", 3e-15), "b": ("length", 1.0)},
     {"a": ("angle", 3.14159265358979), "b": ("length", 1e-14)}],
    ids=["tiny-length", "near-cusp-angle"],
)
def test_solve_hits_targets_next_to_the_cusp_exactly(targets):
    """An exact length row takes a tiny length target to round-off: a
    difference Jacobian left 1.9e-10 for the length 3e-15 and a residual
    of 5.1e-11 for the angle within 4e-15 of pi."""
    res = lm.solve_targets(targets)
    for (kind, value), length, theta in zip(targets.values(), res.lengths, res.thetas):
        assert abs((theta if kind == "angle" else length) - value) <= 1e-15
    assert res.residual <= 1e-15


# The hard bands of the robustness sweep: angles near the flat boundary
# and next to the cusp, and tiny lengths.
HARD_ANGLES = [float(v) for v in (*np.geomspace(1e-3, 0.2, 4), *(math.pi - np.geomspace(1e-4, 1e-12, 4)))]
HARD_LENGTHS = [float(v) for v in np.geomspace(1e-6, 0.1, 4)]
NEWTON_SEEDS = ((1.0, 1.0), (0.6, 1.8), (2.2, 0.9))


def test_solve_is_robust_over_the_hard_bands():
    """Every angle-angle, length-angle and angle-length pair of the hard
    bands solves from each of check_newton's seeds, and the measured
    structure misses no target by more than 1e-11 (6.2e-10 with a
    difference Jacobian)."""
    targets = [(("angle", a), ("angle", b)) for a in HARD_ANGLES for b in HARD_ANGLES]
    targets += [(("length", v), ("angle", a)) for v in HARD_LENGTHS for a in HARD_ANGLES]
    targets += [(("angle", a), ("length", v)) for a in HARD_ANGLES for v in HARD_LENGTHS]
    worst = 0.0
    for pair in targets:
        for seed in NEWTON_SEEDS:
            res = lm.solve_targets(dict(zip("ab", pair)), seed=seed)
            for (kind, value), length, theta in zip(pair, res.lengths, res.thetas):
                worst = max(worst, abs((theta if kind == "angle" else length) - value))
    assert worst <= 1e-11


def test_solve_rejects_bad_targets():
    with pytest.raises(TargetOutsideImage):
        lm.solve_targets(_angles(4.0, 2.0))
    with pytest.raises(TargetOutsideImage):
        lm.solve_targets({"a": ("length", -1.0), "b": ("length", 1.0)})


def test_newton_divergence_reported(monkeypatch):
    residual = lm._target_residual({"a": ("angle", 2.0), "b": ("angle", 2.0)})
    with monkeypatch.context() as patch:
        patch.setattr(lm, "NEWTON_MAX_ITER", 0)
        with pytest.raises(NewtonDivergence, match="no convergence after 0 iterations"):
            lm._newton2(residual, (1.0, 1.0))
    # (8, 8) is bending-free: every angle is 0 there, so the residual is
    # undefined rather than flat.
    with pytest.raises(NewtonDivergence, match="residual undefined at the seed"):
        lm._newton2(residual, (8.0, 8.0))


@pytest.mark.parametrize("k", range(4, 13))
def test_solve_near_the_cusp_keeps_the_length(k):
    """Near the cusp the a-length is (pi - theta_a) / 7.7140172 to first
    order at theta_b = 0.26; an angle snapped to pi loses it."""
    res = lm.solve_targets(_angles(math.pi - 10.0**-k, 0.26))
    expected = 10.0**-k / 7.7140172
    assert abs(res.lengths[0] - expected) <= 1e-3 * expected


def test_solve_for_angles_matches_the_explicit_inverse():
    """On the marked cusped locus cos(theta_a / 2) = tanh(l_a / 2)
    cosh(l_b / 2), which inverts to cosh(l_a / 2) = sqrt(1 - A^2 B^2) /
    sin(theta_a / 2) with A = cos(theta_a / 2), B = cos(theta_b / 2)."""
    rng = np.random.default_rng(14)
    for theta_a, theta_b in rng.uniform(0.2, 3.0, size=(60, 2)).tolist():
        res = lm.solve_targets(_angles(theta_a, theta_b))
        ab = math.cos(theta_a / 2.0) * math.cos(theta_b / 2.0)
        for length, theta in zip(res.lengths, (theta_a, theta_b)):
            expected = 2.0 * math.acosh(math.sqrt(1.0 - ab * ab) / math.sin(theta / 2.0))
            assert abs(length - expected) <= 1e-11 * expected


def test_newton_direct_solve_crosses_moderate_angles():
    """From (1, 1) the direct solve toward (0.504, 1.256) once met an
    exactly flat residual in both probes (a singular Jacobian)."""
    residual = lm._target_residual({"a": ("angle", 0.504), "b": ("angle", 1.256)})
    u, _, norm = lm._newton2(residual, (1.0, 1.0))
    assert norm <= lm.NEWTON_TOL
    assert max(abs(r) for r in residual(u)[0]) <= lm.NEWTON_TOL


@pytest.mark.parametrize(
    "targets",
    [_angles(2.0, 2.4), {"a": ("length", 1.1), "b": ("angle", 2.2)},
     {"a": ("angle", 0.7), "b": ("length", 0.4)}, _angles(0.3, 2.9)],
    ids=["angles", "length-angle", "angle-length", "skewed"],
)
def test_newton_root_is_set_by_the_measured_residual(targets, monkeypatch):
    """The angle Jacobian's rows scaled by 1.3 (curve a) and 1.25 (curve
    b) only slow the iteration: it still stops where the measured angles
    hit their targets.  The mis-scaled steps converge linearly, so the
    stopping rule is tightened to 1e-13 to run them to round-off."""
    reference = lm.solve_targets(targets).lengths
    jacobian = lm._closed_form_angle_jacobian
    monkeypatch.setattr(lm, "_closed_form_angle_jacobian", lambda *lengths: tuple(
        tuple(scale * v for v in row) for scale, row in zip((1.3, 1.25), jacobian(*lengths))
    ))
    monkeypatch.setattr(lm, "NEWTON_TOL", 1e-13)
    res = lm.solve_targets(targets)
    assert res.iterations > 10
    assert max(abs(u - v) for u, v in zip(res.lengths, reference)) <= 1e-12


@pytest.mark.parametrize(
    "targets, structures",
    [(_angles(2.0, 2.0), 5), (_angles(2.0, 2.4), 6),
     ({"a": ("length", 1.1), "b": ("angle", 2.2)}, 5),
     ({"a": ("length", 1.3), "b": ("length", 0.9)}, 0)],
    ids=["equal-angles", "angles", "mixed", "lengths"],
)
def test_solve_measures_one_residual_per_iteration(targets, structures, monkeypatch):
    """With no halved step a solve measures at most iterations + 2
    structures on the roof: the seed, one candidate per iteration and the
    chord step; the final measurement is the closed form's, and a
    length-length solve measures none.  (2.0, 2.0) from (1, 1) measures
    5; a difference Jacobian built 12 structures."""
    measured = []

    def counting(pair, curve):
        if not any(pair is seen for seen in measured):
            measured.append(pair)
        return angle(pair, curve)

    angle = lm.bending_angle
    monkeypatch.setattr(lm, "bending_angle", counting)
    res = lm.solve_targets(targets)
    assert len(measured) == structures <= res.iterations + 2


def test_newton2_converges_on_linear_system():
    def residual(u):
        return (2.0 * u[0] + u[1] - 3.0, u[0] - 4.0 * u[1] + 3.0), (2.0, 1.0, 1.0, -4.0)

    (u0, u1), iterations, norm = lm._newton2(residual, (5.0, -2.0))
    assert abs(u0 - 1.0) < 1e-12 and abs(u1 - 1.0) < 1e-12
    assert 1 <= iterations <= 2
    assert norm <= lm.NEWTON_TOL


def test_solve2_pivots_on_small_leading_entry():
    """Without the row swap, elimination by 1e-20 would give s0 = 0."""
    s0, s1 = lm._solve2(1e-20, 1.0, 1.0, 1.0, 1.0, 2.0)
    assert abs(s0 - 1.0) < 1e-15 and abs(s1 - 1.0) < 1e-15


def test_solve2_matches_numpy_solve():
    rng = np.random.default_rng(0)
    for _ in range(500):
        jac = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3, size=(2, 2))
        r = rng.normal(size=2)
        ref = np.linalg.solve(jac, r)
        got = np.array(lm._solve2(jac[0, 0], jac[0, 1], jac[1, 0], jac[1, 1], r[0], r[1]))
        bound = 1e-14 * np.linalg.cond(jac) * np.linalg.norm(ref)
        assert np.linalg.norm(got - ref) <= bound


@pytest.mark.parametrize(
    "residual",
    [
        lambda u: ((u[0] - 1.0, 2.0 * u[0] - 1.0), (1.0, 0.0, 2.0, 0.0)),  # no dependence on u[1]
        lambda u: ((3.0, 4.0), (0.0, 0.0, 0.0, 0.0)),  # zero Jacobian
    ],
    ids=["rank-one", "zero"],
)
def test_newton2_singular_jacobian_raises(residual):
    with pytest.raises(NewtonDivergence, match="singular Jacobian"):
        lm._newton2(residual, (0.5, 0.5))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_newton2_non_finite_seed_residual_raises(value):
    with pytest.raises(NewtonDivergence, match="undefined at the seed"):
        lm._newton2(lambda u: ((value, 0.0), (1.0, 0.0, 0.0, 1.0)), (0.5, 0.5))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_newton2_probes_stay_on_the_iterate_side(sign):
    """Near u = 0, where length residuals fold over, no evaluation crosses
    to the other sign of either unknown, given the slope on the iterate's
    side."""
    seen = []

    def residual(u):
        seen.append(u)
        slopes = (1e4 * math.copysign(1.0, u[0]), 1e4 * math.copysign(1.0, u[1]))
        return (1e4 * (abs(u[0]) - 3e-7), 1e4 * (abs(u[1]) - 2e-7)), (slopes[0], 0.0, 0.0, slopes[1])

    u, iterations, norm = lm._newton2(residual, (sign * 1e-7, sign * 1e-7))
    assert all(sign * ua > 0.0 and sign * ub > 0.0 for ua, ub in seen)
    assert iterations == 1 and norm <= lm.NEWTON_TOL
    assert abs(u[0] - sign * 3e-7) < 1e-15 and abs(u[1] - sign * 2e-7) < 1e-15


def test_newton2_chord_step_never_raises_the_norm():
    """Once converged, every further residual is made worse: the chord step
    is then dropped and the converged iterate returned as it was."""
    converged = []

    def residual(u):
        jac = (math.cosh(u[0]), -0.1, 0.0, 3.0 * u[1] ** 2 + 1.0)
        if converged:
            return (1e-3, 1e-3), jac
        r = (math.sinh(u[0]) - 0.5 - 0.1 * u[1], u[1] ** 3 + u[1] - 2.0)
        if max(abs(r[0]), abs(r[1])) <= lm.NEWTON_TOL:
            converged.append((u, max(abs(r[0]), abs(r[1]))))
        return r, jac

    u, _, norm = lm._newton2(residual, (0.3, 0.7))
    assert (u, norm) == converged[0]


@pytest.mark.parametrize("seed_offset", [0, 591157])
def test_newton_criterion_seed_spread_at_round_off(seed_offset):
    """Polished solves agree across starting seeds to round-off; at offset
    591157 the spread of unpolished solves exceeded the 1e-8 gate."""
    record = run_suite(["newton"], seed_offset=seed_offset)[0]
    assert record["passed"], record["details"]
    assert record["details"]["worst_seed_spread"] < 1e-12


def test_dl_dphi_symmetric_positive_definite():
    rep = lm.dl_dphi(np.array([2.1]), np.array([2.3]))
    (m,), (eigenvalues,), (miss,) = rep["matrix"], rep["eigenvalues"], rep["miss"]
    assert rep["symmetry_residual"][0] == 0.0
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 0.25) <= 1e-15
    assert abs(eigenvalues[0] - DLDPHI_EIGS_21_23[0]) < 1e-5
    assert abs(eigenvalues[1] - DLDPHI_EIGS_21_23[1]) < 1e-5
    assert eigenvalues[0] > 0.0
    assert m[0, 0] > 0.0 and m[1, 1] > 0.0
    # lengths fall as cone angles grow: off-diagonal coupling is negative
    assert m[0, 1] < 0.0
    # the base point is the explicit placement, measured
    assert tuple(rep["lengths"][:, 0]) == lm.explicit_lengths(_angles(2.1, 2.3))
    thetas = rep["thetas"][:, 0]
    assert miss == max(abs(thetas[0] - 2.1), abs(thetas[1] - 2.3))
    assert miss <= 1e-13


@pytest.mark.parametrize("thetas", [(2.1, 0.005), (math.pi, 2.0), (3.0, 1e-8), (1e-6, 2.0)],
                         ids=["near-flat", "cusp", "long-b", "long-a"])
def test_dl_dphi_near_the_boundary_matches_the_oracle(thetas):
    """Next to an angle 0, where a curve is long, and at the angle pi,
    where it has length 0, dl_dphi is (-2 J)^-1 of the 60-digit angle
    Jacobian J at its base lengths, entry by entry within 2e-15 relative
    (a zero entry exactly), with determinant 1/4 within 1e-15 (measured:
    2.5e-16 and 0)."""
    rep = lm.dl_dphi(*np.transpose([thetas]))
    (m,) = rep["matrix"]
    jacobian, _ = oracle.angle_jacobian(*rep["lengths"][:, 0])
    exact = (-2 * jacobian) ** -1
    for i in range(2):
        for j in range(2):
            assert abs(m[i, j] - exact[i, j]) <= 2e-15 * abs(exact[i, j]), (i, j)
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 0.25) <= 1e-15
    assert rep["miss"][0] <= 1e-15


def test_dl_dphi_of_a_bending_free_placement_is_refused():
    """Two angles 1e-8 place lengths that round to a bending-free
    structure, where the closed form is infinite: the array is refused,
    naming that pair."""
    with pytest.raises(CoordinateDegeneracy, match=r"^bending angles \(1e-08, 1e-08\) place"):
        lm.dl_dphi(np.array([2.1, 1e-8]), np.array([2.3, 1e-8]))


def _dl_dphi_of_solves(theta_a, theta_b, h):
    """d(lengths)/d(cone angles) as a central difference of four solves."""
    base = lm.solve_targets(_angles(theta_a, theta_b))
    cols = []
    for j in range(2):
        up, dn = [theta_a, theta_b], [theta_a, theta_b]
        up[j] += h
        dn[j] -= h
        l_up, l_dn = (
            lm.solve_targets(_angles(a, b), seed=base.lengths).lengths
            for a, b in (up, dn)
        )
        cols.append([(l_up[i] - l_dn[i]) / (-4.0 * h) for i in range(2)])
    return np.array(cols).T


@pytest.mark.parametrize("thetas", [(2.1, 2.3), (1.2, 2.7), (0.3, 0.22)],
                         ids=["interior", "skewed", "near-flat"])
def test_dl_dphi_matches_richardson_reference(thetas):
    """The implicit derivative agrees with the Richardson extrapolation of
    the difference of solves at h = 1e-3 and 5e-4."""
    h = 1e-3
    reference = (4.0 * _dl_dphi_of_solves(*thetas, h / 2.0) - _dl_dphi_of_solves(*thetas, h)) / 3.0
    (got,) = lm.dl_dphi(*np.transpose([thetas]))["matrix"]
    assert np.max(np.abs(got - reference)) <= 1e-7 * np.max(np.abs(reference))


def _concavity(theta_start, theta_end, samples):
    (path,) = lm.continuations([(theta_start, theta_end, samples)])
    return lm.concavity_report(path)


def _continuation(theta_start, theta_end, samples):
    return lm.continuations([(theta_start, theta_end, samples)])


@pytest.mark.parametrize(
    "probe,ends",
    [
        (_continuation, ((1.8, 2.0), (2.6, 2.3))),
        (_continuation, ((2.0, 2.2), (math.pi, math.pi))),
        (_concavity, ((1.8, 2.0), (2.6, 2.3))),
    ],
    ids=["continuation", "ray", "concavity"],
)
@pytest.mark.parametrize("sizes", [dict(samples=0), dict(samples=-3)], ids=str)
def test_path_probes_reject_bad_sizes_before_solving(probe, ends, sizes, monkeypatch):
    calls = []
    monkeypatch.setattr(lm, "explicit_lengths", lambda *a, **kw: calls.append(a))
    with pytest.raises(PleatlabError, match="need at least"):
        probe(*ends, **sizes)
    assert calls == []


@pytest.mark.parametrize("start,samples", [((0.3, 0.25), 10), ((1.0, 2.5), 3)])
def test_continuation_rows_sit_at_their_samples(start, samples):
    """Sample k sits at s = k / samples, on its target angles up to its
    miss, and the cusp sample reads exactly pi with lengths 0."""
    (path,) = lm.continuations([(start, (math.pi, math.pi), samples)])
    assert path.s.tolist() == [k / samples for k in range(samples + 1)]
    target = (1 - path.s) * np.array(start)[:, None] + path.s * math.pi
    assert np.array_equal(np.abs(path.thetas - target).max(axis=0), path.miss)
    assert path.miss.max() <= 1e-13
    assert path.thetas[:, -1].tolist() == [math.pi, math.pi]
    assert path.lengths[:, -1].tolist() == [0.0, 0.0]


def test_volume_between_frozen():
    assert abs(_segment_volume((2.1, 2.1), (2.5, 2.4)) - VOLUME_21_TO_2524) < 1e-13


def test_volume_path_independence():
    t0, t1, tw = (2.1, 2.1), (2.5, 2.4), (2.45, 2.15)
    dogleg = _segment_volume(t0, tw) + _segment_volume(tw, t1)
    assert abs(_segment_volume(t0, t1) - dogleg) < 1e-13


def _no_end_read(monkeypatch):
    """Make reading the potential at any end raise."""
    def no_work(*args, **kw):
        raise AssertionError("an end was read")

    monkeypatch.setattr(lm, "_schlafli_potential", no_work)


def test_volume_rejects_uncertified_path(monkeypatch):
    """A segment with an end in |x| < 2 or |y| < 2, where no structure is
    convex, raises before any end is read, naming the segment."""
    _no_end_read(monkeypatch)
    for end in ((1.6, 2.4), (2.4, 1.9), (-1.9, 2.4), (2.4, -1.99)):
        start = tuple(-2.1 if v < 0.0 else 2.1 for v in end)
        with pytest.raises(UncertifiedPathPoint, match=re.escape(
                f"path from {start} to {end} crosses |x| < 2 or |y| < 2")):
            lm.schlafli_volumes([(start, end)])


def test_schlafli_volumes_match_one_path_calls():
    """Batched segments, interior, cusp-end, bending-free and mirrored,
    give the one-segment results bit for bit, and no segments no
    volumes."""
    segments = [((2.1, 2.1), (2.5, 2.4)), ((2.0, 2.2), (2.6, 2.3)), ((2.2, 2.2), (2.0, 2.0)),
                ((2.5, 2.5), (1e10, 1e10)), ((-2.1, -2.1), (-2.5, -2.4)), ((2.19, 4.88), (5.63, 5.24))]
    results = lm.schlafli_volumes(segments)
    assert results.tolist() == [_segment_volume(*segment) for segment in segments]
    assert lm.schlafli_volumes([]).shape == (0,)


def test_schlafli_volumes_name_first_bad_segment_in_path_order(monkeypatch):
    """Of several bad segments, the first in order is named, before any
    end of a good one before it is read."""
    _no_end_read(monkeypatch)
    good = ((2.1, 2.1), (2.5, 2.4))
    first = ((2.1, 2.1), (1.9, 2.2))
    later = ((1.8, 2.0), (2.4, 2.4))
    with pytest.raises(UncertifiedPathPoint, match=re.escape("path from (2.1, 2.1) to (1.9, 2.2) ")):
        lm.schlafli_volumes([good, first, later])
    with pytest.raises(UncertifiedPathPoint, match=re.escape("path from (1.8, 2.0) to (2.4, 2.4) ")):
        lm.schlafli_volumes([good, later, first])


def test_schlafli_volumes_refuse_an_end_beyond_the_float_range(monkeypatch):
    """An end whose length leaves the float range raises before any end is
    read, naming the segment and that end; an end at 1e150 still has a
    finite volume."""
    _no_end_read(monkeypatch)
    for end in ((1e160, 2.0), (2.0, -1e160)):
        start = (2.0, math.copysign(2.0, end[1]))
        with pytest.raises(NumericalOverflow, match=re.escape(
                f"path from {start} to {end}: the length at (x, y) = {end} leaves")):
            lm.schlafli_volumes([(start, end)])
    monkeypatch.undo()
    assert math.isfinite(_segment_volume((1e150, 2.0), (2.0, 2.0)))


def test_schlafli_volumes_refuse_a_segment_across_a_zero_trace(monkeypatch):
    """A segment whose x (or y) ends differ in sign crosses |x| < 2, though
    both its ends lie outside, as from x = -50 to 50; it raises before any
    end is read."""
    _no_end_read(monkeypatch)
    for crossing in (((-50.0, 2.2), (50.0, 2.2)), ((2.2, 2.3), (2.4, -2.2))):
        with pytest.raises(UncertifiedPathPoint, match=r"crosses \|x\| < 2 or \|y\| < 2"):
            lm.schlafli_volumes([((2.1, 2.1), (2.5, 2.4)), crossing])


@pytest.mark.parametrize("start,end", [((1.8, 2.0), (2.6, 2.3)), ((2.0, 2.2), (math.pi, math.pi))],
                         ids=["interior", "ray"])
def test_continuation_volumes_match_per_node_reference(start, end):
    """The volume at every sample is 4 (W_k - W_0) of one-point potential
    calls at the sample's target angles, and matches the trace-chart
    volumes between the measured samples to 1e-14."""
    (path,) = lm.continuations([(start, end, 4)])
    targets = [[(1 - k / 4) * a + k / 4 * b for a, b in zip(start, end)] for k in range(5)]
    potentials = [lm._schlafli_potential(np.array(t)[:, None] / 2.0) for t in targets]
    assert path.volume.tolist() == [4.0 * float(lm._potential_gain(potentials[0], w)[0]) for w in potentials]
    traced = [_segment_volume(*(tuple(path.coords[:2, j].real) for j in (k - 1, k)))
              for k in range(1, path.s.size)]
    assert np.max(np.abs(path.volume - np.cumsum([0.0, *traced]))) <= 1e-14


def test_continuations_batch_gives_the_one_path_columns():
    """Batched angle paths give the columns of separate continuations."""
    angle_paths = [((1.8, 2.0), (2.6, 2.3), 4), ((2.0, 2.2), (math.pi, math.pi), 3),
                   ((1.0, 1.2), (math.pi, math.pi), 400)]
    paths = lm.continuations(angle_paths)
    assert len(paths) == len(angle_paths)
    for got, path in zip(paths, angle_paths):
        _assert_same_path(got, lm.continuations([path])[0])
    assert lm.continuations([]) == []


def test_continuations_measure_every_sample_in_one_batch(monkeypatch):
    """One continuations call measures the samples of all its angle paths
    with one measure_structures call, the two cusp samples included, and
    calls the scalar measure_structure for none.  The samples take their
    lengths from one call of the angle-angle inverse, their volumes from
    one potential call, and nothing is certified."""
    batches, scalar, placed, potentials = [], [], [], []
    batch, single, place, potential = (lm.measure_structures, lm.measure_structure, lm._angle_sinh,
                                       lm._schlafli_potential)
    monkeypatch.setattr(lm, "measure_structures", lambda *a: batches.append(len(a[0])) or batch(*a))
    monkeypatch.setattr(lm, "measure_structure", lambda *a: scalar.append(a) or single(*a))
    monkeypatch.setattr(lm, "_angle_sinh", lambda t: placed.append(t[0].size) or place(t))
    monkeypatch.setattr(lm, "_schlafli_potential", lambda h: potentials.append(h[0].size) or potential(h))

    def no_certification(*args, **kw):
        raise AssertionError("continuations certified a sample")

    for name in ("certify_batch", "pleating_candidates"):
        monkeypatch.setattr(lm, name, no_certification)
    angle_paths = [((1.8, 2.0), (2.6, 2.3), 4), ((2.0, 2.2), (math.pi, math.pi), 3),
                   ((0.5, 2.9), (math.pi, math.pi), 7)]
    lm.continuations(angle_paths)
    assert batches == placed == potentials == [5 + 4 + 8]
    assert scalar == []


ORACLE_PATHS = {
    "ray": ((2.0, 2.2), (math.pi, math.pi)),
    "interior": ((1.8, 2.0), (2.6, 2.3)),
    "edge-start": ((math.pi, 2.0), (math.pi, math.pi)),
    "flat-3.14159": ((3.14159, 1e-8), (math.pi, math.pi)),
    "flat-2.0": ((2.0, 1e-6), (math.pi, math.pi)),
    "flat-1.0": ((1.0, 1e-3), (math.pi, math.pi)),
}


def _oracle_bound(ends, volume):
    """The pinned distance from the oracle: 2e-15 relative from a start
    next to a flat end (an angle below 0.01, volumes ~7.3), else 1e-14."""
    return 2e-15 * abs(volume) if min(ends[0]) < 0.01 else 1e-14


@pytest.mark.parametrize("ends", ORACLE_PATHS.values(), ids=list(ORACLE_PATHS))
def test_continuations_match_the_angle_path_oracle(ends):
    """At 8 samples the volume lands within :func:`_oracle_bound` of the
    oracle's integral of the same form, with closed-form lengths (measured:
    at most 4.4e-15 absolute, and 1.2e-15 relative from the flat starts,
    whose length grows like -2 log theta).  The edge start keeps curve a at
    the angle pi, where interpolated samples could round past it."""
    volume = oracle.angle_path_volume(*ends)
    (path,) = lm.continuations([(*ends, 8)])
    assert abs(path.volume[-1] - volume) <= _oracle_bound(ends, volume)


@pytest.mark.parametrize("path", [((1e-8, 1e-8), (math.pi, math.pi), 4),
                                  ((2.0, 2.0), (1e-8, 1e-8), 4)], ids=["start", "end"])
def test_continuations_refuse_a_bending_free_sample(path):
    """Two angles 1e-8 place lengths that round to a bending-free
    structure, whose measured angles read 0: the first such sample is
    named, as dl_dphi names it; from 1e-7 the path is measured."""
    with pytest.raises(CoordinateDegeneracy, match=re.escape(
            "bending angles (1e-08, 1e-08) place a structure measured at (0.0, 0.0)")):
        lm.continuations([path])
    (ray,) = lm.continuations([((1e-7, 1e-7), (math.pi, math.pi), 4)])
    assert np.all(ray.thetas > 0.0)


def test_continuations_refuse_an_end_beyond_pi():
    """The clamp at pi mends rounding between a path's ends; an end
    outside (0, pi] is refused as it is."""
    with pytest.raises(TargetOutsideImage, match="^bending-angle target 4.0 outside"):
        lm.continuations([((4.0, 2.0), (math.pi, math.pi), 4)])


@pytest.mark.parametrize(
    "targets,message",
    [({"a": ("angle", [1.0, 4.0, 5.0]), "b": ("angle", 2.0)}, "bending-angle target 4.0 outside"),
     ({"a": ("length", 1.0), "b": ("angle", [2.0, 0.0, -1.0])}, "bending-angle target 0.0 outside"),
     ({"a": ("length", [1.0, -2.0, -3.0]), "b": ("angle", 2.0)}, "length target -2.0 is negative")],
)
def test_targets_outside_the_image_name_the_first_value(targets, message):
    with pytest.raises(TargetOutsideImage, match=f"^{message}"):
        lm.explicit_lengths(targets)


def _dl_dphi_point(rep, k):
    """Base point ``k``'s entries of a :func:`dl_dphi` record."""
    columns = ("coords", "lengths", "thetas")
    return {name: v[:, k] if name in columns else v[k] for name, v in rep.items()}


def test_dl_dphi_batches_give_the_one_point_results(monkeypatch):
    """Every base point is measured in one batch, and each point's record
    is that of a one-point call, bit for bit."""
    batches = []
    batch = lm.measure_structures
    monkeypatch.setattr(lm, "measure_structures", lambda *a: batches.append(len(a[0])) or batch(*a))
    theta_a, theta_b = np.array([2.1, 1.2, 0.3, 2.9]), np.array([2.3, 2.7, 0.22, 1.0])
    rep = lm.dl_dphi(theta_a, theta_b)
    assert batches == [4]
    for k in range(theta_a.size):
        single = _dl_dphi_point(lm.dl_dphi(theta_a[k:k + 1], theta_b[k:k + 1]), 0)
        for name, values in _dl_dphi_point(rep, k).items():
            assert np.array_equal(values, single[name]), name


@pytest.mark.parametrize("ends", list(VOLUME_ORACLE), ids=["interior", "cusp-start"])
def test_schlafli_volumes_match_the_50_digit_oracle(ends):
    """The oracle reproduces its pinned digits, and the closed form lands
    on it to round-off."""
    volume = oracle.trace_path_volume(*ends)
    assert abs(volume - oracle.number(VOLUME_ORACLE[ends])) < 1e-45
    assert abs(_segment_volume(*ends) - volume) < 1e-13


def test_trace_oracle_across_the_bending_free_boundary():
    """From (2.19, 4.88) the segment crosses P = 1 at s = 7.5e-4 and stays
    bending-free (every angle 0) to (5.63, 5.24): the oracle reads a real
    volume there, and the closed form, -2G at the end, lands on it to
    round-off (read: 1.1e-15)."""
    volume = oracle.trace_path_volume(*CROSSING_SEGMENT)
    assert abs(volume - oracle.number(CROSSING_VOLUME)) < 1e-29
    assert abs(_segment_volume(*CROSSING_SEGMENT) - volume) < 1e-14


def test_trace_oracle_along_the_cusp():
    """Along x = 2 curve a stays on the cusp (du = 0, theta_a = pi), and
    the closed form lands on the oracle to round-off."""
    volume = oracle.trace_path_volume(*CUSP_SEGMENT)
    assert abs(volume - oracle.number(CUSP_VOLUME)) < 1e-29
    assert abs(_segment_volume(*CUSP_SEGMENT) - volume) < 1e-14


@pytest.mark.parametrize("x, y0, y1", [(2.00001, 10.0, 200.0), (2.0000001, 100.0, 1000.0),
                                      (2.000000001, 1e3, 2e4), (2.000000000001, 1e6, 1.5e6)])
def test_schlafli_volumes_next_to_a_long_curve(x, y0, y1):
    """Along a long curve b opposite a short curve a the volume lands
    within 1e-14 relative of the 60-digit integral (on the roof the first
    two missed by 2.8e-13 and 3.9e-12, and the last two were refused)."""
    volume = float(oracle.trace_path_volume((x, y0), (x, y1)))
    assert abs(_segment_volume((x, y0), (x, y1)) - volume) <= 1e-14 * abs(volume)


# Segments that run far past the bending-free boundary P = 1, and their
# volumes: the first is the volume to (2 sqrt 2, 2 sqrt 2), beyond which
# every angle is 0; the second spans eight decades in y.
FAR_SEGMENTS = {((2.5, 2.5), (1e10, 1e10)): -4.735789100069645,
                  ((2.0, 2.5), (2.0, 3.75e8)): -6.46878668746901}


@pytest.mark.parametrize("ends", list(FAR_SEGMENTS), ids=["bending-free-end", "eight-decades"])
def test_schlafli_volumes_far_past_the_bending_free_boundary(ends):
    """Both ends' potentials, at 60 digits, give the pinned volume, and
    the library and the volume command land on it to 1e-13 relative."""
    volume = FAR_SEGMENTS[ends]
    _, _, thetas = lm.measure_structures(*(2.0 * np.arccosh(np.array(ends).T / 2.0)))
    exact = 4 * (oracle.schlafli_potential(*thetas[:, 1] / 2.0)[1]
                 - oracle.schlafli_potential(*thetas[:, 0] / 2.0)[1])
    assert abs(exact - volume) <= 1e-14 * abs(volume)
    assert abs(_segment_volume(*ends) - volume) <= 1e-13 * abs(volume)
    args = [f"--{name}={x!r},{y!r}" for name, (x, y) in zip(("start", "end"), ends)]
    result = CliRunner().invoke(cli.main, ["volume", *args])
    assert result.exit_code == 0, result.output
    assert abs(json.loads(result.output)["value"] - volume) <= 1e-13 * abs(volume)


def test_clausen_matches_mpmath():
    """_clausen is within 2e-15 of mpmath.clsin(2, .) over two turns,
    0 and +/-pi included (measured: 1.8e-15, where the series cancels next
    to +/-pi), and its table holds Clausen's coefficients |B_2k| / (2k (2k
    + 1)!) to the last bit.  _clausen_step keeps the relative precision of
    small steps anywhere in [0, pi]."""
    theta = np.concatenate((np.linspace(-7.0, 7.0, 561), [0.0, math.pi, -math.pi, 1e-300]))
    for got, t in zip(lm._clausen(theta).tolist(), theta.tolist()):
        assert abs(got - oracle.clausen(t)) <= 2e-15, t
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * lm.CLAUSEN_SERIES.size + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    assert lm.CLAUSEN_SERIES.tolist() == [
        float(abs(bernoulli[2 * k]) / (2 * k * math.factorial(2 * k + 1)))
        for k in range(1, lm.CLAUSEN_SERIES.size + 1)
    ]
    start, width = np.array([0.0, 1e-9, 0.3, 1.5, 3.0, 0.0]), np.array([1e-12, 1e-7, 2e-13, 0.4, 0.1, 0.0])
    for got, s0, w in zip(lm._clausen_step(start, width).tolist(), start.tolist(), width.tolist()):
        want = oracle.clausen_step(s0, w)
        assert abs(got - want) <= 1e-15 * abs(want), (s0, w)


# Half-angle points of the potential: interior, next to the cusp (a half-
# angle near pi/2), next to the flat corner (0, 0) and on its edges, and
# bending-free.
POTENTIAL_POINTS = {
    "interior": [(0.4, 1.2), (1.1, 0.7), (0.9, 0.9), (1.5, 0.2), (0.05, 1.3)],
    "near-cusp": [(math.pi / 2, math.pi / 2), (math.pi / 2 - 1e-9, 1.0), (math.pi / 2, 0.3),
                  (math.pi / 2 - 1e-6, math.pi / 2 - 1e-7)],
    "near-flat": [(1e-12, 1e-12), (1e-12, 3e-9), (2e-6, 1e-7), (1e-3, 0.5), (0.0, 0.8), (1e-10, 1.5)],
    "bending-free": [(0.0, 0.0)],
}


@pytest.mark.parametrize("points", POTENTIAL_POINTS.values(), ids=list(POTENTIAL_POINTS))
def test_schlafli_potential_matches_the_60_digit_oracle(points):
    """The potential W lands within 1e-15 absolute, and W + 2G within
    1e-14 relative, of the 60-digit integral of its gradient (measured
    over two draws of 330 random points: W within 6.6e-16, next to the
    cusp; W + 2G within 5.1e-15 relative next to (0, 0), where its Clausen
    terms cancel to about a thirtieth, and 5.6e-16 elsewhere); it is 0 at
    the maximal cusp, with W + 2G within an ulp of 2G, -2G at the
    bending-free corner, and symmetric."""
    half = np.array(points).T
    got = lm._schlafli_potential(half)
    assert np.array_equal(got, lm._schlafli_potential(half[::-1]))
    for (excess, value), (a, b) in zip(got.T.tolist(), points):
        want_excess, want = oracle.schlafli_potential(a, b)
        assert abs(value - want) <= 1e-15, (a, b)
        assert abs(excess - want_excess) <= max(1e-14 * abs(want_excess), 1e-40), (a, b)
    excess, value = lm._schlafli_potential(np.array([[math.pi / 2], [math.pi / 2]]))[:, 0].tolist()
    assert value == 0.0 and abs(excess - 2.0 * lm.CATALAN) <= math.ulp(2.0 * lm.CATALAN)
    assert lm._schlafli_potential(np.zeros((2, 1)))[:, 0].tolist() == [0.0, -2.0 * lm.CATALAN]


def test_ray_to_cusp_monotone_and_lands():
    (path,) = lm.continuations([((2.0, 2.2), (math.pi, math.pi), 6)])
    assert np.all(np.diff(path.volume) > 0.0)
    x, _, z = path.coords[:, -1]
    assert abs(x - 2.0) < 1e-8
    assert abs(z - (2.0 + 2.0j)) < 1e-8


def test_concavity_probe():
    probe = _concavity((1.8, 2.0), (2.6, 2.3), 6)
    assert probe["concave"]
    assert np.all(probe["second_differences"] < -probe["margin"])
    assert probe["margin"] == 32.0 * lm.POTENTIAL_ROUNDOFF * 36


def test_cusp_derivative_check():
    rep = lm.cusp_derivative_check()
    assert abs(rep["ratio"]) > 1e-3
    assert rep["ratio"].real < 0.0
    assert rep["hsq_estimate"].real < 0.0
    assert rep["relative_mismatch"] < 1e-3
    assert rep["cusp_preserving_cross"] < 1e-10
    assert abs(rep["meridian_trace"] - 2.0) < 1e-10


def test_cocycle_second_order():
    rep = lm.cocycle_check()
    assert rep["exponent"] > 1.9
    assert rep["constant_residual"] == 0.0
    assert rep["conjugation_residual"] < 1e-3
