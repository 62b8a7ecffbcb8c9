"""Length coordinates, Jacobians, solvers, volume, deformation probes.

Frozen values: the curve length at trace 3 is 2*arccosh(3/2); the
Jacobian determinant at the frozen marked root is purely imaginary with
the magnitude given by the closed form; the cusp solve must land on
(2, 2, 2+2i) exactly within Newton tolerance.
"""

import math
import re

import numpy as np
import pytest

from pleatlab.chartor import coords, pleating_candidates
from pleatlab.errors import (
    CoordinateDegeneracy,
    NewtonDivergence,
    NumericalOverflow,
    PleatlabError,
    TargetOutsideImage,
    UncertifiedPathPoint,
)
from pleatlab import lengthmap as lm
from pleatlab.plaques import certify, certify_batch
from pleatlab.suite import run_suite

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
LENGTH_TRACE_3 = 1.9248473002384139  # 2*arccosh(1.5)
DET_ABS_22 = 18.622883541042167
DLDPHI_EIGS_21_23 = (0.4043158213445197, 0.618328607660773)
VOLUME_21_TO_2524 = -1.8273655396883792


def _marked(x, y):
    z, _ = pleating_candidates(x, y)
    return coords(x, y, z)


def _path(*points):
    """A quadrature path: the (3, n) array of the points' x, y and z."""
    return np.array([t.astuple() for t in points]).T


def test_complex_curve_length_at_trace_3():
    length = lm.complex_curve_length(3.0)
    assert abs(length.real - LENGTH_TRACE_3) < 1e-14
    assert abs(length.imag) < 1e-14


def test_jacobian_closed_form_and_fd():
    rep = lm.holo_length_jacobian(coords(2.2, 2.2, MARKED_ROOT_22))
    assert abs(rep["det"].real) < 1e-12
    assert abs(rep["det"].imag - DET_ABS_22) < 1e-10
    assert rep["fd_residual"] < 1e-6
    m = np.array(rep["matrix"])
    assert abs(np.linalg.det(m) - rep["det"]) < 1e-10


def test_jacobian_degenerate_coordinates_rejected():
    t = coords(2.0 + 1e-9, 2.3, 3.0 + 1.0j)
    with pytest.raises(CoordinateDegeneracy):
        lm.holo_length_jacobian(t)


@pytest.mark.parametrize("t", [_marked(1e160, 2.5), coords(2.2, 2.2, 1e308)],
                         ids=["overflowing-root", "huge-z"])
def test_jacobian_beyond_float_range_raises(t):
    with pytest.raises(NumericalOverflow):
        lm.holo_length_jacobian(t)


def test_jacobian_det_vanishes_at_branch_corner():
    corner = 2.0 * math.sqrt(2.0)
    rep = lm.holo_length_jacobian(_marked(corner - 1e-10, corner - 1e-10))
    assert abs(rep["det"]) < 1e-4


def test_solve_for_lengths_roundtrip():
    res = lm.solve_targets({"a": ("length", 1.3), "b": ("length", 0.9)})
    assert abs(res.lengths[0] - 1.3) < 1e-12
    assert abs(res.lengths[1] - 0.9) < 1e-12
    assert abs(res.coords.x - 2.0 * math.cosh(0.65)) < 1e-12
    assert res.residual < 1e-9


def test_solve_for_angles_interior():
    res = lm.solve_for_angles(2.0, 2.4)
    assert abs(res.thetas[0] - 2.0) < 1e-9
    assert abs(res.thetas[1] - 2.4) < 1e-9


def test_solve_reaches_maximal_cusp():
    res = lm.solve_for_angles(math.pi, math.pi, seed=(1.0, 1.0))
    assert abs(res.coords.x - 2.0) < 1e-8
    assert abs(res.coords.y - 2.0) < 1e-8
    assert abs(res.coords.z - (2.0 + 2.0j)) < 1e-8


def test_solve_mixed_targets():
    res = lm.solve_targets({"a": ("length", 1.1), "b": ("angle", 2.2)})
    assert abs(res.lengths[0] - 1.1) < 1e-9
    assert abs(res.thetas[1] - 2.2) < 1e-9


def test_solve_small_angles_uses_homotopy(monkeypatch):
    """Targets hugging the flat boundary diverge from (1, 1); the solve
    then runs once more from the explicit lengths."""
    runs = []

    def counting(targets):
        runs.append(targets)
        return explicit(targets)

    explicit = lm.explicit_lengths
    monkeypatch.setattr(lm, "explicit_lengths", counting)
    res = lm.solve_for_angles(0.2, 0.03, seed=(1.0, 1.0))
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


def test_lengths_beyond_float_range_raise():
    with pytest.raises(NumericalOverflow):
        lm.measure_structure(2000.0, 1.0)
    with pytest.raises(NumericalOverflow):
        lm.solve_targets({"a": ("length", 2000.0), "b": ("length", 1.0)})


def test_solve_rejects_bad_targets():
    with pytest.raises(TargetOutsideImage):
        lm.solve_for_angles(4.0, 2.0)
    with pytest.raises(TargetOutsideImage):
        lm.solve_targets({"a": ("length", -1.0), "b": ("length", 1.0)})


def test_newton_divergence_reported():
    residual = lm._target_residual({"a": ("angle", 2.0), "b": ("angle", 2.0)})
    with pytest.raises(NewtonDivergence, match="no convergence after 0 iterations"):
        lm._newton2(residual, (1.0, 1.0), max_iter=0)
    # (8, 8) is bending-free: every angle is 0 there, so the residual is
    # undefined rather than flat.
    with pytest.raises(NewtonDivergence, match="residual undefined at the seed"):
        lm._newton2(residual, (8.0, 8.0))


@pytest.mark.parametrize("k", range(4, 13))
def test_solve_near_the_cusp_keeps_the_length(k):
    """Near the cusp the a-length is (pi - theta_a) / 7.7140172 to first
    order at theta_b = 0.26; an angle snapped to pi loses it."""
    res = lm.solve_for_angles(math.pi - 10.0**-k, 0.26, seed=(1.0, 1.0))
    expected = 10.0**-k / 7.7140172
    assert abs(res.lengths[0] - expected) <= 1e-3 * expected


def test_solve_for_angles_matches_the_explicit_inverse():
    """On the marked cusped locus cos(theta_a / 2) = tanh(l_a / 2)
    cosh(l_b / 2), which inverts to cosh(l_a / 2) = sqrt(1 - A^2 B^2) /
    sin(theta_a / 2) with A = cos(theta_a / 2), B = cos(theta_b / 2)."""
    rng = np.random.default_rng(14)
    for theta_a, theta_b in rng.uniform(0.2, 3.0, size=(60, 2)).tolist():
        res = lm.solve_for_angles(theta_a, theta_b)
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
    assert max(abs(r) for r in residual(u)) <= lm.NEWTON_TOL


def test_newton2_converges_on_linear_system():
    def residual(u):
        return (2.0 * u[0] + u[1] - 3.0, u[0] - 4.0 * u[1] + 3.0)

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
        lambda u: (u[0] - 1.0, 2.0 * u[0] - 1.0),  # no dependence on u[1]
        lambda u: (3.0, 4.0),  # zero Jacobian
    ],
    ids=["rank-one", "zero"],
)
def test_newton2_singular_jacobian_raises(residual):
    with pytest.raises(NewtonDivergence, match="singular Jacobian"):
        lm._newton2(residual, (0.5, 0.5))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_newton2_non_finite_seed_residual_raises(value):
    with pytest.raises(NewtonDivergence, match="undefined at the seed"):
        lm._newton2(lambda u: (value, 0.0), (0.5, 0.5))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_newton2_probes_stay_on_the_iterate_side(sign):
    """Near u = 0, where length residuals fold over, no evaluation crosses
    to the other sign of either unknown, and the probes see the true slope."""
    seen = []

    def residual(u):
        seen.append(u)
        return (1e4 * (abs(u[0]) - 3e-7), 1e4 * (abs(u[1]) - 2e-7))

    u, iterations, norm = lm._newton2(residual, (sign * 1e-7, sign * 1e-7))
    assert all(sign * ua > 0.0 and sign * ub > 0.0 for ua, ub in seen)
    assert iterations == 1 and norm <= lm.NEWTON_TOL
    assert abs(u[0] - sign * 3e-7) < 1e-15 and abs(u[1] - sign * 2e-7) < 1e-15


def test_newton2_chord_step_never_raises_the_norm():
    """Once converged, every further residual is made worse: the chord step
    is then dropped and the converged iterate returned as it was."""
    converged = []

    def residual(u):
        if converged:
            return (1e-3, 1e-3)
        r = (math.sinh(u[0]) - 0.5 - 0.1 * u[1], u[1] ** 3 + u[1] - 2.0)
        if max(abs(r[0]), abs(r[1])) <= lm.NEWTON_TOL:
            converged.append((u, max(abs(r[0]), abs(r[1]))))
        return r

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
    rep = lm.dl_dphi(2.1, 2.3)
    assert rep["symmetry_residual"] < 1e-6
    assert abs(rep["eigenvalues"][0] - DLDPHI_EIGS_21_23[0]) < 1e-5
    assert abs(rep["eigenvalues"][1] - DLDPHI_EIGS_21_23[1]) < 1e-5
    assert rep["eigenvalues"][0] > 0.0
    m = rep["matrix"]
    assert m[0, 0] > 0.0 and m[1, 1] > 0.0
    # lengths fall as cone angles grow: off-diagonal coupling is negative
    assert m[0, 1] < 0.0


def test_dl_dphi_near_boundary_rejected():
    with pytest.raises(CoordinateDegeneracy):
        lm.dl_dphi(0.005, 2.0)


def _dl_dphi_of_solves(theta_a, theta_b, h):
    """d(lengths)/d(cone angles) as a central difference of four solves."""
    base = lm.solve_for_angles(theta_a, theta_b)
    cols = []
    for j in range(2):
        up, dn = [theta_a, theta_b], [theta_a, theta_b]
        up[j] += h
        dn[j] -= h
        l_up = lm.solve_for_angles(*up, seed=base.lengths).lengths
        l_dn = lm.solve_for_angles(*dn, seed=base.lengths).lengths
        cols.append([(l_up[i] - l_dn[i]) / (-4.0 * h) for i in range(2)])
    return np.array(cols).T


@pytest.mark.parametrize("thetas", [(2.1, 2.3), (1.2, 2.7), (0.3, 0.22)],
                         ids=["interior", "skewed", "near-flat"])
def test_dl_dphi_matches_richardson_reference(thetas):
    """The implicit derivative agrees with the Richardson extrapolation of
    the difference of solves at h = 1e-3 and 5e-4."""
    h = 1e-3
    reference = (4.0 * _dl_dphi_of_solves(*thetas, h / 2.0) - _dl_dphi_of_solves(*thetas, h)) / 3.0
    got = lm.dl_dphi(*thetas)["matrix"]
    assert np.max(np.abs(got - reference)) <= 1e-7 * np.max(np.abs(reference))


@pytest.mark.parametrize(
    "probe,args",
    [
        (lm.continuation_to_angles, dict(theta_start=(1.8, 2.0), theta_end=(2.6, 2.3))),
        (lm.ray_to_cusp, dict(theta_start=(2.0, 2.2))),
        (lm.concavity_probe, dict(theta_start=(1.8, 2.0), theta_end=(2.6, 2.3))),
    ],
    ids=["continuation", "ray", "concavity"],
)
@pytest.mark.parametrize("sizes", [dict(samples=0), dict(samples=-3), dict(substeps=1),
                                   dict(substeps=0)], ids=str)
def test_path_probes_reject_bad_sizes_before_solving(probe, args, sizes, monkeypatch):
    calls = []
    monkeypatch.setattr(lm, "explicit_lengths", lambda *a, **kw: calls.append(a))
    with pytest.raises(PleatlabError, match="need at least"):
        probe(**args, **sizes)
    assert calls == []


@pytest.mark.parametrize("start,samples", [((0.3, 0.25), 10), ((1.0, 2.5), 3)])
def test_continuation_rows_sit_at_their_samples(start, samples):
    """Row k sits at s = k / samples, on its target angles, and the cusp
    row reads exactly pi with lengths 0."""
    rows = lm.ray_to_cusp(start, samples=samples, substeps=4)
    assert [r["s"] for r in rows] == [k / samples for k in range(samples + 1)]
    for r in rows:
        res = r["result"]
        target = [(1 - r["s"]) * a + r["s"] * math.pi for a in start]
        assert res.iterations == 0
        assert max(abs(got - want) for got, want in zip(res.thetas, target)) == res.residual
        assert res.residual <= 1e-13
    end = rows[-1]["result"]
    assert end.thetas == (math.pi, math.pi) and end.lengths == (0.0, 0.0)


def test_volume_between_frozen():
    res = lm.volume_between(_marked(2.1, 2.1), _marked(2.5, 2.4), nodes=64)
    assert abs(res.value - VOLUME_21_TO_2524) < 1e-4
    assert res.error_estimate < 1e-4


def test_volume_path_independence():
    t0, t1, tw = _marked(2.1, 2.1), _marked(2.5, 2.4), _marked(2.45, 2.15)
    direct = lm.volume_between(t0, t1, nodes=128)
    dogleg = lm.volume_between(t0, tw, nodes=96).value + lm.volume_between(
        tw, t1, nodes=96
    ).value
    assert abs(direct.value - dogleg) < 1e-5


def test_volume_rejects_uncertified_path():
    off_locus = coords(2.2, 2.2, 3.0)  # commutator trace far from -2
    also_off = coords(2.25, 2.25, 3.1)
    path = _path(_marked(2.1, 2.1), off_locus, _marked(2.3, 2.3), also_off, _marked(2.4, 2.4))
    with pytest.raises(UncertifiedPathPoint, match=re.escape(str(off_locus.astuple()))):
        lm.schlafli_volumes([path])[0]


def test_schlafli_volumes_match_one_path_calls(monkeypatch):
    """Batched paths, in runs that fill, cross and exceed the node budget,
    give the one-path results bit for bit."""
    ends = [((2.1, 2.1), (2.5, 2.4)), ((2.1, 2.1), (2.45, 2.15)), ((2.45, 2.15), (2.5, 2.4))]
    paths = [
        lm.coordinate_segment(_marked(*a), _marked(*b), n)
        for (a, b), n in zip(ends * 3, (128, 96, 96) * 3)
    ]
    paths.append(lm.coordinate_segment(_marked(2.0, 2.2), _marked(2.6, 2.3), 1100))
    paths += [lm.coordinate_segment(_marked(2.2, 2.3 - 0.01 * k), _marked(2.4, 2.2), 16)
              for k in range(5)]
    paths.append(lm.coordinate_segment(_marked(2.3, 2.05), _marked(2.1, 2.5), 500))
    paths.append(lm.coordinate_segment(_marked(2.2, 2.2), _marked(2.0, 2.0), 600))
    reference = [lm.schlafli_volumes([path])[0] for path in paths]
    batch_sizes = []

    def counting_batch(x, y, z, **kw):
        batch_sizes.append(len(x))
        return certify_batch(x, y, z, **kw)

    monkeypatch.setattr(lm, "certify_batch", counting_batch)
    results = lm.schlafli_volumes(paths)
    assert batch_sizes == [969, 1101, 5 * 17 + 501, 601]
    assert [(r.value, r.error_estimate, r.nodes) for r in results] == [
        (r.value, r.error_estimate, r.nodes) for r in reference
    ]


def test_schlafli_volumes_name_first_bad_node_in_path_order():
    off_locus = coords(2.2, 2.2, 3.0)
    later = coords(2.25, 2.25, 3.1)
    first = _path(_marked(2.1, 2.1), _marked(2.2, 2.2), _marked(2.3, 2.2), off_locus)
    second = _path(later, _marked(2.3, 2.3), _marked(2.4, 2.4))
    with pytest.raises(UncertifiedPathPoint, match=re.escape(str(off_locus.astuple()))):
        lm.schlafli_volumes([first, second])


def test_continuation_volumes_match_per_segment_reference():
    rows = lm.continuation_to_angles((1.8, 2.0), (2.6, 2.3), samples=4, substeps=6)
    volume = error = 0.0
    for prev, row in zip(rows, rows[1:]):
        seg = lm.volume_between(prev["result"].coords, row["result"].coords, nodes=6)
        volume += seg.value
        error += seg.error_estimate
        assert (row["volume"], row["volume_error"]) == (volume, error)


def _trapezoid(states):
    total = 0.0
    for (l0, p0), (l1, p1) in zip(states, states[1:]):
        for i in range(2):
            total += -0.5 * 0.5 * (l0[i] + l1[i]) * (p1[i] - p0[i])
    return total


def _per_node_volume(path):
    """Schlafli quadrature with scalar certify at every node (the
    reference); the Richardson comparison runs over the even prefix of
    the intervals, with an odd count's last interval added to both sums."""
    states = []
    for node in path.T:
        cert = certify(coords(*node))
        assert cert.is_convex
        lengths = [lm.complex_curve_length(v).real for v in (cert.coords.x, cert.coords.y)]
        phis = [2.0 * (math.pi - theta) for theta in (cert.theta_a, cert.theta_b)]
        states.append((lengths, phis))
    intervals = len(states) - 1
    prefix = states[: intervals - intervals % 2 + 1]
    tail = _trapezoid(states[-2:]) if intervals % 2 else 0.0
    full = _trapezoid(prefix) + tail
    half = _trapezoid(prefix[::2]) + tail
    return _trapezoid(states), abs(full - half) / 3.0


@pytest.mark.parametrize(
    "ends,nodes",
    [(((2.1, 2.1), (2.5, 2.4)), 64), (((2.0, 2.2), (2.4, 2.3)), 8),
     (((2.1, 2.1), (2.5, 2.4)), 33), (((2.3, 2.05), (2.1, 2.5)), 5)],
)
def test_schlafli_volume_matches_per_node_certify(ends, nodes):
    path = lm.coordinate_segment(_marked(*ends[0]), _marked(*ends[1]), nodes)
    res = lm.schlafli_volumes([path])[0]
    value, error = _per_node_volume(path)
    assert res.nodes == nodes + 1
    assert abs(res.value - value) <= 1e-12
    assert abs(res.error_estimate - error) <= 1e-12


def test_coordinate_segment_matches_scalar_roots():
    t0, t1 = _marked(2.0, 2.2), _marked(2.7, 2.05)
    path = lm.coordinate_segment(t0, t1, 16)
    assert path.shape == (3, 17)
    for k, node in enumerate(path.T):
        s = k / 16
        x = (1 - s) * 2.0 + s * 2.7
        y = (1 - s) * 2.2 + s * 2.05
        z, _ = pleating_candidates(x, y)
        for got, want in zip(node, (x, y, z)):
            assert abs(got - want) <= 1e-15 * abs(want)


def test_ray_to_cusp_monotone_and_lands():
    rows = lm.ray_to_cusp((2.0, 2.2), samples=6, substeps=8)
    vols = [r["volume"] for r in rows]
    assert all(b > a for a, b in zip(vols, vols[1:]))
    end = rows[-1]["result"].coords
    assert abs(end.x - 2.0) < 1e-8
    assert abs(end.z - (2.0 + 2.0j)) < 1e-8


def test_concavity_probe():
    probe = lm.concavity_probe((1.8, 2.0), (2.6, 2.3), samples=6, substeps=12)
    assert probe["concave"]
    assert all(v < 0.0 for v in probe["second_differences"])


def test_cusp_derivative_check():
    rep = lm.cusp_derivative_check(2.2, 2.2, h=1e-4)
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
