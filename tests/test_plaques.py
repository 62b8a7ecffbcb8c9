"""Plaque circles, bending angles, convex certification, bending flow.

Angle values are frozen from the roof construction evaluated at the
marked pleating root of (2.2, 2.2) and at a flat seed bent by a known
parameter; the flat and maximal-cusp limits pin the angle range ends.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab import chartor, kernel, moebius, plaques
from pleatlab.chartor import (
    coords,
    marked_roots,
    matrices_from_traces,
    pair_from_lengths,
    pleating_candidates,
)
from pleatlab.errors import NotFuchsian, ParabolicOrIdentity, ReducibleLocus
from pleatlab.moebius import balanced_fixed_points
from pleatlab.plaques import (
    bending_angle,
    certify,
    certify_batch,
    plaque_circle,
    quakebend,
)

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
THETA_22 = 2.189525017467147
# disc-zero seed: x = y = 2*sqrt(2), z = x*y/2 = 4
FLAT_X = 2.0 * math.sqrt(2.0)
# measured second-side angle after bending the flat seed by 0.3
THETA_B_BENT = 0.3034331639087853


def test_certify_marked_root_frozen_angles():
    cert = certify(coords(2.2, 2.2, MARKED_ROOT_22))
    th_a, th_b, th_p = cert.theta
    assert abs(th_a - THETA_22) < 1e-12
    assert abs(th_b - THETA_22) < 1e-12
    assert th_p == math.pi
    assert cert.is_convex
    assert cert.is_piecewise_geodesic
    assert cert.in_pleating_variety
    assert not cert.is_fuchsian_boundary
    assert cert.max_planarity_residual < 1e-12
    assert cert.max_real_trace_residual < 1e-12


def test_certify_conjugate_root_swaps_sides():
    marked = certify(coords(2.2, 2.2, MARKED_ROOT_22))
    mirrored = certify(coords(2.2, 2.2, MARKED_ROOT_22.conjugate()))
    assert abs(marked.theta[0] - mirrored.theta[0]) < 1e-12
    assert abs(marked.theta[1] - mirrored.theta[1]) < 1e-12
    # The sign of Im z says on which side the a-curve bends.
    assert marked.coords.z.imag > 0
    assert mirrored.coords.z.imag < 0


def test_certify_fuchsian_boundary():
    cert = certify(coords(3.0, 3.0, 3.0))
    th_a, th_b, _ = cert.theta
    assert abs(th_a) < 1e-12
    assert abs(th_b) < 1e-12
    assert cert.is_convex
    assert cert.is_fuchsian_boundary
    assert not cert.in_pleating_variety


def test_certify_maximal_cusp():
    cert = certify(coords(2.0, 2.0, 2.0 + 2.0j))
    assert cert.theta == (math.pi, math.pi, math.pi)
    assert cert.is_convex
    assert cert.max_planarity_residual < 1e-12


def test_certify_parabolic_b_edge_mirrors_a_edge():
    """At y = 2 the b-generator's fixed point is infinity, and the a-curve
    angle there equals the b-curve angle on the mirror edge x = 2."""
    edge = certify(coords(2.4, 2.0, pleating_candidates(2.4, 2.0)[0]))
    mirror = certify(coords(2.0, 2.4, pleating_candidates(2.0, 2.4)[0]))
    assert edge.is_convex
    assert edge.in_pleating_variety
    assert edge.theta[1] == math.pi
    assert abs(edge.theta[0] - mirror.theta[1]) < 1e-12


def test_certify_off_locus_not_convex():
    """A planar structure away from the cusped locus is piecewise
    geodesic but cannot be convex (no parabolic puncture)."""
    cert = certify(coords(2.2, 2.2, 3.0))
    assert cert.is_piecewise_geodesic
    assert not cert.is_convex
    assert not cert.in_pleating_variety


def test_bending_angle_planar_structure_is_zero():
    pair = matrices_from_traces(coords(3.0, 3.0, 3.0))
    assert bending_angle(pair, "a") == 0.0
    assert bending_angle(pair, "b") == 0.0


def test_bending_angle_flat_region_is_zero():
    """Real roots beyond the bending locus measure no crease, even at
    points where the roof wedge is degenerate."""
    x, y = 2.675005555491318, 3.128419897854198
    z, _ = pleating_candidates(x, y)
    assert z.imag == 0.0
    pair = matrices_from_traces(coords(x, y, z))
    assert bending_angle(pair, "a") == 0.0


def test_bending_angle_parabolic_rejected():
    pair = matrices_from_traces(coords(2.0, 2.0, 2.0 + 2.0j))
    with pytest.raises(ParabolicOrIdentity):
        bending_angle(pair, "a")


def test_pair_solves_each_generator_axis_once(monkeypatch):
    """Both angles, and certify's plaques and angles, share one pair of
    balanced fixed points per generator."""
    calls = []

    def counting(m):
        calls.append(m)
        return balanced_fixed_points(m)

    for module in (chartor, moebius):
        monkeypatch.setattr(module, "balanced_fixed_points", counting)
    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    assert bending_angle(pair, "a") == bending_angle(pair, "a")
    bending_angle(pair, "b")
    assert calls == [pair.a, pair.b]
    calls.clear()
    assert certify(coords(2.2, 2.2, MARKED_ROOT_22)).is_convex
    assert len(calls) == 2


# (x, y, theta_a, theta_b) of bending_angle at the marked root over (x, y);
# the last structure is real, so it is bending-free.
BENDING_ANGLE_GOLDEN = [
    (2.2, 2.2, 2.189525017467147, 2.1895250174671474),
    (2.1, 2.3, 2.425068298436459, 2.0513799710913947),
    (2.5, 2.5, 1.4454684956268307, 1.445468495626831),
    (2.05, 2.6, 2.562816387902673, 1.7133720742575136),
    (3.0, 2.2, 1.2191493737650188, 1.7915942702058567),
    (2.000001, 2.4, 3.139192653913625, 1.9702209033504605),
    (2.4, 2.0000001, 1.9702215003429946, 3.140833706962219),
    (2.0001, 2.0001, 3.1215920702304993, 3.1215920702304993),
    (2.82, 2.83, 0.13982462616229396, 0.13932974394001674),
    (2.7, 2.9, 0.45620739990225534, 0.4242454655323211),
    (2.001, 20.0, 2.4983414198616165, 0.19012566188088087),
    (2.01, 12.0, 1.8601827589200317, 0.2693746816071605),
    (2.8, 2.01, 1.5813842797224595, 2.8617251723391153),
    (2.02, 2.02, 2.8570851311069125, 2.8570851311069125),
    (2.3, 3.2, 1.3196190935799303, 0.9124661189599728),
    (2.000000001, 3.0, 3.141497785256063, 1.4594553113358986),
    (2.6, 2.9, 0.771544949419877, 0.6882008187027191),
    (5.0, 2.05, 0.6996773566873808, 1.979783187484922),
    (2.25, 2.75, 1.778695043365158, 1.3771819114564394),
    (4.0, 4.0, 0.0, 0.0),
]


@pytest.mark.parametrize("x,y,theta_a,theta_b", BENDING_ANGLE_GOLDEN)
def test_bending_angle_golden(x, y, theta_a, theta_b):
    """The roof arithmetic reproduces frozen angles to 1e-15."""
    pair = matrices_from_traces(coords(x, y, pleating_candidates(x, y)[0]))
    assert abs(bending_angle(pair, "a") - theta_a) <= 1e-15
    assert abs(bending_angle(pair, "b") - theta_b) <= 1e-15


# The roof of bending_angle at 60 digits, on the marked normal form built
# exactly from X = x^2 - 4 and Y = y^2 - 4 (so exactly on the cusped locus).
def _mp_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mp_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def _mp_apply(m, z):
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def _mp_balanced(m):
    a, b, c, d = m
    s = mpmath.sqrt(b * c)
    plus, minus = s / c, -s / c
    return (minus, plus) if abs(c * minus + d) > abs(c * plus + d) else (plus, minus)


def _mp_pair(x, y, big_x, big_y):
    w = mpmath.sqrt(mpmath.mpc(big_x * big_y - 16))
    r = big_y / (2 * (w + mpmath.mpc(0, 4)))
    return {"a": (x / 2, big_x / 2, mpmath.mpf(0.5), x / 2), "b": (y / 2, w - big_x * r, r, y / 2)}


def _mp_angle(gens, curve):
    gen, other = gens[curve], gens["b" if curve == "a" else "a"]
    cusp = _mp_mul(_mp_mul(gen, other), _mp_mul(_mp_inv(gen), _mp_inv(other)))
    vertex = (cusp[0] - cusp[3]) / (2 * cusp[2])
    att, rep = _mp_balanced(gen)
    h = (1, -rep, 1, -att)
    phi1 = mpmath.arg(_mp_apply(h, vertex))
    turn = 2 * mpmath.pi
    delta2 = (mpmath.arg(_mp_apply(h, _mp_apply(_mp_inv(other), vertex))) - phi1) % turn
    for probe in _mp_balanced(other):
        delta_t = (mpmath.arg(_mp_apply(h, probe)) - phi1) % turn
        if delta_t not in (0, delta2):
            return mpmath.pi - (delta2 if 0 < delta_t < delta2 else turn - delta2)


ORACLE_TRACES = [(x, y) for x, y, _, _ in BENDING_ANGLE_GOLDEN[:-1]]
ORACLE_LENGTHS = [(10.0**-k, 5.46) for k in range(4, 13)] + [(0.5, 1e-7)]


@pytest.mark.parametrize(
    "point,built",
    [(p, "traces") for p in ORACLE_TRACES] + [(p, "lengths") for p in ORACLE_LENGTHS],
)
def test_bending_angle_matches_a_60_digit_oracle(point, built):
    """Both angles lie within 5e-15 of the roof evaluated at 60 digits,
    at the bent golden points and near the cusp, where the angle is
    pi - 7.7 l_a and a parabolic snap would be off by that much."""
    with mpmath.workdps(60):
        u, v = (mpmath.mpf(c) for c in point)
        if built == "traces":
            pair = matrices_from_traces(coords(*point, pleating_candidates(*point)[0]))
            gens = _mp_pair(u, v, u * u - 4, v * v - 4)
        else:
            pair = pair_from_lengths(*point)
            gens = _mp_pair(
                2 * mpmath.cosh(u / 2), 2 * mpmath.cosh(v / 2),
                4 * mpmath.sinh(u / 2) ** 2, 4 * mpmath.sinh(v / 2) ** 2,
            )
        for curve in ("a", "b"):
            assert abs(bending_angle(pair, curve) - _mp_angle(gens, curve)) <= 5e-15


def _closed_form_angle(l_a, l_b, lib):
    """The a-curve's bending angle on the marked cusped locus in closed
    form: cos(theta_a / 2) = tanh(l_a / 2) cosh(l_b / 2), written with
    P = sinh(l_a / 2) sinh(l_b / 2) as an atan2 that stays accurate near
    0 and pi."""
    p = lib.sinh(l_a / 2) * lib.sinh(l_b / 2)
    return 2 * lib.atan2(lib.sqrt((1 - p) * (1 + p)), lib.sinh(l_a / 2) * lib.cosh(l_b / 2))


def test_bending_angle_matches_the_closed_form():
    """On a seeded grid of lengths (P < 0.999, where the closed form is
    well-conditioned) both angles of the closed-form pair match it."""
    rng = np.random.default_rng(14)
    lengths = rng.uniform(0.0, 4.0, size=(4000, 2))
    lengths = lengths[np.sinh(lengths[:, 0] / 2) * np.sinh(lengths[:, 1] / 2) < 0.999]
    assert len(lengths) > 1000
    worst = 0.0
    for l_a, l_b in lengths.tolist():
        pair = pair_from_lengths(l_a, l_b)
        worst = max(
            worst,
            abs(bending_angle(pair, "a") - _closed_form_angle(l_a, l_b, math)),
            abs(bending_angle(pair, "b") - _closed_form_angle(l_b, l_a, math)),
        )
    assert worst <= 2e-14


@pytest.mark.parametrize(
    "point", [(1.0, 1.0), (0.3, 2.0), (2.5, 0.7), (1e-6, 5.46), (1.7, 1.1), (0.5, 1e-7)]
)
def test_closed_form_angle_matches_the_60_digit_roof(point):
    with mpmath.workdps(60):
        u, v = (mpmath.mpf(c) for c in point)
        gens = _mp_pair(
            2 * mpmath.cosh(u / 2), 2 * mpmath.cosh(v / 2),
            4 * mpmath.sinh(u / 2) ** 2, 4 * mpmath.sinh(v / 2) ** 2,
        )
        assert abs(_mp_angle(gens, "a") - _closed_form_angle(u, v, mpmath)) <= 1e-50
        assert abs(_mp_angle(gens, "b") - _closed_form_angle(v, u, mpmath)) <= 1e-50


@pytest.mark.parametrize("k", range(8, 16))
def test_certify_measures_angles_near_the_cusp(k):
    """A curve trace within the parabolic tolerance of 2 but not equal to
    it keeps its measured angle, pi - 3 sqrt(x - 2) to first order at
    y = 3; only an exactly parabolic curve reads pi."""
    x = 2.0 + 10.0**-k
    t = coords(x, 3.0, pleating_candidates(x, 3.0)[0])
    cert = certify(t)
    assert cert.is_convex
    assert cert.theta_a == bending_angle(matrices_from_traces(t), "a")
    assert cert.theta_a < math.pi
    assert abs(math.pi - cert.theta_a - 3.0 * math.sqrt(x - 2.0)) <= 1e-3 * (math.pi - cert.theta_a)
    batch = certify_batch([t.x], [t.y], [t.z])
    assert batch.theta_a[0] == cert.theta_a


def test_plaque_circles_are_distinct_on_bent_structures():
    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    top = plaque_circle(pair, "top")
    bottom = plaque_circle(pair, "bottom")
    # Some top point lies off the bottom circle: its chart image is not real.
    offsets = []
    for w in top.housed_points:
        image = kernel.apply_mobius(bottom.chart, w)
        offsets.append(0.0 if image is None else abs(image.imag))
    assert max(offsets) > 1e-6
    assert top.planarity_residual < 1e-12
    assert bottom.planarity_residual < 1e-12


def test_quakebend_preserves_first_trace_and_cusp():
    seed = coords(FLAT_X, FLAT_X, 4.0)
    bent = quakebend(seed, 0.45)
    assert abs(bent.x - FLAT_X) < 1e-13
    assert bent.cusp_residual < 1e-10
    assert bent.z.imag > 0.0


def test_quakebend_angle_matches_parameter():
    """Bending the flat seed by t creates exterior angle t on the first
    curve; the opposite side bends by its own, different amount."""
    seed = coords(FLAT_X, FLAT_X, 4.0)
    for t in (0.05, 0.3, 1.0):
        cert = certify(quakebend(seed, t))
        assert cert.is_convex
        assert abs(cert.theta[0] - t) < 1e-12
    cert = certify(quakebend(seed, 0.3))
    assert abs(cert.theta[1] - THETA_B_BENT) < 1e-12
    assert abs(cert.theta[1] - 0.3) > 1e-3


def test_quakebend_requires_fuchsian_seed():
    with pytest.raises(NotFuchsian):
        quakebend(coords(2.2, 2.2, MARKED_ROOT_22), 0.3)


def test_angle_decreases_away_from_cusp():
    """Along x = y the bending angle falls from pi (cusp) toward 0."""
    prev = math.pi
    for x in (2.05, 2.2, 2.4, 2.6, 2.79):
        z, _ = pleating_candidates(x, x)
        th = certify(coords(x, x, z)).theta[0]
        assert 0.0 < th < prev
        prev = th


def test_spread_triple_measures_each_pair_once(monkeypatch):
    calls = []
    chordal_distance = plaques.chordal_distance

    def counting(z, w):
        calls.append((z, w))
        return chordal_distance(z, w)

    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    monkeypatch.setattr(plaques, "chordal_distance", counting)
    top = plaque_circle(pair, "top")
    assert len(top.housed_points) == 5
    assert len(calls) == 10  # C(5, 2)
    assert top.planarity_residual < 1e-12


# ---------------------------------------------------------------------------
# certify_batch against the scalar reference

BATCH_TOL = 1e-13


def assert_batch_matches_scalar(x, y, z, **tols):
    """Every point of certify_batch agrees with scalar certify."""
    try:
        refs = [certify(coords(*p), **tols) for p in zip(x, y, z)]
    except Exception as exc:  # the batch must fail the same way
        with pytest.raises(type(exc)):
            certify_batch(x, y, z, **tols)
        return None
    batch = certify_batch(x, y, z, **tols)
    for i, ref in enumerate(refs):
        got = (batch.theta_a[i], batch.theta_b[i], batch.theta_puncture[i])
        for theta, value in zip(ref.theta, got):
            if theta is None:
                assert math.isnan(value)
            else:
                assert abs(value - theta) <= BATCH_TOL
        for name in ("is_convex", "is_fuchsian_boundary", "in_pleating_variety"):
            assert bool(getattr(batch, name)[i]) is getattr(ref, name)
        for name in ("max_real_trace_residual", "max_planarity_residual"):
            value, expected = getattr(batch, name)[i], getattr(ref, name)
            assert value == expected or abs(value - expected) <= BATCH_TOL * max(1.0, expected)
    return batch


window = st.floats(min_value=2.0, max_value=2.8)
window_edge = st.one_of(
    st.just(2.0),
    st.just(2.8),
    st.floats(min_value=2.0, max_value=2.001),
    window,
)
general = st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(window_edge, window_edge), min_size=1, max_size=40))
def test_certify_batch_matches_scalar_on_marked_roots(points):
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    batch = assert_batch_matches_scalar(x, y, marked_roots(x, y))
    # Only the parabolic edge (trace 2) needs the scalar path.
    near_two = (np.abs(x - 2.0) < 1e-4) | (np.abs(y - 2.0) < 1e-4)
    assert not (batch.fallback & ~near_two).any()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(general, general, general), min_size=1, max_size=20))
def test_certify_batch_matches_scalar_on_general_coordinates(points):
    x, y, z = (np.array([p[k] for p in points], dtype=complex) for k in range(3))
    assert_batch_matches_scalar(x, y, z)


def test_certify_batch_matches_scalar_on_frozen_structures():
    seed = coords(FLAT_X, FLAT_X, 4.0)
    points = [
        (2.2, 2.2, MARKED_ROOT_22),
        (2.2, 2.2, MARKED_ROOT_22.conjugate()),
        (-2.2, 2.2, -MARKED_ROOT_22),
        (3.0, 3.0, 3.0),
        (2.0, 2.0, 2.0 + 2.0j),
        (2.2, 2.2, 3.0),
        (2.2 + 0.1j, 2.2, 2.4 + 1.9j),
        (float("nan"), float("nan"), float("nan")),
        quakebend(seed, 0.3).astuple(),
    ]
    x, y, z = zip(*points)
    batch = assert_batch_matches_scalar(x, y, z)
    assert batch.fallback.tolist() == [False, False, False, True, True, True, True, True, False]
    # Loose tolerances move the flags the same way on both paths.
    assert_batch_matches_scalar(x, y, z, real_tol=0.2, planar_tol=1e-20, parabolic_tol=0.3)


def test_certify_batch_matches_scalar_beyond_float_range():
    """Points whose plaque fit overflows certify as non-convex on both paths."""
    batch = assert_batch_matches_scalar([0.0, 0.0], [1.7e-203, 2.2e-313], [2j, 1j])
    assert not batch.is_convex.any()
    for point in ((0.0, 1.7e-203, 2j), (0.0, 2.2e-313, 1j)):
        errors = certify(coords(*point)).plaque_errors
        assert any("float range" in (text or "") for text in errors.values())


def test_certify_batch_reducible_point_raises():
    with pytest.raises(ReducibleLocus):
        certify_batch([2.2, 2.0], [2.2, 2.0], [MARKED_ROOT_22, 2.0])
    # Reducible to double precision although kappa reads -2.
    with pytest.raises(ReducibleLocus):
        certify_batch([2.2, 2.0], [2.2, 3.75e8], [MARKED_ROOT_22, 3.75e8])
