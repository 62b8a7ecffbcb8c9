"""Unimodular matrices, fixed points, complex length, circle charts,
reflections.

Expected values are frozen from independent calculations: rotation
matrices with known angles, diagonal hyperbolics with known translation
length, and textbook circles and reflections.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab import kernel
from pleatlab.doubling import _reflection
from pleatlab.errors import (
    CoincidentPoints,
    IdentityInput,
    NumericalOverflow,
    ParabolicOrIdentity,
    ZeroMultiplier,
)
from pleatlab.moebius import (
    chordal_distance,
    circle_chart_batch,
    complex_length,
    fixed_points,
    map_to_zero_infinity,
    matrix_distance,
    rotation_about_axis,
    unimodular,
)

import oracle
import reference

# 2*log(2): translation length of diag(2, 1/2)
LENGTH_DIAG_2 = 1.3862943611198906
IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _trace(m):
    return m[0] + m[3]


def test_normalization_to_unit_determinant():
    m = unimodular((2.0, 0.0, 0.0, 2.0))
    assert abs(kernel.mat_det(m) - 1.0) < 1e-14
    assert abs(_trace(m) - 2.0) < 1e-14
    assert all(type(v) is complex for v in m)
    # A matrix already within DET_TOL of determinant 1 is kept as it is.
    near = (1.0, 1e-13, 0.0, 1.0 + 5e-13)
    assert unimodular(near) == near


def test_zero_determinant_rejected():
    with pytest.raises(ZeroMultiplier):
        unimodular((1.0, 1.0, 1.0, 1.0))


def test_call_and_composition():
    shift = unimodular((1.0, 1.0, 0.0, 1.0))  # z + 1
    inv = unimodular((0.0, 1.0, -1.0, 0.0))  # -1/z
    assert abs(kernel.apply_mobius(shift, 1.0) - 2.0) < 1e-15
    both = unimodular(kernel.mat_mul(shift, inv))
    assert abs(kernel.apply_mobius(both, 1.0) - 0.0) < 1e-15
    at_zero = kernel.apply_mobius(both, 0.0)
    assert at_zero is None or abs(at_zero) > 1e14


def test_inverse_roundtrip():
    m = unimodular((2.0, 1.0, 1.5, 1.0))
    back = unimodular(kernel.mat_mul(unimodular(kernel.mat_inv(m)), m))
    assert matrix_distance(back, IDENTITY) < 1e-12


def test_fixed_points_quarter_turn():
    """The order-4 rotation fixes i and -i.  Neither attracts, so the
    tie rule lists +sqrt(b*c)/c = i/(-1) first."""
    m = unimodular((0.0, 1.0, -1.0, 0.0))
    fp = fixed_points(m)
    assert fp == (-1j, 1j)


def test_fixed_points_parabolic_vertex():
    m = unimodular((1.0, 0.0, 1.0, 1.0))
    fp = fixed_points(m)
    assert fp[0] == fp[1]
    assert abs(fp[0]) < 1e-14


def test_fixed_points_identity_rejected():
    with pytest.raises(IdentityInput):
        fixed_points(unimodular(IDENTITY))


def test_fixed_points_attracting_first():
    m = unimodular((2.0, 0.0, 0.0, 0.5))  # z -> 4z attracts to infinity
    fp = fixed_points(m)
    assert fp[0] is None
    assert fp[1] == 0.0


def test_fixed_points_equal_diagonal_near_parabolic():
    """Equal-diagonal matrices keep full precision next to trace 2."""
    a = 1.0 + 1e-12
    c = 0.5
    b = (a * a - 1.0) / c
    m = unimodular((a, b, c, a))
    att, rep = fixed_points(m)
    for z in (att, rep):
        residual = c * z * z + (a - a) * z - b
        assert abs(residual) < 1e-15 * max(1.0, abs(b))
    # the roots are tiny but distinct and opposite
    assert att == -rep
    assert abs(att) > 1e-7


def _log_uniform_entry(rng):
    return 10.0 ** rng.uniform(-4.0, 4.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def test_fixed_points_match_a_50_digit_oracle():
    """Unimodular maps with entries of modulus 1e-4 to 1e4, one in four
    with equal diagonal entries: each point within 1e-15 relative of the
    oracle's (at oracle.DIGITS >= 50 digits), attracting first wherever
    the oracle's |c z + d| differ."""
    rng = np.random.default_rng(16)
    for i in range(2000):
        if i % 4 == 0:
            b, c = _log_uniform_entry(rng), _log_uniform_entry(rng)
            a = cmath.sqrt(1.0 + b * c)
            m = (a, b, c, a)
        else:
            m = unimodular(tuple(_log_uniform_entry(rng) for _ in range(4)))
        expected = oracle.fixed_points(m)
        fp = fixed_points(m)
        matched = []
        for z in fp:
            errors = [abs(z - w) / abs(w) for w, _ in expected]
            assert min(errors) <= 1e-15, (m, fp)
            matched.append(expected[errors.index(min(errors))][1])
        if abs(matched[0] - matched[1]) > 1e-10 * (matched[0] + matched[1]):
            assert matched[0] > matched[1], (m, fp)


def test_fixed_points_fix_infinity_when_c_vanishes():
    assert fixed_points((1.0, 1.0, 0.0, 1.0)) == (None, None)
    with pytest.raises(IdentityInput):
        fixed_points((-1.0, 0.0, 0.0, -1.0))
    # z -> z/4 + 3/2 attracts to 2, and z -> 4z - 6 to infinity.
    assert fixed_points((0.5, 3.0, 0.0, 2.0)) == (2.0, None)
    assert fixed_points((2.0, -3.0, 0.0, 0.5)) == (None, 2.0)


def test_complex_length_hyperbolic():
    m = unimodular((2.0, 0.0, 0.0, 0.5))
    lam = complex_length(m)
    assert abs(lam.value - LENGTH_DIAG_2) < 1e-14
    assert lam.lift_sign == 1


def test_complex_length_elliptic_phase_tie():
    """Rotation by 1.9*pi folds to -0.1*pi with a flipped lift."""
    rot = unimodular(
        (cmath.exp(1j * 0.95 * math.pi), 0.0, 0.0, cmath.exp(-1j * 0.95 * math.pi))
    )
    lam = complex_length(rot)
    assert abs(lam.value - (-0.1j * math.pi)) < 1e-13
    assert lam.lift_sign == -1


def test_complex_length_invariant_identity():
    m = unimodular((2.0, 1.0, 1.5, 1.0))
    lam = complex_length(m)
    recon = 2.0 * cmath.cosh(lam.value / 2.0)
    assert abs(recon - lam.lift_sign * _trace(m)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_complex_length_invariant_random(seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=8)
    m = unimodular(
        (complex(e[0], e[1]), complex(e[2], e[3]), complex(e[4], e[5]), complex(e[6], e[7]))
    )
    tr = _trace(m)
    if min(abs(tr - 2.0), abs(tr + 2.0)) < 1e-3:
        return
    lam = complex_length(m)
    assert abs(lam.value.imag) <= math.pi + 1e-12
    recon = 2.0 * cmath.cosh(lam.value / 2.0)
    assert abs(recon - lam.lift_sign * tr) < 1e-10


def _loxodromic_draws(n, seed):
    """Unimodular random matrices away from trace +-2, as in check_lift."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        e = rng.normal(size=8)
        m = unimodular(
            (complex(e[0], e[1]), complex(e[2], e[3]), complex(e[4], e[5]), complex(e[6], e[7]))
        )
        if min(abs(_trace(m) - 2.0), abs(_trace(m) + 2.0)) >= 1e-3:
            out.append(m)
    return out


def test_complex_length_on_arrays_matches_single_calls():
    """Hyperbolic, the 1.9*pi fold (lift -1) and loxodromic draws in one
    array agree elementwise with one call per matrix."""
    fold = cmath.exp(1j * 0.95 * math.pi)
    ms = [
        unimodular((2.0, 0.0, 0.0, 0.5)),
        unimodular((fold, 0.0, 0.0, 1.0 / fold)),
        *_loxodromic_draws(30, seed=7),
    ]
    lam = complex_length(tuple(np.array(entry) for entry in zip(*ms)))
    assert lam.value.shape == lam.lift_sign.shape == (len(ms),)
    singles = [complex_length(m) for m in ms]
    assert lam.lift_sign.tolist() == [one.lift_sign for one in singles]
    assert lam.lift_sign[1] == -1
    for value, one in zip(lam.value, singles):
        assert abs(value - one.value) < 1e-14


def test_complex_length_of_numbers_is_a_complex_and_an_int():
    lam = complex_length(unimodular((2.0, 1.0, 1.5, 1.0)))
    assert type(lam.value) is complex
    assert type(lam.lift_sign) is int


@pytest.mark.parametrize(
    "bad", [(1.0, 1.0, 0.0, 1.0), IDENTITY, (-1.0, 0.0, 0.0, -1.0)],
    ids=["parabolic", "identity", "minus_identity"],
)
def test_complex_length_rejects_any_parabolic_or_identity_element(bad):
    ms = _loxodromic_draws(5, seed=3)
    ms.insert(2, bad)
    with pytest.raises(ParabolicOrIdentity):
        complex_length(tuple(np.array(entry) for entry in zip(*ms)))
    with pytest.raises(ParabolicOrIdentity):
        complex_length(bad)


def test_chordal_distance_poles():
    assert abs(chordal_distance(0.0, None) - 2.0) < 1e-15
    assert abs(chordal_distance(1.0, -1.0) - 2.0) < 1e-15
    assert chordal_distance(3.0, 3.0) == 0.0


def test_chordal_distance_to_infinity_past_the_float_square():
    """Beyond 1e150 the distance to infinity is its limit 2/|w|, which
    the square-root formula matches where it does not overflow."""
    assert chordal_distance(None, 1e300) == 2e-300
    assert chordal_distance(1e300, None) == 2e-300
    for w in (1e150, 3e151, 7.5e153 + 1e153j):
        assert chordal_distance(None, w) == 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    assert chordal_distance(None, 3e151) == 2.0 / 3e151


def test_map_to_zero_infinity():
    h = map_to_zero_infinity(2.0, 5.0)
    assert abs(kernel.apply_mobius(h, 2.0)) < 1e-14
    at_five = kernel.apply_mobius(h, 5.0)
    assert at_five is None or abs(at_five) > 1e14
    with pytest.raises(CoincidentPoints):
        map_to_zero_infinity(1.0, 1.0)


def test_rotation_about_axis_trace():
    m = unimodular((1.25, 1.125, 0.5, 1.25))
    r = rotation_about_axis(m, 1.0)
    assert abs(_trace(r) - 2.0 * math.cos(0.5)) < 1e-13
    # the rotation shares both fixed points with the axis
    for p in fixed_points(m):
        q = kernel.apply_mobius(r, p)
        if p is None:
            assert q is None or abs(q) > 1e14
        else:
            assert abs(q - p) < 1e-12


def test_fixed_points_overflow_raises():
    """A lower-left entry so small that the roots leave the float range."""
    with pytest.raises(NumericalOverflow):
        fixed_points(unimodular((2.0, 1.0, 1e-310, 0.5)))


def circle_chart(p, q, r):
    """``circle_chart_batch`` at one triple (``None`` for infinity), as a
    4-tuple of complex numbers."""
    triple = [np.array([complex("inf") if v is None else v]) for v in (p, q, r)]
    with np.errstate(all="ignore"):
        return tuple(complex(v[0]) for v in circle_chart_batch(*triple))


def _images(chart, points):
    return [kernel.apply_mobius(chart, z) for z in points]


def _reflect(chart, z):
    """The reflection in the circle of ``chart``: ``N(conj(z))``."""
    n = _reflection(chart)
    return kernel.apply_mobius(n, z.conjugate()), n


def test_circle_chart_sends_triple_to_infinity_zero_one():
    for p, q, r in ((1.0, 1j, -1.0), (0.3 - 2j, 1.5 + 0.25j, -4.0 + 1j), (0.0, 1.0, 2.0)):
        chart = circle_chart(p, q, r)
        assert abs(kernel.mat_det(chart) - 1.0) < 1e-14
        at_p, at_q, at_r = _images(chart, (p, q, r))
        assert at_p is None or abs(at_p) > 1e14
        assert abs(at_q) < 1e-14
        assert abs(at_r - 1.0) < 1e-14


def test_circle_through_unit_circle():
    """The chart of 1, i, -1 carries the unit circle: the reflection sends
    infinity to the centre 0, and the real line pulls back to radius 1."""
    chart = circle_chart(1.0, 1j, -1.0)
    centre = kernel.apply_mobius(_reflection(chart), None)
    assert abs(centre) < 1e-14
    for w in _images(kernel.mat_inv(chart), (-3.0, 0.5, 2.0, 7.25)):
        assert abs(abs(w) - 1.0) < 1e-14


def test_circle_through_collinear_gives_line():
    """Collinear points span a line: it passes through infinity, which is
    its own reflection, and the real line pulls back onto the real axis."""
    chart = circle_chart(0.0, 1.0, 2.0)
    at_infinity = kernel.apply_mobius(chart, None)
    assert at_infinity is None or abs(at_infinity.imag) < 1e-14
    centre = kernel.apply_mobius(_reflection(chart), None)
    assert centre is None or abs(centre) > 1e14
    # t = 2 is the image of infinity
    for w in _images(kernel.mat_inv(chart), (-3.0, 0.5, 3.0, 7.25)):
        assert abs(w.imag) < 1e-14


def test_circle_chart_with_infinity():
    """A triple through infinity spans a line; infinity may take any slot."""
    finite = (0.5 - 1j, 2.0 + 1j)
    for slot in range(3):
        points = list(finite)
        points.insert(slot, None)
        images = _images(circle_chart(*points), points)
        assert images[0] is None or abs(images[0]) > 1e14
        assert abs(images[1]) < 1e-14
        assert abs(images[2] - 1.0) < 1e-14


def test_circle_chart_planarity():
    """Points on the circle have real images; points off it do not."""
    on, off = _images(circle_chart(1.0, 1j, -1.0), (-1j, 0.5 + 0.5j))
    assert abs(on.imag) < 1e-14
    assert abs(off.imag) > 1e-3


def test_circle_chart_rejects_coincident_and_overflowing_points():
    """The scalar reference raises for points closer than 1e-13 on the
    sphere and for a chart beyond the float range; the batch, which
    plaque fitting hands only triples at least 1e-12 apart, reads NaN for
    such a chart and for coincident points."""
    with pytest.raises(CoincidentPoints):
        reference.circle_chart(1.0, 1.0 + 1e-15, 2.0)
    with pytest.raises(CoincidentPoints):
        reference.circle_chart(None, 1.0, 1e14)
    with pytest.raises(CoincidentPoints):
        reference.circle_chart(None, 1.0, 1e300)
    # The triple that certify 0 1.7e-203 2j fits on its bottom plaque.
    with pytest.raises(NumericalOverflow, match="float range"):
        reference.circle_chart(-0.8284, 0.8284, 4.7e203j)
    for triple in ((-0.8284, 0.8284, 4.7e203j), (1.0, 1.0, 2.0), (None, None, 2.0)):
        assert all(cmath.isnan(v) for v in circle_chart(*triple))


def test_reflect_in_unit_circle():
    chart = circle_chart(1.0, 1j, -1.0)
    image, n = _reflect(chart, 2.0 + 0j)
    assert abs(image - 0.5) < 1e-14
    assert abs(_reflect(chart, 0.5j)[0] - 2.0j) < 1e-14
    # J is an involution: N conj(N) is the identity.
    square = kernel.mat_mul(n, kernel.mat_conj(n))
    assert matrix_distance(square, (1.0, 0.0, 0.0, 1.0)) < 1e-14


def test_reflect_in_line():
    chart = circle_chart(0.0, 1.0, 2.0)  # the real axis
    assert abs(_reflect(chart, 1.0 + 1.0j)[0] - (1.0 - 1.0j)) < 1e-14
