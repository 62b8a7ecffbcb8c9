"""Moebius maps, fixed points, complex length, circles, reflections.

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

from pleatlab.errors import CoincidentPoints, IdentityInput, NumericalOverflow, ZeroMultiplier
from pleatlab.moebius import (
    IsometryClass,
    MoebiusMap,
    SphereCircle,
    balanced_fixed_points,
    chordal_distance,
    circle_through,
    classify,
    complex_length,
    cross_ratio,
    concyclicity_residual,
    fixed_points,
    involution_residual,
    map_to_zero_infinity,
    matrix_distance,
    reflect_in_circle,
    rotation_about_axis,
)

# 2*log(2): translation length of diag(2, 1/2)
LENGTH_DIAG_2 = 1.3862943611198906


def test_normalization_to_unit_determinant():
    m = MoebiusMap(2.0, 0.0, 0.0, 2.0)
    assert abs(m.det - 1.0) < 1e-14
    assert abs(m.trace - 2.0) < 1e-14


def test_zero_determinant_rejected():
    with pytest.raises(ZeroMultiplier):
        MoebiusMap(1.0, 1.0, 1.0, 1.0)


def test_call_and_composition():
    shift = MoebiusMap(1.0, 1.0, 0.0, 1.0)  # z + 1
    inv = MoebiusMap(0.0, 1.0, -1.0, 0.0)  # -1/z
    assert abs(shift(1.0) - 2.0) < 1e-15
    both = shift @ inv
    assert abs(both(1.0) - 0.0) < 1e-15
    assert both(0.0) is None or abs(both(0.0)) > 1e14


def test_inverse_roundtrip():
    m = MoebiusMap(2.0, 1.0, 1.5, 1.0)
    back = m.inverse() @ m
    assert back.approx_equal(MoebiusMap.identity(), tol=1e-12)


def test_fixed_points_quarter_turn():
    """The order-4 rotation fixes i and -i, attracting slot first."""
    m = MoebiusMap(0.0, 1.0, -1.0, 0.0)
    fp = fixed_points(m)
    assert fp == (1j, -1j)


def test_fixed_points_parabolic_vertex():
    m = MoebiusMap(1.0, 0.0, 1.0, 1.0)
    fp = fixed_points(m)
    assert fp[0] == fp[1]
    assert abs(fp[0]) < 1e-14


def test_fixed_points_identity_rejected():
    with pytest.raises(IdentityInput):
        fixed_points(MoebiusMap.identity())


def test_fixed_points_attracting_first():
    m = MoebiusMap(2.0, 0.0, 0.0, 0.5)  # attracts to 0? no: z -> 4z, attracts to infinity
    fp = fixed_points(m)
    assert fp[0] is None
    assert fp[1] == 0.0


def test_balanced_fixed_points_near_parabolic():
    """Equal-diagonal matrices keep full precision next to trace 2."""
    a = 1.0 + 1e-12
    c = 0.5
    b = (a * a - 1.0) / c
    m = MoebiusMap(a, b, c, a)
    att, rep = balanced_fixed_points(m)
    for z in (att, rep):
        residual = c * z * z + (a - a) * z - b
        assert abs(residual) < 1e-15 * max(1.0, abs(b))
    # the roots are tiny but distinct and opposite
    assert att == -rep
    assert abs(att) > 1e-7


def _classify_reference(m, tol=1e-10):
    """classify through matrix_distance to the identity and its negative."""
    ident = (1.0, 0.0, 0.0, 1.0)
    if matrix_distance(m.matrix, ident) < tol:
        return IsometryClass.IDENTITY
    if matrix_distance(m.matrix, tuple(-x for x in ident)) < tol:
        return IsometryClass.IDENTITY
    t = m.trace
    if abs(t - 2.0) < tol or abs(t + 2.0) < tol:
        return IsometryClass.PARABOLIC
    if abs(t.imag) < tol:
        return IsometryClass.ELLIPTIC if abs(t.real) < 2.0 else IsometryClass.PURELY_HYPERBOLIC
    return IsometryClass.LOXODROMIC


def test_classify_matches_matrix_distance_reference():
    rng = np.random.default_rng(11)
    maps = [MoebiusMap(*(complex(*pair) for pair in rng.normal(size=(4, 2)))) for _ in range(500)]
    for sign in (1.0, -1.0):
        for eps in (1e-11, -1e-11, 1e-9, -1e-9, 1e-11j, 1e-9j):
            for k in range(4):
                m = [sign, 0.0, 0.0, sign]
                m[k] += eps
                maps.append(MoebiusMap(*m))
            maps.append(MoebiusMap(sign + eps, 0.0, 0.0, sign - eps))
            maps.append(MoebiusMap(sign + eps, eps, 0.0, sign + eps))
            # near-parabolic: trace within the tolerance of +/-2 or just outside
            maps.append(MoebiusMap(sign, 1.0 + eps, eps, sign + eps))
    classes = [classify(m) for m in maps]
    assert classes == [_classify_reference(m) for m in maps]
    assert set(classes) == set(IsometryClass)


def test_classify_families():
    assert classify(MoebiusMap.identity()) == IsometryClass.IDENTITY
    assert classify(MoebiusMap(1.0, 1.0, 0.0, 1.0)) == IsometryClass.PARABOLIC
    assert classify(MoebiusMap(2.0, 0.0, 0.0, 0.5)) == IsometryClass.PURELY_HYPERBOLIC
    rot = MoebiusMap(cmath.exp(0.3j), 0.0, 0.0, cmath.exp(-0.3j))
    assert classify(rot) == IsometryClass.ELLIPTIC
    lox = MoebiusMap(2.0 * cmath.exp(0.3j), 0.0, 0.0, 0.5 * cmath.exp(-0.3j))
    assert classify(lox) == IsometryClass.LOXODROMIC


def test_complex_length_hyperbolic():
    m = MoebiusMap(2.0, 0.0, 0.0, 0.5)
    lam = complex_length(m)
    assert abs(lam.value - LENGTH_DIAG_2) < 1e-14
    assert lam.lift_sign == 1


def test_complex_length_elliptic_phase_tie():
    """Rotation by 1.9*pi folds to -0.1*pi with a flipped lift."""
    rot = MoebiusMap(
        cmath.exp(1j * 0.95 * math.pi), 0.0, 0.0, cmath.exp(-1j * 0.95 * math.pi)
    )
    lam = complex_length(rot)
    assert abs(lam.value - (-0.1j * math.pi)) < 1e-13
    assert lam.lift_sign == -1


def test_complex_length_invariant_identity():
    m = MoebiusMap(2.0, 1.0, 1.5, 1.0)
    lam = complex_length(m)
    recon = 2.0 * cmath.cosh(lam.value / 2.0)
    assert abs(recon - lam.lift_sign * m.trace) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_complex_length_invariant_random(seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=8)
    m = MoebiusMap(
        complex(e[0], e[1]), complex(e[2], e[3]), complex(e[4], e[5]), complex(e[6], e[7])
    )
    tr = m.trace
    if min(abs(tr - 2.0), abs(tr + 2.0)) < 1e-3:
        return
    lam = complex_length(m)
    assert abs(lam.value.imag) <= math.pi + 1e-12
    recon = 2.0 * cmath.cosh(lam.value / 2.0)
    assert abs(recon - lam.lift_sign * tr) < 1e-10


def test_chordal_distance_poles():
    assert abs(chordal_distance(0.0, None) - 2.0) < 1e-15
    assert abs(chordal_distance(1.0, -1.0) - 2.0) < 1e-15
    assert chordal_distance(3.0, 3.0) == 0.0


def test_map_to_zero_infinity():
    h = map_to_zero_infinity(2.0, 5.0)
    assert abs(h(2.0)) < 1e-14
    assert h(5.0) is None or abs(h(5.0)) > 1e14
    with pytest.raises(CoincidentPoints):
        map_to_zero_infinity(1.0, 1.0)


def test_rotation_about_axis_trace():
    m = MoebiusMap(2.0, 0.0, 0.0, 0.5)
    r = rotation_about_axis(m, 1.0)
    assert abs(r.trace - 2.0 * math.cos(0.5)) < 1e-13
    # the rotation shares both fixed points with the axis
    for p in fixed_points(m):
        q = r(p)
        if p is None:
            assert q is None or abs(q) > 1e14
        else:
            assert abs(q - p) < 1e-12


def test_reflect_in_unit_circle():
    circle = SphereCircle.from_center_radius(0.0, 1.0)
    j = reflect_in_circle(circle)
    assert j.antiholomorphic
    assert abs(j(2.0) - 0.5) < 1e-14
    assert abs(j(0.5j) - 2.0j) < 1e-14
    assert involution_residual(j) < 1e-14


def test_reflect_in_line():
    line = SphereCircle.from_point_direction(0.0, 1.0)  # the real axis
    j = reflect_in_circle(line)
    assert abs(j(1.0 + 1.0j) - (1.0 - 1.0j)) < 1e-14
    assert involution_residual(j) < 1e-14


def test_fixed_points_overflow_raises():
    """A lower-left entry so small that the roots leave the float range."""
    with pytest.raises(NumericalOverflow):
        fixed_points(MoebiusMap(2.0, 1.0, 1e-310, 0.5))


def test_circle_through_unit_circle():
    c = circle_through(1.0, 1j, -1.0)
    assert c.kind == "circle"
    assert abs(c.center) < 1e-14
    assert abs(c.radius - 1.0) < 1e-14


def test_circle_through_collinear_gives_line():
    c = circle_through(0.0, 1.0, 2.0)
    assert c.kind == "line"
    assert c.contains_infinity()


def test_circle_through_infinity_gives_line():
    c = circle_through(0.0, None, 1.0 + 1.0j)
    assert c.kind == "line"


def test_circle_through_overflow_raises():
    with pytest.raises(NumericalOverflow):
        circle_through(0.0, 1.0, 1.5e154j)


def test_cross_ratio_and_concyclicity():
    cr = cross_ratio(1.0, 1j, -1.0, -1j)
    assert abs(cr.imag) < 1e-14
    assert concyclicity_residual(1.0, 1j, -1.0, -1j) < 1e-14
    # an off-circle point has a visibly complex cross ratio
    assert concyclicity_residual(1.0, 1j, -1.0, 0.5 + 0.5j) > 1e-3
