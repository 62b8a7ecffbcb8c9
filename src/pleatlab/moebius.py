"""Moebius maps on the Riemann sphere.

A map is its unimodular matrix: a 4-tuple ``(a, b, c, d)`` of complex
numbers for ``[[a, b], [c, d]]`` with determinant 1, as
:func:`unimodular` returns it; the kernel applies, composes and inverts
such tuples.  Points of the sphere are complex numbers, with ``None``
standing for infinity.

Conventions
-----------
* ``fixed_points`` orders the pair attracting-first whenever the
  derivative test is strictly decisive, otherwise keeps the solver order.
* ``complex_length`` picks the eigenvalue of modulus >= 1 (on a tie, the
  one with nonnegative imaginary part of its log), takes twice its log,
  and folds the imaginary part into (-pi, pi]; each 2*pi fold flips the
  reported lift sign, so ``2*cosh(value/2) == lift_sign * trace``.  It
  works elementwise on a 4-tuple of numpy arrays, with the same rules per
  element; a tuple of numbers gives a ``complex`` value and an ``int``
  sign.
* A circle (or line) on the sphere is carried by its chart, the map
  :func:`circle_chart` that sends it onto the real line.  Points on the
  circle have real images, and the reflection in the circle is complex
  conjugation read through the chart, so no orientation-reversing map
  type is needed.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from pleatlab import kernel
from pleatlab.errors import (
    CoincidentPoints,
    IdentityInput,
    NumericalOverflow,
    ParabolicOrIdentity,
    PleatlabError,
    ZeroMultiplier,
)

CLASSIFY_TOL = 1e-10
DET_TOL = 1e-12


class IsometryClass(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    PURELY_HYPERBOLIC = "purely_hyperbolic"
    LOXODROMIC = "loxodromic"


def unimodular(m):
    """The 4-tuple ``m`` as four complex numbers scaled to determinant 1.

    Raises :class:`ZeroMultiplier` for a singular matrix; ``m`` is
    rescaled only when its determinant is off 1 by more than ``DET_TOL``.
    """
    a, b, c, d = m
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise ZeroMultiplier("matrix is singular, no Moebius map")
    if abs(det - 1.0) > DET_TOL:
        (a, b, c, d), _ = kernel.normalize_unimodular((a, b, c, d))
    return (complex(a), complex(b), complex(c), complex(d))


@dataclass(frozen=True)
class ComplexLength:
    """A ``complex`` and an ``int`` for one map; for array entries, arrays
    of the entries' shape."""

    value: complex | np.ndarray
    lift_sign: int | np.ndarray


def matrix_distance(m, n):
    return max(abs(x - y) for x, y in zip(m, n))


def chordal_distance(z, w):
    """Distance in the round metric on the sphere (diameter 2)."""
    if z is None and w is None:
        return 0.0
    if z is None or w is None:
        finite = abs(w if z is None else z)
        if finite > 1e150:
            # The formula below overflows past ~1.3e154; this is its limit.
            return 2.0 / finite
        return 2.0 / math.sqrt(1.0 + finite**2)
    az, aw = abs(z), abs(w)
    if az > 1e150 or aw > 1e150:
        # Treat astronomically large points as infinity to dodge overflow.
        if az > 1e150 and aw > 1e150:
            return abs(1.0 / z - 1.0 / w)
        return chordal_distance(None, w if az > 1e150 else z)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + az * az) * (1.0 + aw * aw))


def classify(m):
    """Conjugacy type of a map from its trace."""
    a, b, c, d = m
    # matrix_distance to the identity and to its negative, entry by entry.
    if max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)) < CLASSIFY_TOL:
        return IsometryClass.IDENTITY
    if max(abs(a + 1.0), abs(b), abs(c), abs(d + 1.0)) < CLASSIFY_TOL:
        return IsometryClass.IDENTITY
    t = a + d
    if abs(t - 2.0) < CLASSIFY_TOL or abs(t + 2.0) < CLASSIFY_TOL:
        return IsometryClass.PARABOLIC
    if abs(t.imag) < CLASSIFY_TOL:
        if abs(t.real) < 2.0:
            return IsometryClass.ELLIPTIC
        return IsometryClass.PURELY_HYPERBOLIC
    return IsometryClass.LOXODROMIC


def fixed_points(m):
    """Fixed points on the sphere, attracting first when decisive.

    Parabolic maps return their single fixed point twice.  The identity
    raises :class:`IdentityInput`.
    """
    cls = classify(m)
    if cls is IsometryClass.IDENTITY:
        raise IdentityInput("every point is fixed")
    a, b, c, d = m
    if cls is IsometryClass.PARABOLIC:
        if c == 0:
            return (None, None)
        p = (a - d) / (2.0 * c)
        return (p, p)
    if c == 0:
        zstar = b / (d - a)
        if abs(a) > abs(d):
            return (None, zstar)
        if abs(d) > abs(a):
            return (zstar, None)
        return (None, zstar)
    coeffs = [c, d - a, -b]
    if all(x.imag == 0.0 for x in coeffs):
        # The real-coefficient path keeps the solver's conjugate-pair
        # ordering (positive imaginary part first) and avoids noise.
        coeffs = [x.real for x in coeffs]
    # np.roots divides by the leading coefficient; past the float range
    # its companion matrix is not finite.
    if not all(cmath.isfinite(x / coeffs[0]) for x in coeffs[1:]):
        raise NumericalOverflow("fixed-point quadratic overflows the float range")
    roots = np.roots(coeffs)
    z1, z2 = complex(roots[0]), complex(roots[1])
    s1 = abs(c * z1 + d)
    s2 = abs(c * z2 + d)
    if s2 > s1:
        return (z2, z1)
    return (z1, z2)


def balanced_fixed_points(m):
    """Fixed points of an equal-diagonal unimodular map, stably.

    For matrices of the shape ``[[p, b], [c, p]]`` (with ``c != 0``) the
    fixed points are ``+/- sqrt(b*c) / c``.  The root of the entries'
    product, not of ``(p-1)(p+1)``, keeps their full relative precision
    even extremely close to parabolic, which the generic quadratic solve
    cannot.  Returns the pair attracting-first when decisive.
    """
    a, b, c, d = m
    if abs(a - d) > 1e-12 * (abs(a) + abs(d)):
        raise PleatlabError("balanced_fixed_points needs equal diagonal entries")
    if c == 0:
        raise PleatlabError("balanced_fixed_points needs a nonzero lower-left entry")
    s = cmath.sqrt(b * c)
    z_plus = s / c
    z_minus = -s / c
    s_plus = abs(c * z_plus + d)
    s_minus = abs(c * z_minus + d)
    if s_minus > s_plus:
        return (z_minus, z_plus)
    return (z_plus, z_minus)


def complex_length(m):
    """Translation length + rotation, with the lift sign of the trace.

    The returned value ``lam`` has ``Re lam >= 0`` and
    ``Im lam in (-pi, pi]``, and satisfies
    ``2*cosh(lam/2) == lift_sign * trace``.  The entries of ``m`` may be
    numpy arrays: the map is then measured elementwise, and
    :class:`ParabolicOrIdentity` is raised if any element is parabolic or
    the identity.
    """
    a, b, c, d = (np.asarray(x, dtype=complex) for x in m)
    # classify's identity and parabolic tests, elementwise.
    tiny = (np.abs(b) < CLASSIFY_TOL) & (np.abs(c) < CLASSIFY_TOL)
    plus = (np.abs(a - 1.0) < CLASSIFY_TOL) & (np.abs(d - 1.0) < CLASSIFY_TOL)
    minus = (np.abs(a + 1.0) < CLASSIFY_TOL) & (np.abs(d + 1.0) < CLASSIFY_TOL)
    if (tiny & (plus | minus)).any():
        raise ParabolicOrIdentity("complex length undefined for identity")
    t = a + d
    if ((np.abs(t - 2.0) < CLASSIFY_TOL) | (np.abs(t + 2.0) < CLASSIFY_TOL)).any():
        raise ParabolicOrIdentity("complex length undefined for parabolic")
    s = np.sqrt(t * t - 4.0)
    k1 = (t + s) / 2.0
    k2 = (t - s) / 2.0
    r1, r2 = np.abs(k1), np.abs(k2)
    # On a unit-modulus tie (elliptic) take the log with nonnegative phase.
    tie = np.abs(r1 - r2) <= 1e-12 * (r1 + r2)
    k = np.where(tie, np.where(np.angle(k1) >= 0.0, k1, k2), np.where(r1 > r2, k1, k2))
    if (k == 0).any():
        raise ZeroMultiplier("vanishing eigenvalue")
    lam = 2.0 * np.log(k)
    up = lam.imag > math.pi
    down = lam.imag <= -math.pi
    lam = np.where(up, lam - 2.0j * math.pi, np.where(down, lam + 2.0j * math.pi, lam))
    lift = np.where(up | down, -1, 1)
    if lam.ndim == 0:
        return ComplexLength(complex(lam), int(lift))
    return ComplexLength(lam, lift)


def map_to_zero_infinity(p_zero, p_inf):
    """The Moebius map sending ``p_zero`` to 0 and ``p_inf`` to infinity."""
    if chordal_distance(p_zero, p_inf) < 1e-14:
        raise CoincidentPoints("cannot separate coincident points")
    if p_zero is None:
        return unimodular((0.0, 1.0, 1.0, -p_inf))
    if p_inf is None:
        return unimodular((1.0, -p_zero, 0.0, 1.0))
    return unimodular((1.0, -p_zero, 1.0, -p_inf))


def rotation_about_axis(m, angle):
    """Elliptic rotation by ``angle`` about the axis of the
    equal-diagonal map ``m`` (see :func:`balanced_fixed_points`)."""
    att, rep = balanced_fixed_points(m)
    g = map_to_zero_infinity(rep, att)
    h = cmath.exp(0.5j * angle)
    core = unimodular((h, 0.0, 0.0, 1.0 / h))
    g_inv = unimodular(kernel.mat_inv(g))
    return unimodular(kernel.mat_mul(unimodular(kernel.mat_mul(g_inv, core)), g))


def circle_chart(p, q, r):
    """The unimodular matrix of the Moebius map sending ``p, q, r`` to
    ``infinity, 0, 1``.

    It maps the circle (or line) through the three points onto the real
    line: a point ``w`` lies on that circle exactly when its image is
    real, and the reflection in the circle is ``z -> N(conj(z))`` with
    ``N = chart^-1 conj(chart)``.  ``None`` stands for infinity.  Raises
    :class:`CoincidentPoints` for points closer than 1e-13 on the sphere
    and :class:`NumericalOverflow` when the matrix leaves the float range.
    """
    pts = (p, q, r)
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal_distance(pts[i], pts[j]) < 1e-13:
                raise CoincidentPoints("need three distinct points")
    if p is None:
        m = (1.0, -q, 0.0, r - q)
    elif q is None:
        m = (0.0, r - p, 1.0, -p)
    elif r is None:
        m = (1.0, -q, 1.0, -p)
    else:
        m = (r - p, -q * (r - p), r - q, -p * (r - q))
    m, det = kernel.normalize_unimodular(m)
    if not all(cmath.isfinite(x) for x in (det, *m)):
        raise NumericalOverflow("circle through points beyond the float range")
    return m
