"""Moebius maps on the Riemann sphere.

A map is its unimodular matrix: a 4-tuple ``(a, b, c, d)`` of complex
numbers for ``[[a, b], [c, d]]`` with determinant 1, as
:func:`unimodular` returns it; the kernel applies, composes and inverts
such tuples.  Points of the sphere are complex numbers, with ``None``
standing for infinity.

Conventions
-----------
* ``fixed_points`` orders the pair attracting first: the point ``z``
  with the larger ``|c z + d|`` (the map's derivative there is
  ``1 / (c z + d)^2``).  On a tie, as for elliptic and parabolic maps,
  the order is the formula's: ``+sqrt(b*c) / c`` before
  ``-sqrt(b*c) / c`` for equal diagonal entries, otherwise the larger
  root before the smaller, and infinity before the finite point when
  ``c == 0``.
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
from functools import reduce

import numpy as np

from pleatlab import kernel
from pleatlab.errors import (
    CoincidentPoints,
    IdentityInput,
    NumericalOverflow,
    ParabolicOrIdentity,
    ZeroMultiplier,
)

PARABOLIC_TOL = 1e-10
DET_TOL = 1e-12


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


def unimodular_batch(m):
    """:func:`unimodular` over a 4-tuple of equal-shape complex arrays,
    and the mask of singular entries, where :func:`unimodular` raises.

    Each entry is rescaled exactly when :func:`unimodular` would rescale
    it, by the same operations; singular entries come back as given, so
    no division by zero warns.
    """
    det = m[0] * m[3] - m[1] * m[2]
    singular = np.abs(det) < 1e-14
    rescale = (np.abs(det - 1.0) > DET_TOL) & ~singular
    s = np.sqrt(np.where(rescale, det, 1.0))
    return tuple(np.where(rescale, v / s, v) for v in m), singular


@dataclass(frozen=True)
class ComplexLength:
    """A ``complex`` and an ``int`` for one map; for array entries, arrays
    of the entries' shape."""

    value: complex | np.ndarray
    lift_sign: int | np.ndarray


def matrix_distance(m, n):
    """Largest entrywise ``|m - n|``; elementwise for array entries."""
    return reduce(np.maximum, (abs(x - y) for x, y in zip(m, n)))


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


def fixed_points(m):
    """The two fixed points of ``m`` on the sphere, attracting first.

    They are the roots of ``c z^2 + (d - a) z - b``.  With equal diagonal
    entries they are ``+/- sqrt(b*c) / c``: the root of the entries'
    product, not of ``(a-1)(a+1)``, keeps full relative precision next to
    a parabolic map.  Otherwise the larger root is ``q / (2c)`` with
    ``q = (a-d) +/- sqrt((a-d)^2 + 4bc)``, the sign chosen so that ``q``
    is the larger in modulus, and the smaller is ``-2b / q``, so neither
    suffers cancellation.  ``c == 0`` fixes infinity (``None``); a
    parabolic map returns its fixed point twice.  Raises
    :class:`IdentityInput` for the exact identity (or its negative) and
    :class:`NumericalOverflow` when a root leaves the float range.
    """
    a, b, c, d = m
    if c == 0:
        if a == d:
            if b == 0:
                raise IdentityInput("every point is fixed")
            return (None, None)
        # z -> (a z + b) / d: infinity attracts when |a| > |d|.
        z = b / (d - a)
        if not cmath.isfinite(z):
            raise NumericalOverflow(f"fixed point of {m} leaves the float range")
        return (z, None) if abs(d) > abs(a) else (None, z)
    if a == d:
        s = cmath.sqrt(b * c)
        z1 = s / c
        z2 = -s / c
    else:
        e = a - d
        r = cmath.sqrt(e * e + 4.0 * b * c)
        q = max(e + r, e - r, key=abs)
        z1 = q / (2.0 * c)
        z2 = -2.0 * b / q
    if not (cmath.isfinite(z1) and cmath.isfinite(z2)):
        raise NumericalOverflow(f"fixed points of {m} leave the float range")
    if abs(c * z2 + d) > abs(c * z1 + d):
        return (z2, z1)
    return (z1, z2)


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
    # The identity or its negative, entry by entry within PARABOLIC_TOL.
    tiny = (np.abs(b) < PARABOLIC_TOL) & (np.abs(c) < PARABOLIC_TOL)
    plus = (np.abs(a - 1.0) < PARABOLIC_TOL) & (np.abs(d - 1.0) < PARABOLIC_TOL)
    minus = (np.abs(a + 1.0) < PARABOLIC_TOL) & (np.abs(d + 1.0) < PARABOLIC_TOL)
    if (tiny & (plus | minus)).any():
        raise ParabolicOrIdentity("complex length undefined for identity")
    t = a + d
    if ((np.abs(t - 2.0) < PARABOLIC_TOL) | (np.abs(t + 2.0) < PARABOLIC_TOL)).any():
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
    """Elliptic rotation by ``angle`` about the axis of the map ``m``,
    the geodesic between its :func:`fixed_points`."""
    att, rep = fixed_points(m)
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
        m = _finite_chart(p, q, r)
    m, det = kernel.normalize_unimodular(m)
    if not all(cmath.isfinite(x) for x in (det, *m)):
        raise NumericalOverflow("circle through points beyond the float range")
    return m


def _finite_chart(p, q, r):
    """:func:`circle_chart`'s matrix for finite points, up to a factor."""
    return (r - p, -q * (r - p), r - q, -p * (r - q))


def circle_chart_batch(p, q, r):
    """:func:`circle_chart` of finite points, elementwise over arrays,
    without its distance and float-range checks."""
    m = _finite_chart(p, q, r)
    s = np.sqrt(m[0] * m[3] - m[1] * m[2])
    return tuple(v / s for v in m)
