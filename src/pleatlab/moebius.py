"""Moebius maps on the Riemann sphere, with orientation-reversing support.

A map is stored as a 2x2 complex matrix, normalized to determinant 1 on
construction, plus a flag saying whether the map conjugates its argument
first (antiholomorphic).  Points of the sphere are complex numbers, with
``None`` standing for infinity.

Conventions
-----------
* ``fixed_points`` orders the pair attracting-first whenever the
  derivative test is strictly decisive, otherwise keeps the solver order.
* ``complex_length`` picks the eigenvalue of modulus >= 1 (on a tie, the
  one with nonnegative imaginary part of its log), takes twice its log,
  and folds the imaginary part into (-pi, pi]; each 2*pi fold flips the
  reported lift sign, so ``2*cosh(value/2) == lift_sign * trace``.
* ``SphereCircle`` keeps Euclidean lines as an explicit variant instead
  of encoding them as circles of infinite radius.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from pleatlab import kernel
from pleatlab.errors import (
    CoincidentPoints,
    DegenerateCircle,
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


class MoebiusMap:
    """A holomorphic or antiholomorphic Moebius map, det-1 normalized."""

    __slots__ = ("a", "b", "c", "d", "antiholomorphic")

    def __init__(self, a, b, c, d, antiholomorphic=False):
        det = a * d - b * c
        if abs(det) < 1e-14:
            raise ZeroMultiplier("matrix is singular, no Moebius map")
        if abs(det - 1.0) > DET_TOL:
            (a, b, c, d), _ = kernel.normalize_unimodular((a, b, c, d))
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)
        self.antiholomorphic = bool(antiholomorphic)

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_tuple(cls, m, antiholomorphic=False):
        return cls(m[0], m[1], m[2], m[3], antiholomorphic=antiholomorphic)

    @property
    def matrix(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self):
        return self.a + self.d

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        if self.antiholomorphic and z is not None:
            z = z.conjugate()
        return kernel.apply_mobius(self.matrix, z)

    def __matmul__(self, other):
        """Composition: ``(f @ g)(z) == f(g(z))``."""
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        m = other.matrix
        if self.antiholomorphic:
            m = kernel.mat_conj(m)
        return MoebiusMap.from_tuple(
            kernel.mat_mul(self.matrix, m),
            antiholomorphic=self.antiholomorphic != other.antiholomorphic,
        )

    def inverse(self):
        m = kernel.mat_inv(self.matrix)
        if self.antiholomorphic:
            m = kernel.mat_conj(m)
        return MoebiusMap.from_tuple(m, antiholomorphic=self.antiholomorphic)

    def approx_equal(self, other, tol=1e-9, projective=True):
        """Entrywise closeness, optionally up to overall sign."""
        if self.antiholomorphic != other.antiholomorphic:
            return False
        diff = matrix_distance(self.matrix, other.matrix)
        if diff <= tol:
            return True
        if projective:
            neg = tuple(-x for x in other.matrix)
            return matrix_distance(self.matrix, neg) <= tol
        return False

    def __repr__(self):
        tag = "anti" if self.antiholomorphic else "holo"
        return (
            f"MoebiusMap([[{self.a:.6g}, {self.b:.6g}], "
            f"[{self.c:.6g}, {self.d:.6g}]], {tag})"
        )


@dataclass(frozen=True)
class ComplexLength:
    value: complex
    lift_sign: int


def matrix_distance(m, n):
    return max(abs(x - y) for x, y in zip(m, n))


def chordal_distance(z, w):
    """Distance in the round metric on the sphere (diameter 2)."""
    if z is None and w is None:
        return 0.0
    if z is None or w is None:
        finite = w if z is None else z
        return 2.0 / math.sqrt(1.0 + abs(finite) ** 2)
    az, aw = abs(z), abs(w)
    if az > 1e150 or aw > 1e150:
        # Treat astronomically large points as infinity to dodge overflow.
        if az > 1e150 and aw > 1e150:
            return abs(1.0 / z - 1.0 / w)
        return chordal_distance(None, w if az > 1e150 else z)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + az * az) * (1.0 + aw * aw))


def classify(m, tol=CLASSIFY_TOL):
    """Conjugacy type of a holomorphic map from its trace."""
    if m.antiholomorphic:
        raise PleatlabError("classification applies to holomorphic maps")
    a, b, c, d = m.matrix
    # matrix_distance to the identity and to its negative, entry by entry.
    if max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)) < tol:
        return IsometryClass.IDENTITY
    if max(abs(a + 1.0), abs(b), abs(c), abs(d + 1.0)) < tol:
        return IsometryClass.IDENTITY
    t = a + d
    if abs(t - 2.0) < tol or abs(t + 2.0) < tol:
        return IsometryClass.PARABOLIC
    if abs(t.imag) < tol:
        if abs(t.real) < 2.0:
            return IsometryClass.ELLIPTIC
        return IsometryClass.PURELY_HYPERBOLIC
    return IsometryClass.LOXODROMIC


def fixed_points(m, tol=CLASSIFY_TOL):
    """Fixed points on the sphere, attracting first when decisive.

    Parabolic maps return their single fixed point twice.  The identity
    raises :class:`IdentityInput`.
    """
    cls = classify(m, tol=tol)
    if cls is IsometryClass.IDENTITY:
        raise IdentityInput("every point is fixed")
    a, b, c, d = m.matrix
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

    For matrices of the shape ``[[p, b], [q, p]]`` (with ``q != 0``) the
    fixed points are ``+/- sqrt((p-1)(p+1)) / q``.  The factored form
    keeps full relative precision even when the map is extremely close
    to parabolic, which the generic quadratic solve cannot.  Returns the
    pair attracting-first when decisive.
    """
    a, b, c, d = m.matrix
    if abs(a - d) > 1e-12 * (abs(a) + abs(d)):
        raise PleatlabError("balanced_fixed_points needs equal diagonal entries")
    if c == 0:
        raise PleatlabError("balanced_fixed_points needs a nonzero lower-left entry")
    s = cmath.sqrt((a - 1.0) * (a + 1.0))
    z_plus = s / c
    z_minus = -s / c
    s_plus = abs(c * z_plus + d)
    s_minus = abs(c * z_minus + d)
    if s_minus > s_plus:
        return (z_minus, z_plus)
    return (z_plus, z_minus)


def complex_length(m, tol=CLASSIFY_TOL):
    """Translation length + rotation, with the lift sign of the trace.

    The returned value ``lam`` has ``Re lam >= 0`` and
    ``Im lam in (-pi, pi]``, and satisfies
    ``2*cosh(lam/2) == lift_sign * trace``.
    """
    cls = classify(m, tol=tol)
    if cls in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
        raise ParabolicOrIdentity(f"complex length undefined for {cls.value}")
    t = m.trace
    s = cmath.sqrt(t * t - 4.0)
    k1 = (t + s) / 2.0
    k2 = (t - s) / 2.0
    if abs(abs(k1) - abs(k2)) <= 1e-12 * (abs(k1) + abs(k2)):
        # Unit-modulus tie (elliptic): take the log with nonnegative phase.
        k = k1 if cmath.phase(k1) >= 0.0 else k2
    elif abs(k1) > abs(k2):
        k = k1
    else:
        k = k2
    if k == 0:
        raise ZeroMultiplier("vanishing eigenvalue")
    lam = 2.0 * cmath.log(k)
    lift = 1
    if lam.imag > math.pi:
        lam -= 2.0j * math.pi
        lift = -1
    elif lam.imag <= -math.pi:
        lam += 2.0j * math.pi
        lift = -1
    return ComplexLength(lam, lift)


def map_to_zero_infinity(p_zero, p_inf):
    """The Moebius map sending ``p_zero`` to 0 and ``p_inf`` to infinity."""
    if chordal_distance(p_zero, p_inf) < 1e-14:
        raise CoincidentPoints("cannot separate coincident points")
    if p_zero is None:
        return MoebiusMap(0.0, 1.0, 1.0, -p_inf)
    if p_inf is None:
        return MoebiusMap(1.0, -p_zero, 0.0, 1.0)
    return MoebiusMap(1.0, -p_zero, 1.0, -p_inf)


def normalize_to_axis(m, tol=CLASSIFY_TOL):
    """Conjugator sending the repelling fixed point to 0, attracting to inf."""
    att, rep = fixed_points(m, tol=tol)
    if chordal_distance(att, rep) < 1e-14:
        raise ParabolicOrIdentity("no axis: fixed points coincide")
    return map_to_zero_infinity(rep, att)


def rotation_about_axis(m, angle, conjugator=None):
    """Elliptic rotation by ``angle`` about the axis of ``m``.

    ``conjugator`` may supply a precomputed axis normalization (as from
    :func:`normalize_to_axis` or :func:`map_to_zero_infinity`).
    """
    g = normalize_to_axis(m) if conjugator is None else conjugator
    h = cmath.exp(0.5j * angle)
    core = MoebiusMap(h, 0.0, 0.0, 1.0 / h)
    return g.inverse() @ core @ g


# ---------------------------------------------------------------------------
# Circles and lines on the sphere


@dataclass(frozen=True)
class SphereCircle:
    """A circle on the sphere: either a Euclidean circle or a line.

    Lines carry an anchor point and a unit direction, normalized so the
    direction's argument lies in [0, pi).
    """

    kind: str  # "circle" | "line"
    center: complex = 0j
    radius: float = 0.0
    anchor: complex = 0j
    direction: complex = 1 + 0j

    @classmethod
    def from_center_radius(cls, center, radius):
        if not radius > 0:
            raise DegenerateCircle(f"radius must be positive, got {radius}")
        return cls(kind="circle", center=complex(center), radius=float(radius))

    @classmethod
    def from_point_direction(cls, anchor, direction):
        mag = abs(direction)
        if mag == 0:
            raise DegenerateCircle("line needs a nonzero direction")
        d = direction / mag
        if d.imag < 0 or (d.imag == 0 and d.real < 0):
            d = -d
        return cls(kind="line", anchor=complex(anchor), direction=d)

    def contains_infinity(self):
        return self.kind == "line"

    def approx_equal(self, other, tol=1e-9):
        if self.kind != other.kind:
            return False
        if self.kind == "circle":
            return (
                abs(self.center - other.center) <= tol
                and abs(self.radius - other.radius) <= tol
            )
        if min(
            abs(self.direction - other.direction),
            abs(self.direction + other.direction),
        ) > tol:
            return False
        return abs(((self.anchor - other.anchor) / self.direction).imag) <= tol


def circle_through(p, q, r):
    """The circle or line through three distinct sphere points."""
    pts = (p, q, r)
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal_distance(pts[i], pts[j]) < 1e-13:
                raise CoincidentPoints("need three distinct points")
    infinite = [x for x in pts if x is None]
    if infinite:
        finite = [x for x in pts if x is not None]
        return SphereCircle.from_point_direction(finite[0], finite[1] - finite[0])
    u = q - p
    v = r - p
    cross = (u.conjugate() * v).imag
    if abs(cross) <= 1e-13 * abs(u) * abs(v):
        return SphereCircle.from_point_direction(p, u)
    try:
        ap, aq, ar = abs(p) ** 2, abs(q) ** 2, abs(r) ** 2
    except OverflowError:
        raise NumericalOverflow("circle through points beyond the float range") from None
    num = ap * (q - r) + aq * (r - p) + ar * (p - q)
    den = (p.conjugate() * (q - r) + q.conjugate() * (r - p) + r.conjugate() * (p - q))
    center = num / den
    radius = (abs(p - center) + abs(q - center) + abs(r - center)) / 3.0
    return SphereCircle(kind="circle", center=center, radius=radius)


def reflect_in_circle(circle):
    """The antiholomorphic involution fixing the given circle pointwise."""
    if circle.kind == "circle":
        q = circle.center
        r = circle.radius
        s = 1j * r
        return MoebiusMap(
            q / s,
            (r * r - abs(q) ** 2) / s,
            1.0 / s,
            -q.conjugate() / s,
            antiholomorphic=True,
        )
    d = circle.direction
    z0 = circle.anchor
    return MoebiusMap(
        d,
        (z0 - d * d * z0.conjugate()) / d,
        0.0,
        1.0 / d,
        antiholomorphic=True,
    )


def involution_residual(j):
    """How far ``j`` is from being an antiholomorphic involution."""
    if not j.antiholomorphic:
        raise PleatlabError("expected an antiholomorphic map")
    square = kernel.mat_mul(j.matrix, kernel.mat_conj(j.matrix))
    ident = (1.0, 0.0, 0.0, 1.0)
    return min(
        matrix_distance(square, ident),
        matrix_distance(square, tuple(-x for x in ident)),
    )


def cross_ratio(p, q, r, s):
    """Cross-ratio (p-r)(q-s) / ((p-s)(q-r)), with infinity handled.

    Returns ``None`` when the value is the point at infinity.
    """
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    if p is None:
        num *= q - s if q is not None and s is not None else 1.0
        den *= q - r if q is not None and r is not None else 1.0
    elif q is None:
        num *= p - r if r is not None else 1.0
        den *= p - s if s is not None else 1.0
    elif r is None:
        num *= q - s if s is not None else 1.0
        den *= p - s if s is not None else 1.0
    elif s is None:
        num *= p - r
        den *= q - r
    else:
        num = (p - r) * (q - s)
        den = (p - s) * (q - r)
    if den == 0:
        return None
    return num / den


def concyclicity_residual(p, q, r, s):
    """|Im| of the cross-ratio: zero exactly when the four points are
    on one circle.  Degenerate (coincident) configurations count as 0."""
    cr = cross_ratio(p, q, r, s)
    if cr is None:
        return 0.0
    return abs(cr.imag)

