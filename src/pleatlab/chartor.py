"""Trace coordinates for once-punctured-torus representations.

A representation of the free group <a, b> into SL(2,C) is recorded, up
to conjugacy, by the triple ``(x, y, z) = (tr a, tr b, tr ab)``.  The
commutator trace is the polynomial
``kappa = x^2 + y^2 + z^2 - x*y*z - 2``; the cusped (parabolic
commutator) locus is ``kappa == -2`` and the reducible locus is
``kappa == 2``.

``matrices_from_traces`` realizes a triple by explicit matrices with a
deterministic normalization.  Writing ``X = (x-2)(x+2)``,
``Y = (y-2)(y+2)`` and ``w = 2z - x*y``:

* ``a`` maps to ``[[x/2, X/2], [1/2, x/2]]``;
* ``b`` maps to ``[[y/2, q], [r, y/2]]`` where, writing
  ``S = sqrt(w^2 - X*Y)``, ``r = Y / (2*(w + S))`` and ``q = w - X*r``.

The denominator ``w + S`` is swapped for ``w - S`` when the latter is
larger in modulus (the two choices pick the two roots of the same
quadratic; taking the larger denominator is the numerically stable
root).  Both denominators vanish together only on the reducible locus,
which is rejected: ``w^2 - X*Y = 4*(kappa - 2)``.  The equal-diagonal
shape of both generators is what lets downstream code extract axes
stably arbitrarily close to the parabolic boundary.

On the cusped locus ``S = 4i`` and the marked root has
``w = sqrt(X*Y - 16)``, so ``pair_from_lengths`` writes the normal form
from the curve lengths: ``X = 4 sinh^2(l_a/2)``, ``Y = 4 sinh^2(l_b/2)``.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from pleatlab import kernel
from pleatlab.errors import NumericalOverflow, ReducibleLocus
from pleatlab.moebius import balanced_fixed_points, unimodular
from pleatlab.words import word_codes

REDUCIBLE_TOL = 1e-8


def kappa(x, y, z):
    """Commutator trace as a polynomial in the coordinates."""
    return x * x + y * y + z * z - x * y * z - 2.0


def discriminant(x, y):
    """Discriminant of the pleating-candidate quadratic in z."""
    return x * x * y * y - 4.0 * (x * x + y * y)


@dataclass(frozen=True)
class TraceCoords:
    x: complex
    y: complex
    z: complex

    @property
    def kappa(self):
        return kappa(self.x, self.y, self.z)

    @property
    def cusp_residual(self):
        """Distance of the commutator trace from -2."""
        return abs(self.kappa + 2.0)

    def is_real(self, tol=1e-9):
        return (
            abs(self.x.imag) <= tol
            and abs(self.y.imag) <= tol
            and abs(self.z.imag) <= tol
        )

    def normalized(self):
        """Flip generator lifts so that Re x >= 0 and Re y >= 0."""
        x, y, z = self.x, self.y, self.z
        if x.real < 0:
            x, z = -x, -z
        if y.real < 0:
            y, z = -y, -z
        return TraceCoords(x, y, z)

    def conjugate(self):
        return TraceCoords(
            self.x.conjugate(), self.y.conjugate(), self.z.conjugate()
        )

    def astuple(self):
        return (self.x, self.y, self.z)


def coords(x, y, z):
    return TraceCoords(complex(x), complex(y), complex(z))


def pleating_candidates(x, y):
    """The two z-roots giving a parabolic commutator, marked root first.

    Solves ``kappa(x, y, z) == -2`` for z.  The root with positive
    imaginary part (the marked structure, bending the a-curve on the
    upper side) comes first; its conjugate-mirror partner second.  On
    the Fuchsian locus the two roots are real and ordered larger-first.
    """
    x, y = complex(x), complex(y)
    s = cmath.sqrt(discriminant(x, y))
    z1 = (x * y + s) / 2.0
    z2 = (x * y - s) / 2.0
    if z1.imag < z2.imag or (z1.imag == z2.imag and z1.real < z2.real):
        z1, z2 = z2, z1
    return (z1, z2)


def marked_roots(x, y):
    """The marked (first) root of :func:`pleating_candidates` over arrays;
    NaN where the discriminant overflows."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(discriminant(x, y))
        z1 = (x * y + s) / 2.0
        z2 = (x * y - s) / 2.0
    swap = (z1.imag < z2.imag) | ((z1.imag == z2.imag) & (z1.real < z2.real))
    return np.where(swap, z2, z1)


class RepPair:
    """A realized pair of generator matrices (unimodular 4-tuples) with
    word evaluation."""

    def __init__(self, a, b, coords):
        self.a = a
        self.b = b
        self.coords = coords
        self._mats = (a, b)
        self._balanced = {}

    def balanced_points(self, letter):
        """:func:`balanced_fixed_points` of generator ``letter`` ("a" or
        "b"), computed once per pair."""
        points = self._balanced.get(letter)
        if points is None:
            points = balanced_fixed_points(self.a if letter == "a" else self.b)
            self._balanced[letter] = points
        return points

    def matrix(self, word):
        return kernel.eval_word(word_codes("ab", word), self._mats)

    def trace(self, word):
        m = self.matrix(word)
        return m[0] + m[3]


def matrices_from_traces(t):
    """Realize trace coordinates by the documented normal form.

    Raises :class:`ReducibleLocus` near ``kappa == 2`` (no irreducible
    realization), and where both denominators ``w +/- S`` vanish.
    """
    x, y, z = t.x, t.y, t.z
    if abs(t.kappa - 2.0) < REDUCIBLE_TOL:
        raise ReducibleLocus(f"commutator trace {t.kappa} is too close to 2")
    big_x = (x - 2.0) * (x + 2.0)
    big_y = (y - 2.0) * (y + 2.0)
    a = unimodular((x / 2.0, big_x / 2.0, 0.5, x / 2.0))
    w = 2.0 * z - x * y
    s = cmath.sqrt(w * w - big_x * big_y)
    den = max(w + s, w - s, key=abs)
    if den == 0:
        # w = S = 0: the coordinates are reducible to double precision,
        # although the rounded kappa missed 2.
        raise ReducibleLocus(
            f"trace coordinates {t.astuple()} are reducible to double precision"
        )
    r = big_y / (2.0 * den)
    q = w - big_x * r
    b = unimodular((y / 2.0, q, r, y / 2.0))
    return RepPair(a, b, t)


def pair_from_lengths(l_a, l_b):
    """The marked normal form with curve lengths ``l_a`` and ``l_b``
    (even in each), in closed form.  Its entries keep full relative
    precision as a length goes to zero, and a zero length gives an
    exactly parabolic generator.  Off the bending locus (``X*Y >= 16``)
    it is the Fuchsian pair at the larger real root.  Raises
    :class:`NumericalOverflow` when ``X`` or ``Y`` overflows.
    """
    try:
        x, y = (2.0 * math.cosh(v / 2.0) for v in (l_a, l_b))
        big_x, big_y = (4.0 * math.sinh(v / 2.0) ** 2 for v in (l_a, l_b))
    except OverflowError:
        raise NumericalOverflow(f"lengths {(l_a, l_b)} leave the float range") from None
    w = cmath.sqrt(big_x * big_y - 16.0)
    r = big_y / (2.0 * (w + 4.0j))
    a = (x / 2.0, big_x / 2.0, 0.5, x / 2.0)
    b = (y / 2.0, w - big_x * r, r, y / 2.0)
    return RepPair(a, b, coords(x, y, (x * y + w) / 2.0))


def commuting_canonical_pair(u, h):
    """Canonical commuting pair sharing the balanced axis.

    The first matrix is the normal form with trace ``u``; the second has
    lower-left entry ``h/2`` and the same (balanced) axis, which forces
    its trace ``v`` to satisfy ``v^2 - 4 = h^2 (u^2 - 4)``.  The root
    with ``Re v >= 0`` is taken (ties to ``Im v >= 0``), so near the
    shared parabolic ``u = v = 2`` the trace derivative along the family
    is ``dv/du = u h^2 / v``: the square-multiplier ratio.
    """
    v = cmath.sqrt(4.0 + h * h * (u * u - 4.0))
    if v.real < 0 or (v.real == 0 and v.imag < 0):
        v = -v
    a_mat = (u / 2.0, (u * u - 4.0) / 2.0, 0.5, u / 2.0)
    b_mat = (v / 2.0, h * (u * u - 4.0) / 2.0, h / 2.0, v / 2.0)

    ab = kernel.mat_mul(a_mat, b_mat)
    ba = kernel.mat_mul(b_mat, a_mat)
    commutation = max(abs(p - q) for p, q in zip(ab, ba))
    relation = abs((v * v - 4.0) - h * h * (u * u - 4.0))
    dv_du = u * h * h / v if v != 0 else complex("inf")
    return {
        "a": a_mat,
        "b": b_mat,
        "u": u,
        "v": v,
        "relation_residual": relation,
        "commutation_residual": commutation,
        "dv_du": dv_du,
    }
