"""Length/angle coordinates, Jacobians, volume, and deformation probes.

The coordinates of a certified structure are the real translation
lengths of the two core curves (with the commutator trace as the third,
frozen slot); the dual coordinates are the exterior bending angles, or
equivalently the cone angles ``phi = 2*(pi - theta)`` of the doubled
manifold.  This module provides:

* the holomorphic Jacobian of (length, length, commutator trace) in the
  trace chart at a stack of points, in closed form, each point
  cross-checked by central differences;
* the explicit inverse of the length map on the marked cusped locus,
  ``explicit_lengths``, which places angle and mixed targets in closed
  form;
* the structure at given curve lengths, one at a time
  (``measure_structure``) or as arrays (``measure_structures``): the
  pair of ``pair_from_lengths`` and the closed form ``cos(theta_a/2) =
  tanh(l_a/2) cosh(l_b/2)``, which every angle here but Newton's roof
  residual reads, precise at the cusp and next to a long curve;
* damped Newton solvers for length, angle, and mixed targets over the
  marked pleating root, steered by the closed-form angle Jacobian to
  where the angles measured on the roof hit their targets, polished by a
  chord step, run once more from the explicit lengths when they diverge
  from the seed, and measured in closed form;
* the angle-space derivative matrices ``d(lengths)/d(cone angles)`` at
  arrays of angles, from the closed-form angle Jacobian at the
  explicitly placed structures, measured in one batch;
* volume differences through the Schlafli form
  ``dVol = -1/2 * sum_i l_i dphi_i = 4 dW``, in closed form: the potential
  ``W`` in Clausen functions of the half-angles, read at the ends of
  straight segments of the trace chart (``schlafli_volumes``) and at the
  samples of straight angle paths (``continuations``, one
  :class:`AnglePath` of columns a path, whose concavity
  ``concavity_report`` probes), with no quadrature;
* a cusp-opening derivative check against the canonical commuting
  model, and a finite-difference group-cocycle check for deformation
  families.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from pleatlab import kernel
from pleatlab.chartor import (
    TraceCoords,
    coords,
    kappa,
    matrices_from_traces,
    pair_from_lengths,
    pleating_candidates,
)
from pleatlab.doubling import doubled_holonomy
from pleatlab.errors import (
    CoordinateDegeneracy,
    NewtonDivergence,
    NumericalOverflow,
    PleatlabError,
    TargetOutsideImage,
    UncertifiedPathPoint,
)
from pleatlab.moebius import matrix_distance, rotation_about_axis, unimodular
from pleatlab.plaques import bending_angle, certify_batch
from pleatlab.words import eval_words, padded_codes, random_reduced_word

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
DEGENERACY_TOL = 1e-6
# Step of holo_length_jacobian's central differences, taken in the real
# and the imaginary direction of each trace coordinate.
JACOBIAN_FD_STEP = 1e-6
# Curves shorter than this take the angle of Newton's roof residual from
# the closed form of the marked cusped locus: the roof's axis points of
# such a curve are too close for map_to_zero_infinity below ~5e-15
# (ZeroMultiplier or CoincidentPoints), while from 1e-14 up it agrees
# with the closed form to round-off.
CLOSED_FORM_LENGTH = 1e-12
# cusp_derivative_check opens the cusp at this marked (x, y) with this
# finite-difference step.
CUSP_MODEL_POINT = (2.2, 2.2)
CUSP_MODEL_STEP = 1e-4
# cocycle_check's Fuchsian seed, finite-difference step h (and h/2), and
# number and generator seed of its random word pairs.
COCYCLE_SEED = coords(3.0, 3.0, 3.0)
COCYCLE_STEP = 1e-3
COCYCLE_PAIRS = 24
COCYCLE_WORD_SEED = 0
# The fixed sl2 matrix V of conjugation_family, cocycle_check's
# coboundary control.
COCYCLE_CONJUGATOR = (0.3, 0.25 - 0.1j, -0.05j, -0.3)
# Catalan's constant G = Cl2(pi/2): the Schlafli potential is -2G where
# the structure is bending-free.
CATALAN = 0.915965594177219
# |B_2k| / (2k (2k + 1)!) for k = 1 to 25: the coefficients c_k of
# Clausen's series Cl2(t) = t - t log|t| + sum_k c_k t^(2k + 1) on
# [-pi, pi], where the first term left out is below 5.1e-19.
CLAUSEN_SERIES = np.array([
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07, 1.1482216343327455e-08,
    1.8978869988971e-10, 3.387301370953521e-12, 6.372636443183181e-14, 1.2462059912950672e-15,
    2.5105444608999545e-17, 5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25, 2.4386585509007344e-27, 5.440142678856253e-29,
    1.2228340131217352e-30, 2.767263468967951e-32, 6.3000905918320136e-34, 1.4420868388418476e-35,
    3.3170939991595428e-37, 7.663913557920658e-39, 1.7778714733830659e-40, 4.1396058982341375e-42,
    9.671557036081102e-44])
# The potential is its Taylor series within this distance of the cusp in
# both half-angles, where the series' first term left out is below 1e-18.
CUSP_SERIES_RADIUS = 1e-3
# Absolute round-off of one potential value, of four Clausen terms within
# 1.8e-15 of mpmath each, and 2G; it reads at most 6.6e-16 against a
# 60-digit quadrature of the form.
POTENTIAL_ROUNDOFF = 4e-15


@dataclass(frozen=True)
class NewtonResult:
    coords: TraceCoords
    lengths: tuple
    thetas: tuple
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class AnglePath:
    """A continuation along a straight angle path, as columns with one
    entry per sample: the path parameter ``s``, the curve ``lengths`` and
    measured ``thetas`` (``(2, n)``), the trace ``coords`` x, y, z
    (``(3, n)`` complex), the placement's largest angle ``miss``, and the
    ``volume`` from the first sample."""

    s: np.ndarray
    lengths: np.ndarray
    thetas: np.ndarray
    coords: np.ndarray
    miss: np.ndarray
    volume: np.ndarray


# ---------------------------------------------------------------------------
# Holomorphic Jacobian in the trace chart


def holo_length_jacobian(x, y, z):
    """Closed-form Jacobian of (length_a, length_b, kappa) at every point
    ``(x[i], y[i], z[i])``, each length being ``2*arccosh(trace/2)``, or
    ``2*arccosh(-trace/2)``, of the same derivative, where the trace has a
    negative real part.

    ``x``, ``y`` and ``z`` are equal-length one-dimensional sequences of
    trace coordinates.  Returns ``matrix`` ``(n, 3, 3)``, ``det`` ``(n,)``
    and ``fd_residual`` ``(n,)``: each point's largest miss of the central
    differences of step ``JACOBIAN_FD_STEP`` in the real and the
    imaginary direction of every coordinate, which checks holomorphy as
    well as the formulas.

    Raises :class:`CoordinateDegeneracy` at the first point, in stack
    order, with a curve trace too close to +/-2 for its length to be
    differentiable, and :class:`NumericalOverflow` at the first point
    whose determinant, an entry or the residual is not finite.
    """
    points = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in (x, y, z)])
    n = points.shape[1]
    with np.errstate(all="ignore"):
        near = np.minimum(abs(points[:2] - 2.0), abs(points[:2] + 2.0)) < DEGENERACY_TOL
        if near.any():
            i, curve = np.argwhere(near.T)[0]
            raise CoordinateDegeneracy(
                f"curve {'ab'[curve]} trace {complex(points[curve, i])} is within "
                f"{DEGENERACY_TOL} of +/-2"
            )
        x, y, z = points
        # sqrt(x - 2) sqrt(x + 2), not sqrt(x^2 - 4), whose principal root
        # flips sign across the imaginary axis: 2 / sx is the derivative of
        # 2 arccosh(x / 2) on both sides.
        sx, sy = (np.sqrt(v - 2.0) * np.sqrt(v + 2.0) for v in (x, y))
        matrix = np.zeros((n, 3, 3), dtype=complex)
        matrix[:, 0, 0], matrix[:, 1, 1] = 2.0 / sx, 2.0 / sy
        matrix[:, 2] = np.stack((2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y), axis=-1)
        det = 4.0 * (2.0 * z - x * y) / (sx * sy)
        # The twelve shifted stacks: coordinate j moved by +step and -step,
        # real then imaginary, in rows (j, direction, sign).
        steps = JACOBIAN_FD_STEP * np.array([1.0, 1.0j])
        shifts = np.kron(np.eye(3), np.outer(steps, [1.0, -1.0]).reshape(4, 1))
        u, v, w = points[:, None, :] + shifts.T[:, :, None]
        # Each length on the sheet of its trace's real part, 2 arccosh(+/-x / 2),
        # whose cut the steps stay off, also on the real axis below -2.
        sign = np.where(points[:2].real < 0.0, -1.0, 1.0)
        values = np.stack((2.0 * np.arccosh(sign[0] * u / 2.0), 2.0 * np.arccosh(sign[1] * v / 2.0),
                           kappa(u, v, w)))
        values = values.reshape(3, 3, 2, 2, n)
        # quotients[i, j, direction] approximates d(value i)/d(coordinate j).
        quotients = (values[..., 0, :] - values[..., 1, :]) / (2.0 * steps[:, None])
        fd_residual = abs(quotients - np.moveaxis(matrix, 0, -1)[:, :, None]).max(axis=(0, 1, 2))
        finite = np.isfinite(matrix).all(axis=(1, 2)) & np.isfinite(det) & np.isfinite(fd_residual)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise NumericalOverflow(
            f"the length Jacobian at {tuple(complex(v) for v in points[:, i])} "
            "leaves the float range"
        )
    return {"matrix": matrix, "det": det, "fd_residual": fd_residual}


# ---------------------------------------------------------------------------
# Newton solvers over the marked pleating root


def _closed_form_angle(length, other):
    """Bending angle of a curve of ``length`` whose partner has length
    ``other``, on the marked cusped locus:
    ``cos(theta/2) = tanh(length/2) cosh(other/2)``, written with
    ``P = sinh(length/2) sinh(other/2)`` as an atan2 that keeps its
    precision near pi.  A zero length reads exactly pi, and ``P >= 1``
    (bending-free) reads 0."""
    p = math.sinh(length / 2.0) * math.sinh(other / 2.0)
    return 2.0 * math.atan2(
        math.sqrt(max((1.0 - p) * (1.0 + p), 0.0)),
        math.sinh(length / 2.0) * math.cosh(other / 2.0),
    )


def _closed_form_angle_jacobian(l_a, l_b):
    """The symmetric matrix ``d(theta_a, theta_b) / d(l_a, l_b)`` of
    :func:`_closed_form_angle`, as rows ``((j00, j01), (j01, j11))``.
    Differentiating ``cos(theta_a/2) = tanh(l_a/2) cosh(l_b/2)`` with
    ``sin(theta_a/2) = root / cosh(l_a/2)``, ``root = sqrt((1 - P)(1 + P))``,
    gives ``j00 = -cosh(l_b/2) / (cosh(l_a/2) root)`` and ``j01 =
    -P / root``, and the mirror gives ``j11`` and the same ``j10 = j01``;
    so ``j00 j11 - j01^2 = (1 - P^2) / root^2 = 1``.  Every entry is
    infinite where the structure is bending-free (``P >= 1``)."""
    p = math.sinh(l_a / 2.0) * math.sinh(l_b / 2.0)
    root = math.sqrt(max((1.0 - p) * (1.0 + p), 0.0))
    if root == 0.0:
        return (-math.inf, -math.inf), (-math.inf, -math.inf)
    cosh_a, cosh_b = math.cosh(l_a / 2.0), math.cosh(l_b / 2.0)
    off = -p / root
    return (-cosh_b / (cosh_a * root), off), (off, -cosh_a / (cosh_b * root))


def _closed_form_angles(sinh, cosh):
    """:func:`_closed_form_angle` of both curves over ``(2, n)`` arrays of
    ``sinh(l/2)`` and ``cosh(l/2)``, with its ``P`` and ``root``, which is 0
    where the structure is bending-free (``P >= 1``), as are the angles."""
    with np.errstate(all="ignore"):
        p = sinh[0] * sinh[1]
        root = np.sqrt(np.maximum((1.0 - p) * (1.0 + p), 0.0))
        return 2.0 * np.arctan2(root, sinh * cosh[::-1]), p, root


def _closed_form_length_jacobian(sinh, cosh):
    """``d(l_a, l_b) / d(theta_a, theta_b)`` at ``(2, n)`` arrays of
    ``sinh(l/2)`` and ``cosh(l/2)``, as ``(n, 2, 2)`` matrices: the adjugate,
    so the inverse, of :func:`_closed_form_angle_jacobian` (which Newton
    keeps: ~1 us a point against ~5 us here), finite wherever the structure
    bends (``P < 1``), the cusp included."""
    _, p, root = _closed_form_angles(sinh, cosh)
    with np.errstate(divide="ignore"):
        off = p / root
        diagonal = -cosh / (cosh[::-1] * root)
    return np.moveaxis(np.array([[diagonal[0], off], [off, diagonal[1]]]), -1, 0)


def measure_structure(l_a, l_b):
    """Coordinates, lengths and bending angles at curve lengths, in closed
    form: the pair of :func:`pair_from_lengths` and the angles of
    :func:`_closed_form_angle`, which keep their precision at the cusp (a
    zero length reads exactly pi) and next to a long curve.  Raises
    :class:`NumericalOverflow` when a length leaves the float range."""
    pair = pair_from_lengths(l_a, l_b)
    lengths = (abs(l_a), abs(l_b))
    return pair.coords, lengths, (_closed_form_angle(*lengths), _closed_form_angle(*lengths[::-1]))


def measure_structures(l_a, l_b):
    """:func:`measure_structure` at every length pair ``(l_a[i], l_b[i])``
    at once.

    Returns ``(coords, lengths, thetas)``: the trace coordinates x, y and
    z as a ``(3, n)`` complex array, and the absolute lengths and the
    bending angles of curves a and b as ``(2, n)`` arrays, by the scalar's
    expressions over arrays.  The first row whose lengths leave the float
    range raises :class:`NumericalOverflow`, as the scalar does.
    """
    l_a, l_b = (np.asarray(v, dtype=float).reshape(-1) for v in (l_a, l_b))
    lengths = np.abs(np.stack((l_a, l_b)))
    with np.errstate(all="ignore"):
        half = lengths / 2.0
        sinh, cosh = np.sinh(half), np.cosh(half)
        x, y = 2.0 * cosh
        big_x, big_y = 4.0 * sinh ** 2
        bad = np.flatnonzero(~(np.isfinite(big_x) & np.isfinite(big_y)))
        if bad.size:
            k = bad[0]
            raise NumericalOverflow(f"lengths {(float(l_a[k]), float(l_b[k]))} leave the float range")
        z = (x * y + np.sqrt((big_x * big_y - 16.0).astype(complex))) / 2.0
    thetas, _, _ = _closed_form_angles(sinh, cosh)
    return np.stack((x, y, z)), lengths, thetas


def _solve2(j00, j01, j10, j11, r0, r1):
    """Solve ``[[j00, j01], [j10, j11]] s = (r0, r1)`` by partial-pivot
    elimination; an exactly zero pivot raises :class:`NewtonDivergence`."""
    if abs(j10) > abs(j00):
        j00, j01, r0, j10, j11, r1 = j10, j11, r1, j00, j01, r0
    if j00 == 0.0:
        raise NewtonDivergence("singular Jacobian")
    factor = j10 * (1.0 / j00)
    pivot = j11 - factor * j01
    if pivot == 0.0:
        raise NewtonDivergence("singular Jacobian")
    s1 = (r1 - factor * r0) / pivot
    return (r0 - j01 * s1) / j00, s1


def _newton2(residual_fn, u0):
    """Damped Newton iteration for a residual of two real unknowns.

    ``residual_fn(u)`` returns the residual pair at ``u`` and its
    Jacobian ``(j00, j01, j10, j11)`` there, so an iteration evaluates
    one residual, at the line search's candidate.  A point where the
    residual raises, or where it or its Jacobian is not finite, is
    undefined.  Each step is halved up to eleven times until the
    max-norm residual falls, for at most ``NEWTON_MAX_ITER`` iterations.
    Once the norm is within ``NEWTON_TOL``, one chord step with the last
    Jacobian polishes the solution toward round-off; it is kept only if
    the norm does not grow, and ``iterations`` does not count it.
    Returns ``(u, iterations, norm)`` with ``u`` a pair of floats.
    """
    def try_residual(u):
        """Residual, Jacobian and max-norm at a trial point, or None where
        they are undefined (overflow, a degenerate or a bending-free
        structure); the line search treats such points as rejected steps."""
        try:
            (r0, r1), jac = residual_fn(u)
        except (OverflowError, ValueError):  # PleatlabError is a ValueError
            return None
        if not all(math.isfinite(v) for v in (r0, r1, *jac)):
            return None
        return (r0, r1), jac, max(abs(r0), abs(r1))

    u = (float(u0[0]), float(u0[1]))
    evaluated = try_residual(u)
    if evaluated is None:
        raise NewtonDivergence(f"residual undefined at the seed {tuple(u0)}")
    r, jac, norm = evaluated
    iterations = 0
    while norm > NEWTON_TOL:
        if iterations >= NEWTON_MAX_ITER:
            raise NewtonDivergence(
                f"no convergence after {NEWTON_MAX_ITER} iterations (residual {norm:.3e})"
            )
        iterations += 1
        s0, s1 = _solve2(*jac, r[0], r[1])
        if not (math.isfinite(s0) and math.isfinite(s1)):
            raise NewtonDivergence("non-finite Newton step")
        scale = 1.0
        for _ in range(12):
            candidate = (u[0] - scale * s0, u[1] - scale * s1)
            evaluated = try_residual(candidate)
            if evaluated is not None and (evaluated[2] < norm or evaluated[2] <= NEWTON_TOL):
                u, (r, jac, norm) = candidate, evaluated
                break
            scale *= 0.5
        else:
            raise NewtonDivergence("damping failed to reduce the residual")
    if iterations and norm > 0.0:
        s0, s1 = _solve2(*jac, r[0], r[1])
        candidate = (u[0] - s0, u[1] - s1)
        evaluated = try_residual(candidate)
        if evaluated is not None and evaluated[2] <= norm:
            u, norm = candidate, evaluated[2]
    return u, iterations, norm


def _parse_targets(targets):
    """The validated ``(kind, float array)`` targets of curves a and b."""
    parsed = []
    for name in ("a", "b"):
        kind, value = targets[name]
        if kind not in ("length", "angle"):
            raise PleatlabError(f"unknown target kind {kind!r}")
        value = np.asarray(value, dtype=float)
        outside = ~((0.0 < value) & (value <= math.pi)) if kind == "angle" else value < 0.0
        if outside.any():
            first = value[outside].flat[0]
            raise TargetOutsideImage(
                f"bending-angle target {first} outside (0, pi]" if kind == "angle"
                else f"length target {first} is negative"
            )
        parsed.append((kind, value))
    return parsed


def _target_residual(targets):
    """Build the residual function for per-curve (kind, value) targets.

    At curve lengths ``u`` (even in each) it returns the residuals and
    their Jacobian ``(j00, j01, j10, j11)``.  An angle residual is the
    angle measured on the roof of :func:`pair_from_lengths`' pair (the
    closed form's for a curve shorter than ``CLOSED_FORM_LENGTH``) minus
    its target, and its Jacobian row is row ``i`` of
    :func:`_closed_form_angle_jacobian` at ``(|u_0|, |u_1|)``; a length
    row is ``copysign(1, u_i)`` on the diagonal.  Every entry in column
    ``j`` carries the sign of ``u_j``."""
    kinds, values = zip(*((kind, float(v)) for kind, v in _parse_targets(targets)))
    angle_slots = [i for i, kind in enumerate(kinds) if kind == "angle"]

    def residual(u):
        signs = (math.copysign(1.0, u[0]), math.copysign(1.0, u[1]))
        lengths = (abs(u[0]), abs(u[1]))
        out = [lengths[0] - values[0], lengths[1] - values[1]]
        rows = [(1.0, 0.0), (0.0, 1.0)]
        if angle_slots:
            pair = pair_from_lengths(u[0], u[1])
            if pair.coords.z.imag == 0.0:
                # Bending-free: every angle is 0, the residual is flat.
                raise PleatlabError(f"no bending at lengths {tuple(u)}")
            jacobian = _closed_form_angle_jacobian(*lengths)
            for i in angle_slots:
                theta = (bending_angle(pair, "ab"[i]) if lengths[i] >= CLOSED_FORM_LENGTH
                         else _closed_form_angle(lengths[i], lengths[1 - i]))
                out[i] = theta - values[i]
                rows[i] = jacobian[i]
        jac = tuple(row[j] * signs[j] for row in rows for j in range(2))
        return out, jac

    return residual


def _half_angle(theta):
    """``cos`` and ``sin`` of ``theta / 2``, the cosine taken as
    ``sin((pi - theta) / 2)``: it keeps its relative precision near pi
    and is exactly 0 at the angle pi."""
    return np.sin((math.pi - theta) / 2.0), np.sin(theta / 2.0)


def _angle_sinh(thetas):
    """``sinh(l/2)`` of both curves at the ``(2, ...)`` bending angles
    ``thetas``, by the angle-angle inverse ``sinh(l_a/2) = sin(theta_b/2)
    cot(theta_a/2)`` and its mirror."""
    cos, sin = _half_angle(thetas)
    return sin[::-1] * (cos / sin)


def explicit_lengths(targets):
    """The curve lengths ``(l_a, l_b)`` that hit ``targets`` (as for
    :func:`solve_targets`, each value a number or an array) exactly.

    On the marked cusped locus ``cos(theta_a/2) = tanh(l_a/2) cosh(l_b/2)``
    and the same with a and b swapped, so the length map inverts in
    closed form, with no cancellation: for two angles
    ``sinh(l_a/2) = sin(theta_b/2) cot(theta_a/2)`` and its mirror; for a
    length ``l_a`` and an angle ``theta_b``
    ``sinh(l_b/2) = cos(theta_b/2) / hypot(sinh(l_a/2), sin(theta_b/2))``,
    and its mirror.  Array values broadcast together, each element by the
    same expressions.  An angle pi gives a length of exactly 0.  Raises
    :class:`NumericalOverflow` when any length leaves the float range.
    """
    (kind_a, value_a), (kind_b, value_b) = _parse_targets(targets)
    value_a, value_b = np.broadcast_arrays(value_a, value_b)
    lengths = [value_a, value_b]
    with np.errstate(all="ignore"):
        if kind_a == kind_b == "angle":
            lengths = list(2.0 * np.arcsinh(_angle_sinh(np.array(lengths))))
        elif "angle" in (kind_a, kind_b):
            i = (kind_a, kind_b).index("angle")
            cos_t, sin_t = _half_angle(lengths[i])
            sinh_other = np.sinh(lengths[1 - i] / 2.0)
            ratio = cos_t / np.hypot(sinh_other, sin_t)
            # A partner too long for sinh has no length in the float range.
            lengths[i] = 2.0 * np.arcsinh(np.where(np.isfinite(sinh_other), ratio, np.inf))
    lengths = np.array(lengths)
    bad = ~np.isfinite(lengths).all(axis=0)
    if bad.any():
        first = f"({value_a[bad].flat[0]}, {value_b[bad].flat[0]})"
        raise NumericalOverflow(f"the lengths for {kind_a}-{kind_b} targets {first} overflow")
    return tuple(lengths)


def solve_targets(targets, seed=(1.0, 1.0)):
    """Solve for a structure hitting per-curve length or angle targets.

    ``targets``: dict with keys "a" and "b", values ``("length", v)`` or
    ``("angle", v)``.  ``seed`` is a pair of starting curve lengths.
    When the damped Newton iteration from the seed diverges, it runs once
    more from :func:`explicit_lengths`.
    """
    residual_fn = _target_residual(targets)
    try:
        u, iterations, norm = _newton2(residual_fn, seed)
    except NewtonDivergence:
        u, iterations, norm = _newton2(residual_fn, explicit_lengths(targets))
    t, lengths, thetas = measure_structure(u[0], u[1])
    return NewtonResult(
        coords=t,
        lengths=lengths,
        thetas=thetas,
        iterations=iterations,
        residual=norm,
    )


# ---------------------------------------------------------------------------
# Angle-space derivative of the lengths


def _place(thetas):
    """The structures at the ``(2, n)`` bending angles ``thetas``, placed at
    :func:`explicit_lengths` and measured in one :func:`measure_structures`
    call: ``(coords, lengths, thetas, miss)``.  The first whose measured
    angles leave (0, pi], as two angles near 0 (~1e-8) whose lengths round
    to a bending-free structure do, raises :class:`CoordinateDegeneracy`."""
    placed = explicit_lengths({"a": ("angle", thetas[0]), "b": ("angle", thetas[1])})
    coords, lengths, measured = measure_structures(*placed)
    outside = ~((0.0 < measured) & (measured <= math.pi)).all(axis=0)
    if outside.any():
        first, got = (tuple(v[:, outside][:, 0].tolist()) for v in (thetas, measured))
        raise CoordinateDegeneracy(f"bending angles {first} place a structure measured at {got}")
    return coords, lengths, measured, np.abs(measured - thetas).max(axis=0)


def dl_dphi(theta_a, theta_b):
    """Matrices of d(lengths)/d(cone angles) at arrays of bending angles.

    Cone angles are ``phi_i = 2*(pi - theta_i)``.  Each base point
    ``(theta_a[k], theta_b[k])`` is placed at :func:`explicit_lengths`; by
    the implicit-function theorem the derivative there is
    ``(-2 * d(theta)/d(l))^-1``, with ``d(theta)/d(l)`` the symmetric
    :func:`_closed_form_angle_jacobian` of determinant 1, so it is ``-1/2``
    times its adjugate :func:`_closed_form_length_jacobian`: the Hessian of
    the volume (Hodgson-Kerckhoff), symmetric of determinant 1/4 with a
    positive diagonal.  The base points are placed and measured by one
    :func:`_place` call, with no solve, and raise as there.  Returns, one
    entry per base point, the ``matrix`` (``(n, 2, 2)``), its
    ``symmetry_residual`` and ``eigenvalues`` (``(n, 2)``, ascending), the
    base point's ``coords`` (``(3, n)``), ``lengths`` and measured ``thetas``
    (``(2, n)``), and the measured angles' largest ``miss``.
    """
    coords, lengths, thetas, miss = _place(np.array([theta_a, theta_b], dtype=float).reshape(2, -1))
    matrix = -0.5 * _closed_form_length_jacobian(np.sinh(lengths / 2.0), np.cosh(lengths / 2.0))
    return {
        "matrix": matrix,
        "symmetry_residual": np.abs(matrix[:, 0, 1] - matrix[:, 1, 0]),
        "eigenvalues": np.linalg.eigvalsh(matrix),
        "coords": coords,
        "lengths": lengths,
        "thetas": thetas,
        "miss": miss,
    }


# ---------------------------------------------------------------------------
# Volume through the Schlafli potential


def _clausen(theta):
    """Clausen's function ``Cl2(theta) = -int_0^theta log|2 sin(t/2)| dt``
    over an array: the angle reduced by whole turns to ``[-pi, pi]``, where
    ``Cl2`` is odd, and :func:`_clausen_step` from 0."""
    t = theta - 2.0 * math.pi * np.round(theta / (2.0 * math.pi))
    return np.sign(t) * _clausen_step(np.zeros_like(t), np.abs(t))


def _clausen_step(start, width):
    """``Cl2(start + width) - Cl2(start)`` for ``0 <= start <= start + width
    <= pi``, to the relative precision of ``width``: Clausen's series ``t -
    t log t + t Q(t^2)``, ``Q(x) = sum_k c_k x^k`` of ``CLAUSEN_SERIES``
    (Abramowitz-Stegun 27.8), each difference factored through ``w =
    width``: ``t log t`` by ``log1p``, ``t Q(t^2)`` by ``w (Q(e^2) + s (e +
    s) Q[e^2, s^2])``, ``e = s + w``, with the divided difference in Horner."""
    end = start + width
    with np.errstate(divide="ignore", invalid="ignore"):
        log_part = (np.where(width == 0.0, 0.0, width * np.log(end))
                    + np.where(start == 0.0, 0.0, start * np.log1p(width / start)))
    high, low = end * end, start * start
    value, slope = np.full_like(end, CLAUSEN_SERIES[-1]), np.zeros_like(end)
    for c in (*CLAUSEN_SERIES[-2::-1], 0.0):
        slope, value = slope * low + value, value * high + c
    return width * (1.0 + value + start * (end + start) * slope) - log_part


def _schlafli_potential(half):
    """The potential ``W`` of the Schlafli form, ``sum_i l_i dtheta_i = 4 dW``,
    as the rows ``(W + 2G, W)`` at the ``(2, ...)`` half-angles ``(A, B) =
    (theta_a / 2, theta_b / 2)`` in ``[0, pi/2]``, ``G`` Catalan's constant.

    On the marked cusped locus ``dW/dA = l_a / 2 = asinh(sin B cot A)``.
    With ``tan(alpha) = tan A / sin B`` and ``u = tan(alpha / 2)`` the
    A-integral from the flat edge ``A = 0`` is ``Im`` of dilogarithms of
    ``u e^(-iB)`` and ``-u e^(iB)``, which Kummer's formula (Lewin) turns
    into ``W + 2G = (Cl2(2 w1) + Cl2(2 w2) - Cl2(2B + 2 w1) + Cl2(2B - 2 w2))
    / 2``, ``w1 = atan2(u sin B, 1 - u cos B)``, ``w2 = atan2(u sin B, 1 + u
    cos B)``.  So ``W(pi/2, pi/2) = 0``, and the bending-free region is the
    one point ``W(0, 0) = -2G``.  ``W`` is symmetric and taken with ``B`` the
    larger half-angle, where ``u cos B <= sqrt(2) - 1``.  The last two
    Clausen values are differenced by :func:`_clausen_step` through
    ``Cl2(2t) = 2 Cl2(t) - 2 Cl2(pi - t)``, so ``W + 2G`` keeps its relative
    precision next to the flat edge, as along a long curve.  Within
    ``CUSP_SERIES_RADIUS`` of the cusp ``W`` is its Taylor series in ``a =
    pi/2 - A``, ``b = pi/2 - B``, which keeps its relative precision there.
    A cosine is the sine of the complement, exactly 0 at the cusp."""
    a, b = np.sort(half, axis=0)
    along, across = np.sin(math.pi / 2.0 - a) * np.sin(b), np.sin(a)
    with np.errstate(invalid="ignore"):
        # tan(alpha / 2); alpha is 0 on the edge A = 0, the corner included.
        u = np.where(across == 0.0, 0.0, across / (np.hypot(along, across) + along))
    rise, run = u * np.sin(b), u * np.sin(math.pi / 2.0 - b)
    w1, w2 = np.arctan2(rise, 1.0 - run), np.arctan2(rise, 1.0 + run)
    excess = (_clausen(2.0 * np.stack((w1, w2))).sum(axis=0) / 2.0
              - _clausen_step(np.stack((b - w2, math.pi - b - w1)), w1 + w2).sum(axis=0))
    p, q = (math.pi / 2.0 - a) ** 2, (math.pi / 2.0 - b) ** 2
    series = -(p + q) / 2.0 - (p * p + q * q) / 24.0 + p * q / 4.0
    return np.stack((excess, np.where(p < CUSP_SERIES_RADIUS ** 2, series, excess - 2.0 * CATALAN)))


def _potential_gain(start, end):
    """``W(end) - W(start)`` from :func:`_schlafli_potential`'s rows at the
    columns of ``start`` and ``end``: the difference of the row whose two
    values are the smaller, ``W`` next to the cusp, ``W + 2G`` elsewhere."""
    cusp_side = np.abs(start[1]) + np.abs(end[1]) < np.abs(start[0]) + np.abs(end[0])
    return np.where(cusp_side, end[1] - start[1], end[0] - start[0])


def schlafli_volumes(segments):
    """Volume differences between the ends of segments ``((x0, y0), (x1,
    y1))`` of marked structures with real ends, as an array.

    With ``phi_i = 2 (pi - theta_i)`` the Schlafli form ``-1/2 sum_i l_i
    dphi_i = sum_i l_i dtheta_i`` of the doubled manifold, twice Bonahon's
    convex-core change, is ``4 dW`` (:func:`_schlafli_potential`), so a
    volume is ``4 (W(end) - W(start))``, however far past the bending-free
    boundary ``P = 1`` an end lies.  An end's angles are
    :func:`_closed_form_angles` at ``sinh(l/2) = sqrt(o (o + 4)) / 2``, ``o
    = |x| - 2``, and ``cosh(l/2) = |x| / 2``, with no roof.  Before any end
    is read, the first segment whose x or y ends differ in sign or lie in
    ``|x| < 2`` or ``|y| < 2``, where no structure is convex, raises
    :class:`UncertifiedPathPoint`, and one with an end whose length leaves
    the float range :class:`NumericalOverflow`.
    """
    for start, end in segments:
        start, end = (tuple(map(float, p)) for p in (start, end))
        path = f"path from {start} to {end}"
        if not all(abs(v) >= 2.0 for v in start + end) or any(u * v < 0.0 for u, v in zip(start, end)):
            raise UncertifiedPathPoint(f"{path} crosses |x| < 2 or |y| < 2")
        for point in (start, end):
            if not all(math.isfinite(o * (o + 4.0)) for o in (abs(v) - 2.0 for v in point)):
                raise NumericalOverflow(f"{path}: the length at (x, y) = {point} leaves the float range")
    # The ends as (|x|, |y|) columns, each segment's start then its end.
    traces = np.abs(np.array(segments, dtype=float).reshape(-1, 2).T)
    offset = traces - 2.0
    thetas, _, _ = _closed_form_angles(np.sqrt(offset * (offset + 4.0)) / 2.0, traces / 2.0)
    potential = _schlafli_potential(thetas / 2.0)
    return 4.0 * _potential_gain(potential[:, ::2], potential[:, 1::2])


# ---------------------------------------------------------------------------
# Continuation in angle space


def concavity_report(path):
    """Volume concavity along an :class:`AnglePath`: the second
    differences of its volumes in ``s``, their round-off ``margin``, and
    whether every second difference is below minus that margin.  Each
    volume ``4 (W_k - W_0)`` is within ``8 * POTENTIAL_ROUNDOFF`` of its
    exact value, so a second difference (coefficients 1, -2, 1) is within
    ``32 * POTENTIAL_ROUNDOFF``, times ``samples^2`` in ``s``."""
    # The samples sit at s = k / samples.
    scale = (path.s.size - 1) ** 2
    second = np.diff(path.volume, 2) * scale
    margin = 32.0 * POTENTIAL_ROUNDOFF * scale
    return {"second_differences": second, "margin": margin, "concave": bool(np.all(second < -margin))}


def continuations(angle_paths):
    """Continuations along straight angle paths, with their volumes.

    Each angle path is ``(theta_start, theta_end, samples)``.  The samples
    at ``s = k / samples`` of all paths are placed at their angles and
    measured by one :func:`_place` call, which raises for a sample that
    measures no bending.  Angles between a path's ends are interpolated as
    ``a (1 - s) + b s`` and clamped at pi, which that rounding can pass; an
    end outside (0, pi] raises :class:`TargetOutsideImage`.  A sample's
    volume is ``4 (W_k - W_0)``, :func:`_schlafli_potential` at the target
    angles.  Returns one :class:`AnglePath` per path, whose columns do not
    depend on the paths batched with it.  Raises :class:`PleatlabError`
    before placing any sample when a path's ``samples < 1``.
    """
    for _, _, samples in angle_paths:
        if samples < 1:
            raise PleatlabError(f"need at least one sample, got {samples}")
    s = [np.arange(samples + 1) / samples for _, _, samples in angle_paths]
    targets = [np.outer(a, 1.0 - t) + np.outer(b, t) for (a, b, _), t in zip(angle_paths, s)]
    for th in targets:
        # The ends are exact, and explicit_lengths checks them; between
        # them a (1 - s) + b s can round past pi.
        th[:, 1:-1] = np.minimum(th[:, 1:-1], math.pi)
    angles = np.concatenate([np.empty((2, 0)), *targets], axis=1)
    coords, lengths, thetas, miss = _place(angles)
    cuts = np.cumsum([t.size for t in s])[:-1]
    columns = zip(*(np.split(v, cuts, axis=-1) for v in (lengths, thetas, coords, miss)))
    potentials = np.split(_schlafli_potential(angles / 2.0), cuts, axis=1)
    return [AnglePath(t, *path, 4.0 * _potential_gain(w[:, :1], w)) for t, w, path in zip(s, potentials, columns)]


# ---------------------------------------------------------------------------
# Cusp-opening derivative against the canonical commuting model


def cusp_derivative_check():
    """Derivative of the puncture traces under opening the cusp.

    Opens the commutator trace to ``-2 + s`` at ``CUSP_MODEL_POINT``; the
    pants traces stay real so the doubled holonomy persists.  Measures
    the finite-difference derivative of the filling-curve trace (the
    commutator) with respect to the meridian trace and compares its sign
    and size against the square-multiplier ratio of the canonical
    commuting model; also confirms cusp-preserving directions have zero
    cross-derivative.
    """
    (x0, y0), h = CUSP_MODEL_POINT, CUSP_MODEL_STEP

    def structure_at(s):
        disc = x0 * x0 * y0 * y0 - 4.0 * (x0 * x0 + y0 * y0 - s)
        z = (x0 * y0 + cmath.sqrt(disc)) / 2.0
        if z.imag < 0:
            z = (x0 * y0 - cmath.sqrt(disc)) / 2.0
        return coords(x0, y0, z)

    # Longitude trace in the lift compatible with the canonical model:
    # both the meridian and the longitude have trace +2 at the cusp.
    steps = (-h, 0.0, h)
    structures = [structure_at(s) for s in steps]
    cert = certify_batch(*np.array([t.astuple() for t in structures]).T)
    us = dict(zip(steps, doubled_holonomy(cert).traces(["e"])[0].tolist()))
    vs = {s: -t.kappa for s, t in zip(steps, structures)}
    du = us[h] - us[-h]
    dv = vs[h] - vs[-h]
    if abs(du) == 0:
        raise PleatlabError("meridian trace did not move under cusp opening")
    ratio = dv / du
    # Independent estimate of the square multiplier from the trace
    # relation (v^2 - 4) = h^2 (u^2 - 4) evaluated just off the cusp.
    hsq_est = (vs[h] * vs[h] - 4.0) / (us[h] * us[h] - 4.0)
    # Cusp-preserving direction: move x along the cusped locus.
    kappas = []
    for r in (-h, h):
        x = x0 + r
        z = complex(pleating_candidates(x, y0)[0])
        kappas.append(kappa(x, y0, z))
    cross = abs(kappas[1] - kappas[0]) / (2.0 * h)
    return {
        "ratio": ratio,
        "hsq_estimate": hsq_est,
        "relative_mismatch": abs(ratio - hsq_est) / abs(hsq_est),
        "cusp_preserving_cross": cross,
        "meridian_trace": us[0.0],
    }


# ---------------------------------------------------------------------------
# Finite-difference cocycle check


def quakebend_family(pair):
    """t -> generator matrices of the quakebend family at a Fuchsian pair."""

    def family(t):
        bend = rotation_about_axis(pair.a, t)
        return {"a": pair.a, "b": unimodular(kernel.mat_mul(bend, pair.b))}

    return family


def conjugation_family(pair):
    """t -> generators conjugated by exp(t V), V = ``COCYCLE_CONJUGATOR``."""

    def family(t):
        va, vb, vc, vd = COCYCLE_CONJUGATOR
        g = _expm2((t * va, t * vb, t * vc, t * vd))
        gi = kernel.mat_inv(g)
        return {
            "a": kernel.mat_mul(kernel.mat_mul(g, pair.a), gi),
            "b": kernel.mat_mul(kernel.mat_mul(g, pair.b), gi),
        }

    return family


def constant_family(pair):
    def family(t):
        return {"a": pair.a, "b": pair.b}

    return family


def _expm2(m):
    """Exponential of a traceless 2x2 matrix, in closed form."""
    a, b, c, d = m
    mu = cmath.sqrt(a * a + b * c)
    if abs(mu) < 1e-30:
        return (1.0 + a, b, c, 1.0 + d)
    ch = cmath.cosh(mu)
    sh = cmath.sinh(mu) / mu
    return (ch + sh * a, sh * b, sh * c, ch + sh * d)


def cocycle_residual(family, word_pairs, h):
    """Worst additive-cocycle defect of the finite-difference derivative.

    For each word the derivative cocycle is estimated as
    ``z(w) = (rho_h(w) - rho_-h(w)) * rho_0(w)^-1 / (2h)`` and the
    defect of ``z(w1 w2) = z(w1) + Ad_{rho_0(w1)} z(w2)`` is measured.
    ``rho_h``, ``rho_-h`` and ``rho_0`` are one stack of three generator
    tuples, and every ``w1``, ``w2`` and ``w1 w2`` is evaluated on it in
    one :func:`eval_words` product.
    """
    stages = [family(h), family(-h), family(0.0)]
    letters = "".join(stages[0])
    gens = [
        tuple(np.array(entries) for entries in zip(*(g[ch] for g in stages)))
        for ch in letters
    ]
    words = [w for w1, w2 in word_pairs for w in (w1, w2, w1 + w2)]
    entries = eval_words(padded_codes(letters, words), gens)
    plus, minus, zero = (tuple(e[k] for e in entries) for k in range(3))
    s = 1.0 / (2.0 * h)
    diff = tuple(x - y for x, y in zip(plus, minus))
    zeta = tuple(s * x for x in kernel.mat_mul(diff, kernel.mat_inv(zero)))
    z1, z2, z12 = (tuple(x[k::3] for x in zeta) for k in range(3))
    g1 = tuple(x[::3] for x in zero)
    ad = kernel.mat_mul(kernel.mat_mul(g1, z2), kernel.mat_inv(g1))
    rhs = tuple(x + y for x, y in zip(z1, ad))
    return float(np.max(matrix_distance(z12, rhs), initial=0.0))


def cocycle_check():
    """Second-order convergence of the derivative cocycle defect.

    Runs the quakebend family at a Fuchsian seed over random word
    pairs at steps ``h`` and ``h/2`` and fits the convergence exponent;
    the conjugation (coboundary) and constant families are included as
    controls.  An exponent of at least ~2 certifies the first-order
    deformation is a genuine group cocycle.
    """
    pair, h = matrices_from_traces(COCYCLE_SEED), COCYCLE_STEP
    rng = np.random.default_rng(COCYCLE_WORD_SEED)
    word_pairs = [
        (random_reduced_word(rng, "ab", 6), random_reduced_word(rng, "ab", 6))
        for _ in range(COCYCLE_PAIRS)
    ]
    fam = quakebend_family(pair)
    res_h = cocycle_residual(fam, word_pairs, h)
    res_h2 = cocycle_residual(fam, word_pairs, h / 2.0)
    exponent = math.log2(res_h / res_h2) if res_h2 > 0 else math.inf
    return {
        "residual_h": res_h,
        "residual_h2": res_h2,
        "exponent": exponent,
        "conjugation_residual": cocycle_residual(conjugation_family(pair), word_pairs, h),
        "constant_residual": cocycle_residual(constant_family(pair), word_pairs, h),
    }
