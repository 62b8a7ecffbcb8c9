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
  ``dVol = -1/2 * sum_i l_i dphi_i``, by parts at Gauss-Legendre nodes in
  one runner, a run of segments at a time, every node in closed form,
  along straight segments of the trace chart (``schlafli_volumes``) and
  straight angle paths (``continuations``, one :class:`AnglePath` of
  columns a path, whose concavity ``concavity_report`` probes); a cusp
  end, or a start next to a flat end, converges like an interior one;
* a cusp-opening derivative check against the canonical commuting
  model, and a finite-difference group-cocycle check for deformation
  families.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

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
# Most nodes a run of whole segments places at once, in both charts.
# Best of 7 on a 2-CPU shared x86 container (numpy 2.4.6): continuations
# at 1,000 samples of order 512 takes 135 ms at 1,024 nodes, 79 ms at
# 4,096 and 69 ms at 16,384 (tracemalloc peaks 0.7, 1.3 and 4.5 MB), and
# check_volume's 1,140 trace nodes 2.6 ms in two runs or 2.0 ms in one; a
# trace-chart run holds ~1.6 KB a node, so 6.5 MB at 4,096.
VOLUME_BATCH_NODES = 4096
# Largest quadrature order either chart takes: a segment of order n has
# n + ceil(n / 2) + 2 nodes, 770 here, so it fits in one run of
# VOLUME_BATCH_NODES, and leggauss's eigenproblem takes O(n^2) memory.
VOLUME_MAX_ORDER = 512


@dataclass(frozen=True)
class NewtonResult:
    coords: TraceCoords
    lengths: tuple
    thetas: tuple
    iterations: int
    residual: float


@dataclass(frozen=True)
class VolumeResult:
    value: float
    error_estimate: float
    nodes: int


@dataclass(frozen=True, eq=False)
class AnglePath:
    """A continuation along a straight angle path, as columns with one
    entry per sample: the path parameter ``s``, the curve ``lengths`` and
    measured ``thetas`` (``(2, n)``), the trace ``coords`` x, y, z
    (``(3, n)`` complex), the placement's largest angle ``miss``, and the
    cumulative ``volume`` and ``volume_error`` from the first sample."""

    s: np.ndarray
    lengths: np.ndarray
    thetas: np.ndarray
    coords: np.ndarray
    miss: np.ndarray
    volume: np.ndarray
    volume_error: np.ndarray


# ---------------------------------------------------------------------------
# Holomorphic Jacobian in the trace chart


def holo_length_jacobian(x, y, z):
    """Closed-form Jacobian of (length_a, length_b, kappa) at every point
    ``(x[i], y[i], z[i])``, each length being ``2*arccosh(trace/2)``.

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
        sx, sy = np.sqrt(x * x - 4.0), np.sqrt(y * y - 4.0)
        matrix = np.zeros((n, 3, 3), dtype=complex)
        matrix[:, 0, 0], matrix[:, 1, 1] = 2.0 / sx, 2.0 / sy
        matrix[:, 2] = np.stack((2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y), axis=-1)
        det = 4.0 * (2.0 * z - x * y) / (sx * sy)
        # The twelve shifted stacks: coordinate j moved by +step and -step,
        # real then imaginary, in rows (j, direction, sign).
        steps = JACOBIAN_FD_STEP * np.array([1.0, 1.0j])
        shifts = np.kron(np.eye(3), np.outer(steps, [1.0, -1.0]).reshape(4, 1))
        u, v, w = points[:, None, :] + shifts.T[:, :, None]
        values = np.stack((2.0 * np.arccosh(u / 2.0), 2.0 * np.arccosh(v / 2.0), kappa(u, v, w)))
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
# Volume through the Schlafli form


@lru_cache(maxsize=16)
def quadrature_rule(order):
    """One segment's ``(nodes, weights)``, two read-only ``(2, n)`` arrays
    (memoized, bounded).  A column of ``nodes`` is ``(1 - s, s)``, each to
    its own relative precision, at the start, the Gauss-Legendre nodes of
    ``order`` and of ``ceil(order / 2)``, and the end; the rows of
    ``weights`` are the two rules', zero elsewhere.  Both are taken in
    ``t`` with ``s = 3t^2 - 2t^3``, whose ``ds/dt = 6t(1 - t)`` vanishes at
    the ends, so an integrand like ``1 / sqrt(s)``, as at a cusp end, is
    smooth in ``t``.  An order outside ``2..VOLUME_MAX_ORDER`` raises."""
    if not 2 <= order <= VOLUME_MAX_ORDER:
        raise PleatlabError(
            f"need at least two and at most {VOLUME_MAX_ORDER} quadrature nodes, got {order}"
        )
    nodes, weights = [], []
    for n in (order, -(-order // 2)):
        tau, w = np.polynomial.legendre.leggauss(n)
        # 1 - s at t is s at 1 - t, so near either end it keeps its digits.
        t = np.stack(((1.0 - tau) / 2.0, (1.0 + tau) / 2.0))
        nodes.append(t * t * (3.0 - 2.0 * t))
        weights.append(3.0 * t[0] * t[1] * w)
    ends = np.eye(2)
    nodes = np.concatenate((ends[:, :1], *nodes, ends[:, 1:]), axis=1)
    rows = np.zeros((2, nodes.shape[1]))
    rows[0, 1:order + 1] = weights[0]
    rows[1, order + 1:-1] = weights[1]
    nodes.flags.writeable = rows.flags.writeable = False
    return nodes, rows


def _by_parts(starts, ends, orders, place):
    """``sum_i l_i dtheta_i`` along straight segments of one chart, by parts:
    ``[sum_i l_i theta_i] - int sum_i theta_i (dl_i/ds) ds``, smooth at a
    cusp end and where a length grows like ``-2 log theta``
    (Davis-Rabinowitz).  Segment ``k`` runs between the columns ``k`` of
    the ``(2, n)`` arrays ``starts`` and ``ends`` by the rule of
    ``orders[k]``, its estimate the distance to the rule of half the order.
    As many segments as fit ``VOLUME_BATCH_NODES`` nodes at the largest
    order make a run, whose nodes ``place(nodes, p0, p1)`` (the rules'
    columns and each node's segment ends) turns into ``(2, m)`` angles,
    lengths and ``dl/ds``.  Returns the values and the estimates, which
    do not depend on the segments run with each."""
    rules = [quadrature_rule(order) for order in orders]
    sizes = np.array([nodes.shape[1] for nodes, _ in rules], dtype=int)
    # The cap keeps every segment within VOLUME_BATCH_NODES.
    per_run = VOLUME_BATCH_NODES // max(sizes, default=1)
    values, errors = [np.empty(0)], [np.empty(0)]
    for run in (slice(k, k + per_run) for k in range(0, len(sizes), per_run)):
        nodes, weights = (np.concatenate(rule, axis=1) for rule in zip(*rules[run]))
        p0, p1 = (np.repeat(p[:, run], sizes[run], axis=1) for p in (starts, ends))
        thetas, lengths, rates = place(nodes, p0, p1)
        integrand = (thetas * rates).sum(axis=0)
        last = np.cumsum(sizes[run]) - 1
        first = last - sizes[run] + 1
        # The ends carry no weight, and at a cusp end the rate is infinite.
        integrand[first] = integrand[last] = 0.0
        bracket = (lengths * thetas).sum(axis=0)
        fine, coarse = np.add.reduceat(weights * integrand, first, axis=1)
        values.append(bracket[last] - bracket[first] - fine)
        errors.append(np.abs(fine - coarse))
    return np.concatenate(values), np.concatenate(errors)


def _trace_nodes(nodes, p0, p1):
    """:func:`_by_parts`' placer in the trace chart, for ends of one sign:
    :func:`_closed_form_angles` at ``sinh(l/2) = sqrt(o (o + 4)) / 2``,
    ``o = |x| - 2``, and ``cosh(l/2) = |x| / 2``."""
    sign = np.sign(p0)
    # |x| - 2 from the ends: near the cusp x itself rounds it away.
    offset = nodes[0] * (sign * p0 - 2.0) + nodes[1] * (sign * p1 - 2.0)
    with np.errstate(all="ignore"):
        sinh = np.sqrt(offset * (offset + 4.0)) / 2.0
        thetas, _, _ = _closed_form_angles(sinh, sign * (nodes[0] * p0 + nodes[1] * p1) / 2.0)
        # dl/ds = |x|' / sinh(l / 2).  A coordinate that stays put has no
        # rate, even on the cusp, where the quotient reads 0 / 0.
        rates = np.where(p0 == p1, 0.0, sign * (p1 - p0) / sinh)
    return thetas, 2.0 * np.arcsinh(sinh), rates


def schlafli_volumes(segments):
    """Volume differences along straight segments of marked structures.

    A segment ``((x0, y0), (x1, y1), order)`` has real ends and its nodes
    over ``(1 - s) (x0, y0) + s (x1, y1)`` at :func:`quadrature_rule`'s
    ``s``.  With ``phi_i = 2 (pi - theta_i)`` the Schlafli form
    ``-1/2 sum_i l_i dphi_i = sum_i l_i dtheta_i`` of the doubled manifold,
    twice Bonahon's convex-core change, integrates by parts in
    :func:`_by_parts` at the closed-form nodes of :func:`_trace_nodes`, with
    no roof, so a node keeps its precision next to a long curve.  Against
    50-digit references on (2.1, 2.1) to (2.5, 2.4) and on the cusp-end
    segments (2.0, 2.2) to (2.6, 2.3) and (2.2, 2.2) to (2.0, 2.0), the
    estimate reads 4.2 to 3.1e6 times the miss at every order that misses
    by more than 1e-13 (2 to 18), and from order 32 to 128 the miss is at
    most 3.4e-14.  A segment is not split at the bending-free boundary
    ``P = 1``, so one far past it can read a wrong volume with a small or
    zero estimate: (2.5, 2.5) to (1e10, 1e10) reads -4.0077, estimate 0.0,
    at every order, not -4.7358 (only the bracket counts), and (2, 2.5) to
    (2, 3.75e8) -2.5723, estimate 1.2e-3, at order 16, not -6.47.  Before
    any node is placed, the first segment whose x or y ends differ in sign
    or lie in ``|x| < 2`` or ``|y| < 2``, where no structure is convex,
    raises :class:`UncertifiedPathPoint`, and one with an end whose length
    leaves the float range :class:`NumericalOverflow`.
    Returns one :class:`VolumeResult` per segment, whose ``nodes`` counts
    the ``order + ceil(order / 2) + 2`` nodes placed.
    """
    for start, end, _ in segments:
        start, end = (tuple(map(float, p)) for p in (start, end))
        path = f"path from {start} to {end}"
        if not all(abs(v) >= 2.0 for v in start + end) or any(u * v < 0.0 for u, v in zip(start, end)):
            raise UncertifiedPathPoint(f"{path} crosses |x| < 2 or |y| < 2")
        for point in (start, end):
            if not all(math.isfinite(o * (o + 4.0)) for o in (abs(v) - 2.0 for v in point)):
                raise NumericalOverflow(f"{path}: the length at (x, y) = {point} leaves the float range")
    starts, ends = (np.array([seg[k] for seg in segments], dtype=float).reshape(-1, 2).T for k in (0, 1))
    orders = [order for _, _, order in segments]
    values, errors = _by_parts(starts, ends, orders, _trace_nodes)
    return [VolumeResult(value=v, error_estimate=e, nodes=quadrature_rule(n)[0].shape[1])
            for v, e, n in zip(values.tolist(), errors.tolist(), orders)]


# ---------------------------------------------------------------------------
# Continuation in angle space


def concavity_report(path):
    """Volume concavity along an :class:`AnglePath`: the second
    differences of its volumes in ``s``, the accumulated quadrature
    error, and whether every second difference is negative with margin
    three times that error."""
    # The samples sit at s = k / samples.
    second = np.diff(path.volume, 2) * (path.s.size - 1) ** 2
    err = float(path.volume_error[-1])
    return {
        "second_differences": second,
        "integration_error": err,
        "concave": bool(np.all(second < -3.0 * err)),
    }


def _angle_nodes(nodes, p0, p1):
    """:func:`_by_parts`' placer in the angle chart: the lengths of the
    angle-angle inverse :func:`_angle_sinh` at the node angles, clamped at
    pi, which ``a (1 - s) + b s`` can round past, and ``dl/ds = dl/dtheta
    (b - a)`` with ``cosh(l/2)`` taken from that ``sinh(l/2)``."""
    thetas = np.minimum(nodes[0] * p0 + nodes[1] * p1, math.pi)
    sinh = _angle_sinh(thetas)
    rates = np.einsum("nij,jn->in", _closed_form_length_jacobian(sinh, np.hypot(1.0, sinh)), p1 - p0)
    return thetas, 2.0 * np.arcsinh(sinh), rates


def continuations(angle_paths):
    """Continuations along straight angle paths, integrated in angle space.

    Each angle path is ``(theta_start, theta_end, samples, substeps)``.
    The samples at ``s = k / samples`` of all paths are placed at their
    angles and measured by one :func:`_place` call, which raises for a
    sample that measures no bending.  The Schlafli form reads ``sum_i l_i
    dtheta_i``, twice Bonahon's convex-core change; each step between
    samples is a segment of order ``substeps`` of :func:`_by_parts`.
    The nodes are neither certified nor measured: every angle pair in
    (0, pi]^2 is on the bending locus.  Angles between a path's ends are
    interpolated as ``a (1 - s) + b s`` and clamped at pi, which that
    rounding can pass; an end outside (0, pi] raises
    :class:`TargetOutsideImage`.  Returns one :class:`AnglePath` per path,
    whose columns do not depend on the paths batched with it.  Raises
    :class:`PleatlabError` before placing any sample when a path's
    ``samples < 1``, or its ``substeps`` is outside ``2..VOLUME_MAX_ORDER``.
    """
    for _, _, samples, substeps in angle_paths:
        if samples < 1:
            raise PleatlabError(f"need at least one sample, got {samples}")
        quadrature_rule(substeps)  # raises for an order it does not take
    s = [np.arange(samples + 1) / samples for _, _, samples, _ in angle_paths]
    targets = [np.outer(a, 1.0 - t) + np.outer(b, t) for (a, b, _, _), t in zip(angle_paths, s)]
    for th in targets:
        # The ends are exact, and explicit_lengths checks them; between
        # them a (1 - s) + b s can round past pi.
        th[:, 1:-1] = np.minimum(th[:, 1:-1], math.pi)
    coords, lengths, thetas, miss = _place(np.concatenate([np.empty((2, 0)), *targets], axis=1))
    cuts = np.cumsum([t.size for t in s])[:-1]
    columns = zip(*(np.split(v, cuts, axis=-1) for v in (lengths, thetas, coords, miss)))
    starts, ends = (np.concatenate([np.empty((2, 0)), *(th[:, j] for th in targets)], axis=1)
                    for j in (np.s_[:-1], np.s_[1:]))
    orders = [substeps for _, _, samples, substeps in angle_paths for _ in range(samples)]
    steps = np.cumsum([samples for _, _, samples, _ in angle_paths])[:-1]
    values, errors = (np.split(v, steps) for v in _by_parts(starts, ends, orders, _angle_nodes))
    return [AnglePath(t, *path, *(np.cumsum([0.0, *v]) for v in (value, error)))
            for t, value, error, path in zip(s, values, errors, columns)]


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
