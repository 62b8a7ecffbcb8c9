"""Length/angle coordinates, Jacobians, volume, and deformation probes.

The coordinates of a certified structure are the real translation
lengths of the two core curves (with the commutator trace as the third,
frozen slot); the dual coordinates are the exterior bending angles, or
equivalently the cone angles ``phi = 2*(pi - theta)`` of the doubled
manifold.  This module provides:

* the holomorphic Jacobian of (length, length, commutator trace) in the
  trace chart, in closed form with a finite-difference cross-check;
* the explicit inverse of the length map on the marked cusped locus,
  ``explicit_lengths``, which places angle and mixed targets in closed
  form;
* damped Newton solvers for length, angle, and mixed targets over the
  marked pleating root, with a one-sided difference Jacobian whose
  probes never cross a zero length and a closing chord step that takes
  each solution to round-off; a solve that diverges from its seed runs
  once more from the explicit lengths;
* the angle-space derivative matrix ``d(lengths)/d(cone angles)``, by
  the implicit-function theorem at the explicitly placed structure;
* volume differences through the Schlafli form
  ``dVol = -1/2 * sum_i l_i dphi_i`` with trapezoid quadrature and a
  Richardson error estimate, over paths held as ``(3, n)`` arrays of
  trace coordinates and integrated a run of paths at a time as arrays,
  plus concavity and monotonicity probes along angle paths whose
  samples are placed by the explicit inverse;
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
    marked_roots,
    matrices_from_traces,
    pair_from_lengths,
    pleating_candidates,
)
from pleatlab.doubling import doubled_holonomy
from pleatlab.errors import (
    CoordinateDegeneracy,
    NewtonDivergence,
    NumericalOverflow,
    ParabolicOrIdentity,
    PleatlabError,
    TargetOutsideImage,
    UncertifiedPathPoint,
)
from pleatlab.moebius import rotation_about_axis, unimodular
from pleatlab.plaques import bending_angle, certify, certify_batch
from pleatlab.words import WordEvaluator, random_reduced_word

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_FD_STEP = 1e-6
DEGENERACY_TOL = 1e-6
# dl_dphi rejects bending angles closer than this to 0 or pi.
ANGLE_DERIVATIVE_MARGIN = 0.01
# Nodes per run in schlafli_volumes: one certify_batch call and one
# array quadrature over paths held as (3, n) complex arrays (48 bytes a
# node).  A run costs ~0.7 ms plus ~0.9 us per node (2-CPU x86 host) and
# holds ~1.1 KB of arrays per node at its peak, nearly all of it in
# certify_batch, so the budget pays the fixed cost rarely and still
# bounds the memory.
VOLUME_BATCH_NODES = 1024


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


def complex_curve_length(trace):
    """Complex translation length 2*arccosh(trace/2)."""
    return 2.0 * cmath.acosh(trace / 2.0)


# ---------------------------------------------------------------------------
# Holomorphic Jacobian in the trace chart


def holo_length_jacobian(t, fd_check=True):
    """Closed-form Jacobian of (length_a, length_b, kappa) at ``t``.

    Raises :class:`CoordinateDegeneracy` when either curve trace is too
    close to +/-2 for the length coordinate to be differentiable, and
    :class:`NumericalOverflow` when the determinant, an entry or the
    cross-check residual is not finite.  The
    optional cross-check compares every entry against central finite
    differences taken in both the real and the imaginary coordinate
    directions (verifying holomorphy as well as the formulas).
    """
    x, y, z = t.x, t.y, t.z
    for name, val in (("a", x), ("b", y)):
        if min(abs(val - 2.0), abs(val + 2.0)) < DEGENERACY_TOL:
            raise CoordinateDegeneracy(
                f"curve {name} trace {val} is within {DEGENERACY_TOL} of +/-2"
            )
    sx = cmath.sqrt(x * x - 4.0)
    sy = cmath.sqrt(y * y - 4.0)
    rows = (
        (2.0 / sx, 0.0j, 0.0j),
        (0.0j, 2.0 / sy, 0.0j),
        (2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y),
    )
    det = 4.0 * (2.0 * z - x * y) / (sx * sy)
    values = [det, *(v for row in rows for v in row)]
    fd_residual = None
    if fd_check:
        def f(xx, yy, zz):
            return (
                complex_curve_length(xx),
                complex_curve_length(yy),
                kappa(xx, yy, zz),
            )

        fd_residual = 0.0
        h = 1e-6
        base = (x, y, z)
        for j in range(3):
            for direction in (1.0, 1.0j):
                up = list(base)
                dn = list(base)
                up[j] += h * direction
                dn[j] -= h * direction
                fu = f(*up)
                fd = f(*dn)
                for i in range(3):
                    approx = (fu[i] - fd[i]) / (2.0 * h * direction)
                    fd_residual = max(fd_residual, abs(approx - rows[i][j]))
        values.append(fd_residual)
    if not all(cmath.isfinite(v) for v in values):
        raise NumericalOverflow(f"the length Jacobian at {t.astuple()} leaves the float range")
    return {
        "matrix": rows,
        "det": det,
        "fd_residual": fd_residual,
    }


# ---------------------------------------------------------------------------
# Newton solvers over the marked pleating root


def _structure(l_a, l_b, names="ab"):
    """The pair :func:`pair_from_lengths` builds at ``(l_a, l_b)`` and
    the bending angles of the curves in ``names``; a zero length makes
    its curve exactly parabolic, which reads angle pi."""
    pair = pair_from_lengths(l_a, l_b)
    thetas = []
    for name in names:
        try:
            thetas.append(bending_angle(pair, name))
        except ParabolicOrIdentity:
            thetas.append(math.pi)
    return pair, thetas


def measure_structure(l_a, l_b):
    """Coordinates, lengths and raw bending angles at curve lengths.

    The pair comes in closed form from :func:`pair_from_lengths`, with no
    parabolic snapping, so the angles stay smooth arbitrarily close to
    the cusp; only an exactly zero length reports angle pi.
    """
    pair, thetas = _structure(l_a, l_b)
    return pair.coords, (abs(l_a), abs(l_b)), tuple(thetas)


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


def _newton2(residual_fn, u0, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Damped Newton iteration for a residual of two real unknowns.

    The Jacobian is a one-sided difference from the residual already in
    hand plus one probe per unknown at
    ``u_j + copysign(NEWTON_FD_STEP, u_j)``, so an iteration costs three
    residuals and no probe crosses ``u_j = 0``, where the length
    residuals fold over.  Each step is halved up to
    eleven times until the max-norm residual falls.  Once the norm is
    within ``tol``, one chord step with the last Jacobian polishes the
    solution toward round-off; it is kept only if the norm does not
    grow, and ``iterations`` does not count it.  Returns
    ``(u, iterations, norm)`` with ``u`` a pair of floats.
    """
    def try_residual(u):
        """Residual at a trial point, or None where it is undefined
        (overflow, a degenerate or a bending-free structure); the line
        search treats such points as rejected steps."""
        try:
            r0, r1 = residual_fn(u)
        except (PleatlabError, OverflowError, ValueError):
            return None
        if not (math.isfinite(r0) and math.isfinite(r1)):
            return None
        return r0, r1

    u = (float(u0[0]), float(u0[1]))
    r = try_residual(u)
    if r is None:
        raise NewtonDivergence(f"residual undefined at the seed {tuple(u0)}")
    norm = max(abs(r[0]), abs(r[1]))
    iterations = 0
    jac = None
    while norm > tol:
        if iterations >= max_iter:
            raise NewtonDivergence(
                f"no convergence after {max_iter} iterations (residual {norm:.3e})"
            )
        iterations += 1
        ua, ub = u
        ha, hb = (math.copysign(NEWTON_FD_STEP, v) for v in u)
        r_a = try_residual((ua + ha, ub))
        r_b = try_residual((ua, ub + hb))
        if r_a is None or r_b is None:
            raise NewtonDivergence("residual undefined next to an iterate")
        jac = (
            (r_a[0] - r[0]) / ha, (r_b[0] - r[0]) / hb,
            (r_a[1] - r[1]) / ha, (r_b[1] - r[1]) / hb,
        )
        s0, s1 = _solve2(*jac, r[0], r[1])
        if not (math.isfinite(s0) and math.isfinite(s1)):
            raise NewtonDivergence("non-finite Newton step")
        scale = 1.0
        for _ in range(12):
            candidate = (ua - scale * s0, ub - scale * s1)
            rc = try_residual(candidate)
            if rc is not None:
                nc = max(abs(rc[0]), abs(rc[1]))
                if nc < norm or nc <= tol:
                    u, r, norm = candidate, rc, nc
                    break
            scale *= 0.5
        else:
            raise NewtonDivergence("damping failed to reduce the residual")
    if jac is not None and norm > 0.0:
        s0, s1 = _solve2(*jac, r[0], r[1])
        candidate = (u[0] - s0, u[1] - s1)
        rc = try_residual(candidate)
        if rc is not None:
            nc = max(abs(rc[0]), abs(rc[1]))
            if nc <= norm:
                u, norm = candidate, nc
    return u, iterations, norm


def _parse_targets(targets):
    """The validated ``(kind, value)`` targets of curves a and b."""
    parsed = []
    for name in ("a", "b"):
        kind, value = targets[name]
        if kind not in ("length", "angle"):
            raise PleatlabError(f"unknown target kind {kind!r}")
        if kind == "angle" and not 0.0 < value <= math.pi:
            raise TargetOutsideImage(f"bending-angle target {value} outside (0, pi]")
        if kind == "length" and value < 0.0:
            raise TargetOutsideImage(f"length target {value} is negative")
        parsed.append((kind, float(value)))
    return parsed


def _target_residual(targets):
    """Build the residual function for per-curve (kind, value) targets."""
    kinds, values = zip(*_parse_targets(targets))
    angle_slots = [i for i, kind in enumerate(kinds) if kind == "angle"]
    angle_names = "".join("ab"[i] for i in angle_slots)

    def residual(u):
        out = [abs(u[0]) - values[0], abs(u[1]) - values[1]]
        if angle_slots:
            pair, thetas = _structure(u[0], u[1], angle_names)
            if pair.coords.z.imag == 0.0:
                # Bending-free: every angle is 0, the residual is flat.
                raise PleatlabError(f"no bending at lengths {tuple(u)}")
            for i, theta in zip(angle_slots, thetas):
                out[i] = theta - values[i]
        return out

    return residual


def _half_angle(theta):
    """``cos`` and ``sin`` of ``theta / 2``, the cosine taken as
    ``sin((pi - theta) / 2)``: it keeps its relative precision near pi
    and is exactly 0 at the angle pi."""
    return math.sin((math.pi - theta) / 2.0), math.sin(theta / 2.0)


def explicit_lengths(targets):
    """The curve lengths ``(l_a, l_b)`` that hit ``targets`` (as for
    :func:`solve_targets`) exactly.

    On the marked cusped locus ``cos(theta_a/2) = tanh(l_a/2) cosh(l_b/2)``
    and the same with a and b swapped, so the length map inverts in
    closed form, with no cancellation: for two angles
    ``sinh(l_a/2) = sin(theta_b/2) cot(theta_a/2)`` and its mirror; for a
    length ``l_a`` and an angle ``theta_b``
    ``sinh(l_b/2) = cos(theta_b/2) / hypot(sinh(l_a/2), sin(theta_b/2))``,
    and its mirror.  An angle pi gives a length of exactly 0.  Raises
    :class:`NumericalOverflow` when a length leaves the float range.
    """
    (kind_a, value_a), (kind_b, value_b) = _parse_targets(targets)
    lengths = [value_a, value_b]
    try:
        if kind_a == kind_b == "angle":
            cos_a, sin_a = _half_angle(value_a)
            cos_b, sin_b = _half_angle(value_b)
            lengths = [2.0 * math.asinh(sin_b * (cos_a / sin_a)),
                       2.0 * math.asinh(sin_a * (cos_b / sin_b))]
        elif "angle" in (kind_a, kind_b):
            i = (kind_a, kind_b).index("angle")
            cos_t, sin_t = _half_angle(lengths[i])
            sinh_other = math.sinh(lengths[1 - i] / 2.0)
            lengths[i] = 2.0 * math.asinh(cos_t / math.hypot(sinh_other, sin_t))
        if all(math.isfinite(v) for v in lengths):
            return tuple(lengths)
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericalOverflow(f"the lengths for targets {targets} leave the float range")


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


def solve_for_angles(theta_a, theta_b, seed=(1.0, 1.0)):
    return solve_targets({"a": ("angle", theta_a), "b": ("angle", theta_b)}, seed=seed)


def _place_angles(theta_a, theta_b):
    """The structure at the explicit lengths of two angle targets, as a
    :class:`NewtonResult` with no iterations whose residual is the
    measured angles' largest miss."""
    t, lengths, thetas = measure_structure(
        *explicit_lengths({"a": ("angle", theta_a), "b": ("angle", theta_b)})
    )
    miss = max(abs(thetas[0] - theta_a), abs(thetas[1] - theta_b))
    return NewtonResult(t, lengths, thetas, iterations=0, residual=miss)


# ---------------------------------------------------------------------------
# Angle-space derivative of the lengths


def dl_dphi(theta_a, theta_b):
    """Matrix of d(lengths)/d(cone angles) at the given bending angles.

    Cone angles are ``phi_i = 2*(pi - theta_i)``.  The base point is
    placed at :func:`explicit_lengths`; by the implicit-function theorem
    the derivative there
    is ``(-2 * d(theta)/d(l))^-1``, with ``d(theta)/d(l)`` a central
    difference of the angle residual with step ``NEWTON_FD_STEP`` (four
    residuals, no solve).  Requires both angles at least
    ``ANGLE_DERIVATIVE_MARGIN`` away from the degenerate values 0 and pi.
    """
    for val in (theta_a, theta_b):
        if min(val, math.pi - val) < ANGLE_DERIVATIVE_MARGIN:
            raise CoordinateDegeneracy(
                "bending angles too close to 0 or pi for the angle derivative"
            )
    base = _place_angles(theta_a, theta_b)
    residual = _target_residual({"a": ("angle", theta_a), "b": ("angle", theta_b)})
    h = NEWTON_FD_STEP
    cols = []
    for j in range(2):
        up = list(base.lengths)
        dn = list(base.lengths)
        up[j] += h
        dn[j] -= h
        r_up, r_dn = residual(up), residual(dn)
        cols.append([(r_up[i] - r_dn[i]) / (2.0 * h) for i in range(2)])
    dtheta_dl = np.array(cols).T
    matrix = np.linalg.inv(-2.0 * dtheta_dl)
    sym_residual = float(abs(matrix[0, 1] - matrix[1, 0]))
    eigvals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    return {
        "matrix": matrix,
        "symmetry_residual": sym_residual,
        "eigenvalues": tuple(float(v) for v in eigvals),
        "base": base,
    }


# ---------------------------------------------------------------------------
# Volume through the Schlafli form


def _node_batches(paths):
    """Runs of consecutive paths holding at most ``VOLUME_BATCH_NODES``
    nodes together; a longer path forms a run of its own."""
    run, size = [], 0
    for path in paths:
        nodes = path.shape[1]
        if run and size + nodes > VOLUME_BATCH_NODES:
            yield run
            run, size = [], 0
        run.append(path)
        size += nodes
    if run:
        yield run


def _run_volumes(nodes, theta_a, theta_b, sizes):
    """Trapezoid volumes of consecutive paths of ``sizes`` nodes, whose
    columns ``nodes`` joins, from their certified angles.

    Every sum runs over one path's own terms, so a path's result does
    not depend on the paths run with it.  The Richardson comparison is
    against the half-resolution sum over the longest even prefix of the
    intervals; with an odd count the last interval's trapezoid is added
    to both sums.
    """
    x, y = (np.where(v.real < 0, -v, v) for v in nodes[:2])
    lengths = (2.0 * np.arccosh(np.stack((x, y)) / 2.0)).real
    phis = 2.0 * (math.pi - np.stack((theta_a, theta_b)))

    def trapezoids(width):
        """The trapezoid over every ``width``-node interval of the run."""
        terms = -0.5 * 0.5 * (lengths[:, :-width] + lengths[:, width:]) * (
            phis[:, width:] - phis[:, :-width]
        )
        return terms[0] + terms[1]

    sizes = np.asarray(sizes)
    intervals = sizes - 1
    starts = np.cumsum(sizes) - sizes
    # Each node's place in its path, and its path's interval count.
    local = np.arange(nodes.shape[1]) - np.repeat(starts, sizes)
    count = np.repeat(intervals, sizes)

    def path_sums(terms, keep, kept):
        """Per-path sums of the ``keep``-masked terms, ``kept`` a path."""
        return np.add.reduceat(terms[keep[: terms.size]], np.cumsum(kept) - kept)

    single = trapezoids(1)
    full = path_sums(single, local < count, intervals)
    tail = np.where(intervals % 2 == 1, single[starts + intervals - 1], 0.0)
    half = path_sums(trapezoids(2), (local % 2 == 0) & (local + 1 < count), intervals // 2)
    half += tail
    error = np.abs(full - half) / 3.0
    return [
        VolumeResult(value=v, error_estimate=e, nodes=n)
        for v, e, n in zip(full.tolist(), error.tolist(), sizes.tolist())
    ]


def schlafli_volumes(paths):
    """Volume differences along paths of certified structures.

    Each path is a ``(3, n)`` complex array whose rows are the trace
    coordinates x, y and z of its nodes (cusped locus, marked root).
    Integrates ``-1/2 sum_i l_i dphi_i`` by trapezoid over the nodes;
    the error estimate is the Richardson comparison against the
    half-resolution node set.  The nodes of consecutive paths are
    certified together in :func:`certify_batch` calls of at most
    ``VOLUME_BATCH_NODES`` nodes (a longer path in one call of its own)
    and integrated together as arrays; the first node in path order
    that is not convex raises :class:`UncertifiedPathPoint`.  Returns
    one :class:`VolumeResult` per path.
    """
    paths = [np.asarray(path, dtype=complex) for path in paths]
    if any(path.shape[1] < 3 for path in paths):
        raise PleatlabError("need at least three path nodes")
    results = []
    for run in _node_batches(paths):
        nodes = np.concatenate(run, axis=1)
        cert = certify_batch(*nodes)
        uncertified = np.flatnonzero(~cert.is_convex)
        if uncertified.size:
            point = tuple(complex(v) for v in nodes[:, uncertified[0]])
            raise UncertifiedPathPoint(
                f"path point {point} failed convex certification"
            )
        results += _run_volumes(
            nodes, cert.theta_a, cert.theta_b, [path.shape[1] for path in run]
        )
    return results


def coordinate_segment(t0, t1, nodes):
    """Linear interpolation between two marked structures in (x, y): a
    ``(3, nodes + 1)`` complex array of x, y and the marked root z."""
    s = np.arange(nodes + 1) / nodes
    x = (1 - s) * t0.x.real + s * t1.x.real
    y = (1 - s) * t0.y.real + s * t1.y.real
    return np.array((x, y, marked_roots(x, y)))


def volume_between(t0, t1, nodes=64):
    """Volume difference between two structures along the coordinate
    segment joining them (any path gives the same answer; the segment is
    the cheap one)."""
    return schlafli_volumes([coordinate_segment(t0, t1, nodes)])[0]


# ---------------------------------------------------------------------------
# Continuation in angle space


def continuation_to_angles(theta_start, theta_end, samples=12, substeps=8):
    """Sample a straight segment in angle space and integrate its volume.

    The sample at ``s = k / samples`` is placed at the
    :func:`explicit_lengths` of its target angles and measured; its
    ``result`` is a :class:`NewtonResult` with ``iterations`` 0 and the
    measured angles' largest miss as ``residual``.  Returns a list of
    rows with the path parameter, that result, and the cumulative volume
    (integrated segmentwise through the Schlafli form with ``substeps``
    quadrature intervals per step).  Raises :class:`PleatlabError` before
    placing any sample when ``samples < 1`` or ``substeps < 2``.
    """
    if samples < 1:
        raise PleatlabError(f"need at least one sample, got {samples}")
    if substeps < 2:
        raise PleatlabError(f"need at least two substeps, got {substeps}")
    svals = [k / samples for k in range(samples + 1)]
    placed = [
        _place_angles(*((1 - s) * a + s * b for a, b in zip(theta_start, theta_end)))
        for s in svals
    ]
    segments = schlafli_volumes([
        coordinate_segment(prev.coords, res.coords, substeps)
        for prev, res in zip(placed, placed[1:])
    ])
    rows = [{"s": 0.0, "result": placed[0], "volume": 0.0, "volume_error": 0.0}]
    for s, res, seg in zip(svals[1:], placed[1:], segments):
        rows.append({
            "s": s,
            "result": res,
            "volume": rows[-1]["volume"] + seg.value,
            "volume_error": rows[-1]["volume_error"] + seg.error_estimate,
        })
    return rows


def concavity_probe(theta_start, theta_end, samples=10, substeps=24):
    """Volume concavity along a straight angle path.

    Returns the sampled volumes, their second differences, and whether
    every second difference is negative with margin three times the
    accumulated quadrature error.
    """
    rows = continuation_to_angles(
        theta_start, theta_end, samples=samples, substeps=substeps
    )
    vols = [r["volume"] for r in rows]
    svals = [r["s"] for r in rows]
    err = rows[-1]["volume_error"]
    second = []
    for k in range(1, len(vols) - 1):
        h1 = svals[k] - svals[k - 1]
        h2 = svals[k + 1] - svals[k]
        second.append(
            2.0 * (h1 * vols[k + 1] - (h1 + h2) * vols[k] + h2 * vols[k - 1])
            / (h1 * h2 * (h1 + h2))
        )
    ok = all(v < -3.0 * err for v in second)
    return {
        "volumes": vols,
        "parameters": svals,
        "second_differences": second,
        "integration_error": err,
        "concave": ok,
    }


def ray_to_cusp(theta_start, samples=10, substeps=16):
    """Walk the angle ray from ``theta_start`` toward (pi, pi).

    Returns continuation rows; volume must be strictly increasing along
    the ray (the cusp is the volume maximizer).
    """
    end = (math.pi, math.pi)
    return continuation_to_angles(
        theta_start, end, samples=samples, substeps=substeps
    )


# ---------------------------------------------------------------------------
# Cusp-opening derivative against the canonical commuting model


def cusp_derivative_check(x0=2.2, y0=2.2, h=1e-4):
    """Derivative of the puncture traces under opening the cusp.

    Opens the commutator trace to ``-2 + s`` at fixed real (x, y); the
    pants traces stay real so the doubled holonomy persists.  Measures
    the finite-difference derivative of the filling-curve trace (the
    commutator) with respect to the meridian trace and compares its sign
    and size against the square-multiplier ratio of the canonical
    commuting model; also confirms cusp-preserving directions have zero
    cross-derivative.
    """
    def structure_at(s):
        disc = x0 * x0 * y0 * y0 - 4.0 * (x0 * x0 + y0 * y0 - s)
        z = (x0 * y0 + cmath.sqrt(disc)) / 2.0
        if z.imag < 0:
            z = (x0 * y0 - cmath.sqrt(disc)) / 2.0
        return coords(x0, y0, z)

    # Longitude trace in the lift compatible with the canonical model:
    # both the meridian and the longitude have trace +2 at the cusp.
    us = {}
    vs = {}
    for s in (-h, 0.0, h):
        t = structure_at(s)
        dh_ = doubled_holonomy(certify(t))
        us[s] = dh_.trace("e")
        vs[s] = -t.kappa
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
        z, _ = pleating_candidates(x, y0)
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


def quakebend_family(t_seed):
    """t -> generator matrices of the quakebend family at a Fuchsian seed."""
    pair = matrices_from_traces(t_seed)

    def family(t):
        bend = rotation_about_axis(pair.a, t)
        return {"a": pair.a, "b": unimodular(kernel.mat_mul(bend, pair.b))}

    return family


def conjugation_family(t_seed, v=(0.3, 0.25 - 0.1j, -0.05j, -0.3)):
    """t -> generators conjugated by exp(t V) for a fixed sl2 matrix V."""
    pair = matrices_from_traces(t_seed)

    def family(t):
        va, vb, vc, vd = v
        g = _expm2((t * va, t * vb, t * vc, t * vd))
        gi = kernel.mat_inv(g)
        return {
            "a": kernel.mat_mul(kernel.mat_mul(g, pair.a), gi),
            "b": kernel.mat_mul(kernel.mat_mul(g, pair.b), gi),
        }

    return family


def constant_family(t_seed):
    pair = matrices_from_traces(t_seed)

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
    """
    ev_plus = WordEvaluator(family(h))
    ev_minus = WordEvaluator(family(-h))
    ev_zero = WordEvaluator(family(0.0))

    s = 1.0 / (2.0 * h)

    def zeta(word):
        diff = tuple(x - y for x, y in zip(ev_plus.matrix(word), ev_minus.matrix(word)))
        base_inv = kernel.mat_inv(ev_zero.matrix(word))
        return tuple(s * x for x in kernel.mat_mul(diff, base_inv))

    worst = 0.0
    for w1, w2 in word_pairs:
        lhs = zeta(w1 + w2)
        g1 = ev_zero.matrix(w1)
        ad = kernel.mat_mul(kernel.mat_mul(g1, zeta(w2)), kernel.mat_inv(g1))
        rhs = (x + y for x, y in zip(zeta(w1), ad))
        worst = max(worst, max(abs(x - y) for x, y in zip(lhs, rhs)))
    return worst


def cocycle_check(t_seed=None, h=1e-3, pairs=24, seed=0):
    """Second-order convergence of the derivative cocycle defect.

    Runs the quakebend family at a Fuchsian seed over random word
    pairs at steps ``h`` and ``h/2`` and fits the convergence exponent;
    the conjugation (coboundary) and constant families are included as
    controls.  An exponent of at least ~2 certifies the first-order
    deformation is a genuine group cocycle.
    """
    if t_seed is None:
        t_seed = coords(3.0, 3.0, 3.0)
    rng = np.random.default_rng(seed)
    word_pairs = [
        (
            random_reduced_word(rng, "ab", 1, 6),
            random_reduced_word(rng, "ab", 1, 6),
        )
        for _ in range(pairs)
    ]
    fam = quakebend_family(t_seed)
    res_h = cocycle_residual(fam, word_pairs, h)
    res_h2 = cocycle_residual(fam, word_pairs, h / 2.0)
    exponent = math.log2(res_h / res_h2) if res_h2 > 0 else math.inf
    return {
        "residual_h": res_h,
        "residual_h2": res_h2,
        "exponent": exponent,
        "conjugation_residual": cocycle_residual(
            conjugation_family(t_seed), word_pairs, h
        ),
        "constant_residual": cocycle_residual(
            constant_family(t_seed), word_pairs, h
        ),
    }
