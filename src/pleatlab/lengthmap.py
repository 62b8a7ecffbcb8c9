"""Length/angle coordinates, Jacobians, volume, and deformation probes.

The coordinates of a certified structure are the real translation
lengths of the two core curves (with the commutator trace as the third,
frozen slot); the dual coordinates are the exterior bending angles, or
equivalently the cone angles ``phi = 2*(pi - theta)`` of the doubled
manifold.  This module provides:

* the holomorphic Jacobian of (length, length, commutator trace) in the
  trace chart, in closed form with a finite-difference cross-check;
* damped Newton solvers for length, angle, and mixed targets over the
  marked pleating root, with a one-sided difference Jacobian whose
  probes never cross a zero length and a closing chord step that takes
  each solution to round-off;
* the angle-space derivative matrix ``d(lengths)/d(cone angles)``, by
  the implicit-function theorem from one solve and the angle Jacobian;
* volume differences through the Schlafli form
  ``dVol = -1/2 * sum_i l_i dphi_i`` with trapezoid quadrature and a
  Richardson error estimate, plus concavity and monotonicity probes;
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
    commuting_canonical_pair,
    coords,
    kappa,
    marked_roots,
    matrices_from_traces,
    pleating_candidates,
)
from pleatlab.doubling import doubled_holonomy
from pleatlab.errors import (
    CoordinateDegeneracy,
    NewtonDivergence,
    ParabolicOrIdentity,
    PleatlabError,
    TargetOutsideImage,
    UncertifiedPathPoint,
)
from pleatlab.moebius import rotation_about_axis
from pleatlab.plaques import bending_angle, certify, certify_batch
from pleatlab.words import WordEvaluator, random_reduced_word

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_FD_STEP = 1e-6
CONTINUATION_MAX_NEWTON = 8
DEGENERACY_TOL = 1e-6
# dl_dphi rejects bending angles closer than this to 0 or pi.
ANGLE_DERIVATIVE_MARGIN = 0.01
# Nodes per certify_batch call in schlafli_volumes.  A call costs ~1.5 ms
# plus ~1.3 us per node (2-CPU x86 host) and holds ~1.1 KB of arrays per
# node at its peak, so the budget pays the fixed cost rarely and still
# bounds the memory.
VOLUME_BATCH_NODES = 1024


@dataclass(frozen=True)
class LengthSlot:
    name: str
    kind: str  # "length" | "trace"
    value: float
    imag_residual: float


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


def length_map(cert):
    """Length/trace coordinate slots of a certified structure."""
    slots = {}
    for name in ("a", "b"):
        curve = cert.curves[name]
        if curve.parabolic:
            slots[name] = LengthSlot(
                name=name,
                kind="trace",
                value=curve.trace.real,
                imag_residual=abs(curve.trace.imag),
            )
        else:
            lam = complex_curve_length(curve.trace)
            slots[name] = LengthSlot(
                name=name,
                kind="length",
                value=lam.real,
                imag_residual=abs(lam.imag),
            )
    punc = cert.curves["puncture"]
    slots["puncture"] = LengthSlot(
        name="puncture",
        kind="trace",
        value=punc.trace.real,
        imag_residual=abs(punc.trace.imag),
    )
    return slots


# ---------------------------------------------------------------------------
# Holomorphic Jacobian in the trace chart


def _jacobian_rows(x, y, z):
    sx = cmath.sqrt(x * x - 4.0)
    sy = cmath.sqrt(y * y - 4.0)
    row_a = (2.0 / sx, 0.0j, 0.0j)
    row_b = (0.0j, 2.0 / sy, 0.0j)
    row_k = (2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y)
    return (row_a, row_b, row_k)


def holo_length_jacobian(t, fd_check=True, h=1e-6):
    """Closed-form Jacobian of (length_a, length_b, kappa) at ``t``.

    Raises :class:`CoordinateDegeneracy` when either curve trace is too
    close to +/-2 for the length coordinate to be differentiable.  The
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
    rows = _jacobian_rows(x, y, z)
    sx = cmath.sqrt(x * x - 4.0)
    sy = cmath.sqrt(y * y - 4.0)
    det = 4.0 * (2.0 * z - x * y) / (sx * sy)
    fd_residual = None
    if fd_check:
        def f(xx, yy, zz):
            return (
                complex_curve_length(xx),
                complex_curve_length(yy),
                kappa(xx, yy, zz),
            )

        fd_residual = 0.0
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
    return {
        "matrix": rows,
        "det": det,
        "fd_residual": fd_residual,
    }


# ---------------------------------------------------------------------------
# Newton solvers over the marked pleating root


def marked_coords(l_a, l_b):
    """Marked-root trace coordinates for the given curve lengths."""
    x = 2.0 * math.cosh(l_a / 2.0)
    y = 2.0 * math.cosh(l_b / 2.0)
    z, _ = pleating_candidates(x, y)
    return coords(x, y, z)


def measure_structure(l_a, l_b):
    """Lengths and raw geometric bending angles at marked coordinates.

    The angles are evaluated without any parabolic snapping so the map
    stays smooth arbitrarily close to the cusp; exactly parabolic curve
    traces report angle pi.
    """
    t = marked_coords(l_a, l_b)
    pair = matrices_from_traces(t)
    thetas = []
    for name in ("a", "b"):
        try:
            thetas.append(bending_angle(pair, name))
        except ParabolicOrIdentity:
            thetas.append(math.pi)
    return t, (abs(l_a), abs(l_b)), tuple(thetas)


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
        (overflow or a degenerate structure); the line search treats
        such points as rejected steps."""
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


def _target_residual(targets):
    """Build the residual function for per-curve (kind, value) targets."""
    kinds = []
    values = []
    for name in ("a", "b"):
        kind, value = targets[name]
        if kind not in ("length", "angle"):
            raise PleatlabError(f"unknown target kind {kind!r}")
        if kind == "angle" and not 0.0 < value <= math.pi:
            raise TargetOutsideImage(
                f"bending-angle target {value} outside (0, pi]"
            )
        if kind == "length" and value < 0.0:
            raise TargetOutsideImage(f"length target {value} is negative")
        kinds.append(kind)
        values.append(float(value))

    need_angles = any(kind == "angle" for kind in kinds)

    def residual(u):
        out = []
        pair = None
        if need_angles:
            pair = matrices_from_traces(marked_coords(u[0], u[1]))
        for i, (name, kind) in enumerate(zip("ab", kinds)):
            if kind == "length":
                out.append(abs(u[i]) - values[i])
                continue
            try:
                theta = bending_angle(pair, name)
            except ParabolicOrIdentity:
                theta = math.pi
            out.append(theta - values[i])
        return out

    return residual


def _homotopy_solve(targets, seed, tol, max_iter):
    """March the targets from the seed's own measured values.

    The residual at the seed is zero for the blended target at s = 0 by
    construction, so adaptive stepping in s turns a divergent direct
    solve into a chain of short, well-seeded ones.  Used near the flat
    (bending-free) boundary where the angle map loses smoothness.
    """
    _, lengths, thetas = measure_structure(seed[0], seed[1])
    start = {}
    for i, name in enumerate(("a", "b")):
        kind, _ = targets[name]
        start[name] = lengths[i] if kind == "length" else thetas[i]
    u = (float(seed[0]), float(seed[1]))
    s = 0.0
    step = 0.5
    total_iterations = 0
    norm = math.inf
    while s < 1.0:
        s_try = min(1.0, s + step)
        blended = {
            name: (
                targets[name][0],
                (1.0 - s_try) * start[name] + s_try * targets[name][1],
            )
            for name in ("a", "b")
        }
        try:
            u_new, iterations, norm = _newton2(
                _target_residual(blended), u, tol=tol, max_iter=20
            )
        except NewtonDivergence:
            step /= 2.0
            if step < 1.0 / 4096.0:
                raise NewtonDivergence(
                    f"target homotopy stalled at s={s:.4f}"
                ) from None
            continue
        u = u_new
        s = s_try
        total_iterations += iterations
        if s < 1.0:
            step = min(step * 2.0, 1.0 - s)
    return u, total_iterations, norm


def solve_targets(targets, seed=(1.0, 1.0), tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Solve for a structure hitting per-curve length or angle targets.

    ``targets``: dict with keys "a" and "b", values ``("length", v)`` or
    ``("angle", v)``.  ``seed`` is a pair of starting curve lengths.
    When the direct damped Newton iteration diverges, the solve is
    retried as a continuation in target space.
    """
    residual_fn = _target_residual(targets)
    try:
        u, iterations, norm = _newton2(residual_fn, seed, tol=tol, max_iter=max_iter)
    except NewtonDivergence:
        u, iterations, norm = _homotopy_solve(targets, seed, tol, max_iter)
    t, lengths, thetas = measure_structure(u[0], u[1])
    return NewtonResult(
        coords=t,
        lengths=lengths,
        thetas=thetas,
        iterations=iterations,
        residual=norm,
    )


def solve_for_lengths(l_a, l_b, seed=None, **kw):
    seed = seed or (max(l_a, 0.1), max(l_b, 0.1))
    return solve_targets(
        {"a": ("length", l_a), "b": ("length", l_b)}, seed=seed, **kw
    )


def solve_for_angles(theta_a, theta_b, seed=(1.0, 1.0), **kw):
    return solve_targets(
        {"a": ("angle", theta_a), "b": ("angle", theta_b)}, seed=seed, **kw
    )


# ---------------------------------------------------------------------------
# Angle-space derivative of the lengths


def dl_dphi(theta_a, theta_b, seed=(1.0, 1.0)):
    """Matrix of d(lengths)/d(cone angles) at the given bending angles.

    Cone angles are ``phi_i = 2*(pi - theta_i)``.  The base point is
    solved once; by the implicit-function theorem the derivative there
    is ``(-2 * d(theta)/d(l))^-1``, with ``d(theta)/d(l)`` a central
    difference of the angle residual with step ``NEWTON_FD_STEP`` (four
    residuals, no further solves).  Requires both angles at least
    ``ANGLE_DERIVATIVE_MARGIN`` away from the degenerate values 0 and pi.
    """
    for val in (theta_a, theta_b):
        if min(val, math.pi - val) < ANGLE_DERIVATIVE_MARGIN:
            raise CoordinateDegeneracy(
                "bending angles too close to 0 or pi for the angle derivative"
            )
    base = solve_for_angles(theta_a, theta_b, seed=seed)
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


def _trapezoid_volume(states):
    total = 0.0
    for k in range(len(states) - 1):
        (l0, p0), (l1, p1) = states[k], states[k + 1]
        for i in range(2):
            total += -0.5 * 0.5 * (l0[i] + l1[i]) * (p1[i] - p0[i])
    return total


def _path_volume(path, theta_a, theta_b):
    """Trapezoid volume along ``path`` from its certified angles, with the
    Richardson comparison against the half-resolution node set."""
    states = []
    for t, ta, tb in zip(path, theta_a, theta_b):
        t = t.normalized()
        lengths = (complex_curve_length(t.x).real, complex_curve_length(t.y).real)
        states.append((lengths, (2.0 * (math.pi - ta), 2.0 * (math.pi - tb))))
    full = _trapezoid_volume(states)
    half = _trapezoid_volume(states[::2] if len(states) % 2 == 1 else states[::2] + [states[-1]])
    return VolumeResult(
        value=full,
        error_estimate=abs(full - half) / 3.0,
        nodes=len(path),
    )


def _node_batches(paths):
    """Runs of consecutive paths holding at most ``VOLUME_BATCH_NODES``
    nodes together; a longer path forms a run of its own."""
    run, size = [], 0
    for path in paths:
        if run and size + len(path) > VOLUME_BATCH_NODES:
            yield run
            run, size = [], 0
        run.append(path)
        size += len(path)
    if run:
        yield run


def schlafli_volumes(paths):
    """Volume differences along paths of certified structures.

    Each path is a sequence of :class:`TraceCoords` nodes (cusped locus,
    marked root).  Integrates ``-1/2 sum_i l_i dphi_i`` by trapezoid
    over the nodes; the error estimate is the Richardson comparison
    against the half-resolution node set.  The nodes of consecutive
    paths are certified together in :func:`certify_batch` calls of at
    most ``VOLUME_BATCH_NODES`` nodes (a longer path in one call of its
    own); the first node in path order that is not convex raises
    :class:`UncertifiedPathPoint`.  Returns one :class:`VolumeResult`
    per path.
    """
    if any(len(path) < 3 for path in paths):
        raise PleatlabError("need at least three path nodes")
    results = []
    for run in _node_batches(paths):
        nodes = [t for path in run for t in path]
        cert = certify_batch(*zip(*(t.astuple() for t in nodes)))
        uncertified = np.flatnonzero(~cert.is_convex)
        if uncertified.size:
            t = nodes[uncertified[0]]
            raise UncertifiedPathPoint(
                f"path point {t.astuple()} failed convex certification"
            )
        theta_a, theta_b = cert.theta_a.tolist(), cert.theta_b.tolist()
        start = 0
        for path in run:
            stop = start + len(path)
            results.append(_path_volume(path, theta_a[start:stop], theta_b[start:stop]))
            start = stop
    return results


def coordinate_segment(t0, t1, nodes):
    """Linear interpolation between two marked structures in (x, y)."""
    s = np.arange(nodes + 1) / nodes
    x = (1 - s) * t0.x.real + s * t1.x.real
    y = (1 - s) * t0.y.real + s * t1.y.real
    z = marked_roots(x, y)
    return [coords(*node) for node in zip(x.tolist(), y.tolist(), z.tolist())]


def volume_between(t0, t1, nodes=64):
    """Volume difference between two structures along the coordinate
    segment joining them (any path gives the same answer; the segment is
    the cheap one)."""
    return schlafli_volumes([coordinate_segment(t0, t1, nodes)])[0]


# ---------------------------------------------------------------------------
# Continuation in angle space


def continuation_to_angles(theta_start, theta_end, samples=12, seed=(1.0, 1.0),
                           max_newton=CONTINUATION_MAX_NEWTON,
                           max_depth=8, substeps=8):
    """Walk a straight segment in angle space, solving at each sample.

    Each sample is seeded by linear extrapolation from the last two
    solved samples, or by the last lengths where that prediction is not
    positive.  The step is halved (by inserting intermediate targets)
    whenever the Newton solve needs more than ``max_newton`` iterations
    or diverges.  Returns a list of rows with the path parameter, solved
    structure, lengths, angles, and the cumulative volume (integrated
    segmentwise through the Schlafli form with ``substeps`` quadrature
    intervals per step).  Raises
    :class:`PleatlabError` before any solve when ``samples < 1`` or
    ``substeps < 2``.
    """
    if samples < 1:
        raise PleatlabError(f"need at least one sample, got {samples}")
    if substeps < 2:
        raise PleatlabError(f"need at least two substeps, got {substeps}")
    theta_start = tuple(theta_start)
    theta_end = tuple(theta_end)
    solved = []

    def solve_at(s):
        target = tuple((1 - s) * theta_start[i] + s * theta_end[i] for i in range(2))
        return solve_targets(
            {"a": ("angle", target[0]), "b": ("angle", target[1])}, seed=predict(s)
        )

    def predict(s):
        """Secant seed for the sample at ``s``."""
        if not solved:
            return seed
        s1, last = solved[-1]
        if len(solved) == 1:
            return last.lengths
        s0, prev = solved[-2]
        w = (s - s1) / (s1 - s0)
        guess = tuple(a + w * (a - b) for a, b in zip(last.lengths, prev.lengths))
        return guess if min(guess) > 0.0 else last.lengths

    def advance(s, depth=0):
        """Append solved samples up to ``s``, halving the step on failure."""
        lo = solved[-1][0]
        try:
            res = solve_at(s)
            if res.iterations <= max_newton:
                solved.append((s, res))
                return
        except NewtonDivergence:
            if depth >= max_depth:
                raise
            res = None
        if depth >= max_depth:
            solved.append((s, res))
            return
        mid = (lo + s) / 2.0
        advance(mid, depth + 1)
        advance(s, depth + 1)

    solved.append((0.0, solve_at(0.0)))
    for k in range(1, samples + 1):
        advance(k / samples)
    segments = schlafli_volumes([
        coordinate_segment(prev.coords, res.coords, substeps)
        for (_, prev), (_, res) in zip(solved, solved[1:])
    ])
    rows = []
    cumulative = 0.0
    err = 0.0
    for idx, (s, res) in enumerate(solved):
        if idx > 0:
            seg = segments[idx - 1]
            cumulative += seg.value
            err += seg.error_estimate
        rows.append(
            {
                "s": s,
                "result": res,
                "volume": cumulative,
                "volume_error": err,
            }
        )
    return rows


def concavity_probe(theta_start, theta_end, samples=10, substeps=24, seed=(1.0, 1.0)):
    """Volume concavity along a straight angle path.

    Returns the sampled volumes, their second differences, and whether
    every second difference is negative with margin three times the
    accumulated quadrature error.
    """
    rows = continuation_to_angles(
        theta_start, theta_end, samples=samples, seed=seed, substeps=substeps
    )
    vols = [r["volume"] for r in rows]
    svals = [r["s"] for r in rows]
    err = rows[-1]["volume_error"]
    second = []
    for k in range(1, len(vols) - 1):
        h1 = svals[k] - svals[k - 1]
        h2 = svals[k + 1] - svals[k]
        if h1 <= 0 or h2 <= 0:
            continue
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


def ray_to_cusp(theta_start, samples=10, seed=(1.0, 1.0), substeps=16):
    """Walk the angle ray from ``theta_start`` toward (pi, pi).

    Returns continuation rows; volume must be strictly increasing along
    the ray (the cusp is the volume maximizer).
    """
    end = (math.pi, math.pi)
    return continuation_to_angles(
        theta_start, end, samples=samples, seed=seed, substeps=substeps
    )


# ---------------------------------------------------------------------------
# Cusp-opening derivative against the canonical commuting model


def _doubled_at(t):
    cert = certify(t)
    pair = matrices_from_traces(t)
    return doubled_holonomy(pair, cert)


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
        dh_ = _doubled_at(t)
        us[s] = dh_.trace("e")
        vs[s] = -t.kappa
    du = us[h] - us[-h]
    dv = vs[h] - vs[-h]
    if abs(du) == 0:
        raise PleatlabError("meridian trace did not move under cusp opening")
    ratio = dv / du
    # Independent estimate of the square multiplier from the trace
    # relation (v^2 - 4) = h^2 (u^2 - 4) evaluated just off the cusp.
    t_off = structure_at(h)
    dh_off = _doubled_at(t_off)
    u_off = dh_off.trace("e")
    v_off = -t_off.kappa
    hsq_est = (v_off * v_off - 4.0) / (u_off * u_off - 4.0)
    # Cusp-preserving direction: move x along the cusped locus.
    kappas = []
    for r in (-h, h):
        x = x0 + r
        z, _ = pleating_candidates(x, y0)
        kappas.append(kappa(x, y0, z))
    cross = abs(kappas[1] - kappas[0]) / (2.0 * h)
    # Canonical commuting model at the cusp: dv/du equals the square
    # multiplier exactly.
    model = commuting_canonical_pair(2.0 + h, cmath.sqrt(hsq_est))
    model_lo = commuting_canonical_pair(2.0 - h, cmath.sqrt(hsq_est))
    model_dvdu = (model["v"] - model_lo["v"]) / (2.0 * h)
    return {
        "ratio": ratio,
        "hsq_estimate": hsq_est,
        "model_dvdu": model_dvdu,
        "relative_mismatch": abs(ratio - hsq_est) / abs(hsq_est),
        "model_mismatch": abs(model_dvdu - hsq_est) / abs(hsq_est),
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
        return {"a": pair.a.matrix, "b": (bend @ pair.b).matrix}

    return family


def conjugation_family(t_seed, v=(0.3, 0.25 - 0.1j, -0.05j, -0.3)):
    """t -> generators conjugated by exp(t V) for a fixed sl2 matrix V."""
    pair = matrices_from_traces(t_seed)

    def family(t):
        va, vb, vc, vd = v
        g = _expm2((t * va, t * vb, t * vc, t * vd))
        gi = kernel.mat_inv(g)
        return {
            "a": kernel.mat_mul(kernel.mat_mul(g, pair.a.matrix), gi),
            "b": kernel.mat_mul(kernel.mat_mul(g, pair.b.matrix), gi),
        }

    return family


def constant_family(t_seed):
    pair = matrices_from_traces(t_seed)

    def family(t):
        return {"a": pair.a.matrix, "b": pair.b.matrix}

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
