"""Pants plaques, planarity certification, and bending angles.

Cutting the once-punctured torus along the a-curve leaves a pants whose
boundary curves carry the words ``a``, ``b a b^-1`` and the puncture
word ``a b a^-1 b^-1``; cutting along the b-curve gives ``b``,
``a b a^-1`` and ``b a b^-1 a^-1``.  When those words all have real
traces the corresponding subgroup preserves a circle on the sphere, and
the convex-core boundary piece it carries is the totally geodesic
"plaque" over that circle.  Certification checks exactly that: real
traces, concyclic housed fixed points, and positive bending angles
between neighbouring plaques.

The bending angle along a curve is read off a "roof": normalize the
curve's axis to (0, infinity), take the two plaque circles through it
(the base plaque and its neighbour, its image under the inverse of the
other generator), and measure the wedge between the rays that carry the
two cusp points.  A third reference point (a fixed point of the other
generator, which lies strictly inside the convex hull's wedge) picks
which of the two complementary wedges is the inside.  The exterior
bending angle is then pi minus the inside wedge.

:func:`certify` normalizes the coordinates (Re x >= 0, Re y >= 0),
realizes them by one pair of matrices, and returns a flat
:class:`Certification` that keeps that pair: the plaque charts are
fitted to it, so whatever reads the charts (the doubled holonomy) reads
the pair from the same record.
"""

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from pleatlab import kernel
from pleatlab.chartor import (
    REDUCIBLE_TOL,
    RepPair,
    TraceCoords,
    coords,
    kappa,
    matrices_from_traces,
)
from pleatlab.errors import (
    NonRealTraces,
    NotFuchsian,
    ParabolicOrIdentity,
    PleatlabError,
    ReducibleLocus,
)
from pleatlab.moebius import (
    DET_TOL,
    chordal_distance,
    circle_chart,
    fixed_points,
    map_to_zero_infinity,
    rotation_about_axis,
    unimodular,
)

REAL_TRACE_TOL = 1e-6
PLANARITY_TOL = 1e-6
PARABOLIC_FLAG_TOL = 1e-8
CONVEXITY_TOL = 1e-8
FUCHSIAN_TOL = 1e-8

SIDE_DATA = {
    "top": {
        "axis_letter": "a",
        "boundary_words": ("a", "baB", "abAB"),
        "test_letter": "b",
    },
    "bottom": {
        "axis_letter": "b",
        "boundary_words": ("b", "abA", "baBA"),
        "test_letter": "a",
    },
}

CURVE_SIDE = {"a": "top", "b": "bottom"}


@dataclass(frozen=True)
class Plaque:
    """A plaque circle, carried by its chart (:func:`circle_chart`): the
    unimodular matrix sending the circle onto the real line."""

    chart: tuple
    planarity_residual: float
    housed_points: tuple


@dataclass(frozen=True)
class Certification:
    """What :func:`certify` found at ``coords`` (normalized to Re x >= 0
    and Re y >= 0), with ``pair``, the matrices realizing them that the
    plaque charts were fitted to.

    An undefined angle is ``None``; ``max_planarity_residual`` is
    infinite when a plaque is missing.
    """

    coords: TraceCoords
    pair: RepPair
    plaques: dict
    plaque_errors: dict
    theta_a: float | None
    theta_b: float | None
    theta_puncture: float | None
    max_real_trace_residual: float
    max_planarity_residual: float
    is_piecewise_geodesic: bool
    is_convex: bool
    is_fuchsian_boundary: bool
    in_pleating_variety: bool

    @property
    def theta(self):
        return (self.theta_a, self.theta_b, self.theta_puncture)


def _parabolic_vertex(matrix):
    a, _, c, d = matrix
    if abs(c) < 1e-13:
        return None
    return (a - d) / (2.0 * c)


def _housed_points(pair, side):
    """Fixed points housed on a plaque, stably, with elliptic words skipped."""
    data = SIDE_DATA[side]
    axis_letter = data["axis_letter"]
    axis, conj = (pair.a, pair.b) if axis_letter == "a" else (pair.b, pair.a)
    points = []
    trace0 = pair.trace(axis_letter)
    if min(abs(trace0 - 2.0), abs(trace0 + 2.0)) < 1e-13:
        vertex = _parabolic_vertex(axis)
        points.append(vertex)
        points.append(kernel.apply_mobius(conj, vertex))
    else:
        att, rep = pair.balanced_points(axis_letter)
        points.extend([att, rep])
        points.extend(kernel.apply_mobius(conj, w) for w in (att, rep))
    cusp_word = data["boundary_words"][2]
    cusp_matrix = pair.matrix(cusp_word)
    cusp_trace = cusp_matrix[0] + cusp_matrix[3]
    if min(abs(cusp_trace - 2.0), abs(cusp_trace + 2.0)) < 1e-9:
        points.append(_parabolic_vertex(cusp_matrix))
    elif abs(cusp_trace.real) > 2.0 or abs(cusp_trace.imag) > 1e-9:
        points.extend(fixed_points(unimodular(cusp_matrix)))
    # Elliptic cusp word (real trace in (-2, 2)): its fixed points are a
    # conjugate pair off the plaque plane, so they are not housed.
    return tuple(points)


def _spread_triple(points):
    dist = {
        (i, j): chordal_distance(points[i], points[j])
        for i, j in combinations(range(len(points)), 2)
    }
    best = None
    best_score = -1.0
    for combo in combinations(range(len(points)), 3):
        score = min(dist[pair] for pair in combinations(combo, 2))
        if score > best_score + 1e-15:
            best_score = score
            best = combo
    if best is None or best_score < 1e-12:
        raise PleatlabError("housed points do not contain a separated triple")
    return best


def plaque_circle(pair, side, real_tol=REAL_TRACE_TOL):
    """Fit the plaque circle of one pants side and measure planarity.

    Raises :class:`NonRealTraces` when the pants boundary words fail the
    real-trace precondition.
    """
    data = SIDE_DATA[side]
    residuals = [abs(pair.trace(w).imag) for w in data["boundary_words"]]
    if max(residuals) > real_tol:
        raise NonRealTraces(
            f"{side} pants traces have imaginary parts up to {max(residuals):.3e}"
        )
    points = _housed_points(pair, side)
    fit = _spread_triple(points)
    chart = circle_chart(*(points[i] for i in fit))
    residual = 0.0
    for i, w in enumerate(points):
        if i not in fit:
            image = kernel.apply_mobius(chart, w)
            if image is not None:
                residual = max(residual, abs(image.imag))
    return Plaque(chart=chart, planarity_residual=residual, housed_points=points)


def bending_angle(pair, curve):
    """Signed exterior bending angle along the a- or b-curve.

    Positive means convex (the neighbouring plaques fold toward the
    hull), zero is Fuchsian, negative is a concave crease.  Requires the
    curve's holonomy to be non-parabolic: :class:`ParabolicOrIdentity`
    is raised exactly when its equal-diagonal generator has ``b*c == 0``,
    and a generator however close to parabolic is measured.
    """
    data = SIDE_DATA[CURVE_SIDE[curve]]
    test_letter = "b" if curve == "a" else "a"
    gen, test_gen = (pair.a, pair.b) if curve == "a" else (pair.b, pair.a)
    if gen[1] * gen[2] == 0:
        raise ParabolicOrIdentity("bending angle undefined on a parabolic curve")
    t = pair.coords
    scale = max(1.0, abs(t.x), abs(t.y), abs(t.z))
    if max(abs(t.x.imag), abs(t.y.imag), abs(t.z.imag)) < 1e-12 * scale:
        # Real coordinates put every plaque in one plane: the structure
        # is bending-free and the roof wedge below is degenerate.
        return 0.0
    att, rep = pair.balanced_points(curve)
    h = map_to_zero_infinity(rep, att)
    s = _parabolic_vertex(pair.matrix(data["boundary_words"][2]))
    d1 = kernel.apply_mobius(h, s)
    # The neighbouring plaque is moved by the other generator's inverse.
    d2 = kernel.apply_mobius(h, kernel.apply_mobius(kernel.mat_inv(test_gen), s))
    if d1 is None or d2 is None or abs(d1) < 1e-13 or abs(d2) < 1e-13:
        raise PleatlabError("degenerate roof: cusp point on the curve axis")
    if test_gen[2] == 0:
        # The normal form's parabolic case: the fixed point is infinity.
        probes = (None,)
    else:
        probes = pair.balanced_points(test_letter)
    phi1 = cmath.phase(d1)
    delta2 = (cmath.phase(d2) - phi1) % (2.0 * math.pi)
    psi = None
    for probe in probes:
        dt = kernel.apply_mobius(h, probe)
        if dt is None or abs(dt) < 1e-13:
            continue
        delta_t = (cmath.phase(dt) - phi1) % (2.0 * math.pi)
        if delta_t in (0.0, delta2):
            continue
        psi = delta2 if 0.0 < delta_t < delta2 else 2.0 * math.pi - delta2
        break
    if psi is None:
        raise PleatlabError("no usable interior probe for the roof wedge")
    return math.pi - psi


def certify(
    t,
    real_tol=REAL_TRACE_TOL,
    planar_tol=PLANARITY_TOL,
    parabolic_tol=PARABOLIC_FLAG_TOL,
    convex_tol=CONVEXITY_TOL,
):
    """Certify the convex/pleated structure at trace coordinates ``t``.

    Never raises for ordinary geometric failures; those are reported in
    the returned :class:`Certification` flags and residuals.  Raises
    :class:`ReducibleLocus` for coordinates with no irreducible
    realization.  A curve's angle is pi only when its generator is
    exactly parabolic; however close to 2 its trace is otherwise, the
    angle is measured.  ``parabolic_tol`` bounds the puncture's distance
    from the cusped locus.
    """
    t = t.normalized()
    pair = matrices_from_traces(t)
    cusp_residual = t.cusp_residual
    real_a, real_b = abs(t.x.imag), abs(t.y.imag)
    plaques = {}
    errors = {}
    for side in ("top", "bottom"):
        try:
            plaques[side] = plaque_circle(pair, side, real_tol=real_tol)
            errors[side] = None
        except (NonRealTraces, PleatlabError) as exc:
            plaques[side] = None
            errors[side] = str(exc)
    thetas = []
    for name, gen, real in (("a", pair.a, real_a), ("b", pair.b, real_b)):
        if gen[1] * gen[2] == 0:
            # Exactly parabolic (bending_angle's ParabolicOrIdentity test):
            # a cusp, whose angle is pi.
            theta = math.pi
        elif plaques[CURVE_SIDE[name]] is not None and real <= real_tol:
            try:
                theta = bending_angle(pair, name)
            except PleatlabError:
                theta = None
        else:
            theta = None
        thetas.append(theta)
    planarity = [p.planarity_residual for p in plaques.values() if p is not None]
    is_pg = (
        all(p is not None for p in plaques.values())
        and all(p.planarity_residual <= planar_tol for p in plaques.values())
        and real_a <= real_tol
        and real_b <= real_tol
        and abs(t.kappa.imag) <= real_tol
    )
    defined_thetas = [v for v in thetas if v is not None]
    is_convex = (
        is_pg
        and cusp_residual < parabolic_tol
        and len(defined_thetas) == 2
        and all(v >= -convex_tol for v in defined_thetas)
    )
    is_fuchsian = t.is_real(FUCHSIAN_TOL)
    return Certification(
        coords=t,
        pair=pair,
        plaques=plaques,
        plaque_errors=errors,
        theta_a=thetas[0],
        theta_b=thetas[1],
        theta_puncture=math.pi if cusp_residual < parabolic_tol else None,
        max_real_trace_residual=max(real_a, real_b, abs(t.kappa.imag)),
        max_planarity_residual=max(planarity) if planarity else math.inf,
        is_piecewise_geodesic=is_pg,
        is_convex=is_convex,
        is_fuchsian_boundary=is_fuchsian,
        in_pleating_variety=is_convex and not is_fuchsian,
    )


# ---------------------------------------------------------------------------
# Batched certification
#
# ``certify_batch`` evaluates the branch of ``certify`` that marked
# structures take (non-parabolic generators, real pants traces, a
# parabolic cusp word, a proper roof) on whole arrays.  Each helper below
# mirrors one scalar step, in the same order of operations, and returns a
# mask of the points where that step would branch differently; those
# points are recomputed by ``certify``, which stays the reference.


@dataclass(frozen=True)
class BatchCertification:
    """Per-point results of :func:`certify_batch`, as one array per field.

    The thetas are NaN where :func:`certify` reports ``None``.
    ``fallback`` marks the points recomputed by :func:`certify`.
    """

    theta_a: np.ndarray
    theta_b: np.ndarray
    theta_puncture: np.ndarray
    is_convex: np.ndarray
    is_fuchsian_boundary: np.ndarray
    in_pleating_variety: np.ndarray
    max_real_trace_residual: np.ndarray
    max_planarity_residual: np.ndarray
    fallback: np.ndarray


# Generator traces this close to +/-2 leave the batch.  The scalar path
# switches to parabolic vertices at 1e-13, and before that the planarity
# residual is ill-conditioned: the axis fixed points merge, and rounding
# moves the residual by about 1e-16 / sqrt(|trace -/+ 2|), which is
# 2e-12 at 1e-8 and 2e-14 here.
_BATCH_PARABOLIC = 1e-4


def _word_batch(gens, word):
    """``RepPair.matrix`` over arrays: the same left-to-right product
    (``eval_word``'s leading identity factor changes no finite value)."""
    factors = [
        gens[ch] if ch.islower() else kernel.mat_inv(gens[ch.lower()])
        for ch in word
    ]
    return reduce(kernel.mat_mul, factors)


def _moebius_batch(m):
    """``unimodular``'s det-1 normalization, and the mask where it raises."""
    det = m[0] * m[3] - m[1] * m[2]
    rescale = np.abs(det - 1.0) > DET_TOL
    s = np.sqrt(det)
    return tuple(np.where(rescale, v / s, v) for v in m), np.abs(det) < 1e-14


def _apply_batch(m, z):
    """``apply_mobius`` at finite points, and the mask of images at infinity."""
    num = m[0] * z + m[1]
    den = m[2] * z + m[3]
    return num / den, den == 0


def _balanced_batch(m):
    """``balanced_fixed_points``, and the mask where it raises."""
    a, b, c, d = m
    s = np.sqrt(b * c)
    z_plus = s / c
    z_minus = -s / c
    swap = np.abs(c * z_minus + d) > np.abs(c * z_plus + d)
    bad = (np.abs(a - d) > 1e-12 * (np.abs(a) + np.abs(d))) | (c == 0)
    return np.where(swap, z_minus, z_plus), np.where(swap, z_plus, z_minus), bad


def _chordal_batch(z, w):
    """``chordal_distance`` between finite points, and the mask where the
    scalar treats a point as infinity or the distance is not finite."""
    az, aw = np.abs(z), np.abs(w)
    dist = 2.0 * np.abs(z - w) / np.sqrt((1.0 + az * az) * (1.0 + aw * aw))
    return dist, (az > 1e150) | (aw > 1e150) | ~np.isfinite(dist)


def _concyclicity_batch(p, q, r, s):
    """``plaque_circle``'s planarity of ``s`` at finite points: the
    imaginary part of the image of ``s`` under the chart of ``p, q, r``,
    written as the cross-ratio."""
    num = (p - r) * (q - s)
    den = (p - s) * (q - r)
    return np.where(den == 0, 0.0, np.abs((num / den).imag))


def _planarity_batch(points):
    """``_spread_triple``'s choice and ``plaque_circle``'s residual."""
    leave = np.zeros(points[0].shape, dtype=bool)
    dist = {}
    for i, j in combinations(range(len(points)), 2):
        dist[i, j], bad = _chordal_batch(points[i], points[j])
        leave |= bad
    combos = list(combinations(range(len(points)), 3))
    best = np.full(points[0].shape, -1.0)
    choice = np.zeros(points[0].shape, dtype=int)
    for k, combo in enumerate(combos):
        d01, d02, d12 = (dist[pair] for pair in combinations(combo, 2))
        score = np.minimum(np.minimum(d01, d02), d12)
        better = score > best + 1e-15
        best = np.where(better, score, best)
        choice = np.where(better, k, choice)
    # Row k lists combo k, then the remaining points in index order.
    order = np.array(
        [combo + tuple(i for i in range(len(points)) if i not in combo) for combo in combos]
    )
    p0, p1, p2, *rest = np.take_along_axis(np.stack(points), order[choice].T, axis=0)
    residual = np.zeros(points[0].shape)
    for w in rest:
        residual = np.maximum(residual, _concyclicity_batch(p0, p1, p2, w))
    return residual, leave | (best < 1e-12) | ~np.isfinite(residual)


def _side_batch(gens, side, real_tol):
    """``plaque_circle`` on one pants side: its axis fixed points, cusp
    vertex and planarity residual, and the mask of points it leaves."""
    data = SIDE_DATA[side]
    words = [_word_batch(gens, w) for w in data["boundary_words"]]
    traces = [m[0] + m[3] for m in words]
    leave = np.maximum.reduce([np.abs(tr.imag) for tr in traces]) > real_tol
    axis_trace, cusp_trace = traces[0], traces[2]
    leave |= np.minimum(np.abs(axis_trace - 2.0), np.abs(axis_trace + 2.0)) < _BATCH_PARABOLIC
    att, rep, bad = _balanced_batch(gens[data["axis_letter"]])
    leave |= bad
    # The other generator moves the axis fixed points onto the plaque.
    conj = gens[data["test_letter"]]
    conj_att, inf_att = _apply_batch(conj, att)
    conj_rep, inf_rep = _apply_batch(conj, rep)
    leave |= inf_att | inf_rep
    cusp = words[2]
    leave |= np.minimum(np.abs(cusp_trace - 2.0), np.abs(cusp_trace + 2.0)) >= 1e-9
    leave |= np.abs(cusp[2]) < 1e-13
    vertex = (cusp[0] - cusp[3]) / (2.0 * cusp[2])
    residual, bad = _planarity_batch([att, rep, conj_att, conj_rep, vertex])
    return (att, rep, vertex), residual, leave | bad


def _roof_batch(gens, side, axis_points, test_points):
    """``bending_angle``'s roof wedge along the side's curve, and the mask
    of points where it raises."""
    att, rep, vertex = axis_points
    dist, leave = _chordal_batch(rep, att)
    leave |= dist < 1e-14
    h, bad = _moebius_batch((1.0, -rep, 1.0, -att))
    leave |= bad
    # The neighbouring plaque's cusp point, moved as in bending_angle.
    translate = kernel.mat_inv(gens[SIDE_DATA[side]["test_letter"]])
    d1, inf1 = _apply_batch(h, vertex)
    moved, inf2 = _apply_batch(translate, vertex)
    d2, inf3 = _apply_batch(h, moved)
    leave |= inf1 | inf2 | inf3 | (np.abs(d1) < 1e-13) | (np.abs(d2) < 1e-13)
    phi1 = np.angle(d1)
    delta2 = np.mod(np.angle(d2) - phi1, 2.0 * math.pi)
    psi = np.full(phi1.shape, np.nan)
    for probe in test_points:
        dt, inf = _apply_batch(h, probe)
        delta_t = np.mod(np.angle(dt) - phi1, 2.0 * math.pi)
        usable = (
            np.isnan(psi) & ~inf & (np.abs(dt) >= 1e-13)
            & (delta_t != 0.0) & (delta_t != delta2)
        )
        inside = (0.0 < delta_t) & (delta_t < delta2)
        psi = np.where(usable, np.where(inside, delta2, 2.0 * math.pi - delta2), psi)
    return math.pi - psi, leave | np.isnan(psi)


def _certify_branch(x, y, z, real_tol, planar_tol, parabolic_tol, convex_tol):
    """The common branch of :func:`certify` over arrays, and the mask of
    points that leave it."""
    flip = x.real < 0
    x, z = np.where(flip, -x, x), np.where(flip, -z, z)
    flip = y.real < 0
    y, z = np.where(flip, -y, y), np.where(flip, -z, z)
    kap = kappa(x, y, z)
    scale = np.maximum(np.maximum(1.0, np.abs(x)), np.maximum(np.abs(y), np.abs(z)))
    real_coords = np.maximum(
        np.maximum(np.abs(x.imag), np.abs(y.imag)), np.abs(z.imag)
    ) < 1e-12 * scale
    leave = ~np.isfinite(kap) | (np.abs(kap - 2.0) < REDUCIBLE_TOL) | real_coords
    # The normal form of matrices_from_traces.
    big_x = (x - 2.0) * (x + 2.0)
    big_y = (y - 2.0) * (y + 2.0)
    a, bad_a = _moebius_batch((x / 2.0, big_x / 2.0, 0.5, x / 2.0))
    w = 2.0 * z - x * y
    s = np.sqrt(w * w - big_x * big_y)
    den_plus = w + s
    den_minus = w - s
    den = np.where(np.abs(den_plus) >= np.abs(den_minus), den_plus, den_minus)
    leave |= den == 0  # reducible to double precision, as in matrices_from_traces
    r = big_y / (2.0 * den)
    q = w - big_x * r
    b, bad_b = _moebius_batch((y / 2.0, q, r, y / 2.0))
    leave |= bad_a | bad_b
    gens = {"a": a, "b": b}
    top, top_planar, leave_top = _side_batch(gens, "top", real_tol)
    bottom, bottom_planar, leave_bottom = _side_batch(gens, "bottom", real_tol)
    angle_a, leave_a = _roof_batch(gens, "top", top, bottom[:2])
    angle_b, leave_b = _roof_batch(gens, "bottom", bottom, top[:2])
    leave |= leave_top | leave_bottom | leave_a | leave_b
    # Marked structures have planar plaques and angles in [0, pi].  Off
    # them (non-planar pants, concave creases) the residual and the roof
    # can be ill-conditioned, so the scalar path alone defines them.
    leave |= (top_planar > PLANARITY_TOL) | (bottom_planar > PLANARITY_TOL)
    leave |= (angle_a < 0.0) | (angle_b < 0.0)

    real_a, real_b, real_k = np.abs(x.imag), np.abs(y.imag), np.abs(kap.imag)
    theta_a = np.where(real_a <= real_tol, angle_a, np.nan)
    theta_b = np.where(real_b <= real_tol, angle_b, np.nan)
    cusp_residual = np.abs(kap + 2.0)
    is_pg = (
        (top_planar <= planar_tol)
        & (bottom_planar <= planar_tol)
        & (real_a <= real_tol)
        & (real_b <= real_tol)
        & (real_k <= real_tol)
    )
    # NaN thetas (undefined angles) fail both comparisons, as in certify.
    is_convex = (
        is_pg
        & (cusp_residual < parabolic_tol)
        & (theta_a >= -convex_tol)
        & (theta_b >= -convex_tol)
    )
    is_fuchsian = (
        (real_a <= FUCHSIAN_TOL)
        & (real_b <= FUCHSIAN_TOL)
        & (np.abs(z.imag) <= FUCHSIAN_TOL)
    )
    fields = {
        "theta_a": theta_a,
        "theta_b": theta_b,
        "theta_puncture": np.where(cusp_residual < parabolic_tol, math.pi, np.nan),
        "is_convex": is_convex,
        "is_fuchsian_boundary": is_fuchsian,
        "in_pleating_variety": is_convex & ~is_fuchsian,
        "max_real_trace_residual": np.maximum(np.maximum(real_a, real_b), real_k),
        "max_planarity_residual": np.maximum(top_planar, bottom_planar),
    }
    return fields, leave


def certify_batch(
    x,
    y,
    z,
    real_tol=REAL_TRACE_TOL,
    planar_tol=PLANARITY_TOL,
    parabolic_tol=PARABOLIC_FLAG_TOL,
    convex_tol=CONVEXITY_TOL,
):
    """:func:`certify` at every point ``(x[i], y[i], z[i])`` at once.

    ``x``, ``y`` and ``z`` are equal-length one-dimensional sequences of
    trace coordinates.  Points on the common branch of :func:`certify`
    are evaluated as arrays and agree with it to about 1e-14.  The rest
    (a generator trace within 1e-4 of +/-2, a non-parabolic cusp word,
    real coordinates, non-real pants traces, non-planar plaques, a
    concave or degenerate roof, the reducible locus, non-finite values)
    are recomputed by :func:`certify` in index order, so they raise what
    it raises, such as :class:`ReducibleLocus`.
    """
    x, y, z = (np.asarray(v, dtype=complex).reshape(-1) for v in (x, y, z))
    tols = {
        "real_tol": real_tol,
        "planar_tol": planar_tol,
        "parabolic_tol": parabolic_tol,
        "convex_tol": convex_tol,
    }
    with np.errstate(all="ignore"):
        fields, leave = _certify_branch(x, y, z, **tols)
    for i in np.flatnonzero(leave):
        cert = certify(coords(x[i], y[i], z[i]), **tols)
        for name in fields:
            value = getattr(cert, name)
            fields[name][i] = np.nan if value is None else value
    return BatchCertification(**fields, fallback=leave)


def quakebend(t, angle):
    """Bend a Fuchsian structure along the a-curve by the given angle.

    The a-holonomy is kept and the b-holonomy is premultiplied by the
    elliptic rotation about the a-axis, producing new trace coordinates
    on the same parabolic-commutator locus.  Requires a Fuchsian seed
    (all real traces, commutator trace -2).
    """
    if not t.is_real(1e-9):
        raise NotFuchsian("quakebend seed must have real traces")
    if t.cusp_residual > 1e-8:
        raise NotFuchsian("quakebend seed must sit on the cusped locus")
    pair = matrices_from_traces(t)
    bend = rotation_about_axis(pair.a, angle)
    new_b = unimodular(kernel.mat_mul(bend, pair.b))
    new_ab = unimodular(kernel.mat_mul(pair.a, new_b))
    return TraceCoords(t.x, new_b[0] + new_b[3], new_ab[0] + new_ab[3])
