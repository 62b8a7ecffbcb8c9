"""The double-precision scalar reference for ``plaques.certify_batch``.

One point at a time, in plain Python complex arithmetic: plaque fitting
(``plaque_circle`` through ``_housed_points``, ``_spread_triple`` and
``circle_chart``) and ``certify``, which reads the library's scalar roof
``plaques.bending_angle``.  The batch must agree with it at every point,
or raise what it raises; see ``test_plaques``.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

from pleatlab import kernel
from pleatlab.chartor import matrices_from_traces
from pleatlab.errors import CoincidentPoints, NonRealTraces, NumericalOverflow, PleatlabError
from pleatlab.moebius import chordal_distance, fixed_points, map_to_zero_infinity, unimodular
from pleatlab.plaques import (
    CONVEXITY_TOL,
    CURVE_SIDE,
    FUCHSIAN_TOL,
    PARABOLIC_FLAG_TOL,
    PLANARITY_TOL,
    REAL_TRACE_TOL,
    SIDE_DATA,
    _parabolic_vertex,
    bending_angle,
)


def circle_chart(p, q, r):
    """The unimodular matrix of the Moebius map sending ``p, q, r`` to
    ``infinity, 0, 1``; ``None`` stands for infinity.  Raises
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


@dataclass(frozen=True)
class Plaque:
    """A plaque circle, carried by its chart (:func:`circle_chart`)."""

    chart: tuple
    planarity_residual: float


def _trace(pair, word):
    m = pair.matrix(word)
    return m[0] + m[3]


def _housed_points(pair, side):
    """Fixed points housed on a plaque, stably, with elliptic words skipped."""
    data = SIDE_DATA[side]
    axis_letter = data["axis_letter"]
    axis, conj = (pair.a, pair.b) if axis_letter == "a" else (pair.b, pair.a)
    points = []
    trace0 = _trace(pair, axis_letter)
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


def plaque_circle(pair, side):
    """Fit the plaque circle of one pants side and measure planarity.

    Raises :class:`NonRealTraces` when the pants boundary words fail the
    real-trace precondition.
    """
    data = SIDE_DATA[side]
    residuals = [abs(_trace(pair, w).imag) for w in data["boundary_words"]]
    if max(residuals) > REAL_TRACE_TOL:
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
    return Plaque(chart=chart, planarity_residual=residual)


@dataclass(frozen=True)
class Certification:
    """What :func:`certify` found, field for field as in
    ``plaques.Certification``, with each side's :class:`Plaque`."""

    coords: object
    pair: object
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


def order_ties(t):
    """The generators (letters) of ``t`` whose two fixed points are equally
    attracting up to 16 ulps (``|c z + d|`` of each, as for an elliptic
    generator): round-off picks which one ``fixed_points`` lists first."""
    pair = matrices_from_traces(t.normalized())
    ties = []
    for letter, m in (("a", pair.a), ("b", pair.b)):
        try:
            points = fixed_points(m)
        except PleatlabError:
            continue
        if None not in points:
            r1, r2 = (abs(m[2] * z + m[3]) for z in points)
            if abs(r1 - r2) <= 16.0 * 2.0**-52 * max(r1, r2):
                ties.append(letter)
    return ties


def collinear_roof(pair, curve):
    """Whether the roof that ``bending_angle`` reads along ``curve`` lies
    on one line through 0 up to round-off (or cannot be formed): its two
    cusp points and the other generator's fixed points, in the chart that
    sends the curve's axis to 0 and infinity.  Its wedge is then read
    from the signs of round-off."""
    data = SIDE_DATA[CURVE_SIDE[curve]]
    test_gen, test_letter = (pair.b, "b") if curve == "a" else (pair.a, "a")
    try:
        att, rep = pair.balanced_points(curve)
        h = map_to_zero_infinity(rep, att)
        s = _parabolic_vertex(pair.matrix(data["boundary_words"][2]))
        d1 = kernel.apply_mobius(h, s)
        points = [kernel.apply_mobius(h, kernel.apply_mobius(kernel.mat_inv(test_gen), s))]
        points += [kernel.apply_mobius(h, w) for w in pair.balanced_points(test_letter)]
        ratios = [w / d1 for w in points if w is not None]
    except (PleatlabError, TypeError, ZeroDivisionError):
        return True
    return all(abs(w.imag) <= 1e-12 * abs(w) for w in ratios)


def certify(t, swapped=()):
    """Certify the structure at trace coordinates ``t`` one step at a
    time, with the fixed points of the generators named in ``swapped``
    taken in the other order.  Raises :class:`ReducibleLocus` (or what
    ``unimodular`` raises) for coordinates with no realization."""
    t = t.normalized()
    pair = matrices_from_traces(t)
    for letter in swapped:
        pair._balanced[letter] = pair.balanced_points(letter)[::-1]
    cusp_residual = t.cusp_residual
    real_a, real_b = abs(t.x.imag), abs(t.y.imag)
    plaques = {}
    errors = {}
    for side in ("top", "bottom"):
        try:
            plaques[side] = plaque_circle(pair, side)
            errors[side] = None
        except PleatlabError as exc:
            plaques[side] = None
            errors[side] = str(exc)
    thetas = []
    for name, gen, real in (("a", pair.a, real_a), ("b", pair.b, real_b)):
        if gen[1] * gen[2] == 0:
            # Exactly parabolic: a cusp, whose angle is pi.
            theta = math.pi
        elif plaques[CURVE_SIDE[name]] is not None and real <= REAL_TRACE_TOL:
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
        and all(p.planarity_residual <= PLANARITY_TOL for p in plaques.values())
        and real_a <= REAL_TRACE_TOL
        and real_b <= REAL_TRACE_TOL
        and abs(t.kappa.imag) <= REAL_TRACE_TOL
    )
    defined_thetas = [v for v in thetas if v is not None]
    is_convex = (
        is_pg
        and cusp_residual < PARABOLIC_FLAG_TOL
        and len(defined_thetas) == 2
        and all(v >= -CONVEXITY_TOL for v in defined_thetas)
    )
    is_fuchsian = t.is_real(FUCHSIAN_TOL)
    return Certification(
        coords=t,
        pair=pair,
        plaques=plaques,
        plaque_errors=errors,
        theta_a=thetas[0],
        theta_b=thetas[1],
        theta_puncture=math.pi if cusp_residual < PARABOLIC_FLAG_TOL else None,
        max_real_trace_residual=max(real_a, real_b, abs(t.kappa.imag)),
        max_planarity_residual=max(planarity) if planarity else math.inf,
        is_piecewise_geodesic=is_pg,
        is_convex=is_convex,
        is_fuchsian_boundary=is_fuchsian,
        in_pleating_variety=is_convex and not is_fuchsian,
    )
