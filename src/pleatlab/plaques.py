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

:func:`certify_batch` certifies arrays of trace coordinates, normalized
to Re x >= 0 and Re y >= 0, and keeps the pairs of matrices realizing
them, since the plaque charts are fitted to those pairs and whatever
reads the charts (the doubled holonomy) reads the pairs from the same
record.  :func:`certify` is its one-point row; :func:`bending_angle`
reads one roof of one pair.
"""

import cmath
import math
from dataclasses import dataclass, fields
from functools import cache, reduce
from itertools import combinations

import numpy as np

from pleatlab import kernel
from pleatlab.chartor import REDUCIBLE_TOL, RepPair, TraceCoords, kappa, matrices_from_traces
from pleatlab.errors import (
    NotFuchsian,
    ParabolicOrIdentity,
    PleatlabError,
    ReducibleLocus,
    ZeroMultiplier,
)
from pleatlab.moebius import (
    circle_chart_batch,
    map_to_zero_infinity,
    rotation_about_axis,
    unimodular,
    unimodular_batch,
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
class Certification:
    """What :func:`certify` found at ``coords`` (normalized to Re x >= 0
    and Re y >= 0), with ``pair``, the matrices realizing them.  An
    undefined angle is ``None``; ``plaque_errors`` maps each side to why
    its plaque was not fitted, or to ``None``."""

    coords: TraceCoords
    pair: RepPair
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
    # A parabolic normal-form generator (c == 0) fixes only infinity.
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


def certify(t):
    """Certify the convex/pleated structure at trace coordinates ``t``:
    row 0 of :func:`certify_batch` at the one point."""
    batch = certify_batch([t.x], [t.y], [t.z])
    t = t.normalized()
    # The fields after coords, pair and plaque_errors: numbers and flags.
    row = {f.name: getattr(batch, f.name)[0].item() for f in fields(Certification)[3:]}
    for name in ("theta_a", "theta_b", "theta_puncture"):
        row[name] = None if math.isnan(row[name]) else row[name]
    a, b = (tuple(complex(v[0]) for v in m) for m in batch.pair)
    errors = {side: texts[0] for side, texts in batch.plaque_errors.items()}
    return Certification(coords=t, pair=RepPair(a, b, t), plaque_errors=errors, **row)


# ---------------------------------------------------------------------------
# Batched certification
#
# ``certify_batch`` takes every point through one array pass.  Each branch
# of plaque fitting and of :func:`bending_angle` is a mask over the stack,
# with the branch's rule and order of operations: an exactly parabolic
# generator (``b*c == 0``) has angle pi; an axis trace within 1e-13 of
# +/-2 houses the axis's parabolic vertex and its image; a cusp word
# within 1e-9 of +/-2 houses its vertex, a loxodromic one its two fixed
# points, an elliptic one none; a plaque that cannot be fitted is
# ``plaque_errors`` text, an unreadable roof a NaN angle.  A point is a
# pair ``(value, at_inf)``: an array and the mask where the point is
# infinity (as ``None`` is to the kernel), or None where it is nowhere,
# which spares the common case every mask operation.
#
# The bottom side's words ``b``, ``abA``, ``baBA``, axis letter ``b`` and
# test letter ``a`` are the top side's with the letters swapped, so both
# sides are certified as the top side of generators of length 2n, (a then
# b, b then a), each result split in half: half the numpy calls of a
# per-side pass, whose fixed cost outweighs the work per point in calls of
# up to a few hundred points, at the price of both sides' temporaries
# being live at once.


@dataclass(frozen=True)
class BatchCertification:
    """Per-point results of :func:`certify_batch`, as one array per field.

    The thetas are NaN where an angle is undefined.  ``plaque_errors``
    maps each side to an object array: why each point's plaque was not
    fitted, or None.
    ``pair`` is ``(a, b)``, each a 4-tuple of arrays: the matrices every
    point realizes.  ``triples`` maps each side to ``(p, q, r)``, the
    points its plaque chart is fitted to (infinite for the point at
    infinity, NaN where the plaque is missing); :meth:`chart` builds the
    charts.
    """

    theta_a: np.ndarray
    theta_b: np.ndarray
    theta_puncture: np.ndarray
    is_piecewise_geodesic: np.ndarray
    is_convex: np.ndarray
    is_fuchsian_boundary: np.ndarray
    in_pleating_variety: np.ndarray
    max_real_trace_residual: np.ndarray
    max_planarity_residual: np.ndarray
    plaque_errors: dict
    pair: tuple
    triples: dict

    def chart(self, side):
        """Every point's ``side`` plaque chart (:func:`circle_chart_batch`)
        as a 4-tuple of arrays, NaN where the plaque is missing."""
        with np.errstate(all="ignore"):
            return circle_chart_batch(*self.triples[side])


# Why a plaque was not fitted, by the code ``_side_batch`` gives the
# point, in the words of the scalar fit.
_NON_REAL, _IDENTITY, _SINGULAR, _ONE_OVERFLOW, _OVERFLOW, _SPREAD, _CHART = range(1, 8)
_PLAQUE_ERRORS = {
    _NON_REAL: "{side} pants traces have imaginary parts up to {imag:.3e}",
    _IDENTITY: "every point is fixed",
    _SINGULAR: "matrix is singular, no Moebius map",
    _ONE_OVERFLOW: "fixed point of {matrix} leaves the float range",
    _OVERFLOW: "fixed points of {matrix} leave the float range",
    _SPREAD: "housed points do not contain a separated triple",
    _CHART: "circle through points beyond the float range",
}


def _mask(flags):
    return flags if np.count_nonzero(flags) else None


def _flags(mask, shape):
    return np.zeros(shape, dtype=bool) if mask is None else mask


def _choose(where, point, other):
    """The point ``point`` where ``where`` is set, else ``other``."""
    (v, v_inf), (w, w_inf) = point, other
    at_inf = None
    if v_inf is not None or w_inf is not None:
        at_inf = _mask(np.where(where, _flags(v_inf, v.shape), _flags(w_inf, w.shape)))
    return np.where(where, v, w), at_inf


def _max_batch(*values):
    """Python's ``max`` elementwise: a NaN counts only in first place."""
    return reduce(lambda best, v: np.where(v > best, v, best), values)


def _near_two(trace):
    return np.minimum(np.abs(trace - 2.0), np.abs(trace + 2.0))


def _word_batch(gens, word):
    """``RepPair.matrix`` over arrays: the same left-to-right product
    (``eval_word``'s leading identity factor changes no finite value)."""
    factors = [gens[ch] if ch.islower() else kernel.mat_inv(gens[ch.lower()]) for ch in word]
    return reduce(kernel.mat_mul, factors)


def _trace_batch(gens, word):
    """The trace of ``_word_batch(gens, word)``, forming only the two
    diagonal entries of the last product, as ``kernel.mat_mul`` does."""
    p, q, r, s = _word_batch(gens, word[:-1])
    e, f, g, h = _word_batch(gens, word[-1])
    return (p * e + q * g) + (r * f + s * h)


def _apply_batch(m, z, at_inf):
    """``apply_mobius`` of the point ``(z, at_inf)``, as a point."""
    num = m[0] * z + m[1]
    den = m[2] * z + m[3]
    image, image_inf = num / den, den == 0
    if at_inf is not None:
        image = np.where(at_inf, m[0] / m[2], image)
        image_inf = np.where(at_inf, m[2] == 0, image_inf)
    return image, _mask(image_inf)


def _vertex_batch(m):
    """``_parabolic_vertex`` of ``m``, as a point."""
    return (m[0] - m[3]) / (2.0 * m[2]), _mask(np.abs(m[2]) < 1e-13)


def _fixed_batch(m):
    """``fixed_points`` of unimodular maps as two points, attracting
    first, and the plaque error code where it raises (0 elsewhere)."""
    a, b, c, d = m
    s = np.sqrt(b * c)
    z1 = s / c
    z2 = -s / c
    unequal = a != d
    if unequal.any():
        e = a - d
        r = np.sqrt(e * e + 4.0 * b * c)
        q = np.where(np.abs(e - r) > np.abs(e + r), e - r, e + r)
        z1 = np.where(unequal, q / (2.0 * c), z1)
        z2 = np.where(unequal, -2.0 * b / q, z2)
    swap = np.abs(c * z2 + d) > np.abs(c * z1 + d)
    first, second = (np.where(swap, z2, z1), None), (np.where(swap, z1, z2), None)
    error = np.where(np.isfinite(z1) & np.isfinite(z2), 0, _OVERFLOW)
    fixes_inf = c == 0
    if fixes_inf.any():
        # z -> (a z + b) / d fixes infinity and b / (d - a), infinity
        # attracting when |a| > |d|; with a == d it fixes infinity alone.
        z = b / (d - a)
        ahead = np.abs(d) > np.abs(a)
        first = np.where(fixes_inf, z, first[0]), fixes_inf & ~(unequal & ahead)
        second = np.where(fixes_inf, z, second[0]), fixes_inf & ~(unequal & ~ahead)
        one = np.where(np.isfinite(z), 0, _ONE_OVERFLOW)
        error = np.where(fixes_inf, np.where(unequal, one, np.where(b == 0, _IDENTITY, 0)), error)
    return first, second, error


def _housed_batch(gens):
    """The housed points of the top pants side of ``gens`` in the scalar
    fit's order, each with the mask where its slot is empty (None:
    nowhere): the axis fixed points and their images under the other
    generator, or the axis's parabolic vertex and its image; then the
    cusp word's parabolic vertex or fixed points.  Also each point's
    plaque error code and the inputs of its text, the axis fixed points
    and the cusp word's vertex."""
    data = SIDE_DATA["top"]
    _, middle_word, cusp_word = data["boundary_words"]
    axis, conj = gens[data["axis_letter"]], gens[data["test_letter"]]
    cusp = _word_batch(gens, cusp_word)
    traces = [axis[0] + axis[3], _trace_batch(gens, middle_word), cusp[0] + cusp[3]]
    imag = _max_batch(*(np.abs(tr.imag) for tr in traces))
    att, rep, axis_error = axis_points = _fixed_batch(axis)
    # The other generator moves the axis fixed points onto the plaque.
    slots = [att, rep, _apply_batch(conj, *att), _apply_batch(conj, *rep)]
    slots = [(point, None) for point in slots]
    parabolic_axis = _mask(_near_two(traces[0]) < 1e-13)
    if parabolic_axis is not None:
        vertex = _vertex_batch(axis)
        slots[0] = (_choose(parabolic_axis, vertex, att), None)
        slots[1] = (_choose(parabolic_axis, _apply_batch(conj, *vertex), rep), None)
        slots[2:] = [(point, parabolic_axis) for point, _ in slots[2:]]
        axis_error = np.where(parabolic_axis, 0, axis_error)
    error = np.where(imag > REAL_TRACE_TOL, _NON_REAL, axis_error)
    unit_cusp = cusp
    cusp_trace = traces[2]
    parabolic = _near_two(cusp_trace) < 1e-9
    loxodromic = None
    if not parabolic.all():
        off_real = (np.abs(cusp_trace.real) > 2.0) | (np.abs(cusp_trace.imag) > 1e-9)
        loxodromic = _mask(~parabolic & off_real)
    vertex = _vertex_batch(cusp)
    if loxodromic is None:
        # An elliptic cusp word's fixed points are a conjugate pair off
        # the plaque plane, so they are not housed.
        slots.append((vertex, _mask(~parabolic)))
    else:
        unit_cusp, singular = unimodular_batch(cusp)
        first, second, cusp_error = _fixed_batch(unit_cusp)
        cusp_error = np.where(loxodromic, np.where(singular, _SINGULAR, cusp_error), 0)
        error = np.where(error == 0, cusp_error, error)
        slots += [(_choose(parabolic, vertex, first), _mask(~(parabolic | loxodromic))),
                  (second, _mask(~loxodromic))]
    # The matrix an overflow's text names, taken for those points only, so
    # that the word matrices are not live at the planarity pass's peak.
    matrices = {}
    if error.any():
        for i in np.flatnonzero((error == _OVERFLOW) | (error == _ONE_OVERFLOW)):
            named = axis if axis_error[i] == error[i] else unit_cusp
            matrices[i] = tuple(complex(v[i]) for v in named)
    return slots, error, (imag, matrices), axis_points, vertex


@cache
def _triples(count):
    """The triples of ``count`` slots in ``combinations`` order, each
    pair of a triple as (step index, entry) of ``_planarity_batch``'s
    distances (slots i < j are entry i of step j - i), and each triple
    followed by the other slots in index order."""
    combos = list(combinations(range(count), 3))
    steps = [tuple((j - i - 1, i) for i, j in combinations(c, 2)) for c in combos]
    order = [c + tuple(i for i in range(count) if i not in c) for c in combos]
    return combos, steps, np.array(order)


def _far_chordal(step, size, scale, big, at_inf, values, k):
    """``chordal_distance`` between slot rows i and i + k where one is
    infinity or beyond 1e150: the other's distance from infinity when one
    is, 0 for two infinities, ``2 / |z|`` for infinity and a finite ``z``
    beyond 1e150, and ``|1/z - 1/w|`` for two such finite points."""
    lo, hi = slice(None, -k), slice(k, None)
    step = np.where(big[lo] ^ big[hi], 2.0 / np.sqrt(np.where(big[lo], scale[hi], scale[lo])), step)
    both = big[lo] & big[hi]
    if both.any():
        inf_lo, inf_hi = at_inf[lo], at_inf[hi]
        lone = np.where(inf_lo & inf_hi, 0.0, 2.0 / np.where(inf_lo, size[hi], size[lo]))
        far = np.where(inf_lo | inf_hi, lone, np.abs(1.0 / values[lo] - 1.0 / values[hi]))
        step = np.where(both, far, step)
    return step


def _concyclicity_batch(p, q, r, s):
    """The imaginary part of the image of the point ``s`` under the chart
    of the points ``p, q, r``, written as the cross-ratio
    ``(p - r)(q - s) / ((p - s)(q - r))``.  A factor with a point at
    infinity is 1; an image at infinity, or ``s`` at infinity with one of
    the triple, reads 0."""
    (p, p_inf), (q, q_inf), (r, r_inf), (s, s_inf) = p, q, r, s
    factors = [p - r, q - s, p - s, q - r]
    skip = None
    if any(m is not None for m in (p_inf, q_inf, r_inf, s_inf)):
        p_inf, q_inf, r_inf, s_inf = (_flags(m, p.shape) for m in (p_inf, q_inf, r_inf, s_inf))
        for k, at in enumerate((p_inf | r_inf, q_inf | s_inf, p_inf | s_inf, q_inf | r_inf)):
            factors[k] = np.where(at, 1.0, factors[k])
        skip = s_inf & (p_inf | q_inf | r_inf)
    num = factors[0] * factors[1]
    den = factors[2] * factors[3]
    planarity = np.where(den == 0, 0.0, np.abs((num / den).imag))
    return planarity if skip is None else np.where(skip, 0.0, planarity)


def _stacked(masks, shape):
    return None if all(m is None for m in masks) else np.stack([_flags(m, shape) for m in masks])


def _spread_batch(values, at_inf, absent):
    """The scalar fit's choice of the most separated triple of the stacked
    housed points, by its sequential ``score > best + 1e-15`` rule over
    the triples of present points in ``combinations`` order, as the index
    of the chosen combination, with its score and the mask of entries
    with a point at infinity, beyond 1e50 or not finite (None: none), the
    only ones whose chart can leave the float range.  The distances stay
    in their steps: one stacked array of all of them made 2,048-point
    calls ~8% slower."""
    size = np.abs(values)
    scale = 1.0 + size * size
    # Row i of steps[k - 1] is the distance between slots i and i + k.
    steps = [
        2.0 * np.abs(values[:-k] - values[k:]) / np.sqrt(scale[:-k] * scale[k:])
        for k in range(1, len(values))
    ]
    huge = ~(size <= 1e50)
    suspect = None
    if at_inf is not None or huge.any():
        at_inf = _flags(at_inf, size.shape)
        suspect = (huge | at_inf).any(axis=0)
        big = at_inf | (size > 1e150)
        steps = [_far_chordal(step, size, scale, big, at_inf, values, k)
                 for k, step in enumerate(steps, 1)]
    combos, triple_steps, _ = _triples(len(values))
    best = np.full(values.shape[1:], -1.0)
    choice = np.zeros(best.shape, dtype=int)
    for k, (combo, ((s01, i01), (s02, i02), (s12, i12))) in enumerate(zip(combos, triple_steps)):
        score = np.minimum(np.minimum(steps[s01][i01], steps[s02][i02]), steps[s12][i12])
        better = score > best + 1e-15
        if absent is not None:
            better &= ~absent[list(combo)].any(axis=0)
        best = np.where(better, score, best)
        choice = np.where(better, k, choice)
    return choice, best, suspect


def _planarity_batch(slots):
    """``_spread_batch``'s triple of the housed points, and its planarity
    residual: the largest departure of another housed point from the
    triple's circle (a NaN one is passed over).  Also the mask of entries
    with no triple 1e-12 apart, and ``_spread_batch``'s mask."""
    present = [slot for slot in slots if slot[1] is None or not slot[1].all()]
    # Under three present slots every entry fails; any three keep the shapes.
    slots = present if len(present) >= 3 else slots[:3]
    values = np.stack([point[0] for point, _ in slots])
    shape = values.shape[1:]
    at_inf = _stacked([point[1] for point, _ in slots], shape)
    absent = _stacked([empty for _, empty in slots], shape)
    choice, best, suspect = _spread_batch(values, at_inf, absent)
    picked = _triples(len(slots))[2][choice].T
    points = [(v, None) for v in np.take_along_axis(values, picked, axis=0)]
    if suspect is not None:
        at_inf = np.take_along_axis(_flags(at_inf, values.shape), picked, axis=0)
        points = [(v, _mask(m)) for (v, _), m in zip(points, at_inf)]
    if absent is not None:
        absent = np.take_along_axis(absent, picked, axis=0)
    residual = np.zeros(shape)
    for k in range(3, len(slots)):
        planarity = _concyclicity_batch(*points[:3], points[k])
        if absent is not None:
            planarity = np.where(absent[k], 0.0, planarity)
        residual = np.fmax(residual, planarity)
    return points[:3], residual, best < 1e-12, suspect


def _side_batch(gens):
    """Plaque fitting on the top pants side of ``gens``: the fitted
    triple (infinite for infinity, NaN where the plaque is missing), the
    planarity residual, each point's plaque error code (0 where the
    plaque is fitted) and the inputs of its text, and the roof inputs.
    ``_housed_batch``'s words are freed before the planarity pass, so
    they are not live at its peak."""
    slots, error, texts, axis, vertex = _housed_batch(gens)
    triple, residual, spread_fails, suspect = _planarity_batch(slots)
    del slots
    error = np.where(error != 0, error, np.where(spread_fails, _SPREAD, 0))
    if suspect is None:
        triple = [v for v, _ in triple]
    else:
        # A finite point beyond the float range makes the chart
        # non-finite, and so does NaN: it stays apart from infinity.
        triple = [(np.where(np.isinf(v), np.nan, v), at) for v, at in triple]
        triple = [v if at is None else np.where(at, np.inf, v) for v, at in triple]
        rows = np.flatnonzero(suspect)
        fails = rows[np.isnan(circle_chart_batch(*(v[rows] for v in triple))[0])]
        error[fails] = np.where(error[fails] == 0, _CHART, error[fails])
    if error.any():
        triple = [np.where(error != 0, np.nan, v) for v in triple]
    return triple, residual, (error, *texts), axis, vertex


def _plaque_error_texts(codes, imag, matrices, n):
    """Each side's ``plaque_errors``, formatted for the failing points."""
    texts = np.full(codes.shape, None, dtype=object)
    for i in np.flatnonzero(codes):
        side = "top" if i < n else "bottom"
        texts[i] = _PLAQUE_ERRORS[codes[i]].format(side=side, imag=imag[i], matrix=matrices.get(i))
    return {"top": texts[:n], "bottom": texts[n:]}


def _roof_batch(gens, axis, vertex, probes):
    """``bending_angle``'s roof wedge along the a-curve of ``gens`` from
    its fixed points ``axis`` and the cusp word's ``vertex``, probed by
    the other generator's fixed points ``probes`` (as ``_fixed_batch``
    gives them), and the mask of points where it raises."""
    (att, axis_inf), (rep, _), axis_error = axis
    az, aw = np.abs(rep), np.abs(att)
    dist = 2.0 * np.abs(rep - att) / np.sqrt((1.0 + az * az) * (1.0 + aw * aw))
    # chordal_distance(rep, att): both or neither are infinity or beyond 1e150.
    far = az > 1e150 if axis_inf is None else axis_inf | (az > 1e150)
    if far.any():
        far_dist = np.where(_flags(axis_inf, far.shape), 0.0, np.abs(1.0 / rep - 1.0 / att))
        dist = np.where(far, far_dist, dist)
    h, bad = unimodular_batch((1.0, -rep, 1.0, -att))
    leave = (axis_error != 0) | (dist < 1e-14) | bad
    # The neighbouring plaque's cusp point, moved as in bending_angle.
    d1, inf1 = _apply_batch(h, *vertex)
    d2, inf2 = _apply_batch(h, *_apply_batch(kernel.mat_inv(gens["b"]), *vertex))
    leave |= (np.abs(d1) < 1e-13) | (np.abs(d2) < 1e-13)
    for at in (m for m in (inf1, inf2) if m is not None):
        leave |= at
    phi1 = np.angle(d1)
    delta2 = np.mod(np.angle(d2) - phi1, 2.0 * math.pi)
    psi = np.full(phi1.shape, np.nan)
    *points, probes_error = probes
    for probe in points:
        dt, inf = _apply_batch(h, *probe)
        delta_t = np.mod(np.angle(dt) - phi1, 2.0 * math.pi)
        usable = np.isnan(psi) & ~(np.abs(dt) < 1e-13) & (delta_t != 0.0) & (delta_t != delta2)
        if inf is not None:
            usable &= ~inf
        inside = (0.0 < delta_t) & (delta_t < delta2)
        psi = np.where(usable, np.where(inside, delta2, 2.0 * math.pi - delta2), psi)
    return math.pi - psi, leave | (probes_error != 0) | np.isnan(psi)


def _realize(x, y, z):
    """``matrices_from_traces`` over arrays of normalized coordinates:
    the generators and kappa.  Raises what it raises at the first point,
    in index order, that has no realization."""
    kap = kappa(x, y, z)
    big_x = (x - 2.0) * (x + 2.0)
    big_y = (y - 2.0) * (y + 2.0)
    a, singular_a = unimodular_batch((x / 2.0, big_x / 2.0, 0.5, x / 2.0))
    w = 2.0 * z - x * y
    s = np.sqrt(w * w - big_x * big_y)
    den_plus = w + s
    den_minus = w - s
    den = np.where(np.abs(den_plus) >= np.abs(den_minus), den_plus, den_minus)
    r = big_y / (2.0 * den)
    b, singular_b = unimodular_batch((y / 2.0, w - big_x * r, r, y / 2.0))
    reducible = np.abs(kap - 2.0) < REDUCIBLE_TOL
    if (reducible | singular_a | (den == 0) | singular_b).any():
        failure = np.select([reducible, singular_a, den == 0, singular_b], [1, 2, 3, 2], 0)
        i = int(np.flatnonzero(failure)[0])
        if failure[i] == 1:
            raise ReducibleLocus(f"commutator trace {complex(kap[i])} is too close to 2")
        if failure[i] == 3:
            # w = S = 0: reducible to double precision, although the
            # rounded kappa missed 2.
            point = (complex(x[i]), complex(y[i]), complex(z[i]))
            raise ReducibleLocus(f"trace coordinates {point} are reducible to double precision")
        raise ZeroMultiplier("matrix is singular, no Moebius map")
    return a, b, kap


def _swap_halves(v):
    return None if v is None else np.concatenate((v[len(v) // 2:], v[:len(v) // 2]))


def _certify_arrays(x, y, z):
    """:func:`certify_batch`'s fields over arrays."""
    flip = x.real < 0
    x, z = np.where(flip, -x, x), np.where(flip, -z, z)
    flip = y.real < 0
    y, z = np.where(flip, -y, y), np.where(flip, -z, z)
    a, b, kap = _realize(x, y, z)
    n = len(x)
    gens = {"a": tuple(map(np.concatenate, zip(a, b))), "b": tuple(map(np.concatenate, zip(b, a)))}
    triple, planar, texts, axis, vertex = _side_batch(gens)
    # Each half's roof is probed by the other half's axis points.
    probes = [tuple(map(_swap_halves, point)) for point in axis[:2]] + [_swap_halves(axis[2])]
    angle, roof_fails = _roof_batch(gens, axis, vertex, probes)
    real_a, real_b, real_k = np.abs(x.imag), np.abs(y.imag), np.abs(kap.imag)
    # Python's max(1.0, |x|, |y|, |z|) passes over NaN, as fmax does.
    scale = np.fmax(np.fmax(1.0, np.abs(x)), np.fmax(np.abs(y), np.abs(z)))
    real_coords = _max_batch(real_a, real_b, np.abs(z.imag)) < 1e-12 * scale
    # An angle is pi on an exactly parabolic generator, else defined where
    # its plaque is fitted and its trace real: 0 for real coordinates, else
    # the roof's.
    fitted = texts[0] == 0
    defined = fitted & (np.concatenate((real_a, real_b)) <= REAL_TRACE_TOL)
    angle = np.where(defined & ~roof_fails, angle, np.nan)
    if real_coords.any():
        angle = np.where(defined & np.tile(real_coords, 2), 0.0, angle)
    theta_a, theta_b = np.where(gens["a"][1] * gens["a"][2] == 0, math.pi, angle).reshape(2, n)
    top_fitted, bottom_fitted = fitted.reshape(2, n)
    top_planar, bottom_planar = planar.reshape(2, n)
    cusp_residual = np.abs(kap + 2.0)
    is_pg = (
        top_fitted & bottom_fitted
        & (top_planar <= PLANARITY_TOL) & (bottom_planar <= PLANARITY_TOL)
        & (real_a <= REAL_TRACE_TOL) & (real_b <= REAL_TRACE_TOL) & (real_k <= REAL_TRACE_TOL)
    )
    # NaN thetas (undefined angles) fail both comparisons.
    is_convex = (
        is_pg & (cusp_residual < PARABOLIC_FLAG_TOL)
        & (theta_a >= -CONVEXITY_TOL) & (theta_b >= -CONVEXITY_TOL)
    )
    is_fuchsian = (real_a <= FUCHSIAN_TOL) & (real_b <= FUCHSIAN_TOL) & (np.abs(z.imag) <= FUCHSIAN_TOL)
    worst = np.maximum(top_planar, bottom_planar)
    if not fitted.all():
        worst = np.maximum(np.where(top_fitted, top_planar, -math.inf),
                           np.where(bottom_fitted, bottom_planar, -math.inf))
    return {
        "theta_a": theta_a,
        "theta_b": theta_b,
        "theta_puncture": np.where(cusp_residual < PARABOLIC_FLAG_TOL, math.pi, np.nan),
        "is_piecewise_geodesic": is_pg,
        "is_convex": is_convex,
        "is_fuchsian_boundary": is_fuchsian,
        "in_pleating_variety": is_convex & ~is_fuchsian,
        "max_real_trace_residual": _max_batch(real_a, real_b, real_k),
        # Infinite where neither plaque is fitted.
        "max_planarity_residual": np.where(worst == -math.inf, math.inf, worst),
        "plaque_errors": _plaque_error_texts(*texts, n),
        "pair": (a, b),
        "triples": {"top": tuple(v[:n] for v in triple), "bottom": tuple(v[n:] for v in triple)},
    }


def certify_batch(x, y, z):
    """Certify the convex/pleated structure at every point
    ``(x[i], y[i], z[i])`` of equal-length one-dimensional sequences.

    Never raises for ordinary geometric failures; those are reported in
    the flags, residuals and ``plaque_errors``.  A curve's angle is pi
    only when its generator is exactly parabolic; however close to 2 its
    trace is otherwise, the angle is measured.  ``PARABOLIC_FLAG_TOL``
    bounds the puncture's distance from the cusped locus.  Raises
    :class:`ReducibleLocus` (or :class:`ZeroMultiplier` for a singular
    generator) at the first point, in index order, with no irreducible
    realization.
    """
    x, y, z = (np.asarray(v, dtype=complex).reshape(-1) for v in (x, y, z))
    with np.errstate(all="ignore"):
        return BatchCertification(**_certify_arrays(x, y, z))


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
