"""Plaque circles, bending angles, convex certification, bending flow.

Angle values are frozen from the roof construction evaluated at the
marked pleating root of (2.2, 2.2) and at a flat seed bent by a known
parameter; the flat and maximal-cusp limits pin the angle range ends.
"""

import json
import math
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab import chartor, kernel, moebius, plaques
from pleatlab.chartor import (
    coords,
    matrices_from_traces,
    pair_from_lengths,
    pleating_candidates,
)
from pleatlab.errors import NotFuchsian, ParabolicOrIdentity, PleatlabError, ReducibleLocus
from pleatlab.moebius import fixed_points
from pleatlab.plaques import (
    PLANARITY_TOL,
    bending_angle,
    certify,
    certify_batch,
    quakebend,
)

import oracle
import reference

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
THETA_22 = 2.189525017467147
# disc-zero seed: x = y = 2*sqrt(2), z = x*y/2 = 4
FLAT_X = 2.0 * math.sqrt(2.0)
# measured second-side angle after bending the flat seed by 0.3
THETA_B_BENT = 0.3034331639087853


def test_certify_marked_root_frozen_angles():
    cert = certify(coords(2.2, 2.2, MARKED_ROOT_22))
    th_a, th_b, th_p = cert.theta
    assert abs(th_a - THETA_22) < 1e-12
    assert abs(th_b - THETA_22) < 1e-12
    assert th_p == math.pi
    assert cert.is_convex
    assert cert.is_piecewise_geodesic
    assert cert.in_pleating_variety
    assert not cert.is_fuchsian_boundary
    assert cert.max_planarity_residual < 1e-12
    assert cert.max_real_trace_residual < 1e-12


def test_certify_conjugate_root_swaps_sides():
    marked = certify(coords(2.2, 2.2, MARKED_ROOT_22))
    mirrored = certify(coords(2.2, 2.2, MARKED_ROOT_22.conjugate()))
    assert abs(marked.theta[0] - mirrored.theta[0]) < 1e-12
    assert abs(marked.theta[1] - mirrored.theta[1]) < 1e-12
    # The sign of Im z says on which side the a-curve bends.
    assert marked.coords.z.imag > 0
    assert mirrored.coords.z.imag < 0


def test_certify_fuchsian_boundary():
    cert = certify(coords(3.0, 3.0, 3.0))
    th_a, th_b, _ = cert.theta
    assert abs(th_a) < 1e-12
    assert abs(th_b) < 1e-12
    assert cert.is_convex
    assert cert.is_fuchsian_boundary
    assert not cert.in_pleating_variety


def test_certify_maximal_cusp():
    cert = certify(coords(2.0, 2.0, 2.0 + 2.0j))
    assert cert.theta == (math.pi, math.pi, math.pi)
    assert cert.is_convex
    assert cert.max_planarity_residual < 1e-12


def test_certify_parabolic_b_edge_mirrors_a_edge():
    """At y = 2 the b-generator's fixed point is infinity, and the a-curve
    angle there equals the b-curve angle on the mirror edge x = 2."""
    edge = certify(coords(2.4, 2.0, pleating_candidates(2.4, 2.0)[0]))
    mirror = certify(coords(2.0, 2.4, pleating_candidates(2.0, 2.4)[0]))
    assert edge.is_convex
    assert edge.in_pleating_variety
    assert edge.theta[1] == math.pi
    assert abs(edge.theta[0] - mirror.theta[1]) < 1e-12


def test_certify_off_locus_not_convex():
    """A planar structure away from the cusped locus is piecewise
    geodesic but cannot be convex (no parabolic puncture)."""
    cert = certify(coords(2.2, 2.2, 3.0))
    assert cert.is_piecewise_geodesic
    assert not cert.is_convex
    assert not cert.in_pleating_variety


def test_bending_angle_planar_structure_is_zero():
    pair = matrices_from_traces(coords(3.0, 3.0, 3.0))
    assert bending_angle(pair, "a") == 0.0
    assert bending_angle(pair, "b") == 0.0


def test_bending_angle_flat_region_is_zero():
    """Real roots beyond the bending locus measure no crease, even at
    points where the roof wedge is degenerate."""
    x, y = 2.675005555491318, 3.128419897854198
    z, _ = pleating_candidates(x, y)
    assert z.imag == 0.0
    pair = matrices_from_traces(coords(x, y, z))
    assert bending_angle(pair, "a") == 0.0


def test_bending_angle_parabolic_rejected():
    pair = matrices_from_traces(coords(2.0, 2.0, 2.0 + 2.0j))
    with pytest.raises(ParabolicOrIdentity):
        bending_angle(pair, "a")


def test_pair_solves_each_generator_axis_once(monkeypatch):
    """Both angles share one pair of fixed points per generator, and
    certify's plaques and angles solve both generators' axes in one
    stacked call."""
    calls = []

    def counting(m):
        calls.append(m)
        return fixed_points(m)

    for module in (chartor, moebius):
        monkeypatch.setattr(module, "fixed_points", counting)
    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    assert bending_angle(pair, "a") == bending_angle(pair, "a")
    bending_angle(pair, "b")
    assert calls == [pair.a, pair.b]
    calls.clear()
    balanced = plaques._fixed_batch
    stacks = []

    def counting_stacks(m):
        stacks.append(len(m[0]))
        return balanced(m)

    monkeypatch.setattr(plaques, "_fixed_batch", counting_stacks)
    assert certify(coords(2.2, 2.2, MARKED_ROOT_22)).is_convex
    assert calls == [] and stacks == [2]


# (x, y, theta_a, theta_b) of bending_angle at the marked root over (x, y);
# the last structure is real, so it is bending-free.
BENDING_ANGLE_GOLDEN = [
    (2.2, 2.2, 2.189525017467147, 2.1895250174671474),
    (2.1, 2.3, 2.425068298436459, 2.0513799710913947),
    (2.5, 2.5, 1.4454684956268307, 1.445468495626831),
    (2.05, 2.6, 2.562816387902673, 1.7133720742575136),
    (3.0, 2.2, 1.2191493737650188, 1.7915942702058567),
    (2.000001, 2.4, 3.139192653913625, 1.9702209033504605),
    (2.4, 2.0000001, 1.9702215003429946, 3.140833706962219),
    (2.0001, 2.0001, 3.1215920702304993, 3.1215920702304993),
    (2.82, 2.83, 0.13982462616229396, 0.13932974394001674),
    (2.7, 2.9, 0.45620739990225534, 0.4242454655323211),
    (2.001, 20.0, 2.4983414198616165, 0.19012566188088087),
    (2.01, 12.0, 1.8601827589200317, 0.2693746816071605),
    (2.8, 2.01, 1.5813842797224595, 2.8617251723391153),
    (2.02, 2.02, 2.8570851311069125, 2.8570851311069125),
    (2.3, 3.2, 1.3196190935799303, 0.9124661189599728),
    (2.000000001, 3.0, 3.141497785256063, 1.4594553113358986),
    (2.6, 2.9, 0.771544949419877, 0.6882008187027191),
    (5.0, 2.05, 0.6996773566873808, 1.979783187484922),
    (2.25, 2.75, 1.778695043365158, 1.3771819114564394),
    (4.0, 4.0, 0.0, 0.0),
]


@pytest.mark.parametrize("x,y,theta_a,theta_b", BENDING_ANGLE_GOLDEN)
def test_bending_angle_golden(x, y, theta_a, theta_b):
    """The roof arithmetic reproduces frozen angles to 1e-15."""
    pair = matrices_from_traces(coords(x, y, pleating_candidates(x, y)[0]))
    assert abs(bending_angle(pair, "a") - theta_a) <= 1e-15
    assert abs(bending_angle(pair, "b") - theta_b) <= 1e-15


ORACLE_TRACES = [(x, y) for x, y, _, _ in BENDING_ANGLE_GOLDEN[:-1]]
ORACLE_LENGTHS = [(10.0**-k, 5.46) for k in range(4, 13)] + [(0.5, 1e-7)]


@pytest.mark.parametrize(
    "point,built",
    [(p, "traces") for p in ORACLE_TRACES] + [(p, "lengths") for p in ORACLE_LENGTHS],
)
def test_bending_angle_matches_a_60_digit_oracle(point, built):
    """Both angles lie within 5e-15 of the roof evaluated at 60 digits,
    at the bent golden points and near the cusp, where the angle is
    pi - 7.7 l_a and a parabolic snap would be off by that much.  The
    oracle's pair is built exactly on the cusped locus, from the traces
    or from the lengths."""
    if built == "traces":
        pair = matrices_from_traces(coords(*point, pleating_candidates(*point)[0]))
    else:
        pair = pair_from_lengths(*point)
    gens = oracle.marked_pair(*point, built)
    for curve in ("a", "b"):
        assert abs(bending_angle(pair, curve) - oracle.roof_angle(gens, curve)) <= 5e-15


def test_bending_angle_matches_the_closed_form():
    """On a seeded grid of lengths (P < 0.999, where the closed form is
    well-conditioned) both angles of the closed-form pair match it,
    evaluated by the oracle."""
    rng = np.random.default_rng(14)
    lengths = rng.uniform(0.0, 4.0, size=(4000, 2))
    lengths = lengths[np.sinh(lengths[:, 0] / 2) * np.sinh(lengths[:, 1] / 2) < 0.999]
    assert len(lengths) > 1000
    worst = 0.0
    for l_a, l_b in lengths.tolist():
        pair = pair_from_lengths(l_a, l_b)
        worst = max(
            worst,
            abs(bending_angle(pair, "a") - oracle.closed_form_angle(l_a, l_b)),
            abs(bending_angle(pair, "b") - oracle.closed_form_angle(l_b, l_a)),
        )
    assert worst <= 2e-14


@pytest.mark.parametrize(
    "point", [(1.0, 1.0), (0.3, 2.0), (2.5, 0.7), (1e-6, 5.46), (1.7, 1.1), (0.5, 1e-7)]
)
def test_closed_form_angle_matches_the_60_digit_roof(point):
    gens = oracle.marked_pair(*point, "lengths")
    assert abs(oracle.roof_angle(gens, "a") - oracle.closed_form_angle(*point)) <= 1e-50
    assert abs(oracle.roof_angle(gens, "b") - oracle.closed_form_angle(*point[::-1])) <= 1e-50


@pytest.mark.parametrize("k", range(8, 16))
def test_certify_measures_angles_near_the_cusp(k):
    """A curve trace within the parabolic tolerance of 2 but not equal to
    it keeps its measured angle, pi - 3 sqrt(x - 2) to first order at
    y = 3; only an exactly parabolic curve reads pi."""
    x = 2.0 + 10.0**-k
    t = coords(x, 3.0, pleating_candidates(x, 3.0)[0])
    cert = certify(t)
    assert cert.is_convex
    assert abs(cert.theta_a - bending_angle(matrices_from_traces(t), "a")) <= BATCH_TOL
    assert cert.theta_a < math.pi
    assert abs(math.pi - cert.theta_a - 3.0 * math.sqrt(x - 2.0)) <= 1e-3 * (math.pi - cert.theta_a)
    batch = certify_batch([t.x], [t.y], [t.z])
    assert batch.theta_a[0] == cert.theta_a


def test_plaque_circles_are_distinct_on_bent_structures():
    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    top = reference.plaque_circle(pair, "top")
    bottom = reference.plaque_circle(pair, "bottom")
    # Some top point lies off the bottom circle: its chart image is not real.
    offsets = []
    for w in reference._housed_points(pair, "top"):
        image = kernel.apply_mobius(bottom.chart, w)
        offsets.append(0.0 if image is None else abs(image.imag))
    assert max(offsets) > 1e-6
    assert top.planarity_residual < 1e-12
    assert bottom.planarity_residual < 1e-12
    # The batch fits the same two circles: each side's chart, from the
    # triple it keeps, matches the reference chart up to sign.
    batch = certify_batch([2.2], [2.2], [MARKED_ROOT_22])
    for side, plaque in (("top", top), ("bottom", bottom)):
        chart = [complex(v[0]) for v in batch.chart(side)]
        assert max(abs(u - v) for u, v in zip(chart, plaque.chart)) < 1e-12


def test_quakebend_preserves_first_trace_and_cusp():
    seed = coords(FLAT_X, FLAT_X, 4.0)
    bent = quakebend(seed, 0.45)
    assert abs(bent.x - FLAT_X) < 1e-13
    assert bent.cusp_residual < 1e-10
    assert bent.z.imag > 0.0


def test_quakebend_angle_matches_parameter():
    """Bending the flat seed by t creates exterior angle t on the first
    curve; the opposite side bends by its own, different amount."""
    seed = coords(FLAT_X, FLAT_X, 4.0)
    for t in (0.05, 0.3, 1.0):
        cert = certify(quakebend(seed, t))
        assert cert.is_convex
        assert abs(cert.theta[0] - t) < 1e-12
    cert = certify(quakebend(seed, 0.3))
    assert abs(cert.theta[1] - THETA_B_BENT) < 1e-12
    assert abs(cert.theta[1] - 0.3) > 1e-3


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2.0, max_value=2.8), st.floats(min_value=2.0, max_value=2.8))
def test_certify_conjugate_root_gives_the_same_angles(x, y):
    """The conjugate root is the mirror structure: the same three angles,
    bent on the other side (the opposite sign of Im z)."""
    z = pleating_candidates(x, y)[0]
    marked = certify(coords(x, y, z))
    mirrored = certify(coords(x, y, z.conjugate()))
    for got, want in zip(mirrored.theta, marked.theta):
        assert abs(got - want) <= 1e-12
    assert marked.coords.z.imag > 0.0 > mirrored.coords.z.imag


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=2.1, max_value=4.0), st.floats(min_value=0.05, max_value=1.0))
def test_quakebend_angle_matches_parameter_on_drawn_seeds(x, t):
    """Bending a Fuchsian seed on the boundary of the marked locus (the
    two pleating roots meet at z = x y / 2, as in check_quakebend) by t
    certifies with exterior angle t on the first curve.  (Beyond x = 4.2
    a bend by 1 leaves the locus: the b-trace drops below 2.)"""
    y = 2.0 * x / math.sqrt(x * x - 4.0)
    seed = coords(x, y, x * y / 2.0)
    assert certify(seed).is_fuchsian_boundary
    cert = certify(quakebend(seed, t))
    assert cert.is_convex
    assert abs(cert.theta_a - t) <= 1e-12


def test_quakebend_requires_fuchsian_seed():
    with pytest.raises(NotFuchsian):
        quakebend(coords(2.2, 2.2, MARKED_ROOT_22), 0.3)


def test_angle_decreases_away_from_cusp():
    """Along x = y the bending angle falls from pi (cusp) toward 0."""
    prev = math.pi
    for x in (2.05, 2.2, 2.4, 2.6, 2.79):
        z, _ = pleating_candidates(x, x)
        th = certify(coords(x, x, z)).theta[0]
        assert 0.0 < th < prev
        prev = th


def test_spread_triple_measures_each_pair_once(monkeypatch):
    calls = []
    chordal_distance = reference.chordal_distance

    def counting(z, w):
        calls.append((z, w))
        return chordal_distance(z, w)

    pair = matrices_from_traces(coords(2.2, 2.2, MARKED_ROOT_22))
    monkeypatch.setattr(reference, "chordal_distance", counting)
    top = reference.plaque_circle(pair, "top")
    assert len(reference._housed_points(pair, "top")) == 5
    assert len(calls) == 10 + 3  # C(5, 2), then circle_chart's three pairs
    assert top.planarity_residual < 1e-12


# ---------------------------------------------------------------------------
# certify_batch against the scalar reference (tests/reference.py)

BATCH_TOL = 1e-13
EPS = np.finfo(float).eps
# Coordinate moves under which the reference is read again, to tell a
# value that round-off decides from one that it does not: each
# coordinate moved by 4 ulps (of its modulus, or of 1 below 1) along the
# real and the imaginary axis, which also lifts a zero part off zero.
NUDGES = [(j, step) for j in range(3) for step in (4.0 * EPS, -4.0 * EPS, 4j * EPS, -4j * EPS)]


def _numbers(cert):
    """The angles (NaN where undefined) and the planarity residual."""
    return [math.nan if v is None else v for v in cert.theta] + [cert.max_planarity_residual]


def _nudged(point):
    """The reference at the point with one coordinate nudged, for each of
    NUDGES (None where it raises)."""
    certs = []
    for j, step in NUDGES:
        nudged = list(point)
        nudged[j] += step * max(1.0, abs(nudged[j]))
        try:
            certs.append(reference.certify(coords(*nudged)))
        except PleatlabError:
            certs.append(None)
    return certs


def _spread(nudged, k, want):
    """How far number ``k`` (of :func:`_numbers`) of the nudged
    references strays from ``want``: infinite where it turns defined or
    undefined, or where the reference raises."""
    values = [math.nan if cert is None else _numbers(cert)[k] for cert in nudged]
    if any(cert is None for cert in nudged) or any(math.isnan(v) != math.isnan(want) for v in values):
        return math.inf
    return max((abs(v - want) for v in values if not math.isnan(v)), default=0.0)


def _image_scale(ref):
    """The largest modulus of a housed point's image under the reference
    chart of its fitted plaque, the triple left out: infinite where that
    image is infinity (the point sits on the fitted point it is sent to,
    up to round-off)."""
    scale = 1.0
    for side, plaque in ref.plaques.items():
        if plaque is None:
            continue
        points = reference._housed_points(ref.pair, side)
        fit = reference._spread_triple(points)
        for i, w in enumerate(points):
            if i not in fit:
                image = kernel.apply_mobius(plaque.chart, w)
                scale = max(scale, math.inf if image is None else abs(image))
    return scale


def _mismatch(batch, i, ref, point, nudged):
    """Why row ``i`` of ``batch`` disagrees with the reference ``ref`` at
    ``point``, or None.

    Flags, defined-ness and ``plaque_errors`` text agree exactly and
    values within BATCH_TOL (relative above 1), plus the round-off
    that numpy and Python complex arithmetic may differ by (they round
    products, quotients, moduli and phases to different last bits):

    * the commutator trace's imaginary part, up to 8 eps times the sum
      of its terms' moduli;
    * the planarity residual, up to 4 eps M^2 for M the largest modulus
      of a housed point's image under the reference chart: a point 1/M
      from a fitted one moves its cross-ratio image by about eps M^2
      when each point moves by eps relative (measured at most
      0.98 eps M^2 on 3,000 marked roots near traces +/-2, where M
      reaches 1e5); without bound where 4 eps M >= 1, where that image
      is all round-off, or infinity;
    * an angle or the residual, up to 4 times its spread under NUDGES
      (``nudged()`` gives the nudged references);
    * an angle, defined on one side only, where the nudged reference's
      angle turns undefined or strays by pi, or where the roof lies on
      one line through 0 (``reference.collinear_roof``): such a roof
      reads its wedge from the signs of round-off.

    The convexity flags may differ where a value was compared through
    its spread or the planarity bound reaches PLANARITY_TOL, and the
    flags and plaque errors may be those of a nudged reference.
    """
    x, y, z = point
    got = [batch.theta_a[i], batch.theta_b[i], batch.theta_puncture[i], batch.max_planarity_residual[i]]
    want = _numbers(ref)
    undecided = False
    for k in range(3):
        if (math.isnan(want[k]) and math.isnan(got[k])) or abs(got[k] - want[k]) <= BATCH_TOL:
            continue
        spread = _spread(nudged(), k, want[k])
        if math.isnan(got[k]) != math.isnan(want[k]) and k < 2 and reference.collinear_roof(ref.pair, "ab"[k]):
            spread = math.inf
        if math.isnan(got[k]) or math.isnan(want[k]):
            agrees = spread >= math.pi
        else:
            agrees = abs(got[k] - want[k]) <= 4.0 * spread
        if not agrees:
            return f"angle {k}: {got[k]!r} against {want[k]!r}, spread {spread!r}"
        undecided = True
    value, expected = got[3], want[3]
    scale = float(_image_scale(ref))
    bound = BATCH_TOL * max(1.0, expected) + (4.0 * EPS * scale * scale if 4.0 * EPS * scale < 1.0 else math.inf)
    if not (value == expected or abs(value - expected) <= bound):
        bound += 4.0 * _spread(nudged(), 3, expected)
        if not abs(value - expected) <= bound:
            return f"planarity residual {value!r} against {expected!r}"
    undecided |= abs(expected - PLANARITY_TOL) <= bound
    terms = abs(x) * abs(x) + abs(y) * abs(y) + abs(z) * abs(z) + abs(x) * abs(y) * abs(z) + 2.0
    value, expected = batch.max_real_trace_residual[i], ref.max_real_trace_residual
    if not (value == expected or abs(value - expected) <= BATCH_TOL * max(1.0, expected) + 8.0 * EPS * terms):
        return f"real-trace residual {value!r} against {expected!r}"
    errors = {side: batch.plaque_errors[side][i] for side in ("top", "bottom")}
    if errors != ref.plaque_errors and all(c is None or errors != c.plaque_errors for c in nudged()):
        return f"plaque errors {errors} against {ref.plaque_errors}"
    names = ["is_fuchsian_boundary"]
    if not undecided:
        names += ["is_piecewise_geodesic", "is_convex", "in_pleating_variety"]
    flags = [bool(getattr(batch, name)[i]) for name in names]
    if flags != [getattr(ref, name) for name in names] and all(
        c is None or flags != [getattr(c, name) for name in names] for c in nudged()
    ):
        return f"flags {dict(zip(names, flags))}"
    return None


def assert_batch_matches_reference(x, y, z):
    """Every point of certify_batch agrees with the scalar reference
    (:func:`_mismatch`), or both raise the same error type.  Where the
    reference's own choice of a generator's attracting fixed point is a
    round-off tie, the batch may agree with the reference that takes
    them in the other order instead."""
    try:
        refs = [reference.certify(coords(*p)) for p in zip(x, y, z)]
    except PleatlabError as exc:  # the batch must fail the same way
        with pytest.raises(type(exc)):
            certify_batch(x, y, z)
        return None
    batch = certify_batch(x, y, z)
    for i, (ref, point) in enumerate(zip(refs, zip(x, y, z))):
        point = tuple(complex(v) for v in point)
        t = coords(*point)
        cache = []

        def nudged():
            if not cache:
                cache.append(_nudged(point))
            return cache[0]

        ties = reference.order_ties(t)
        variants = [ref] + [
            reference.certify(t, swapped)
            for r in range(1, len(ties) + 1) for swapped in combinations(ties, r)
        ]
        reasons = [_mismatch(batch, i, variant, point, nudged) for variant in variants]
        assert None in reasons, f"point {point}: {reasons[0]}"
    return batch


window = st.floats(min_value=2.0, max_value=2.8)
window_edge = st.one_of(
    st.just(2.0),
    st.just(2.8),
    st.floats(min_value=2.0, max_value=2.001),
    window,
)
general = st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(window_edge, window_edge), min_size=1, max_size=40))
def test_certify_batch_matches_scalar_on_marked_roots(points):
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    assert_batch_matches_reference(x, y, pleating_candidates(x, y)[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(general, general, general), min_size=1, max_size=20))
def test_certify_batch_matches_scalar_on_general_coordinates(points):
    x, y, z = (np.array([p[k] for p in points], dtype=complex) for k in range(3))
    assert_batch_matches_reference(x, y, z)


FROZEN_STRUCTURES = [
    (2.2, 2.2, MARKED_ROOT_22),
    (2.2, 2.2, MARKED_ROOT_22.conjugate()),
    (-2.2, 2.2, -MARKED_ROOT_22),
    (3.0, 3.0, 3.0),
    (2.0, 2.0, 2.0 + 2.0j),
    (2.2, 2.2, 3.0),
    (2.2 + 0.1j, 2.2, 2.4 + 1.9j),
    (float("nan"), float("nan"), float("nan")),
    quakebend(coords(FLAT_X, FLAT_X, 4.0), 0.3).astuple(),
]


def test_certify_batch_matches_scalar_on_frozen_structures():
    x, y, z = zip(*FROZEN_STRUCTURES)
    assert_batch_matches_reference(x, y, z)


# Every value certify_batch returns at the marked roots of
# BENDING_ANGLE_GOLDEN and at FROZEN_STRUCTURES, frozen as its repr (one
# JSON object per point), so any change in the order of its operations
# fails here, even one far under BATCH_TOL.
GOLDEN_FIELDS = (
    "theta_a", "theta_b", "theta_puncture", "max_real_trace_residual",
    "max_planarity_residual", "is_piecewise_geodesic", "is_convex",
    "is_fuchsian_boundary", "in_pleating_variety",
)


def test_certify_batch_golden():
    golden = json.loads((Path(__file__).parent / "certify_batch_golden.json").read_text())
    points = [
        (x, y, pleating_candidates(x, y)[0]) for x, y, _, _ in BENDING_ANGLE_GOLDEN
    ] + FROZEN_STRUCTURES
    batch = certify_batch(*zip(*points))
    assert len(golden) == len(points)
    for i, want in enumerate(golden):
        got = {name: repr(getattr(batch, name)[i].item()) for name in GOLDEN_FIELDS}
        got["plaque_errors"] = {side: batch.plaque_errors[side][i] for side in ("top", "bottom")}
        got["pair"] = [repr(entries[i].item()) for m in batch.pair for entries in m]
        got["triples"] = {
            side: [repr(entries[i].item()) for entries in batch.triples[side]]
            for side in ("top", "bottom")
        }
        assert got == want, f"point {i}: {points[i]}"


def test_certify_batch_is_one_side_pass():
    """One certify_batch call evaluates both pants sides in one stacked
    pass: one side, roof and planarity evaluation each, also on a stack
    where every branch is taken (parabolic and near-parabolic traces,
    elliptic and loxodromic cusp words, real and non-real coordinates, a
    failed plaque), and it enters neither the scalar reference nor the
    scalar roof."""
    calls = Counter()
    counted = {"_side_batch", "_roof_batch", "_planarity_batch"}
    scalar = {reference.__file__, bending_angle.__code__}

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call":
            return
        if code.co_filename in scalar or code in scalar:
            calls["scalar"] += 1
        elif code.co_filename == plaques.__file__ and code.co_name in counted:
            calls[code.co_name] += 1

    off_branch = [
        (2.0, 2.0, 2.0 + 2.0j), (2.0, 2.4), (2.2, 2.0), (2.00005, 2.3), (1.5, 2.5),
        (2.2, 2.2, 3.0), (2.2, 2.2, 2.5), (2.2 + 0.1j, 2.2, 2.4 + 1.9j), (0.0, 1.7e-203, 2j),
        (3.0, 3.0, 3.0),
    ]
    off_branch = [p if len(p) == 3 else (*p, pleating_candidates(*p)[0]) for p in off_branch]
    stacks = [
        ([2.2, 2.5], [2.2, 2.4], [MARKED_ROOT_22, pleating_candidates(2.5, 2.4)[0]]),
        tuple(zip(*off_branch)),
    ]
    for stack in stacks:
        calls.clear()
        sys.setprofile(profile)
        try:
            certify_batch(*stack)
        finally:
            sys.setprofile(None)
        assert calls == {"_side_batch": 1, "_roof_batch": 1, "_planarity_batch": 1}


def test_certify_batch_matches_scalar_beyond_float_range():
    """Points whose plaque fit overflows certify as non-convex on both paths."""
    batch = assert_batch_matches_reference([0.0, 0.0], [1.7e-203, 2.2e-313], [2j, 1j])
    assert not batch.is_convex.any()
    for point in ((0.0, 1.7e-203, 2j), (0.0, 2.2e-313, 1j)):
        errors = certify(coords(*point)).plaque_errors
        assert any("float range" in (text or "") for text in errors.values())


def test_certify_batch_reducible_point_raises():
    with pytest.raises(ReducibleLocus):
        certify_batch([2.2, 2.0], [2.2, 2.0], [MARKED_ROOT_22, 2.0])
    # Reducible to double precision although kappa reads -2.
    with pytest.raises(ReducibleLocus):
        certify_batch([2.2, 2.0], [2.2, 3.75e8], [MARKED_ROOT_22, 3.75e8])
