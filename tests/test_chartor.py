"""Trace coordinates: realization, pleating roots, canonical pairs.

The pleating root at (2.2, 2.2) and the canonical commuting pair at
(u, h) = (3, 2) are frozen against hand calculations: the root solves
z^2 - 4.84 z + 9.68 = 0 and the pair trace is sqrt(24).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab.chartor import (
    RepPair,
    TraceCoords,
    commuting_canonical_pair,
    coords,
    discriminant,
    kappa,
    matrices_from_traces,
    pair_from_lengths,
    pleating_candidates,
)
from pleatlab.errors import NumericalOverflow, ReducibleLocus

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
CANONICAL_V_32 = 4.898979485566356  # sqrt(24)


def test_kappa_polynomial():
    assert kappa(3.0, 3.0, 3.0) == -2.0
    assert kappa(2.0, 2.0, 2.0) == 2.0
    assert abs(kappa(2.2, 2.2, MARKED_ROOT_22) + 2.0) < 1e-14


def test_pleating_candidates_frozen_root():
    z1, z2 = pleating_candidates(2.2, 2.2)
    assert abs(z1 - MARKED_ROOT_22) < 1e-14
    assert abs(z2 - MARKED_ROOT_22.conjugate()) < 1e-14


def test_pleating_candidates_vieta():
    """The two roots satisfy the cusp quadratic's sum and product."""
    for x, y in ((2.1, 2.4), (2.5, 2.05), (3.0, 3.0)):
        z1, z2 = pleating_candidates(x, y)
        assert abs((z1 + z2) - x * y) < 1e-12
        assert abs(z1 * z2 - (x * x + y * y)) < 1e-12


def test_pleating_candidates_marked_first():
    z1, z2 = pleating_candidates(2.2, 2.2)
    assert z1.imag > 0.0
    assert z2.imag < 0.0


def test_marked_roots_match_pleating_candidates():
    """An array call picks each point's roots as a one-point call does,
    on and off the bending locus."""
    xs = [2.0, 2.2, 2.6, 3.0, 2.5 + 0.3j, -2.2, 1.0]
    ys = [2.0, 2.3, 3.1, 3.0, 2.1 - 0.2j, 2.4, -0.5j]
    marked, other = pleating_candidates(xs, ys)
    for x, y, z1, z2 in zip(xs, ys, marked, other):
        one = pleating_candidates(x, y)
        assert abs(z1 - one[0]) <= 1e-15 * (1.0 + abs(z1))
        assert abs(z2 - one[1]) <= 1e-15 * (1.0 + abs(z2))
    # real roots (flat region): larger first
    z1, z2 = pleating_candidates(3.0, 3.0)
    assert z1.imag == 0.0 and z2.imag == 0.0
    assert z1.real >= z2.real


@pytest.mark.parametrize("x, y", [(1e160, 2.5), (2.1, 1e300), (1e200j, 3.0)])
def test_pleating_candidates_beyond_float_range_name_the_input(x, y):
    """One-point and array calls raise where the discriminant overflows;
    an array call names the first such point."""
    with pytest.raises(NumericalOverflow, match=re.escape(f"(x, y) = {(x, y)} ")):
        pleating_candidates(x, y)
    with pytest.raises(NumericalOverflow, match=re.escape(f"(x, y) = {(x, y)} ")):
        pleating_candidates([2.2, x, 1e300], [2.2, y, 1e300])


# |v| log-uniform over [1e-300, 1e300], of either sign.
_WIDE = st.builds(
    lambda e, sign: sign * 10.0**e, st.floats(-300.0, 300.0), st.sampled_from((-1.0, 1.0))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_WIDE, _WIDE), min_size=1, max_size=8))
def test_pleating_candidates_on_arrays_answer_like_one_point_calls(points):
    """An array call gives each point's one-point roots bit for bit, or
    raises the NumericalOverflow of its first overflowing point; and each
    pair satisfies the cusp quadratic's sum and product (Vieta).  The
    smaller root comes from a difference of two numbers of size
    ``scale = max(|z1|, |z2|, |x y|)`` and is accurate only to about
    eps * scale, so the sum is held to 1e-13 scale and the product to
    1e-13 scale^2."""
    xs, ys = map(list, zip(*points))
    one = []
    for x, y in points:
        try:
            one.append(pleating_candidates(x, y))
        except NumericalOverflow as exc:
            with pytest.raises(NumericalOverflow, match=re.escape(str(exc))):
                pleating_candidates(xs, ys)
            return
    marked, other = pleating_candidates(xs, ys)
    assert marked.tolist() == [complex(z1) for z1, _ in one]
    assert other.tolist() == [complex(z2) for _, z2 in one]
    for x, y, z1, z2 in zip(xs, ys, marked, other):
        scale = max(abs(z1), abs(z2), abs(x * y))
        assert abs((z1 + z2) - x * y) <= 1e-13 * scale
        assert abs(z1 * z2 - (x * x + y * y)) <= 1e-13 * scale * scale


def test_discriminant_zero_family():
    for x in (2.5, 3.0, 4.0):
        y = 2.0 * x / math.sqrt(x * x - 4.0)
        assert abs(discriminant(x, y)) < 1e-10


def test_matrices_from_traces_roundtrip_frozen():
    t = coords(2.2, 2.2, MARKED_ROOT_22)
    pair = matrices_from_traces(t)
    assert abs(pair.trace("a") - 2.2) < 1e-13
    assert abs(pair.trace("b") - 2.2) < 1e-13
    assert abs(pair.trace("ab") - MARKED_ROOT_22) < 1e-13
    assert abs(pair.trace("abAB") + 2.0) < 1e-12


def test_matrices_equal_diagonal_shape():
    """Both generators come out with equal diagonal entries, the shape
    that keeps axis extraction stable near the parabolic locus."""
    t = coords(2.2, 2.4, MARKED_ROOT_22)
    pair = matrices_from_traces(t)
    for m in (pair.a, pair.b):
        a, b, c, d = m
        assert abs(a - d) < 1e-13


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_matrices_from_traces_roundtrip_random(seed):
    rng = np.random.default_rng(seed)
    x, y, z = (complex(rng.normal(2.5, 1.0), rng.normal(0.0, 0.8)) for _ in range(3))
    if abs(kappa(x, y, z) - 2.0) < 1e-3:
        return
    t = coords(x, y, z)
    pair = matrices_from_traces(t)
    scale = max(1.0, abs(x), abs(y), abs(z))
    assert abs(pair.trace("a") - x) < 1e-10 * scale
    assert abs(pair.trace("b") - y) < 1e-10 * scale
    assert abs(pair.trace("ab") - z) < 1e-10 * scale
    assert abs(pair.trace("abAB") - kappa(x, y, z)) < 1e-8 * scale**2


@pytest.mark.parametrize("l_a,l_b", [(1.0, 1.0), (0.3, 2.0), (2.5, 0.7), (3.0, 3.0), (1e-6, 5.46)])
def test_pair_from_lengths_is_the_marked_normal_form(l_a, l_b):
    """The closed form agrees with the trace round trip through the
    marked root, on and off the bending locus (3, 3 is Fuchsian)."""
    pair = pair_from_lengths(l_a, l_b)
    x, y = 2.0 * math.cosh(l_a / 2.0), 2.0 * math.cosh(l_b / 2.0)
    z = pleating_candidates(x, y)[0]
    assert (pair.coords.x, pair.coords.y) == (x, y)
    assert abs(pair.coords.z - z) < 1e-13 * abs(z)
    ref = matrices_from_traces(coords(x, y, z))
    for m, n in ((pair.a, ref.a), (pair.b, ref.b)):
        assert max(abs(p - q) for p, q in zip(m, n)) < 1e-12 * max(map(abs, n))
        assert abs(m[0] * m[3] - m[1] * m[2] - 1.0) < 1e-12
    assert abs(pair.trace("abAB") + 2.0) < 1e-11


def test_pair_from_lengths_even_in_length():
    plus = pair_from_lengths(1.2, 0.8)
    minus = pair_from_lengths(-1.2, 0.8)
    assert plus.coords == minus.coords
    assert (plus.a, plus.b) == (minus.a, minus.b)


def test_pair_from_lengths_zero_length_is_parabolic():
    pair = pair_from_lengths(0.0, 1.0)
    assert pair.a == (1.0, 0.0, 0.5, 1.0)
    assert pair.trace("a") == 2.0


def test_trace_identities():
    """Classical trace relations hold at realized matrices."""
    pair = matrices_from_traces(coords(2.3, 2.6, 3.1 + 0.7j))
    assert abs(pair.trace("aB") - (2.3 * 2.6 - (3.1 + 0.7j))) < 1e-12
    # tr(a^2) = x^2 - 2
    assert abs(pair.trace("aa") - (2.3 * 2.3 - 2.0)) < 1e-12


def test_reducible_locus_rejected():
    with pytest.raises(ReducibleLocus):
        matrices_from_traces(coords(2.0, 2.0, 2.0))


def test_coordinates_reducible_to_rounding_rejected():
    """At (2, 3.75e8) the marked root rounds to z = y, so w and S both
    vanish, while the rounded kappa reads -2."""
    t = coords(2.0, 3.75e8, pleating_candidates(2.0, 3.75e8)[0])
    assert t.kappa == -2.0
    with pytest.raises(ReducibleLocus):
        matrices_from_traces(t)


def test_normalized_flips_signs():
    t = coords(-2.2, -2.4, 3.0 + 1.0j)
    n = t.normalized()
    assert n.x.real >= 0.0
    assert n.y.real >= 0.0
    assert n.z == t.z
    assert abs(n.kappa - t.kappa) < 1e-14


def test_coords_helpers():
    t = coords(2.2, 2.2, MARKED_ROOT_22)
    assert t.cusp_residual < 1e-14
    assert t.is_real() is False
    # The conjugate root lies on the cusped locus too.
    mirror = coords(*(v.conjugate() for v in t.astuple()))
    assert mirror.z == MARKED_ROOT_22.conjugate()
    assert mirror.cusp_residual < 1e-14
    assert t.astuple() == (2.2 + 0j, 2.2 + 0j, MARKED_ROOT_22)


def test_commuting_canonical_pair_frozen():
    rec = commuting_canonical_pair(3.0, 2.0)
    assert abs(rec["v"] - CANONICAL_V_32) < 1e-14
    assert rec["relation_residual"] < 1e-12
    assert rec["commutation_residual"] < 1e-12
    # dv/du = u h^2 / v = sqrt(6) at (3, 2)
    assert abs(rec["dv_du"] - math.sqrt(6.0)) < 1e-13


def test_commuting_canonical_pair_derivative_fd():
    h = 0.7
    u = 2.5
    step = 1e-6
    up = commuting_canonical_pair(u + step, h)["v"]
    dn = commuting_canonical_pair(u - step, h)["v"]
    fd = (up - dn) / (2.0 * step)
    assert abs(fd - commuting_canonical_pair(u, h)["dv_du"]) < 1e-8


def test_rep_pair_word_evaluation():
    t = coords(2.2, 2.2, MARKED_ROOT_22)
    pair = matrices_from_traces(t)
    assert isinstance(pair, RepPair)
    m1 = pair.matrix("ab")
    m2 = tuple(
        np.array(
            (np.array(pair.a).reshape(2, 2) @ np.array(pair.b).reshape(2, 2))
        ).reshape(4)
    )
    assert max(abs(p - q) for p, q in zip(m1, m2)) < 1e-13
