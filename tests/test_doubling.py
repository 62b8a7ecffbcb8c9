"""Doubled holonomy: relations, meridians, cone angles, mirror symmetry.

Cone angle values are frozen against 2*(pi - theta) with the bending
angle measured independently by the roof construction; meridian traces
at the frozen example satisfy |tr| = 2*cos(phi/2) for the same phi.
"""

import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleatlab.chartor import coords, pleating_candidates
from pleatlab.doubling import (
    DOUBLED_LETTERS,
    _relation_residuals,
    audit_words,
    doubled_holonomy,
    meridian_data,
    mirror_residual,
    mirror_word,
)
from pleatlab.errors import NoConsistentLift, NotPiecewiseGeodesic
from pleatlab.moebius import matrix_distance
from pleatlab.plaques import certify, certify_batch
from pleatlab.suite import sample_structures
from pleatlab.words import StackEvaluator

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
CONE_22 = 1.9041352722452904  # 2*(pi - 2.189525017467147)
MERIDIAN_TRACE_22 = -1.16  # -2*cos(CONE_22 / 2) with the audited lift


def _batch(structures):
    x, y, z = np.array([t.astuple() for t in structures]).T
    return certify_batch(x, y, z)


def _doubled(t):
    """The doubled holonomy of one structure, a one-point stack."""
    return doubled_holonomy(_batch([t]))


def test_relations_hold_with_trivial_lift():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    assert dh.max_relation_residual[0] < 1e-12
    assert len(dh.relation_residuals) == 4


def _cusp_opened(x, y, s):
    """The marked structure at (x, y) with commutator trace -2 + s."""
    disc = x * x * y * y - 4.0 * (x * x + y * y - s)
    return coords(x, y, (x * y + cmath.sqrt(disc)) / 2.0)


def test_construction_fixes_the_lift():
    """Negating p or q breaks a relation; e occurs twice in every relation,
    so negating it changes no residual."""
    structures = [
        coords(2.2, 2.2, MARKED_ROOT_22),
        coords(2.3, 2.1, pleating_candidates(2.3, 2.1)[0]),
        _cusp_opened(2.2, 2.2, 0.5),
    ]
    dh = doubled_holonomy(_batch(structures))
    base = dict(zip(DOUBLED_LETTERS, dh.matrices(DOUBLED_LETTERS)))
    residuals = _relation_residuals(StackEvaluator(base))
    for name, value in dh.relation_residuals.items():
        assert residuals[name].tolist() == value.tolist()
    assert max(v.max() for v in residuals.values()) < 1e-12
    for letter in "pqe":
        flipped = dict(base, **{letter: tuple(-v for v in base[letter])})
        moved = _relation_residuals(StackEvaluator(flipped))
        if letter == "e":
            assert all(moved[k].tolist() == v.tolist() for k, v in residuals.items())
        else:
            # Every structure misses some relation by more than 1.
            assert (np.maximum.reduce(list(moved.values())) > 1.0).all()


def test_meridian_cone_angles_frozen():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    for curve in ("a", "b"):
        md = meridian_data(dh, curve)
        assert md.kind[0] == "elliptic"
        assert abs(md.trace[0] - MERIDIAN_TRACE_22) < 1e-12
        assert abs(md.cone_angle[0] - CONE_22) < 1e-12
        assert md.cone_angle_residual[0] < 1e-12
        assert md.commutation_residual[0] < 1e-12
        assert abs(md.complex_length[0].real) < 1e-12


def test_puncture_meridian_parabolic():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    md = meridian_data(dh, "puncture")
    assert md.kind[0] == "parabolic"
    assert abs(md.trace[0] - 2.0) < 1e-12
    assert md.commutation_residual[0] < 1e-12


def test_loxodromic_meridian_has_no_cone_angle():
    """Off the cusped locus the puncture meridian is no rotation: its cone
    angle and residual are NaN, next to a cusped structure's 0."""
    batch = certify_batch([2.2, 2.2], [2.2, 2.2], [2.42 + 1.9j, MARKED_ROOT_22])
    stacked = meridian_data(doubled_holonomy(batch), "puncture")
    assert stacked.kind.tolist() == ["loxodromic", "parabolic"]
    assert np.isnan(stacked.cone_angle[0]) and np.isnan(stacked.cone_angle_residual[0])
    assert stacked.cone_angle[1] == 0.0


def test_fuchsian_double_has_identity_meridians():
    dh = _doubled(coords(3.0, 3.0, 3.0))
    for curve in ("a", "b"):
        md = meridian_data(dh, curve)
        assert md.kind[0] == "identity"
        assert abs(md.cone_angle[0] - 2.0 * math.pi) < 1e-12


def test_maximal_cusp_meridians_all_parabolic():
    dh = _doubled(coords(2.0, 2.0, 2.0 + 2.0j))
    traces = []
    for curve in ("a", "b", "puncture"):
        md = meridian_data(dh, curve)
        assert md.kind[0] == "parabolic"
        traces.append(md.trace[0])
    assert abs(abs(traces[0]) - 2.0) < 1e-9
    assert abs(abs(traces[1]) - 2.0) < 1e-9
    assert abs(traces[2] - 2.0) < 1e-9


def test_mirror_word_is_an_involution():
    for w in ("a", "bQ", "Ebe", "aePE", "pqP", "abAB"):
        assert mirror_word(mirror_word(w)) == w
    # the mirror exchanges the two pants copies
    assert mirror_word("a") == "p"
    assert mirror_word("b") == "q"
    assert mirror_word("e") == "E"


def test_symmetry_audit_small():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    audit = mirror_residual(dh, audit_words(samples=40, seed=11))
    assert audit["residual"][0] < 1e-10
    assert audit["count"] >= 40


def test_doubling_requires_certified_plaques():
    t = coords(2.2, 2.2, 3.0 + 1.0j)  # off the cusped locus, non-planar
    cert = _batch([t])
    assert not cert.is_piecewise_geodesic[0]
    with pytest.raises(NotPiecewiseGeodesic):
        doubled_holonomy(cert)


def test_doubled_letters_cover_the_presentation():
    assert set(DOUBLED_LETTERS) == set("abpqe")


def test_reflections_fix_their_plaques():
    """The top reflection fixes its own pants circle pointwise, so the
    mirrored generator p = J a J^-1 is a itself, in the same lift."""
    t = coords(2.2, 2.3, pleating_candidates(2.2, 2.3)[0])
    dh = _doubled(t)
    assert matrix_distance(dh.matrices(["p"])[0], dh.certification.pair[0])[0] < 1e-10


# The parent construction's generators at (2.2, 2.2, MARKED_ROOT_22),
# built from reflections in explicit circles.
GOLDEN_DOUBLED_22 = {
    "p": (1.1, 0.42, 0.5, 1.1),
    "q": (
        2.877638883463118,
        -3.1154027718094275j,
        -0.9469080616778927j,
        -0.6776388834631176,
    ),
    "e": (
        1.9777013859047177 + 0.79j,
        -0.37330416552725515 - 3.515638883463121j,
        0.44440972086577946 - 0.04718914697990206j,
        0.02229861409528543 - 0.79j,
    ),
}


def test_doubled_generators_frozen():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    for word, expected in GOLDEN_DOUBLED_22.items():
        assert matrix_distance(dh.matrices([word])[0], expected)[0] < 1e-12, word


def _certified_fields(cert):
    out = {f.name: getattr(cert, f.name) for f in fields(cert) if f.name != "pair"}
    out["pair"] = (cert.pair.a, cert.pair.b)
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=2.05, max_value=2.6),
    st.floats(min_value=2.05, max_value=2.6),
)
def test_generator_sign_flips_certify_and_double_alike(x, y):
    """The lifts (x, y, z), (-x, y, -z), (x, -y, -z) and (-x, -y, z) are
    one structure: they certify and double the same way."""
    z = complex(pleating_candidates(x, y)[0])
    lifts = [coords(x, y, z), coords(-x, y, -z), coords(x, -y, -z), coords(-x, -y, z)]
    certs = [certify(lift) for lift in lifts]
    reference = _certified_fields(certs[0])
    for cert in certs[1:]:
        assert _certified_fields(cert) == reference
    for value in doubled_holonomy(_batch(lifts)).relation_residuals.values():
        assert value.tolist() == [value[0]] * 4


def _close(stacked, scalar, tol=1e-13):
    """Agreement to ``tol``, relative where the scalar value is large."""
    return abs(stacked - scalar) <= tol * max(1.0, abs(scalar))


def test_stack_matches_scalar_doubling():
    """Doubling 50 sampled structures and one with a generator trace
    within 1e-4 of 2 as one stack reproduces each structure doubled
    alone, as a one-point stack, to round-off."""
    structures = [coords(*t) for t in zip(*sample_structures(50, seed=9))]
    structures.append(coords(2.00005, 2.3, pleating_candidates(2.00005, 2.3)[0]))
    stack = doubled_holonomy(_batch(structures))
    words = audit_words(samples=40, seed=9)
    flat = [w for pair in words for w in pair]
    stacked = {curve: meridian_data(stack, curve) for curve in ("a", "b", "puncture")}
    stacked_mirror = mirror_residual(stack, words)["residual"]
    for i, t in enumerate(structures):
        dh = _doubled(t)
        for name, value in dh.relation_residuals.items():
            assert _close(stack.relation_residuals[name][i], value[0]), name
        for curve, md in stacked.items():
            ref = meridian_data(dh, curve)
            assert md.kind[i] == ref.kind[0]
            assert _close(md.trace[i], ref.trace[0])
            assert _close(md.cone_angle[i], ref.cone_angle[0])
            assert _close(md.commutation_residual[i], ref.commutation_residual[0])
        # The mirror residual is round-off in traces of up to ~1e3.
        scale = np.abs(dh.traces(flat)).max()
        assert abs(stacked_mirror[i] - mirror_residual(dh, words)["residual"][0]) <= 1e-13 * scale


def test_stack_raises_for_any_offending_row():
    structures = [coords(*t) for t in zip(*sample_structures(4, seed=2))]
    batch = _batch(structures)
    top, bottom = batch.triples["top"], batch.triples["bottom"]
    swapped = replace(batch, triples={"top": bottom, "bottom": top})
    with pytest.raises(NoConsistentLift):
        doubled_holonomy(swapped)
    uncertified = _batch(structures + [coords(2.2, 2.2, 3.0 + 1.0j)])
    with pytest.raises(NotPiecewiseGeodesic):
        doubled_holonomy(uncertified)


@pytest.mark.parametrize("y", [2.2, 2.6])
def test_near_cusp_meridians_are_elliptic(y):
    """A curve the certification does not read as a cusp has an elliptic
    meridian whose cone angle is 2 (pi - theta), however close to the
    cusp: with x - 2 from 1e-12 to 1e-7, on one structure and on the
    stack of all of them.  (At x - 2 = 1e-13 the meridian's trace no
    longer resolves the angle.)"""
    gaps = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7]
    structures = [coords(2.0 + g, y, pleating_candidates(2.0 + g, y)[0]) for g in gaps]
    for t in structures:
        md = meridian_data(_doubled(t), "a")
        assert md.kind[0] == "elliptic"
        assert 0.0 < md.cone_angle[0] < 1e-2
        assert md.cone_angle_residual[0] <= 1e-8
    md = meridian_data(doubled_holonomy(_batch(structures)), "a")
    assert (md.kind == "elliptic").all()
    assert (md.cone_angle_residual <= 1e-8).all()


@pytest.mark.parametrize("gap", [1e-13, 1e-14, 1e-15])
def test_unresolved_near_cusp_meridian_reads_the_certified_angle(gap):
    """Below x - 2 = 1e-12 the meridian's trace lies within
    PARABOLIC_TOL of -2 and no longer resolves the angle.  The cone
    angle is then the certification's 2 (pi - theta_a), and the residual
    keeps the trace's own miss of it, on one structure and on the stack."""
    t = coords(2.0 + gap, 2.2, pleating_candidates(2.0 + gap, 2.2)[0])
    target = 2.0 * (math.pi - certify(t).theta_a)
    assert 0.0 < target < 1e-5
    md = meridian_data(_doubled(t), "a")
    assert md.kind[0] == "elliptic"
    assert np.isnan(md.complex_length[0])
    assert md.cone_angle[0] == target
    assert 0.0 < md.cone_angle_residual[0] <= target
    stacked = meridian_data(doubled_holonomy(_batch([t, t])), "a")
    assert stacked.cone_angle.tolist() == [target, target]
    assert stacked.cone_angle_residual.tolist() == [md.cone_angle_residual[0]] * 2
