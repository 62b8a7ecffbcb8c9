"""Doubled holonomy: relations, meridians, cone angles, mirror symmetry.

Cone angle values are frozen against 2*(pi - theta) with the bending
angle measured independently by the roof construction; meridian traces
at the frozen example satisfy |tr| = 2*cos(phi/2) for the same phi.
"""

import math

import pytest

from pleatlab.chartor import coords, matrices_from_traces, pleating_candidates
from pleatlab.doubling import (
    DOUBLED_LETTERS,
    doubled_holonomy,
    lift_audit,
    meridian_data,
    mirror_word,
    symmetry_audit,
)
from pleatlab.errors import NotPiecewiseGeodesic
from pleatlab.plaques import certify

MARKED_ROOT_22 = 2.42 + 1.9554027718094293j
CONE_22 = 1.9041352722452904  # 2*(pi - 2.189525017467147)
MERIDIAN_TRACE_22 = -1.16  # -2*cos(CONE_22 / 2) with the audited lift


def _doubled(t):
    return doubled_holonomy(matrices_from_traces(t), certify(t))


def test_relations_hold_with_trivial_lift():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    assert dh.lift_signs == (1, 1, 1)
    assert dh.max_relation_residual < 1e-12
    assert len(dh.relation_residuals) == 4


def test_lift_audit_scans_all_sign_choices():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    base = {letter: dh.evaluator.matrix(letter) for letter in DOUBLED_LETTERS}
    signs, residuals, table = lift_audit(base)
    assert len(table) == 8
    assert signs == (1, 1, 1)
    assert max(residuals.values()) < 1e-12


def test_meridian_cone_angles_frozen():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    for curve in ("a", "b"):
        md = meridian_data(dh, curve)
        assert md.kind == "elliptic"
        assert abs(md.trace - MERIDIAN_TRACE_22) < 1e-12
        assert abs(md.cone_angle - CONE_22) < 1e-12
        assert md.cone_angle_residual < 1e-12
        assert md.commutation_residual < 1e-12
        assert abs(md.complex_length.real) < 1e-12


def test_puncture_meridian_parabolic():
    dh = _doubled(coords(2.2, 2.2, MARKED_ROOT_22))
    md = meridian_data(dh, "puncture")
    assert md.kind == "parabolic"
    assert abs(md.trace - 2.0) < 1e-12
    assert md.commutation_residual < 1e-12


def test_fuchsian_double_has_identity_meridians():
    dh = _doubled(coords(3.0, 3.0, 3.0))
    for curve in ("a", "b"):
        md = meridian_data(dh, curve)
        assert md.kind == "identity"
        assert abs(md.cone_angle - 2.0 * math.pi) < 1e-12


def test_maximal_cusp_meridians_all_parabolic():
    dh = _doubled(coords(2.0, 2.0, 2.0 + 2.0j))
    traces = []
    for curve in ("a", "b", "puncture"):
        md = meridian_data(dh, curve)
        assert md.kind == "parabolic"
        traces.append(md.trace)
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
    audit = symmetry_audit(dh, samples=40, seed=11)
    assert audit["residual"] < 1e-10
    assert audit["count"] >= 40


def test_doubling_requires_certified_plaques():
    t = coords(2.2, 2.2, 3.0 + 1.0j)  # off the cusped locus, non-planar
    cert = certify(t)
    assert not cert.is_piecewise_geodesic
    with pytest.raises(NotPiecewiseGeodesic):
        doubled_holonomy(matrices_from_traces(t), cert)


def test_doubled_letters_cover_the_presentation():
    assert set(DOUBLED_LETTERS) == set("abpqe")


def test_reflections_fix_their_plaques():
    """The two reflections restrict to the identity on their own pants
    circles, so conjugating a pants generator changes nothing."""
    t = coords(2.2, 2.3, pleating_candidates(2.2, 2.3)[0])
    dh = _doubled(t)
    j_top = dh.reflection_top
    a = dh.pair.a
    conjugated = j_top @ a @ j_top.inverse()
    assert conjugated.approx_equal(a, tol=1e-10)
