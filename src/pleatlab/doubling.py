"""Doubling a certified structure across its pleated boundary.

The double of the manifold is built from two pants stages: an amalgam
over the top pants (mirror generators ``p = a-hat``, ``q = b-hat``) and
an HNN extension over the bottom pants (stable letter ``e``).  The
holonomy extends the original pair by

* ``rho(a-hat) = J rho(a) J^-1`` and ``rho(b-hat) = J rho(b) J^-1``
  where ``J`` is the reflection in the top plaque circle, and
* ``rho(e) = J1 o J`` where ``J1`` is the reflection in the bottom
  plaque circle.

Because ``J`` commutes with the top pants subgroup and ``J1`` with the
bottom one, the four presentation relations hold, and the mirror
involution (swap hatted/unhatted, invert ``e``) acts on traces by
complex conjugation.

Meridians of the three filling curves, written in the doubled
generators:

* around the a-curve: ``b * b-hat^-1`` with longitude ``b a b^-1``;
* around the b-curve: ``a * e * a-hat^-1 * e^-1`` with longitude
  ``a b a^-1``;
* around the puncture curve: ``e`` itself, with longitude the
  commutator ``a b a^-1 b^-1``.

Each meridian is a product of reflections in the two plaque planes
meeting along its longitude's axis, hence an elliptic rotation by the
cone angle (parabolic at a cusp, the identity on the Fuchsian locus).
"""

import itertools
import math
from dataclasses import dataclass

from pleatlab import kernel
from pleatlab.errors import (
    NoConsistentLift,
    NonCommutingMeridian,
    NotPiecewiseGeodesic,
)
from pleatlab.moebius import (
    MoebiusMap,
    complex_length,
    matrix_distance,
    reflect_in_circle,
)
from pleatlab.words import WordEvaluator, random_reduced_word

RELATION_TOL = 1e-9
MERIDIAN_COMMUTE_TOL = 1e-9
PARABOLIC_TOL = 1e-8

DOUBLED_LETTERS = "abpqe"

RELATIONS = (
    ("amalgam_a", "a", "p"),
    ("amalgam_conj_a", "baB", "qpQ"),
    ("hnn_b", "Ebe", "q"),
    ("hnn_conj_b", "EabAe", "pqP"),
)

MERIDIANS = {
    "a": {"meridian": "bQ", "longitude": "baB"},
    "b": {"meridian": "aePE", "longitude": "abA"},
    "puncture": {"meridian": "e", "longitude": "abAB"},
}

_MIRROR_LETTER = {
    "a": "p", "p": "a", "b": "q", "q": "b", "e": "E",
    "A": "P", "P": "A", "B": "Q", "Q": "B", "E": "e",
}


def mirror_word(word):
    """Image of a doubled word under the mirror involution."""
    return "".join(_MIRROR_LETTER[ch] for ch in word)


@dataclass(frozen=True)
class MeridianData:
    curve: str
    word: str
    longitude_word: str
    trace: complex
    kind: str  # "elliptic" | "parabolic" | "identity" | "loxodromic"
    complex_length: complex | None
    cone_angle: float | None
    cone_angle_residual: float | None
    commutation_residual: float


@dataclass(frozen=True)
class DoubledHolonomy:
    pair: object
    certification: object
    evaluator: WordEvaluator
    reflection_top: MoebiusMap
    reflection_bottom: MoebiusMap
    lift_signs: tuple
    relation_residuals: dict

    def matrix(self, word):
        return self.evaluator.matrix(word)

    def map(self, word):
        return MoebiusMap.from_tuple(self.evaluator.matrix(word))

    def trace(self, word):
        return self.evaluator.trace(word)

    @property
    def max_relation_residual(self):
        return max(self.relation_residuals.values())


def _relation_residuals(evaluator):
    out = {}
    for name, lhs, rhs in RELATIONS:
        out[name] = matrix_distance(evaluator.matrix(lhs), evaluator.matrix(rhs))
    return out


def _signed_generators(base, signs):
    sa, sb, se = signs
    out = dict(base)
    out["p"] = tuple(sa * v for v in base["p"])
    out["q"] = tuple(sb * v for v in base["q"])
    out["e"] = tuple(se * v for v in base["e"])
    return out


def lift_audit(base_generators):
    """Search the eight SL(2,C) sign choices for the mirrored generators.

    Returns ``(signs, residuals, table)`` where ``table`` maps each sign
    triple to its worst relation residual.  Raises
    :class:`NoConsistentLift` when no assignment makes every relation
    hold exactly (not merely up to sign).
    """
    table = {}
    best = None
    for signs in itertools.product((1, -1), repeat=3):
        ev = WordEvaluator(_signed_generators(base_generators, signs))
        residuals = _relation_residuals(ev)
        worst = max(residuals.values())
        table[signs] = worst
        if best is None or worst < best[1]:
            best = (signs, worst, residuals)
    signs, worst, residuals = best
    if worst > RELATION_TOL:
        raise NoConsistentLift(
            f"no sign assignment satisfies the relations (best residual {worst:.3e})"
        )
    return signs, residuals, table


def doubled_holonomy(pair, cert):
    """Extend a certified structure's holonomy to the doubled manifold."""
    if not cert.is_piecewise_geodesic:
        raise NotPiecewiseGeodesic(
            "doubling needs certified plaques on both sides"
        )
    j_top = reflect_in_circle(cert.plaques["top"].circle)
    j_bottom = reflect_in_circle(cert.plaques["bottom"].circle)
    j_inv = j_top.inverse()
    a_hat = j_top @ pair.map("a") @ j_inv
    b_hat = j_top @ pair.map("b") @ j_inv
    stable = j_bottom @ j_top
    base = {
        "a": pair.a.matrix,
        "b": pair.b.matrix,
        "p": a_hat.matrix,
        "q": b_hat.matrix,
        "e": stable.matrix,
    }
    signs, residuals, _ = lift_audit(base)
    evaluator = WordEvaluator(_signed_generators(base, signs))
    return DoubledHolonomy(
        pair=pair,
        certification=cert,
        evaluator=evaluator,
        reflection_top=j_top,
        reflection_bottom=j_bottom,
        lift_signs=signs,
        relation_residuals=residuals,
    )


def meridian_data(dh, curve, strict=True):
    """Meridian holonomy around one filling curve of the double."""
    words = MERIDIANS[curve]
    m = dh.matrix(words["meridian"])
    ell = dh.matrix(words["longitude"])
    commute = matrix_distance(kernel.mat_mul(m, ell), kernel.mat_mul(ell, m))
    if strict and commute > MERIDIAN_COMMUTE_TOL:
        raise NonCommutingMeridian(
            f"meridian around {curve!r} fails to commute "
            f"with its longitude ({commute:.3e})"
        )
    trace = m[0] + m[3]
    ident = (1.0, 0.0, 0.0, 1.0)
    ident_res = min(
        matrix_distance(m, ident),
        matrix_distance(m, tuple(-v for v in ident)),
    )
    theta = dh.certification.curves[curve].theta
    if ident_res < PARABOLIC_TOL:
        kind = "identity"
        mu = None
        cone = 2.0 * math.pi
    elif min(abs(trace - 2.0), abs(trace + 2.0)) < PARABOLIC_TOL:
        kind = "parabolic"
        mu = None
        cone = 0.0
    else:
        mu = complex_length(MoebiusMap.from_tuple(m)).value
        kind = "elliptic" if abs(mu.real) < 1e-6 else "loxodromic"
        half = min(abs(trace) / 2.0, 1.0)
        base_angle = 2.0 * math.acos(half)
        cone = base_angle
        if theta is not None:
            alt = 2.0 * math.pi - base_angle
            target = 2.0 * (math.pi - theta)
            if abs(alt - target) < abs(base_angle - target):
                cone = alt
    residual = None
    if theta is not None and cone is not None:
        residual = abs(cone - 2.0 * (math.pi - theta))
    return MeridianData(
        curve=curve,
        word=words["meridian"],
        longitude_word=words["longitude"],
        trace=trace,
        kind=kind,
        complex_length=mu,
        cone_angle=cone,
        cone_angle_residual=residual,
        commutation_residual=commute,
    )


def symmetry_audit(dh, samples=60, seed=0, rng=None):
    """Worst deviation of the mirror involution from trace conjugation.

    The mirror involution is an exact symmetry of the construction, so
    ``trace(mirror(w))`` must equal ``conj(trace(w))`` for every doubled
    word; the audit measures the worst residual over fixed structural
    words plus a random sample.
    """
    import numpy as np

    if rng is None:
        rng = np.random.default_rng(seed)
    wordlist = ["a", "b", "e", "abAB", "bQ", "aePE", "Ebe", "pq", "qePa"]
    for _ in range(samples):
        wordlist.append(random_reduced_word(rng, DOUBLED_LETTERS, 1, 12))
    worst = 0.0
    worst_word = ""
    for w in wordlist:
        res = abs(dh.trace(mirror_word(w)) - dh.trace(w).conjugate())
        if res > worst:
            worst = res
            worst_word = w
    return {"residual": worst, "word": worst_word, "count": len(wordlist)}
