"""Doubling a certified structure across its pleated boundary.

Only structures whose plaques :func:`pleatlab.plaques.certify_batch`
has certified are doubled, and in the pairs of matrices the
certification realized: its plaque charts were fitted to those pairs,
so :func:`doubled_holonomy` reads both from the one record.

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

A reflection is complex conjugation read through the plaque's chart
``C`` (the map sending its circle onto the real line):
``J(z) = N(conj(z))`` with ``N = C^-1 conj(C)``.  Composing, the
generators are the holomorphic matrices ``p = N conj(a) conj(N)``,
``q = N conj(b) conj(N)`` and ``e = N1 conj(N)``, where ``N`` comes
from the top chart and ``N1`` from the bottom one.  These matrices are
already the lift the relations need, so no sign is searched for:
``N conj(N) = I``, and a pants group is real in its chart, so
``N conj(a) conj(N) = a`` and ``E b e = q`` hold as matrices, not only
up to sign.  The sign of ``e``, which occurs twice in every relation,
is pinned by ``Re tr(e) >= 0``: the lift in which the puncture meridian
has trace +2 at the cusp, as in the commuting model.

Meridians of the three filling curves, written in the doubled
generators:

* around the a-curve: ``b * b-hat^-1`` with longitude ``b a b^-1``;
* around the b-curve: ``a * e * a-hat^-1 * e^-1`` with longitude
  ``a b a^-1``;
* around the puncture curve: ``e`` itself, with longitude the
  commutator ``a b a^-1 b^-1``.

Each meridian is a product of reflections in the two plaque planes
meeting along its longitude's axis, hence an elliptic rotation by the
cone angle: parabolic exactly where the certification reads its curve
as a cusp (angle pi), the identity on the Fuchsian locus.

The construction and the rules are written once, over 4-tuples of
``(n,)`` arrays: :func:`doubled_holonomy` of a
:class:`~pleatlab.plaques.BatchCertification` doubles all of its points
at once, evaluates each word list for all of them in one
:class:`~pleatlab.words.StackEvaluator` product, and
:func:`meridian_data` and :func:`mirror_residual` then hold one entry
per point.  One structure is doubled as a one-point batch.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from pleatlab import kernel, moebius
from pleatlab.errors import (
    NoConsistentLift,
    NonCommutingMeridian,
    NotPiecewiseGeodesic,
    ZeroMultiplier,
)
from pleatlab.moebius import complex_length, matrix_distance, unimodular_batch
from pleatlab.plaques import BatchCertification
from pleatlab.words import StackEvaluator, random_reduced_word

RELATION_TOL = 1e-9
MERIDIAN_COMMUTE_TOL = 1e-9
IDENTITY_TOL = 1e-8

DOUBLED_LETTERS = "abpqe"

RELATIONS = (
    ("amalgam_a", "a", "p"),
    ("amalgam_conj_a", "baB", "qpQ"),
    ("hnn_b", "Ebe", "q"),
    ("hnn_conj_b", "EabAe", "pqP"),
)
RELATION_WORDS = tuple(w for _, lhs, rhs in RELATIONS for w in (lhs, rhs))

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
    """One meridian's data at every point of a stack, one array entry per
    point, NaN where a field is undefined."""

    curve: str
    trace: np.ndarray
    kind: np.ndarray  # "elliptic" | "parabolic" | "identity" | "loxodromic"
    complex_length: np.ndarray
    cone_angle: np.ndarray
    cone_angle_residual: np.ndarray
    commutation_residual: np.ndarray


@dataclass(frozen=True)
class DoubledHolonomy:
    """The doubled generators of a stack of certified structures, one
    array entry per point."""

    certification: BatchCertification
    evaluator: StackEvaluator
    relation_residuals: dict

    def matrices(self, words):
        return self.evaluator.matrices(words)

    def traces(self, words):
        return self.evaluator.traces(words)

    @property
    def max_relation_residual(self):
        return reduce(np.maximum, self.relation_residuals.values())


def _relation_residuals(evaluator):
    ms = evaluator.matrices(RELATION_WORDS)
    return {
        name: matrix_distance(ms[2 * k], ms[2 * k + 1])
        for k, (name, _, _) in enumerate(RELATIONS)
    }


def _reflection(chart):
    """``N`` with ``J(z) = N(conj(z))`` for the reflection ``J`` in the
    circle that ``chart`` sends onto the real line."""
    return kernel.mat_mul(kernel.mat_inv(chart), kernel.mat_conj(chart))


def doubled_holonomy(cert):
    """Extend the holonomy of every point of ``cert``, a
    :class:`~pleatlab.plaques.BatchCertification`, to the doubled
    manifold at once, starting from the pairs ``cert.pair`` that the
    certification realized.

    Raises :class:`NotPiecewiseGeodesic` unless every point has certified
    plaques, and :class:`NoConsistentLift` when a relation misses by more
    than ``RELATION_TOL`` at any point.
    """
    if not np.all(cert.is_piecewise_geodesic):
        raise NotPiecewiseGeodesic(
            "doubling needs certified plaques on both sides"
        )
    a, b = cert.pair
    n_top = _reflection(cert.chart("top"))
    n_bottom = _reflection(cert.chart("bottom"))
    n_top_bar = kernel.mat_conj(n_top)

    def mirrored(m):
        return kernel.mat_mul(kernel.mat_mul(n_top, kernel.mat_conj(m)), n_top_bar)

    stable = kernel.mat_mul(n_bottom, n_top_bar)
    flip = (stable[0] + stable[3]).real < 0.0
    evaluator = StackEvaluator({
        "a": a,
        "b": b,
        "p": mirrored(a),
        "q": mirrored(b),
        "e": tuple(np.where(flip, -v, v) for v in stable),
    })
    residuals = _relation_residuals(evaluator)
    worst = np.max(list(residuals.values()))
    if not worst <= RELATION_TOL:
        raise NoConsistentLift(
            f"the doubled generators miss the relations (residual {worst:.3e})"
        )
    return DoubledHolonomy(
        certification=cert,
        evaluator=evaluator,
        relation_residuals=residuals,
    )


# Where the complex length is undefined, it is measured on this stand-in
# and discarded.
_LOXODROMIC = (2.0, 0.0, 0.0, 0.5)


def _acos(x):
    # libm's acos elementwise: numpy's vectorized arccos rounds some
    # inputs differently and would move verify-suite's cone records.
    return np.vectorize(math.acos, otypes=[float])(x)


def meridian_data(dh, curve):
    """Meridian holonomy around one filling curve of the double.

    The meridian is the identity within ``IDENTITY_TOL`` (cone angle
    2 pi), parabolic exactly where the certification reads the curve as
    a cusp (angle pi, cone angle 0), and otherwise a rotation by the
    cone angle its trace gives, taken on the branch nearest
    ``2 (pi - theta)``.  A trace within ``moebius.PARABOLIC_TOL`` of
    +/-2 off a cusp has no complex length (NaN) and too few digits
    for its angle: that meridian is read as elliptic, with cone angle
    ``2 (pi - theta)`` and the trace's own miss of it as the residual.
    A loxodromic meridian has no cone angle and no residual (NaN).
    Every field is an array, one entry per point; raises
    :class:`NonCommutingMeridian` if any meridian fails to commute with
    its longitude.
    """
    words = MERIDIANS[curve]
    m, ell = dh.matrices((words["meridian"], words["longitude"]))
    commute = matrix_distance(kernel.mat_mul(m, ell), kernel.mat_mul(ell, m))
    worst = np.max(commute)
    if not worst <= MERIDIAN_COMMUTE_TOL:
        raise NonCommutingMeridian(
            f"meridian around {curve!r} fails to commute "
            f"with its longitude ({worst:.3e})"
        )
    trace = m[0] + m[3]
    ident = (1.0, 0.0, 0.0, 1.0)
    identity = np.minimum(
        matrix_distance(m, ident),
        matrix_distance(m, tuple(-v for v in ident)),
    ) < IDENTITY_TOL
    theta = getattr(dh.certification, "theta_" + curve)
    cusp = ~identity & (theta == math.pi)
    base_angle = 2.0 * _acos(np.minimum(abs(trace) / 2.0, 1.0))
    alt = 2.0 * math.pi - base_angle
    target = 2.0 * (math.pi - theta)
    cone = np.where(abs(alt - target) < abs(base_angle - target), alt, base_angle)
    cone = np.where(identity, 2.0 * math.pi, np.where(cusp, 0.0, cone))
    residual = abs(cone - target)
    measured = ~identity & ~cusp & (
        np.minimum(abs(trace - 2.0), abs(trace + 2.0)) >= moebius.PARABOLIC_TOL
    )
    # Off a cusp, a trace this close to +/-2 cannot resolve the angle;
    # the certification's angle can, and the residual keeps the miss.
    cone = np.where(~identity & ~cusp & ~measured & ~np.isnan(target), target, cone)
    probe, singular = unimodular_batch(
        tuple(np.where(measured, v, w) for v, w in zip(m, _LOXODROMIC))
    )
    if np.any(singular):
        raise ZeroMultiplier("matrix is singular, no Moebius map")
    mu = np.where(measured, complex_length(probe).value, np.nan)
    # A loxodromic meridian is no rotation: it has no cone angle.
    loxodromic = abs(mu.real) >= 1e-6
    cone = np.where(loxodromic, np.nan, cone)
    residual = np.where(loxodromic, np.nan, residual)
    kind = np.where(
        identity,
        "identity",
        np.where(cusp, "parabolic", np.where(loxodromic, "loxodromic", "elliptic")),
    )
    return MeridianData(curve, trace, kind, mu, cone, residual, commute)


AUDIT_WORDS = ("a", "b", "e", "abAB", "bQ", "aePE", "Ebe", "pq", "qePa")


def audit_words(samples=60, seed=0):
    """The words of a mirror audit, each paired with its
    :func:`mirror_word`: the fixed structural ``AUDIT_WORDS``, then
    ``samples`` random reduced words drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    words = list(AUDIT_WORDS) + [
        random_reduced_word(rng, DOUBLED_LETTERS, 12) for _ in range(samples)
    ]
    return [(w, mirror_word(w)) for w in words]


def mirror_residual(dh, words):
    """Worst ``|trace(mirror(w)) - conj(trace(w))|`` over ``words``, a
    list of ``(word, mirror image)`` pairs as :func:`audit_words` gives,
    and the first word that attains it (``""`` when it is 0), as arrays
    with one entry per point.

    The mirror involution is an exact symmetry of the construction, so
    the residual is round-off for every doubled word."""
    traces = dh.traces([w for pair in words for w in pair])
    res = np.array([abs(tm - t.conjugate()) for t, tm in zip(traces[::2], traces[1::2])])
    worst = res.max(axis=0)
    word = np.where(worst > 0.0, np.array([w for w, _ in words])[res.argmax(axis=0)], "")
    return {"residual": worst, "word": word, "count": len(words)}
