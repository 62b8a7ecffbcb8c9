"""Free-group word utilities: inversion, reduction, and evaluation."""

import numpy as np
import pytest

from pleatlab.errors import PleatlabError
from pleatlab.words import (
    WordEvaluator,
    free_reduce,
    random_reduced_word,
    word_inverse,
)


def test_word_inverse_reverses_and_swaps_case():
    assert word_inverse("abA") == "aBA"
    assert word_inverse("") == ""
    assert word_inverse(word_inverse("aBBae")) == "aBBae"


def test_free_reduce_cancels_adjacent_inverse_pairs():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abBc") == "ac"
    assert free_reduce("ab") == "ab"


def test_free_reduce_cascades_through_new_adjacencies():
    # Removing the inner pair exposes another pair.
    assert free_reduce("aBbA") == ""
    assert free_reduce("xaBbAX".replace("x", "c").replace("X", "C")) == ""


@pytest.fixture
def evaluator():
    gens = {
        "a": (2.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j),
        "b": (1.0 + 0j, 1.0 + 0j, -1.0 + 0j, 0.0 + 0j),
    }
    return WordEvaluator(gens)


def test_evaluator_codes_sign_convention(evaluator):
    assert evaluator.codes("abAB") == (1, 2, -1, -2)


def test_evaluator_rejects_unknown_letters(evaluator):
    with pytest.raises(PleatlabError):
        evaluator.codes("axb")


def test_evaluator_matrix_matches_manual_product(evaluator):
    a = np.array([[2, 1], [1, 1]], dtype=complex)
    b = np.array([[1, 1], [-1, 0]], dtype=complex)
    want = a @ b @ np.linalg.inv(a)
    got = np.array(evaluator.matrix("abA")).reshape(2, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_evaluator_trace_is_conjugation_invariant(evaluator):
    for w in ("b", "ab", "aBa"):
        conjugate = w + "ab" + word_inverse(w)
        assert evaluator.trace(conjugate) == pytest.approx(evaluator.trace("ab"))


def test_inverse_word_gives_inverse_matrix(evaluator):
    m = np.array(evaluator.matrix("abbA")).reshape(2, 2)
    minv = np.array(evaluator.matrix(word_inverse("abbA"))).reshape(2, 2)
    assert np.allclose(m @ minv, np.eye(2), atol=1e-12)


def test_random_reduced_word_is_reduced_and_in_alphabet():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = random_reduced_word(rng, "ab", min_len=1, max_len=9)
        assert 1 <= len(w) <= 9
        assert free_reduce(w) == w
        assert set(w.lower()) <= {"a", "b"}
