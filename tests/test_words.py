"""Free-group words: codes, evaluation, and random reduced words."""

import numpy as np
import pytest

from pleatlab import kernel
from pleatlab.errors import PleatlabError
from pleatlab.moebius import unimodular_batch
from pleatlab.words import (
    StackEvaluator,
    eval_words,
    padded_codes,
    random_reduced_word,
    word_codes,
)


def _inverse(word):
    return word[::-1].swapcase()


@pytest.fixture
def evaluator():
    """A one-point stack of two unimodular generators."""
    gens = {
        "a": (2.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j),
        "b": (1.0 + 0j, 1.0 + 0j, -1.0 + 0j, 0.0 + 0j),
    }
    return StackEvaluator({ch: tuple(np.array([v]) for v in m) for ch, m in gens.items()})


def _matrix(evaluator, word):
    """The 2x2 matrix of ``word`` at the evaluator's one point."""
    return np.concatenate(evaluator.matrices([word])[0]).reshape(2, 2)


def test_evaluator_codes_sign_convention():
    assert word_codes("ab", "abAB") == (1, 2, -1, -2)


def test_evaluator_rejects_unknown_letters(evaluator):
    with pytest.raises(PleatlabError):
        evaluator.matrices(["axb"])


def test_evaluator_matrix_matches_manual_product(evaluator):
    a = np.array([[2, 1], [1, 1]], dtype=complex)
    b = np.array([[1, 1], [-1, 0]], dtype=complex)
    want = a @ b @ np.linalg.inv(a)
    assert np.allclose(_matrix(evaluator, "abA"), want, atol=1e-12)


def test_evaluator_trace_is_conjugation_invariant(evaluator):
    for w in ("b", "ab", "aBa"):
        conjugate = w + "ab" + _inverse(w)
        traces = evaluator.traces([conjugate, "ab"])[:, 0]
        assert traces[0] == pytest.approx(traces[1])


def test_inverse_word_gives_inverse_matrix(evaluator):
    m = _matrix(evaluator, "abbA")
    minv = _matrix(evaluator, _inverse("abbA"))
    assert np.allclose(m @ minv, np.eye(2), atol=1e-12)


def test_random_reduced_word_is_reduced_and_in_alphabet():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = random_reduced_word(rng, "ab", max_len=9)
        assert 1 <= len(w) <= 9
        # no letter is followed by its own inverse
        assert not any(u != v and u.lower() == v.lower() for u, v in zip(w, w[1:]))
        assert set(w.lower()) <= {"a", "b"}


def _filtered_reduced_word(rng, letters, max_len):
    """random_reduced_word as first written, the reference: the
    admissible symbols are rebuilt as a list for every letter.  (Its
    retry loop for an empty word never ran for lengths from 1 and is
    left out.)"""
    symbols = list(letters) + [ch.upper() for ch in letters]
    length = int(rng.integers(1, max_len + 1))
    out = []
    for _ in range(length):
        choices = [
            s
            for s in symbols
            if not (out and s != out[-1] and s.lower() == out[-1].lower())
        ]
        out.append(choices[int(rng.integers(0, len(choices)))])
    return "".join(out)


@pytest.mark.parametrize("letters,max_len", [("ab", 6), ("ab", 12), ("abcd", 12)])
def test_random_reduced_word_matches_the_filtered_reference(letters, max_len):
    """The same words from the same draws, and the same draws after them."""
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(500):
        assert random_reduced_word(rng, letters, max_len) == _filtered_reduced_word(
            ref_rng, letters, max_len
        )
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


def test_eval_words_matches_eval_word_at_every_point():
    """One padded product per letter position gives, for every word and
    every point, kernel.eval_word's matrix to round-off: one-letter words,
    mixed lengths up to 12 and the empty word (the identity)."""
    rng = np.random.default_rng(5)
    n, letters = 7, "abc"
    gens = []
    for _ in letters:
        entries = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        gens.append(unimodular_batch(tuple(entries))[0])
    words = [random_reduced_word(rng, letters, 12) for _ in range(60)]
    words += list(letters) + [ch.upper() for ch in letters] + [""]
    entries = eval_words(padded_codes(letters, words), gens)
    assert all(e.shape == (n, len(words)) for e in entries)
    for i in range(n):
        point = [tuple(complex(v[i]) for v in g) for g in gens]
        for k, w in enumerate(words):
            want = kernel.eval_word(word_codes(letters, w), point)
            scale = max(1.0, *map(abs, want))
            assert max(abs(e[i, k] - v) for e, v in zip(entries, want)) <= 1e-13 * scale, w
