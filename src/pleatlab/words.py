"""Words in free generators and their matrix evaluation.

A word is a string over generator letters, uppercase meaning inverse:
``"abAB"`` is a * b * a^-1 * b^-1.  Evaluation goes through the kernel's
``eval_word``; :func:`eval_words` evaluates many words over many
generator tuples at once, as one elementwise product per letter position.
"""

from functools import lru_cache

import numpy as np

from pleatlab import kernel
from pleatlab.errors import PleatlabError


@lru_cache(maxsize=4096)
def word_codes(letters, word):
    """Kernel codes of ``word`` over the ordered generator ``letters``:
    ``+k`` for the k-th letter, ``-k`` for its uppercase inverse.

    Memoized (bounded), since the pants and cusp words recur on every
    structure.
    """
    try:
        return tuple(
            letters.index(ch) + 1 if ch.islower() else -(letters.index(ch.lower()) + 1)
            for ch in word
        )
    except ValueError as exc:
        raise PleatlabError(f"unknown generator letter in {word!r}") from exc


def padded_codes(letters, words):
    """The :func:`word_codes` of ``words`` as one ``(W, L)`` int array,
    each row padded on the right with 0, :func:`eval_words`' identity."""
    codes = [word_codes(letters, w) for w in words]
    out = np.zeros((len(codes), max([1, *map(len, codes)])), dtype=np.intp)
    for row, code in zip(out, codes):
        row[:len(code)] = code
    return out


def eval_words(codes, gens):
    """:func:`kernel.eval_word` of every word at every point at once.

    ``codes`` is a ``(W, L)`` int array of padded words, as
    :func:`padded_codes` gives: ``+k`` selects ``gens[k-1]``, ``-k`` its
    unimodular inverse and 0 the identity.  ``gens`` is a sequence of
    4-tuples of ``(n,)`` complex arrays, one entry per point.  The words
    are multiplied left to right, one elementwise product per letter
    position, and the four entries come back as ``(n, W)`` arrays.
    """
    n = len(gens[0][0])
    one, zero = np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    # Column 0 is the identity, column k generator k and column -k its
    # inverse, so a code indexes its factor directly.
    factors = [(one, zero, zero, one), *gens, *map(kernel.mat_inv, reversed(gens))]
    table = [np.stack([f[j] for f in factors], axis=1) for j in range(4)]
    a, b, c, d = (t[:, codes[:, 0]] for t in table)
    for column in codes.T[1:]:
        e, f, g, h = (t[:, column] for t in table)
        a, b, c, d = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return a, b, c, d


class StackEvaluator:
    """Evaluates words over a stack of generator tuples: ``generators``
    maps each lowercase letter, in order, to a 4-tuple of ``(n,)``
    arrays, and :meth:`matrices` evaluates all its words at all ``n``
    points in one :func:`eval_words` product."""

    def __init__(self, generators):
        self.letters = "".join(generators)
        self._mats = tuple(
            tuple(np.asarray(v, dtype=complex) for v in generators[ch]) for ch in self.letters
        )

    def _entries(self, words):
        return eval_words(padded_codes(self.letters, words), self._mats)

    def matrices(self, words):
        """The ``(n,)``-array matrix of each word, in order."""
        return list(zip(*(e.T for e in self._entries(words))))

    def traces(self, words):
        """The ``(n,)``-array trace of each word, as rows of a ``(W, n)`` array."""
        a, _, _, d = self._entries(words)
        return (a + d).T


def random_reduced_word(rng, letters, max_len):
    """A nonempty freely reduced word, drawn with the given numpy RNG.

    The length is uniform in ``[1, max_len]``; each letter is uniform
    over the symbols (``letters``, then their inverses) that do not
    cancel the previous one, one ``rng.integers`` draw per letter.
    """
    n = len(letters)
    symbols = list(letters) + [ch.upper() for ch in letters]
    length = int(rng.integers(1, max_len + 1))
    out = [int(rng.integers(0, 2 * n))]
    for _ in range(length - 1):
        # Skip the inverse of the previous symbol, n places away.
        k = int(rng.integers(0, 2 * n - 1))
        out.append(k + (k >= (out[-1] + n) % (2 * n)))
    return "".join(symbols[k] for k in out)
