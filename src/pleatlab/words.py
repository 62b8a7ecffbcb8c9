"""Words in free generators and their matrix evaluation.

A word is a string over generator letters, uppercase meaning inverse:
``"abAB"`` is a * b * a^-1 * b^-1.  Evaluation goes through the kernel's
``eval_word``.
"""

from functools import lru_cache

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


class WordEvaluator:
    """Evaluates words over a fixed, ordered set of generator matrices."""

    def __init__(self, generators):
        """``generators``: dict letter (lowercase) -> 4-tuple matrix."""
        self.letters = "".join(generators)
        self._mats = tuple(tuple(map(complex, generators[ch])) for ch in self.letters)

    def codes(self, word):
        return word_codes(self.letters, word)

    def matrix(self, word):
        return kernel.eval_word(self.codes(word), self._mats)

    def trace(self, word):
        m = self.matrix(word)
        return m[0] + m[3]


def random_reduced_word(rng, letters, min_len=1, max_len=12):
    """A nonempty freely reduced word, drawn with the given numpy RNG.

    The length is uniform in ``[min_len, max_len]``; each letter is
    uniform over the symbols (``letters``, then their inverses) that do
    not cancel the previous one, one ``rng.integers`` draw per letter.
    """
    if min_len < 1:
        raise PleatlabError(f"a nonempty word needs min_len >= 1, got {min_len}")
    n = len(letters)
    symbols = list(letters) + [ch.upper() for ch in letters]
    length = int(rng.integers(min_len, max_len + 1))
    out = [int(rng.integers(0, 2 * n))]
    for _ in range(length - 1):
        # Skip the inverse of the previous symbol, n places away.
        k = int(rng.integers(0, 2 * n - 1))
        out.append(k + (k >= (out[-1] + n) % (2 * n)))
    return "".join(symbols[k] for k in out)
