"""2x2 complex matrix kernel.

Matrices are 4-tuples ``(a, b, c, d)`` representing ``[[a, b], [c, d]]``.
Points on the Riemann sphere are complex numbers, with ``None`` standing
for the point at infinity.  The arithmetic is plain Python, so ``mat_mul``
and ``mat_inv`` also work elementwise on tuples of numpy arrays.
"""

import cmath

# The only implementation; kept as a constant for benchmark metadata.
IMPLEMENTATION = "python"


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(m):
    """Inverse of a unimodular matrix (adjugate; no division)."""
    a, b, c, d = m
    return (d, -b, -c, a)


def mat_conj(m):
    a, b, c, d = m
    return (a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate())


def mat_det(m):
    a, b, c, d = m
    return a * d - b * c


def normalize_unimodular(m):
    """Scale ``m`` by 1/sqrt(det) (principal branch). Returns (m', det)."""
    det = mat_det(m)
    s = cmath.sqrt(det)
    a, b, c, d = m
    return (a / s, b / s, c / s, d / s), det


def apply_mobius(m, z):
    """Evaluate the Moebius map of ``m`` at ``z`` (``None`` = infinity)."""
    a, b, c, d = m
    if z is None:
        if c == 0:
            return None
        return a / c
    num = a * z + b
    den = c * z + d
    if den == 0:
        return None
    return num / den


def eval_word(codes, gens):
    """Product of generator matrices.

    ``codes`` is a sequence of nonzero ints: ``+k`` selects ``gens[k-1]``,
    ``-k`` its unimodular inverse.  ``gens`` is a sequence of 4-tuples.
    Empty ``codes`` gives the identity.
    """
    a, b, c, d = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for code in codes:
        if code > 0:
            e, f, g, h = gens[code - 1]
        else:
            p, q, r, s = gens[-code - 1]
            e, f, g, h = s, -q, -r, p
        a, b, c, d = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return (a, b, c, d)
