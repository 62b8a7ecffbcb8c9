"""High-precision references for the tests, in mpmath at DIGITS digits with float
inputs read as exact binary numbers: the tests' one mpmath import (``src`` has none)."""

from functools import lru_cache

import mpmath

DIGITS = 60


def number(text):
    """The decimal ``text`` to DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return mpmath.mpf(text)


def marked_pair(u, v, built):
    """The marked normal form ``{"a": (a, b, c, d), "b": ...}`` over the traces
    or (``built="lengths"``) the lengths ``u, v``, exactly on the cusped locus."""
    with mpmath.workdps(DIGITS):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        x, y, big_x, big_y = u, v, u * u - 4, v * v - 4
        if built == "lengths":
            x, y = 2 * mpmath.cosh(u / 2), 2 * mpmath.cosh(v / 2)
            big_x, big_y = 4 * mpmath.sinh(u / 2) ** 2, 4 * mpmath.sinh(v / 2) ** 2
        w = mpmath.sqrt(mpmath.mpc(big_x * big_y - 16))
        r = big_y / (2 * (w + 4j))
        return dict(a=(x / 2, big_x / 2, 0.5, x / 2), b=(y / 2, w - big_x * r, r, y / 2))


def fixed_points(m):
    """The roots z of ``c z^2 + (d - a) z - b`` of ``m = (a, b, c, d)``, each
    as ``(z, |c z + d|)``, attracting (larger ``|c z + d|``) first."""
    with mpmath.workdps(DIGITS):
        a, b, c, d = (mpmath.mpc(v) for v in m)
        r = mpmath.sqrt((a - d) ** 2 + 4 * b * c)
        roots = [(z, abs(c * z + d)) for z in ((a - d + r) / (2 * c), (a - d - r) / (2 * c))]
        return sorted(roots, key=lambda root: -root[1])


def _apply(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def roof_angle(pair, curve):
    """``bending_angle``'s roof for ``curve`` of a :func:`marked_pair`."""
    with mpmath.workdps(DIGITS):
        gen, other = pair[curve], pair["b" if curve == "a" else "a"]
        g, o = (mpmath.matrix([m[:2], m[2:]]) for m in (gen, other))
        cusp = g * o * g**-1 * o**-1
        vertex = (cusp[0, 0] - cusp[1, 1]) / (2 * cusp[1, 0])
        (att, _), (rep, _) = fixed_points(gen)
        h, turn = mpmath.matrix([[1, -rep], [1, -att]]), 2 * mpmath.pi
        phi1 = mpmath.arg(_apply(h, vertex))
        delta2 = (mpmath.arg(_apply(h, _apply(o**-1, vertex))) - phi1) % turn
        for probe, _ in fixed_points(other):
            delta_t = (mpmath.arg(_apply(h, probe)) - phi1) % turn
            if delta_t not in (0, delta2):
                return mpmath.pi - (delta2 if 0 < delta_t < delta2 else turn - delta2)


def _angle(l_a, l_b):
    """:func:`closed_form_angle` at the working precision."""
    half_a, half_b = mpmath.mpf(l_a) / 2, mpmath.mpf(l_b) / 2
    p, q = mpmath.sinh(half_a) * mpmath.sinh(half_b), mpmath.sinh(half_a) * mpmath.cosh(half_b)
    return 2 * mpmath.atan2(mpmath.sqrt((1 - p) * (1 + p)), q)


def closed_form_angle(l_a, l_b):
    """Curve a's angle by ``cos(theta_a / 2) = tanh(l_a / 2) cosh(l_b / 2)``, as an atan2."""
    with mpmath.workdps(DIGITS):
        return _angle(l_a, l_b)


def angle_jacobian(l_a, l_b):
    """The matrix ``J = d(theta_a, theta_b) / d(l_a, l_b)`` of :func:`closed_form_angle`, by
    ``mpmath.diff`` (which evaluates the angle at its own raised precision), and the
    determinant of ``dl/dphi = (-2 J)^-1``."""
    with mpmath.workdps(DIGITS):
        l_a, l_b = mpmath.mpf(l_a), mpmath.mpf(l_b)
        jacobian = mpmath.matrix([
            [mpmath.diff(lambda t: _angle(t, l_b), l_a), mpmath.diff(lambda t: _angle(l_a, t), l_b)],
            [mpmath.diff(lambda t: _angle(l_b, t), l_a), mpmath.diff(lambda t: _angle(t, l_a), l_b)],
        ])
        return jacobian, mpmath.det((-2 * jacobian) ** -1)


def _length_coordinates(x, y, z):
    """``(l_a, l_b, kappa) = (2 acosh(x/2), 2 acosh(y/2), x^2 + y^2 + z^2 - xyz - 2)``."""
    return 2 * mpmath.acosh(x / 2), 2 * mpmath.acosh(y / 2), x * x + y * y + z * z - x * y * z - 2


def length_jacobian(x, y, z):
    """The matrix ``d(l_a, l_b, kappa) / d(x, y, z)`` at the trace coordinates ``x, y, z``,
    by ``mpmath.diff`` of :func:`_length_coordinates`, and its determinant."""
    with mpmath.workdps(DIGITS):
        point = [mpmath.mpc(v) for v in (x, y, z)]
        matrix = mpmath.matrix([
            [mpmath.diff(lambda *p: _length_coordinates(*p)[i], point, tuple(int(j == k) for k in range(3)))
             for j in range(3)]
            for i in range(3)
        ])
        return matrix, mpmath.det(matrix)


def explicit_lengths(theta_a, theta_b):
    """The lengths by ``sinh(l_a / 2) = sin(theta_b / 2) cot(theta_a / 2)`` and its mirror."""
    with mpmath.workdps(DIGITS):
        half = mpmath.mpf(theta_a) / 2, mpmath.mpf(theta_b) / 2
        return tuple(2 * mpmath.asinh(mpmath.sin(q) * mpmath.cot(p)) for p, q in (half, half[::-1]))


def _quadratic(v0, dv):
    """The coefficients, highest first, of ``(v0 + s dv)^2 - 4`` in ``s``."""
    return [dv * dv, 2 * v0 * dv, v0 * v0 - 4]


def trace_path_volume(start, end):
    """``int sum_i l_i dtheta_i`` along the trace segment from ``start`` to ``end``, with the
    closed-form angles differentiated in closed form, by tanh-sinh quadrature.  The
    integrand is 0 where the structure is bending-free, ``P = sinh(l_a/2) sinh(l_b/2) >= 1``
    (there ``c = cos(theta/2) >= 1``), and a trace that stays put (``du = 0``, also on the
    cusp ``u = 2``) adds nothing; the quadrature is split where the segment crosses
    ``P = 1``, ``(x^2 - 4)(y^2 - 4) = 16``, at whose crossings ``dtheta/ds`` blows up."""
    with mpmath.workdps(DIGITS):
        (x0, y0), (x1, y1) = ([mpmath.mpf(v) for v in p] for p in (start, end))
        rates = x1 - x0, y1 - y0

        def integrand(s):
            traces, total = (x0 + s * rates[0], y0 + s * rates[1]), 0
            for (u, v), (du, dv) in ((traces, rates), (traces[::-1], rates[::-1])):
                half, other = mpmath.acosh(u / 2), mpmath.acosh(v / 2)
                c = mpmath.tanh(half) * mpmath.cosh(other)
                if c >= 1:
                    return 0
                dc = 0
                if du != 0:
                    dc += mpmath.sech(half) ** 2 * du / mpmath.sqrt(u * u - 4) * mpmath.cosh(other)
                if dv != 0:
                    dc += mpmath.tanh(half) * mpmath.sinh(other) * dv / mpmath.sqrt(v * v - 4)
                total += 2 * half * -2 * dc / mpmath.sqrt(1 - c * c)
            return total

        # (x(s)^2 - 4)(y(s)^2 - 4) - 16, a quartic in s, highest coefficient first.
        qx, qy = _quadratic(x0, rates[0]), _quadratic(y0, rates[1])
        quartic = [sum(qx[i] * qy[k - i] for i in range(max(0, k - 2), min(k, 2) + 1))
                   for k in range(5)]
        quartic[-1] -= 16
        while quartic[0] == 0 and len(quartic) > 1:
            quartic.pop(0)
        roots = mpmath.polyroots(quartic, maxsteps=200, extraprec=DIGITS) if len(quartic) > 1 else []
        crossings = sorted(mpmath.re(r) for r in roots if mpmath.im(r) == 0 and 0 < mpmath.re(r) < 1)
        return mpmath.quad(integrand, [0, *crossings, 1])


@lru_cache(maxsize=None)
def angle_path_volume(start, end):
    """``int sum_i l_i dtheta_i`` along the straight angle path from ``start``
    to ``end`` (tuples), with the lengths of :func:`explicit_lengths`, by
    tanh-sinh quadrature; memoized, as several tests integrate one path."""
    with mpmath.workdps(DIGITS):
        (a0, b0), (a1, b1) = ([mpmath.mpf(v) for v in p] for p in (start, end))

        def integrand(s):
            l_a, l_b = explicit_lengths(a0 + s * (a1 - a0), b0 + s * (b1 - b0))
            return l_a * (a1 - a0) + l_b * (b1 - b0)

        return mpmath.quad(integrand, [0, 1])


def clausen(theta):
    """Clausen's function ``Cl2(theta)``, as ``mpmath.clsin(2, theta)``."""
    with mpmath.workdps(DIGITS):
        return mpmath.clsin(2, mpmath.mpf(theta))


def clausen_step(start, width):
    """``Cl2(start + width) - Cl2(start)``, by ``mpmath.clsin(2, .)``."""
    with mpmath.workdps(DIGITS):
        start = mpmath.mpf(start)
        return mpmath.clsin(2, start + mpmath.mpf(width)) - mpmath.clsin(2, start)


@lru_cache(maxsize=None)
def schlafli_potential(half_a, half_b):
    """The potential ``W`` of ``sum_i l_i dtheta_i = 4 dW`` at the half-angles ``A = theta_a / 2``,
    ``B = theta_b / 2``, fixed by ``W(pi/2, pi/2) = 0`` (the maximal cusp), as the pair
    ``(W + 2G, W)`` with ``G`` Catalan's constant: ``W`` is minus the integral of its gradient
    ``(asinh(sin B cot A), asinh(sin A cot B))``, half the lengths of :func:`explicit_lengths`,
    along the straight path from ``(A, B)`` to ``(pi/2, pi/2)``, by tanh-sinh quadrature, which
    takes the logarithmic growth of a length at an edge ``A = 0`` in its stride; memoized."""
    with mpmath.workdps(DIGITS):
        a0, b0 = mpmath.mpf(half_a), mpmath.mpf(half_b)
        da, db = mpmath.pi / 2 - a0, mpmath.pi / 2 - b0

        def gradient(s):
            a, b = a0 + s * da, b0 + s * db
            return (mpmath.asinh(mpmath.sin(b) * mpmath.cot(a)) * da
                    + mpmath.asinh(mpmath.sin(a) * mpmath.cot(b)) * db)

        potential = -mpmath.quad(gradient, [0, 1])
        return potential + 2 * mpmath.catalan, potential
