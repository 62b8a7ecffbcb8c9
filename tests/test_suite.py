"""Acceptance-suite internals against their one-at-a-time references."""

import cmath

import numpy as np
import pytest

from pleatlab import suite
from pleatlab.moebius import complex_length, unimodular


def _skipping_unimodular(m):
    """A parabolic (trace 2) stand-in when the normalized top-left entry
    has real part above 1, so that check_lift skips about one draw in
    fourteen."""
    m = unimodular(m)
    return (1, 1, 0, 1) if m[0].real > 1.0 else m


def _lift_reference(samples, seed, tol=1e-10, make=unimodular):
    """check_lift as one eight-value draw per matrix."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = 0
    while tested < samples:
        entries = rng.normal(size=8)
        m = make((
            complex(entries[0], entries[1]),
            complex(entries[2], entries[3]),
            complex(entries[4], entries[5]),
            complex(entries[6], entries[7]),
        ))
        tr = m[0] + m[3]
        if min(abs(tr - 2.0), abs(tr + 2.0)) < 1e-3:
            continue
        tested += 1
        lam = complex_length(m)
        recon = 2.0 * cmath.cosh(lam.value / 2.0)
        worst = max(worst, abs(recon - lam.lift_sign * tr))
    return {"samples": tested, "worst_residual": worst, "tol": tol}


@pytest.mark.parametrize("skipping", [False, True], ids=["plain", "skipping"])
@pytest.mark.parametrize("samples", [255, 256, 257, 600])
def test_check_lift_matches_single_draws(samples, skipping, monkeypatch):
    """Block draws across block boundaries, with and without skipped
    draws, give the matrices of one draw per matrix."""
    make = _skipping_unimodular if skipping else unimodular
    monkeypatch.setattr(suite, "unimodular", make)
    for seed in (1, 4):
        record = suite.check_lift(samples=samples, seed=seed)
        assert record["details"] == _lift_reference(samples, seed, make=make)


def test_min_monotonicity_of_linear_maps():
    """For l = A phi the pair ratio is a Rayleigh quotient of A: at least
    its smallest symmetric eigenvalue, and negative for a decreasing map."""
    rng = np.random.default_rng(2)
    phis = [tuple(rng.uniform(0.5, 5.0, size=2)) for _ in range(12)]
    a = np.array([[0.6, -0.2], [-0.2, 0.4]])
    states = [(tuple(a @ p), p) for p in phis]
    witness = suite._min_monotonicity(states)
    assert min(np.linalg.eigvalsh(a)) - 1e-12 <= witness <= max(np.linalg.eigvalsh(a))
    assert suite._min_monotonicity([(tuple(-a @ p), p) for p in phis]) < 0.0


def test_posdef_gates_on_the_monotonicity_witness(monkeypatch):
    record = suite.check_posdef()
    assert record["passed"] and record["details"]["min_monotonicity"] > 0.0
    monkeypatch.setattr(suite, "_min_monotonicity", lambda states: -1e-3)
    assert not suite.check_posdef()["passed"]


def test_check_grid_applies_its_planarity_tol():
    record = suite.check_grid()
    assert record["passed"] and record["details"]["worst_planarity"] < 1e-8
    failing = suite.check_grid(tol=1e-20)
    assert not failing["passed"]
    assert failing["details"]["failures"] == 0
