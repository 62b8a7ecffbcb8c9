"""Acceptance-suite internals against their one-at-a-time references."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from pleatlab import doubling, lengthmap, plaques, suite
from pleatlab.doubling import audit_words, doubled_holonomy, mirror_residual
from pleatlab.errors import NewtonDivergence, PleatlabError, ZeroMultiplier
from pleatlab.moebius import complex_length, unimodular, unimodular_batch
from pleatlab.plaques import certify_batch


def _skipping_unimodular(m):
    """A parabolic (trace 2) stand-in when the normalized top-left entry
    has real part above 1, so that check_lift skips about one draw in
    fourteen."""
    m = unimodular(m)
    return (1, 1, 0, 1) if m[0].real > 1.0 else m


def _skipping_batch(m):
    """unimodular_batch with _skipping_unimodular's stand-in."""
    (a, b, c, d), singular = unimodular_batch(m)
    swap = a.real > 1.0
    return (
        np.where(swap, 1, a),
        np.where(swap, 1, b),
        np.where(swap, 0, c),
        np.where(swap, 1, d),
    ), singular


def _lift_reference(samples, seed, tol=1e-10, make=unimodular):
    """check_lift as one eight-value draw per matrix; also returns the
    top-left entries of the matrices it tested, and the condition number
    ``(|ad| + |bc|) / |ad - bc|`` of each tested draw's determinant."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = []
    conditions = []
    while len(tested) < samples:
        entries = rng.normal(size=8)
        drawn = (
            complex(entries[0], entries[1]),
            complex(entries[2], entries[3]),
            complex(entries[4], entries[5]),
            complex(entries[6], entries[7]),
        )
        m = make(drawn)
        tr = m[0] + m[3]
        if min(abs(tr - 2.0), abs(tr + 2.0)) < 1e-3:
            continue
        tested.append(m[0])
        a, b, c, d = drawn
        conditions.append((abs(a * d) + abs(b * c)) / abs(a * d - b * c))
        lam = complex_length(m)
        recon = 2.0 * cmath.cosh(lam.value / 2.0)
        worst = max(worst, abs(recon - lam.lift_sign * tr))
    return {"samples": len(tested), "worst_residual": worst, "tol": tol}, tested, conditions


BLOCK = suite.LIFT_BLOCK
EPS = np.finfo(float).eps


@pytest.mark.parametrize("skipping", [False, True], ids=["plain", "skipping"])
@pytest.mark.parametrize(
    "samples", [255, 256, 257, 600, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 89]
)
def test_check_lift_matches_single_draws(samples, skipping, monkeypatch):
    """Block draws, with and without skipped draws, test the matrices of
    one draw per matrix: short runs in one partial block, and runs around
    the shipped block size and past two blocks.  The arrays round
    differently from Python complex arithmetic in the last ulp, so the
    entries and worst residuals agree to 1e-14, far below the 1e-10 tol.
    Only the entries of an ill-conditioned draw are exempt: rescaling
    by one over the square root of the determinant multiplies that
    rounding by half the determinant's condition number, so such an
    entry may differ by eps * condition * |entry| / 2 where that exceeds
    1e-14 (at most five draws a run here, condition 21-226; a different
    draw would differ at order one)."""
    if skipping:
        monkeypatch.setattr(suite, "unimodular_batch", _skipping_batch)
    tested = []

    def recording_complex_length(m):
        tested.extend(m[0].tolist())
        return complex_length(m)

    monkeypatch.setattr(suite, "complex_length", recording_complex_length)
    monkeypatch.setattr(suite, "LIFT_SAMPLES", samples)
    make = _skipping_unimodular if skipping else unimodular
    for seed in (1, 4):
        tested.clear()
        details = suite.check_lift(seed)["details"]
        reference, reference_tested, conditions = _lift_reference(samples, seed, make=make)
        assert details["samples"] == reference["samples"] == len(tested)
        assert details["tol"] == reference["tol"]
        assert abs(details["worst_residual"] - reference["worst_residual"]) <= 1e-14
        diff = np.abs(np.subtract(tested, reference_tested))
        allowed = 0.5 * EPS * np.multiply(conditions, np.abs(reference_tested))
        exempt = allowed > 1e-14
        assert diff[~exempt].max() <= 1e-14
        assert np.all(diff[exempt] <= allowed[exempt])


def test_unimodular_rows_scale_like_unimodular():
    """Rows off determinant 1 are rescaled as unimodular rescales one
    matrix; a row within DET_TOL of determinant 1 comes back as drawn,
    and a singular row is flagged and comes back as drawn, with no
    RuntimeWarning (pytest turns one into an error)."""
    block = np.random.default_rng(5).normal(size=(6, 8))
    block[2] = (2.0, 0.0, 1e-13, 0.0, 0.0, 0.0, 0.5, 0.0)
    block[4, 4:] = 0.0  # c = d = 0
    rows, singular = unimodular_batch(tuple(block.view(complex).T))
    assert singular.tolist() == [False, False, False, False, True, False]
    assert [row[2] for row in rows] == [2.0, 1e-13, 0.0, 0.5]
    assert [row[4] for row in rows] == list(block.view(complex)[4])
    for i, e in enumerate(block.tolist()):
        if singular[i]:
            continue
        one = unimodular((complex(e[0], e[1]), complex(e[2], e[3]),
                          complex(e[4], e[5]), complex(e[6], e[7])))
        assert max(abs(row[i] - x) for row, x in zip(rows, one)) <= 1e-14


def test_check_lift_rejects_a_singular_draw(monkeypatch):
    def singular_batch(m):
        a, b, c, d = (v.copy() for v in m)
        c[3] = d[3] = 0.0  # in the fourth row
        return unimodular_batch((a, b, c, d))

    monkeypatch.setattr(suite, "unimodular_batch", singular_batch)
    monkeypatch.setattr(suite, "LIFT_SAMPLES", 10)
    with pytest.raises(ZeroMultiplier):
        suite.check_lift(suite.SEEDS["lift"])


def test_check_newton_counts_only_library_failures(monkeypatch):
    """A solver's PleatlabError counts as a failed target; any other
    exception is a bug and propagates.  The stand-ins fail the seeded
    solves and leave the cusp solve, made from the default seed, alone."""
    solve = suite.solve_targets

    def diverging(targets, seed=None):
        if seed is None:
            return solve(targets)
        raise NewtonDivergence("no convergence")

    monkeypatch.setattr(suite, "solve_targets", diverging)
    record = suite.check_newton(suite.SEEDS["newton"])
    assert not record["passed"] and record["details"]["failures"] == 20

    def broken(targets, seed=None):
        if seed is None:
            return solve(targets)
        raise TypeError("a bug, not a failed solve")

    monkeypatch.setattr(suite, "solve_targets", broken)
    with pytest.raises(TypeError):
        suite.check_newton(suite.SEEDS["newton"])


def test_check_newton_gates_on_the_closed_form(monkeypatch):
    """Each seed's Newton lengths are measured against the closed form:
    the reported gap is at round-off, and a closed form off by a relative
    1e-6 fails the criterion, which passes on the seed spread alone."""
    record = suite.check_newton(suite.SEEDS["newton"])
    assert record["passed"] and record["details"]["worst_closed_form_gap"] < 1e-13
    explicit = suite.explicit_lengths
    monkeypatch.setattr(
        suite, "explicit_lengths", lambda targets: tuple(v * (1 + 1e-6) for v in explicit(targets))
    )
    record = suite.check_newton(suite.SEEDS["newton"])
    assert not record["passed"]
    assert record["details"]["worst_seed_spread"] < suite.NEWTON_AGREEMENT_TOL
    assert abs(record["details"]["worst_closed_form_gap"] - 1e-6) < 1e-9


def test_closed_form_angle_error_fails_newton(monkeypatch):
    """Solutions report their angles in closed form at the roots Newton
    finds on the roof: a closed form off by a relative 1e-9 misses the
    angle targets by more than ROOF_TOL, and newton fails."""
    closed_form = lengthmap._closed_form_angle
    monkeypatch.setattr(lengthmap, "_closed_form_angle", lambda *l: closed_form(*l) * (1.0 + 1e-9))
    record = suite.check_newton(suite.SEEDS["newton"])
    assert not record["passed"]
    assert record["details"]["worst_angle_miss"] > 1e-10 > record["details"]["roof_tol"]


def test_min_monotonicity_of_linear_maps():
    """For l = A phi the pair ratio is a Rayleigh quotient of A: at least
    its smallest symmetric eigenvalue, and negative for a decreasing map."""
    rng = np.random.default_rng(2)
    phis = rng.uniform(0.5, 5.0, size=(12, 2)).T
    a = np.array([[0.6, -0.2], [-0.2, 0.4]])
    witness = suite._min_monotonicity(a @ phis, phis)
    assert min(np.linalg.eigvalsh(a)) - 1e-12 <= witness <= max(np.linalg.eigvalsh(a))
    assert suite._min_monotonicity(-a @ phis, phis) < 0.0


def _pairwise_min_monotonicity(lengths, phis):
    """_min_monotonicity as first written, the reference: one pair of
    states at a time, in Python floats."""
    states = list(zip(lengths.T.tolist(), phis.T.tolist()))
    worst = math.inf
    for k, (l1, p1) in enumerate(states):
        for l2, p2 in states[k + 1:]:
            dl = (l1[0] - l2[0], l1[1] - l2[1])
            dp = (p1[0] - p2[0], p1[1] - p2[1])
            worst = min(worst, (dl[0] * dp[0] + dl[1] * dp[1]) / (dp[0] ** 2 + dp[1] ** 2))
    return worst


@pytest.mark.parametrize("n", [2, 3, 20, 57])
def test_min_monotonicity_matches_the_pairwise_loop(n):
    """The same operations on every pair give the reference's minimum bit
    for bit, on random states and on posdef's own."""
    rng = np.random.default_rng(n)
    lengths, phis = rng.uniform(0.1, 6.0, size=(2, 2, n))
    assert suite._min_monotonicity(lengths, phis) == _pairwise_min_monotonicity(lengths, phis)
    rep = lengthmap.dl_dphi(*rng.uniform(0.8, 2.9, size=(2, n)))
    phis = 2.0 * (math.pi - rep["thetas"])
    assert suite._min_monotonicity(rep["lengths"], phis) == _pairwise_min_monotonicity(
        rep["lengths"], phis
    )


def test_posdef_gates_on_the_monotonicity_witness(monkeypatch):
    record = suite.check_posdef(suite.SEEDS["posdef"])
    assert record["passed"] and record["details"]["min_monotonicity"] > 0.0
    monkeypatch.setattr(suite, "_min_monotonicity", lambda lengths, phis: -1e-3)
    assert not suite.check_posdef(suite.SEEDS["posdef"])["passed"]


def test_check_posdef_measures_in_one_batch(monkeypatch):
    """check_posdef measures its 20 base points with one
    measure_structures call, and none of them leaves the batch for the
    scalar measure_structure."""
    batches, scalar = [], []
    batch, single = lengthmap.measure_structures, lengthmap.measure_structure
    monkeypatch.setattr(
        lengthmap, "measure_structures", lambda *a: batches.append(len(a[0])) or batch(*a)
    )
    monkeypatch.setattr(lengthmap, "measure_structure", lambda *a: scalar.append(a) or single(*a))
    assert suite.check_posdef(suite.SEEDS["posdef"])["passed"]
    assert batches == [20]
    assert scalar == []


def _skewed_certify_batch(*args):
    """certify_batch with every angle of curve a off by a relative 1e-9."""
    cert = certify_batch(*args)
    return dataclasses.replace(cert, theta_a=cert.theta_a * (1.0 + 1e-9))


def test_roof_angle_error_fails_posdef(monkeypatch):
    """Every roof angle of curve a that posdef's witness certifies off by
    a relative 1e-9 misses its target by more than ROOF_TOL, and posdef
    fails, though its closed-form matrices and placements do not move."""
    monkeypatch.setattr(suite, "certify_batch", _skewed_certify_batch)
    record = suite.check_posdef(suite.SEEDS["posdef"])
    details = record["details"]
    assert not record["passed"]
    assert details["worst_roof_gap"] > 1e-10 > details["roof_tol"]
    assert details["worst_placement_miss"] < details["placement_tol"]
    assert details["worst_determinant_gap"] < details["det_tol"]


def test_certified_angle_error_fails_grid(monkeypatch):
    """The same error in every binding of certify_batch fails grid at
    --seed 0, whose certified angles miss the closed form by more than
    ROOF_TOL; posdef and volume fail on their witnesses too."""
    for module in (plaques, lengthmap, suite):
        monkeypatch.setattr(module, "certify_batch", _skewed_certify_batch)
    records = suite.run_suite(["grid", "posdef", "volume"])
    for record in records:
        assert not record["passed"], record["name"]
        assert record["details"]["worst_roof_gap"] > 1e-10 > suite.ROOF_TOL, record["name"]
    grid = records[0]["details"]
    assert grid["failures"] == 0 and grid["worst_planarity"] < grid["tol"]


@pytest.mark.parametrize("both", [False, True], ids=["one", "both"])
def test_off_diagonal_jacobian_error_fails_the_determinant_gate(both, monkeypatch):
    """An off-diagonal entry of the array dl/dtheta (or both) off by a
    relative 1e-9 moves dl_dphi's determinants away from 1/4 by more than
    POSDEF_DET_TOL, and posdef fails; with both entries scaled the
    matrices stay symmetric, so the determinant alone catches it.  The
    angle-space volumes read the same matrices, and volume fails on the
    pairs' trace-chart volumes (gap 2.8e-10 with one entry)."""
    jacobian = lengthmap._closed_form_length_jacobian

    def skewed(*half_lengths):
        matrices = jacobian(*half_lengths)
        matrices[:, 0, 1] *= 1.0 + 1e-9
        if both:
            matrices[:, 1, 0] *= 1.0 + 1e-9
        return matrices

    monkeypatch.setattr(lengthmap, "_closed_form_length_jacobian", skewed)
    posdef, volume = suite.run_suite(["posdef", "volume"])
    details = posdef["details"]
    assert not posdef["passed"]
    assert details["worst_determinant_gap"] > 1e-9 > details["det_tol"]
    assert (details["worst_symmetry"] == 0.0) == both
    assert not volume["passed"]
    assert volume["details"]["worst_angle_space_gap"] > 1e-10 > volume["details"]["angle_space_tol"]


def test_check_grid_applies_its_planarity_tol(monkeypatch):
    record = suite.check_grid()
    assert record["passed"] and record["details"]["worst_planarity"] < 1e-8
    monkeypatch.setattr(suite, "GRID_TOL", 1e-20)
    failing = suite.check_grid()
    assert not failing["passed"]
    assert failing["details"]["failures"] == 0


@pytest.mark.parametrize("seed_offset", [0, 58, 171])
def test_check_volume_matches_separate_probes(seed_offset, monkeypatch):
    """check_volume's one continuations call takes, per pair, the path
    between the angles measured at the pair's ends, then the concavity
    probes and the ray; its paths are, bit for bit, those of one call per
    path, and so are its margin, ray gain, angle-space gap (against the
    pairs' direct volumes, one segment at a time) and placement miss."""
    batched = []

    def recording_continuations(angle_paths):
        batched.append((angle_paths, lengthmap.continuations(angle_paths)))
        return batched[-1][1]

    monkeypatch.setattr(suite, "continuations", recording_continuations)
    seed = suite.SEEDS["volume"] + seed_offset
    details = suite.check_volume(seed)["details"]
    rng = np.random.default_rng(seed)
    pairs = [rng.uniform(2.1, 2.55, size=6).reshape(3, 2)[:2] for _ in range(suite.VOLUME_PAIRS)]
    starts = [((1.8, 2.0), (2.6, 2.3)), ((1.2, 1.4), (2.2, 2.8)), ((2.8, 1.0), (1.6, 2.4)),
              ((0.9, 2.5), (2.0, 1.1)), ((1.5, 1.5), (2.9, 2.9)), ((2.0, 2.2), (np.pi, np.pi))]
    ((angle_paths, paths),) = batched
    assert angle_paths[suite.VOLUME_PAIRS:] == [(*ends, 8, 16) for ends in starts]
    for (*angles, samples, order), ends in zip(angle_paths, pairs):
        assert (samples, order) == (1, suite.VOLUME_ANGLE_ORDER)
        for theta, (x, y) in zip(angles, ends.tolist()):
            _, _, measured = lengthmap.measure_structure(*(2 * math.acosh(v / 2) for v in (x, y)))
            assert np.max(np.abs(np.subtract(theta, measured))) <= 1e-13
    separate = [lengthmap.continuations([path])[0] for path in angle_paths]
    for got, want in zip(paths, separate):
        for field in dataclasses.fields(lengthmap.AnglePath):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
    probes = [lengthmap.concavity_report(path) for path in separate[suite.VOLUME_PAIRS:-1]]
    assert details["worst_second_difference_margin"] == max(
        v + 3.0 * p["integration_error"] for p in probes for v in p["second_differences"].tolist()
    )
    assert details["concave"] and all(p["concave"] for p in probes)
    ray = separate[-1]
    assert details["ray_volume_gain"] == ray.volume[-1] - ray.volume[0]
    direct = [lengthmap.schlafli_volumes([(*ends, suite.VOLUME_PAIR_ORDER)])[0] for ends in pairs]
    assert details["worst_angle_space_gap"] == max(
        abs(v.value - path.volume[-1]) for v, path in zip(direct, separate)
    )
    assert details["worst_placement_miss"] == max(path.miss.max() for path in separate)


def test_scaled_placements_fail_posdef_and_volume(monkeypatch):
    """Every placed length off by a relative 1e-3 misses its target angles
    by 3e-3 or more; posdef and volume then fail on their placement gate."""
    explicit = lengthmap.explicit_lengths

    def scaled(targets):
        return tuple(v * (1.0 + 1e-3) for v in explicit(targets))

    monkeypatch.setattr(lengthmap, "explicit_lengths", scaled)
    for record in suite.run_suite(["posdef", "volume"]):
        details = record["details"]
        assert not record["passed"], record["name"]
        assert details["worst_placement_miss"] > 1e-4 > details["placement_tol"]


def test_scaled_schlafli_volumes_fail_volume(monkeypatch):
    """Every Schlafli volume scaled by 1.01 keeps path independence,
    concavity and the monotone ray, but the pairs miss the angle-space
    integral of explicit_lengths between their end angles, and volume
    fails."""
    volumes = lengthmap.schlafli_volumes

    def scaled(segments):
        return [dataclasses.replace(v, value=1.01 * v.value) for v in volumes(segments)]

    monkeypatch.setattr(suite, "schlafli_volumes", scaled)
    (record,) = suite.run_suite(["volume"])
    details = record["details"]
    assert not record["passed"]
    assert details["worst_pair_difference"] < details["pair_tol"]
    assert details["concave"] and details["ray_increments_positive"]
    assert details["worst_angle_space_gap"] > 1e-3 > details["angle_space_tol"]


def test_scaled_by_parts_runner_fails_volume(monkeypatch):
    """Every value of the by-parts runner scaled by 1.01, in both charts,
    keeps the pairs' trace-chart volumes on their angle-space integrals,
    but not on the direct form sum_k w_k sum_i l_i dtheta_i, and volume
    fails."""
    runner = lengthmap._by_parts

    def scaled(*args):
        values, errors = runner(*args)
        return 1.01 * values, errors

    monkeypatch.setattr(lengthmap, "_by_parts", scaled)
    (record,) = suite.run_suite(["volume"])
    details = record["details"]
    assert not record["passed"]
    assert details["worst_pair_difference"] < details["pair_tol"]
    assert details["concave"] and details["ray_increments_positive"]
    assert details["worst_angle_space_gap"] < details["angle_space_tol"]
    assert details["worst_direct_form_gap"] > 1e-3 > details["angle_space_tol"]


def test_certified_angle_error_fails_volume(monkeypatch):
    """Every certified angle of curve a off by a relative 1e-9, in every
    binding of certify_batch, leaves the volumes, which certify nothing, as
    they are, but the roof witness at the angle paths' samples sees it,
    and volume fails at --seed 0."""
    for module in (plaques, lengthmap, suite):
        monkeypatch.setattr(module, "certify_batch", _skewed_certify_batch)
    records = {record["name"]: record for record in suite.run_suite()}
    details = records["volume"]["details"]
    assert not records["volume"]["passed"]
    assert details["worst_angle_space_gap"] < details["angle_space_tol"]
    assert details["worst_roof_gap"] > 1e-10 > details["roof_tol"]


def test_check_volume_certifies_in_one_batch(monkeypatch):
    """Only the 74 samples of the angle paths are certified, for the roof
    witness, in one certify_batch call; the volumes of either chart
    certify nothing."""
    sizes = []

    def counting_batch(x, y, z, **kw):
        sizes.append(len(x))
        return certify_batch(x, y, z, **kw)

    for module in (lengthmap, suite):
        monkeypatch.setattr(module, "certify_batch", counting_batch)
    assert suite.check_volume(suite.SEEDS["volume"])["passed"]
    assert sizes == [2 * suite.VOLUME_PAIRS + len(suite.VOLUME_PATHS) * (suite.VOLUME_PATH_SAMPLES + 1)]
    assert sizes == [74]


def test_check_jacobian_makes_one_call(monkeypatch):
    """The 144 grid points and the 10 of the corner path go through one
    holo_length_jacobian call."""
    sizes = []

    def counting(x, y, z):
        sizes.append(len(x))
        return lengthmap.holo_length_jacobian(x, y, z)

    monkeypatch.setattr(suite, "holo_length_jacobian", counting)
    assert suite.check_jacobian()["passed"]
    assert sizes == [len(suite._grid_values()) ** 2 + suite.JACOBIAN_CORNER_STEPS]
    assert sizes == [154]


@pytest.mark.parametrize("point", [0, 143, 153], ids=["first", "last-grid", "corner"])
def test_check_jacobian_gates_the_fd_residual_everywhere(point, monkeypatch):
    """A finite-difference residual above JACOBIAN_FD_TOL at any of the
    154 points, the corner path's included, fails the criterion."""
    def broken(x, y, z):
        rep = lengthmap.holo_length_jacobian(x, y, z)
        rep["fd_residual"][point] = 2.0 * suite.JACOBIAN_FD_TOL
        return rep

    monkeypatch.setattr(suite, "holo_length_jacobian", broken)
    record = suite.check_jacobian()
    assert not record["passed"]
    assert record["details"]["worst_fd_residual"] == 2.0 * suite.JACOBIAN_FD_TOL


def test_check_mirror_draws_its_words_once(monkeypatch):
    draw = doubling.random_reduced_word
    drawn = []

    def counting_word(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(doubling, "random_reduced_word", counting_word)
    record = suite.check_mirror(suite.SEEDS["mirror"])
    assert record["passed"] and record["details"]["structures"] == 6
    assert len(drawn) == 40


def test_check_mirror_matches_symmetry_audit():
    """The worst mirror residual is the largest mirror residual of its
    structures audited one at a time, each doubled as a one-point stack,
    and the audit itself is unchanged: the values for 40 words drawn from
    seed 11 are those of one word list drawn per call.

    The residual is itself round-off in traces of up to ~2e3, and the
    six-point stack may round its products differently from a one-point
    stack, so the two agree to 1e-13 relative to the largest audited
    trace."""
    seed = 4 + 17
    words = [w for pair in audit_words(40, seed) for w in pair]
    doubled = [
        doubled_holonomy(certify_batch([x], [y], [z]))
        for x, y, z in zip(*suite.sample_structures(6, seed))
    ]
    audits = [mirror_residual(dh, audit_words(40, seed)) for dh in doubled]
    scale = max(np.abs(dh.traces(words)).max() for dh in doubled)
    worst = suite.check_mirror(seed)["details"]["worst_trace_mismatch"]
    assert abs(worst - max(a["residual"][0] for a in audits)) <= 1e-13 * scale
    dh = doubled_holonomy(certify_batch(*suite.sample_structures(1, 4)))
    audit = mirror_residual(dh, audit_words(40, 11))
    assert (audit["residual"].tolist(), audit["word"].tolist(), audit["count"]) == (
        [4.602649920770331e-13], ["aaaeqEpbQpB"], 49,
    )


@pytest.mark.parametrize("seed_offset", [0, 17])
def test_run_suite_routes_the_seed_offset(seed_offset, monkeypatch):
    """run_suite calls each of the seven randomized criteria with its
    base seed plus the offset, and the other five with no argument."""
    calls = {}

    def recording(name):
        def check(*args):
            calls[name] = args
            return {"passed": True, "details": {}}

        return check

    monkeypatch.setattr(
        suite, "CRITERIA", tuple((name, text, recording(name)) for name, text, _ in suite.CRITERIA)
    )
    suite.run_suite(seed_offset=seed_offset)
    seeds = {"lift": 1, "relations": 2, "cone": 3, "mirror": 4, "posdef": 5, "volume": 6, "newton": 7}
    assert suite.SEEDS == seeds
    assert calls == {
        name: (seeds[name] + seed_offset,) if name in seeds else () for name, _, _ in suite.CRITERIA
    }
    assert [name for name, args in calls.items() if not args] == [
        "grid", "quakebend", "jacobian", "cuspmodel", "cocycle",
    ]


def test_run_suite_refuses_a_negative_seed_offset(monkeypatch):
    """A negative offset raises PleatlabError before any criterion runs,
    even when the criteria asked for take no seed."""
    def no_criterion(*args):
        raise AssertionError("a criterion ran with a negative seed offset")

    monkeypatch.setattr(
        suite, "CRITERIA", tuple((name, text, no_criterion) for name, text, _ in suite.CRITERIA)
    )
    for names in (None, ["grid"]):
        with pytest.raises(PleatlabError, match="^the seed offset must be at least 0, got -2$"):
            suite.run_suite(names, seed_offset=-2)
