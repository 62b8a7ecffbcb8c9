"""Acceptance suite: the checks shared by the tests and the CLI.

Each criterion is a function returning a record dict with ``passed``
(bool) and ``details`` (flat, JSON-friendly).  The registry at the
bottom fixes the order, the short names used for filtering, and the
one-line descriptions.  The sizes, thresholds and base seeds of the
criteria are constants of this module and nowhere else, so the test
battery and ``pleatlab verify-suite`` cannot drift apart; a criterion
reads them when it runs.  The seven randomized criteria take their seed
as an argument, ``SEEDS[name]`` plus ``run_suite``'s ``seed_offset``.
"""

import math

import numpy as np

from pleatlab.chartor import (
    commuting_canonical_pair,
    coords,
    discriminant,
    pleating_candidates,
)
from pleatlab.doubling import audit_words, doubled_holonomy, meridian_data, mirror_residual
from pleatlab.errors import PleatlabError, ZeroMultiplier
from pleatlab.lengthmap import (
    cocycle_check,
    concavity_report,
    continuations,
    cusp_derivative_check,
    dl_dphi,
    explicit_lengths,
    holo_length_jacobian,
    measure_structures,
    schlafli_volumes,
    solve_targets,
)
from pleatlab.moebius import complex_length, unimodular_batch
from pleatlab.plaques import certify_batch, quakebend

GRID_MIN = 2.05
GRID_MAX = 2.6
GRID_STEP = 0.05
# Rows of random matrix entries check_lift draws, normalizes and
# measures at a time, as numpy arrays.  Over the default 10,000 draws,
# best of 9 on a 2-CPU shared x86 container: 256 rows take ~11.5 ms with
# a 0.11 MB tracemalloc peak, 2,048 rows ~6.2 ms and 0.82 MB, 10,000
# rows ~8.0 ms and 3.6 MB.
LIFT_BLOCK = 2048

# Base sampling seed of each randomized criterion; run_suite adds its
# seed_offset.
SEEDS = {"lift": 1, "relations": 2, "cone": 3, "mirror": 4, "posdef": 5, "volume": 6, "newton": 7}
# Sizes and thresholds of the criteria, in registry order.
LIFT_SAMPLES = 10_000
# check_lift skips a draw whose trace is this close to +/-2.
LIFT_SKIP_BAND = 1e-3
LIFT_TOL = 1e-10
GRID_TOL = 1e-8
# Largest gap between roof and closed-form angles, the roof witnessing the
# closed-form measuring: certify_batch's angles against the closed form
# (grid) or the placed targets (posdef, volume), and the closed-form angles
# at Newton's roof roots against their targets (newton).  Worst: 1.2e-14
# over --seed 0-199, 1.3e-14 over 200-399 (posdef), at lengths up to 3.3;
# the roof's error grows like e^l on a long curve.
ROOF_TOL = 1e-13
# quakebend's Fuchsian seeds, by their a-trace.
QUAKEBEND_SEEDS = (2.5, 2.0 * math.sqrt(2.0), 3.0, 3.5, 4.0)
QUAKEBEND_PARAMETER = 0.3
QUAKEBEND_TOL = 1e-8
RELATIONS_STRUCTURES = 20
RELATIONS_TOL = 1e-9
CONE_STRUCTURES = 20
CONE_ANGLE_TOL = 1e-6
CONE_COMMUTE_TOL = 1e-9
CONE_RE_TOL = 1e-8
MIRROR_STRUCTURES = 6
MIRROR_WORDS = 40
MIRROR_TOL = 1e-8
JACOBIAN_DET_LO = 1e-2
JACOBIAN_DET_HI = 1e3
# A central difference of step h = JACOBIAN_FD_STEP misses a derivative
# by the truncation h^2/6 |f'''|, at most 2.2e-10 (a length 2 arccosh(x/2)
# at x = 2.05), plus the rounding eps S / h of the two values, with S the
# length or, for kappa, |x|^2 + |y|^2 + |z|^2 + |xyz| + 2 (Higham).  This
# model is at most 1.5e-8 over the grid, the corner path and the mirrored
# grid, where the worst reading is 4.2e-9 (0.40 of the model at its
# point); m00 scaled by 1 + 1e-7 opens the residual to at least 1e-7.
JACOBIAN_FD_TOL = 3e-8
# Largest relative gap between holo_length_jacobian's det and the
# determinant of its returned matrix, a round-off bound: it reads 8.3e-16
# on the 298 points, and det scaled by 1.01 opens it to 9.9e-3.
JACOBIAN_DET_GAP_TOL = 1e-13
JACOBIAN_CORNER_TOL = 1e-4
# jacobian walks x = y to 2 sqrt(2) - 10^-k for k = 1 to this.
JACOBIAN_CORNER_STEPS = 10
# posdef's angle pairs, uniform in their ranges: interior, then near flat.
POSDEF_POINTS = 14
POSDEF_ANGLES = (0.8, 2.9)
POSDEF_FLAT_POINTS = 6
POSDEF_FLAT_ANGLES = (0.18, 0.45)
# dl_dphi's matrices are symmetric by construction (symmetry reads 0.0)
# and have determinant 1/4: the largest |det - 1/4| is 3.6e-15 over
# --seed 0-199 and over 200-399, while one off-diagonal entry of the
# angle Jacobian scaled by 1 + 1e-9 opens it to 7.7e-9 at --seed 0.
POSDEF_SYM_TOL = 1e-13
POSDEF_DET_TOL = 1e-13
# Largest closed-form angle miss of a structure placed at explicit_lengths,
# in posdef and volume: a round trip through the closed form.  It reads at
# most 4.0e-15 in posdef over --seed 0-199 (3.9e-15 over 200-399) and
# 8.9e-16 on volume's angle paths; every placed length scaled by 1 + 1e-3
# misses by 3.2e-3 (volume) and 2.4e-2 (posdef) at --seed 0.
PLACEMENT_TOL = 1e-12
# volume's pairs: a start and an end (x, y), each coordinate uniform in
# this range.
VOLUME_PAIRS = 10
VOLUME_PAIR_RANGE = (2.1, 2.55)
# The largest gap of a pair's trace-chart volume from its angle-space
# volume, and of that from the sum of sum_i l_i dtheta_i over the pair's
# angle path by this Gauss-Legendre rule (see README, criterion 9).
VOLUME_FORM_RULE = np.polynomial.legendre.leggauss(24)
VOLUME_ANGLE_TOL = 1e-13
# volume's angle paths (start, end): the concavity paths, then the ray
# to the cusp; and their samples.
VOLUME_PATHS = (((1.8, 2.0), (2.6, 2.3)), ((1.2, 1.4), (2.2, 2.8)), ((2.8, 1.0), (1.6, 2.4)),
                ((0.9, 2.5), (2.0, 1.1)), ((1.5, 1.5), (2.9, 2.9)), ((2.0, 2.2), (math.pi, math.pi)))
VOLUME_PATH_SAMPLES = 8
# newton's starting seeds, and its targets of each kind (length-length,
# then length-angle), each value uniform in its range.
NEWTON_SEEDS = ((1.0, 1.0), (0.6, 1.8), (2.2, 0.9))
NEWTON_TARGETS = 10
NEWTON_LENGTHS = (0.6, 2.2)
NEWTON_MIXED_LENGTHS = (0.7, 2.0)
NEWTON_MIXED_ANGLES = (0.9, 2.8)
NEWTON_AGREEMENT_TOL = 1e-8
# Largest relative gap between a seed's Newton lengths and the closed
# form's (explicit_lengths) in newton.  Measured worst: 2.3e-15 over
# --seed 0-199.
NEWTON_CLOSED_FORM_TOL = 1e-9
# cuspmodel's commuting_canonical_pair: its trace u and its h.
CUSPMODEL_PAIR = (3.0, 2.0)
CUSPMODEL_RELATION_TOL = 1e-12
CUSPMODEL_RATIO_FLOOR = 1e-3
CUSPMODEL_CROSS_TOL = 1e-6
COCYCLE_MIN_EXPONENT = 1.8


def sample_structures(n, seed):
    """Deterministic sample of marked structures, uniform on the square
    ``[GRID_MIN, GRID_MAX]^2`` of the safe region: the arrays ``x``, ``y``
    and ``z`` of their trace coordinates, drawn in pairs ``(x, y)``."""
    x, y = np.random.default_rng(seed).uniform(GRID_MIN, GRID_MAX, size=(n, 2)).T
    return x, y, pleating_candidates(x, y)[0]


def _doubled_sample(n, seed):
    """The doubled holonomy of ``sample_structures(n, seed)``, certified
    by one :func:`certify_batch` and doubled as one stack."""
    return doubled_holonomy(certify_batch(*sample_structures(n, seed)))


def _roof_gap(cert, thetas):
    """Largest gap between a :func:`certify_batch` result's roof angles and
    the ``(2, n)`` angles ``thetas``; NaN where an angle is undefined."""
    return float(np.max(np.abs(np.stack((cert.theta_a, cert.theta_b)) - thetas)))


def _grid_values():
    n = int(round((GRID_MAX - GRID_MIN) / GRID_STEP)) + 1
    return [GRID_MIN + k * GRID_STEP for k in range(n)]


# ---------------------------------------------------------------------------
# 1. complex length against the lifted trace


def check_lift(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    tested = 0
    while tested < LIFT_SAMPLES:
        # A block never holds more rows than samples still missing, so the
        # generator yields the same values as drawing one row at a time.
        # Each row of eight draws holds the entries (a, b, c, d), real and
        # imaginary parts in turn.
        block = rng.normal(size=(min(LIFT_BLOCK, LIFT_SAMPLES - tested), 8))
        (a, b, c, d), singular = unimodular_batch(tuple(block.view(complex).T))
        if singular.any():
            raise ZeroMultiplier("matrix is singular, no Moebius map")
        tr = a + d
        kept = ~(np.minimum(np.abs(tr - 2.0), np.abs(tr + 2.0)) < LIFT_SKIP_BAND)
        tested += int(kept.sum())
        lam = complex_length((a[kept], b[kept], c[kept], d[kept]))
        recon = 2.0 * np.cosh(lam.value / 2.0)
        worst = float(np.abs(recon - lam.lift_sign * tr[kept]).max(initial=worst))
    return {
        "passed": worst < LIFT_TOL,
        "details": {"samples": tested, "worst_residual": worst, "tol": LIFT_TOL},
    }


# ---------------------------------------------------------------------------
# 2. convex certification over the coordinate grid


def check_grid():
    values = _grid_values()
    x = np.repeat(values, len(values))
    y = np.tile(values, len(values))
    cert = certify_batch(x, y, pleating_candidates(x, y)[0])
    ok = (
        cert.is_convex
        & cert.in_pleating_variety
        & (0.0 < cert.theta_a)
        & (cert.theta_a < math.pi)
        & (0.0 < cert.theta_b)
        & (cert.theta_b < math.pi)
    )
    worst_planarity = float(cert.max_planarity_residual.max())
    # The closed form at the curve lengths 2 arccosh(x / 2), 2 arccosh(y / 2).
    _, _, closed = measure_structures(*(2.0 * np.arccosh(np.stack((x, y)) / 2.0)))
    worst_roof = _roof_gap(cert, closed)
    return {
        "passed": bool(ok.all()) and worst_planarity < GRID_TOL and worst_roof < ROOF_TOL,
        "details": {
            "points": int(ok.size),
            "failures": int((~ok).sum()),
            "worst_planarity": worst_planarity,
            "tol": GRID_TOL,
            "worst_roof_gap": worst_roof,
            "roof_tol": ROOF_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 3. quakebend from discriminant-zero Fuchsian seeds


def check_quakebend():
    seeds = [(x, 2.0 * x / math.sqrt(x * x - 4.0)) for x in QUAKEBEND_SEEDS]
    worst_disc = max(abs(discriminant(x, y)) for x, y in seeds)
    seeds = [coords(x, y, x * y / 2.0) for x, y in seeds]
    # The seeds in one certification, the bends of the Fuchsian ones in another.
    fuchsian = certify_batch(*np.array([t.astuple() for t in seeds]).T).is_fuchsian_boundary
    bent = [quakebend(t, QUAKEBEND_PARAMETER).astuple() for t, ok in zip(seeds, fuchsian) if ok]
    cert = certify_batch(*np.array(bent, dtype=complex).reshape(-1, 3).T)
    failures = int((~fuchsian).sum() + (~cert.is_convex).sum())
    misses = abs(cert.theta_a[cert.is_convex] - QUAKEBEND_PARAMETER)
    worst_angle = float(np.max(misses, initial=0.0))
    return {
        "passed": failures == 0 and worst_angle < QUAKEBEND_TOL,
        "details": {
            "seeds": len(QUAKEBEND_SEEDS),
            "failures": failures,
            "bend_parameter": QUAKEBEND_PARAMETER,
            "worst_angle_error": worst_angle,
            "worst_seed_discriminant": worst_disc,
            "tol": QUAKEBEND_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 4. doubled holonomy relations


def check_relations(seed):
    worst = float(_doubled_sample(RELATIONS_STRUCTURES, seed).max_relation_residual.max())
    return {
        "passed": worst < RELATIONS_TOL,
        "details": {
            "structures": RELATIONS_STRUCTURES,
            "worst_relation_residual": worst,
            "tol": RELATIONS_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 5. meridian cone angles


def check_cone(seed):
    dh = _doubled_sample(CONE_STRUCTURES, seed)
    worst_angle = 0.0
    worst_commute = 0.0
    worst_re = 0.0
    for curve in ("a", "b", "puncture"):
        md = meridian_data(dh, curve)
        worst_commute = max(worst_commute, float(md.commutation_residual.max()))
        if curve == "puncture":
            continue
        worst_angle = max(worst_angle, float(md.cone_angle_residual.max()))
        # NaN (no complex length) drops out of fmax.
        worst_re = float(np.fmax.reduce(np.abs(md.complex_length.real), initial=worst_re))
    return {
        "passed": (
            worst_angle < CONE_ANGLE_TOL
            and worst_commute < CONE_COMMUTE_TOL
            and worst_re < CONE_RE_TOL
        ),
        "details": {
            "structures": CONE_STRUCTURES,
            "worst_cone_angle_residual": worst_angle,
            "worst_commutation": worst_commute,
            "worst_real_part": worst_re,
            "angle_tol": CONE_ANGLE_TOL,
            "commute_tol": CONE_COMMUTE_TOL,
            "re_tol": CONE_RE_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 6. mirror symmetry of the doubled traces


def check_mirror(seed):
    # The mirror audit of each structure, with the words drawn once.
    words = audit_words(samples=MIRROR_WORDS, seed=seed)
    dh = _doubled_sample(MIRROR_STRUCTURES, seed)
    worst = float(mirror_residual(dh, words)["residual"].max())
    return {
        "passed": worst < MIRROR_TOL,
        "details": {
            "structures": MIRROR_STRUCTURES,
            "worst_trace_mismatch": worst,
            "tol": MIRROR_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 7. Jacobian determinant bounds and degeneration


def check_jacobian():
    grid = [(x, y) for x in _grid_values() for y in _grid_values()]
    # Walk x = y toward the branch point at 2*sqrt(2) where the marked
    # root collides with its conjugate and the determinant vanishes.
    corner = 2.0 * math.sqrt(2.0)
    path = [(corner - 10.0 ** (-k),) * 2 for k in range(1, JACOBIAN_CORNER_STEPS + 1)]
    # The mirrored grid: negative traces, each length on its other sheet.
    mirrored = [(-x, -y) for x, y in grid]
    # The marked roots of all the structures in one call, and their
    # Jacobians in another; the finite-difference residual is gated at
    # every point.
    x, y = np.array(grid + path + mirrored).T
    rep = holo_length_jacobian(x, y, pleating_candidates(x, y)[0])
    dets = np.abs(np.delete(rep["det"], np.s_[len(grid):len(grid) + len(path)])).tolist()
    path_dets = np.abs(rep["det"][len(grid):len(grid) + len(path)]).tolist()
    worst_fd = float(rep["fd_residual"].max())
    det_gap = float(np.max(np.abs(np.linalg.det(rep["matrix"]) - rep["det"]) / np.abs(rep["det"])))
    decreasing = all(path_dets[i + 1] < path_dets[i] for i in range(len(path_dets) - 1))
    return {
        "passed": (
            min(dets) > JACOBIAN_DET_LO
            and max(dets) < JACOBIAN_DET_HI
            and worst_fd < JACOBIAN_FD_TOL
            and det_gap < JACOBIAN_DET_GAP_TOL
            and decreasing
            and path_dets[-1] < JACOBIAN_CORNER_TOL
        ),
        "details": {
            "grid_min_det": min(dets),
            "grid_max_det": max(dets),
            "worst_fd_residual": worst_fd,
            "worst_det_gap": det_gap,
            "path_final_det": path_dets[-1],
            "path_decreasing": decreasing,
            "det_lo": JACOBIAN_DET_LO,
            "det_hi": JACOBIAN_DET_HI,
            "fd_tol": JACOBIAN_FD_TOL,
            "det_gap_tol": JACOBIAN_DET_GAP_TOL,
            "corner_tol": JACOBIAN_CORNER_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 8. positive-definite angle derivative


def _min_monotonicity(lengths, phis):
    """Minimum over pairs of states ``(l, phi)``, the columns of the
    ``(2, n)`` arrays ``lengths`` and ``phis``, of
    ``<l1 - l2, phi1 - phi2> / |phi1 - phi2|^2``; a positive value
    witnesses that the angle-to-length map is injective on the sample."""
    i, j = np.triu_indices(lengths.shape[1], k=1)
    dl = lengths[:, i] - lengths[:, j]
    dp = phis[:, i] - phis[:, j]
    return float(np.min((dl[0] * dp[0] + dl[1] * dp[1]) / (dp[0] * dp[0] + dp[1] * dp[1])))


def check_posdef(seed):
    rng = np.random.default_rng(seed)
    draws = ((POSDEF_POINTS, POSDEF_ANGLES), (POSDEF_FLAT_POINTS, POSDEF_FLAT_ANGLES))
    pairs = [(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
             for count, (lo, hi) in draws for _ in range(count)]
    targets = np.array(pairs).T
    rep = dl_dphi(*targets)
    m = rep["matrix"]
    worst_sym = float(rep["symmetry_residual"].max())
    worst_det = float(np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0] - 0.25).max())
    min_eig = float(rep["eigenvalues"][:, 0].min())
    min_diag = float(min(m[:, 0, 0].min(), m[:, 1, 1].min()))
    worst_miss = float(rep["miss"].max())
    worst_roof = _roof_gap(certify_batch(*rep["coords"]), targets)
    # The lengths determine the structure: on the convex angle domain,
    # phi -> l is strictly monotone, so every pair gives a positive ratio.
    min_mono = _min_monotonicity(rep["lengths"], 2.0 * (math.pi - rep["thetas"]))
    return {
        "passed": (
            worst_sym < POSDEF_SYM_TOL and worst_det < POSDEF_DET_TOL and min_eig > 0.0
            and min_diag > 0.0 and min_mono > 0.0 and worst_miss < PLACEMENT_TOL
            and worst_roof < ROOF_TOL
        ),
        "details": {
            "points": len(pairs),
            "worst_symmetry": worst_sym,
            "worst_determinant_gap": worst_det,
            "min_eigenvalue": min_eig,
            "min_diagonal": min_diag,
            "min_monotonicity": min_mono,
            "worst_placement_miss": worst_miss,
            "worst_roof_gap": worst_roof,
            "sym_tol": POSDEF_SYM_TOL,
            "det_tol": POSDEF_DET_TOL,
            "placement_tol": PLACEMENT_TOL,
            "roof_tol": ROOF_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 9. volume: the Schlafli form, concavity, monotone ray


def check_volume(seed):
    # Each pair is a start and an end (x, y).
    pairs = np.random.default_rng(seed).uniform(*VOLUME_PAIR_RANGE, size=(VOLUME_PAIRS, 2, 2))
    direct = schlafli_volumes(pairs)
    # The pairs' end angles at the lengths 2 arccosh(x/2), 2 arccosh(y/2).
    _, _, thetas = measure_structures(*(2.0 * np.arccosh(pairs.reshape(-1, 2).T / 2.0)))
    paths = [(a, b, 1) for a, b in zip(thetas.T[::2], thetas.T[1::2])]
    paths += [(*path, VOLUME_PATH_SAMPLES) for path in VOLUME_PATHS]
    angle_paths = continuations(paths)
    pair_volumes = np.array([p.volume[-1] for p in angle_paths[:VOLUME_PAIRS]])
    worst_angle_gap = float(np.max(np.abs(direct - pair_volumes)))
    # A potential off by a factor keeps that gap; the form at Gauss-Legendre
    # nodes of each pair path, with explicit lengths, does not.
    tau, weights = VOLUME_FORM_RULE
    t0, t1 = thetas[:, ::2, None], thetas[:, 1::2, None]
    nodes = t0 + (t1 - t0) * (1.0 + tau) / 2.0
    lengths = np.array(explicit_lengths({"a": ("angle", nodes[0]), "b": ("angle", nodes[1])}))
    direct_form = (lengths * (t1 - t0)).sum(axis=0) @ weights / 2.0
    worst_direct_gap = float(np.max(np.abs(direct_form - pair_volumes)))
    probes = [concavity_report(path) for path in angle_paths[VOLUME_PAIRS:-1]]
    concave_ok = all(probe["concave"] for probe in probes)
    worst_margin = max(float(np.max(probe["second_differences"] + probe["margin"])) for probe in probes)
    ray = angle_paths[-1].volume
    ray_ok = bool(np.all(np.diff(ray) > 0.0))
    worst_miss = float(max(path.miss.max() for path in angle_paths))
    # Each sample's roof angles against its targets, placed as continuations places them.
    targets = [np.minimum(np.outer(a, 1.0 - p.s) + np.outer(b, p.s), math.pi)
               for (a, b, _), p in zip(paths, angle_paths)]
    cert = certify_batch(*np.concatenate([p.coords for p in angle_paths], axis=1))
    worst_roof = _roof_gap(cert, np.concatenate(targets, axis=1))
    return {
        "passed": (
            concave_ok and ray_ok and worst_miss < PLACEMENT_TOL
            and max(worst_angle_gap, worst_direct_gap) < VOLUME_ANGLE_TOL and worst_roof < ROOF_TOL
        ),
        "details": {
            "path_pairs": VOLUME_PAIRS,
            "concavity_paths": len(VOLUME_PATHS) - 1,
            "concave": concave_ok,
            "worst_second_difference_margin": worst_margin,
            "ray_increments_positive": ray_ok,
            "ray_volume_gain": float(ray[-1] - ray[0]),
            "worst_angle_space_gap": worst_angle_gap,
            "worst_direct_form_gap": worst_direct_gap,
            "angle_space_tol": VOLUME_ANGLE_TOL,
            "worst_placement_miss": worst_miss,
            "placement_tol": PLACEMENT_TOL,
            "worst_roof_gap": worst_roof,
            "roof_tol": ROOF_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 10. Newton solver consistency


def check_newton(seed):
    cusp = solve_targets({"a": ("angle", math.pi), "b": ("angle", math.pi)})
    cusp_err = max(abs(u - v) for u, v in zip(cusp.coords.astuple(), (2.0, 2.0, 2.0 + 2.0j)))
    rng = np.random.default_rng(seed)
    worst_spread = 0.0
    worst_gap = 0.0
    worst_miss = max(abs(theta - math.pi) for theta in cusp.thetas)
    failures = 0

    def spread(target):
        nonlocal failures, worst_gap, worst_miss
        sols = []
        for s in NEWTON_SEEDS:
            try:
                sols.append(solve_targets(target, seed=s))
            except PleatlabError:
                failures += 1
                return 0.0
        exact = explicit_lengths(target)
        worst_gap = max(
            worst_gap, *(abs(v - e) / e for r in sols for v, e in zip(r.lengths, exact))
        )
        angles = [(i, value) for i, (kind, value) in enumerate(target.values()) if kind == "angle"]
        worst_miss = max([worst_miss, *(abs(r.thetas[i] - v) for r in sols for i, v in angles)])
        ref = sols[0].coords.astuple()
        return max(abs(u - v) for r in sols[1:] for u, v in zip(r.coords.astuple(), ref))

    for _ in range(NEWTON_TARGETS):
        la, lb = map(float, rng.uniform(*NEWTON_LENGTHS, size=2))
        worst_spread = max(worst_spread, spread({"a": ("length", la), "b": ("length", lb)}))
    for _ in range(NEWTON_TARGETS):
        la = float(rng.uniform(*NEWTON_MIXED_LENGTHS))
        th = float(rng.uniform(*NEWTON_MIXED_ANGLES))
        worst_spread = max(worst_spread, spread({"a": ("length", la), "b": ("angle", th)}))
    return {
        "passed": (
            cusp_err < NEWTON_AGREEMENT_TOL
            and worst_spread < NEWTON_AGREEMENT_TOL
            and worst_gap < NEWTON_CLOSED_FORM_TOL
            and worst_miss < ROOF_TOL
            and failures == 0
        ),
        "details": {
            "cusp_error": cusp_err,
            "worst_seed_spread": worst_spread,
            "worst_closed_form_gap": worst_gap,
            "worst_angle_miss": worst_miss,
            "roof_tol": ROOF_TOL,
            "targets": 2 * NEWTON_TARGETS,
            "seeds_per_target": len(NEWTON_SEEDS),
            "failures": failures,
            "tol": NEWTON_AGREEMENT_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 11. cusp-opening derivative against the commuting model


def check_cuspmodel():
    model = commuting_canonical_pair(*CUSPMODEL_PAIR)
    rep = cusp_derivative_check()
    ratio = rep["ratio"]
    hsq = rep["hsq_estimate"]
    sign_ok = (ratio.real > 0) == (hsq.real > 0) and ratio.real != 0
    return {
        "passed": (
            model["relation_residual"] < CUSPMODEL_RELATION_TOL
            and model["commutation_residual"] < CUSPMODEL_RELATION_TOL
            and abs(ratio) > CUSPMODEL_RATIO_FLOOR
            and sign_ok
            and rep["cusp_preserving_cross"] < CUSPMODEL_CROSS_TOL
        ),
        "details": {
            "model_relation_residual": model["relation_residual"],
            "model_commutation": model["commutation_residual"],
            "model_trace": model["v"].real,
            "fd_ratio": ratio.real,
            "hsq_estimate": hsq.real,
            "sign_consistent": sign_ok,
            "cusp_preserving_cross": rep["cusp_preserving_cross"],
            "relation_tol": CUSPMODEL_RELATION_TOL,
            "ratio_floor": CUSPMODEL_RATIO_FLOOR,
            "cross_tol": CUSPMODEL_CROSS_TOL,
        },
    }


# ---------------------------------------------------------------------------
# 12. cocycle convergence order


def check_cocycle():
    rep = cocycle_check()
    return {
        "passed": rep["exponent"] >= COCYCLE_MIN_EXPONENT and rep["constant_residual"] == 0.0,
        "details": {
            "exponent": rep["exponent"],
            "residual_h": rep["residual_h"],
            "residual_h2": rep["residual_h2"],
            "conjugation_residual": rep["conjugation_residual"],
            "constant_residual": rep["constant_residual"],
            "min_exponent": COCYCLE_MIN_EXPONENT,
        },
    }


# ---------------------------------------------------------------------------
# registry

CRITERIA = (
    ("lift", "complex length reproduces the lifted trace", check_lift),
    ("grid", "coordinate grid certifies convex with interior angles", check_grid),
    ("quakebend", "bending from flat seeds certifies and hits the bend angle", check_quakebend),
    ("relations", "doubled holonomy satisfies the amalgam relations", check_relations),
    ("cone", "meridian cone angles match the bending data", check_cone),
    ("mirror", "doubled traces are symmetric under the mirror swap", check_mirror),
    ("jacobian", "length Jacobian is bounded on the grid and degenerates at the corner", check_jacobian),
    ("posdef", "angle derivative of the lengths is symmetric positive definite and the map is monotone", check_posdef),
    ("volume", "volume matches its angle-space potential and the Schlafli form, is concave, and increases toward the cusp", check_volume),
    ("newton", "Newton solves are seed independent and reach the cusp target", check_newton),
    ("cuspmodel", "cusp-opening derivative matches the commuting model", check_cuspmodel),
    ("cocycle", "difference-quotient deformations satisfy the cocycle law to second order", check_cocycle),
)


def run_suite(names=None, seed_offset=0):
    """Run the acceptance criteria, optionally filtered by name.

    ``seed_offset`` shifts the sampling seed of every randomized
    criterion: each is called with ``SEEDS[name] + seed_offset``, and the
    others with no argument.  A negative offset raises
    :class:`PleatlabError` before any criterion runs, since numpy seeds
    only non-negative integers.  Returns a list of records with index,
    name, description, passed, and details.
    """
    if seed_offset < 0:
        raise PleatlabError(f"the seed offset must be at least 0, got {seed_offset}")
    wanted = None if names is None else set(names)
    if wanted is not None:
        known = {name for name, _, _ in CRITERIA}
        unknown = wanted - known
        if unknown:
            raise KeyError(f"unknown criteria: {sorted(unknown)}")
    records = []
    for index, (name, description, fn) in enumerate(CRITERIA, start=1):
        if wanted is not None and name not in wanted:
            continue
        result = fn(SEEDS[name] + seed_offset) if name in SEEDS else fn()
        records.append(
            {
                "index": index,
                "name": name,
                "description": description,
                "passed": bool(result["passed"]),
                "details": result["details"],
            }
        )
    return records


def report_lines(records):
    lines = []
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        lines.append(f"[{status}] {rec['index']:2d} {rec['name']}: {rec['description']}")
    return lines
