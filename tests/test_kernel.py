"""The 2x2 complex matrix kernel against numpy references."""

import numpy as np

from pleatlab import kernel


def random_matrices(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        e = rng.normal(size=8)
        yield (
            complex(e[0], e[1]),
            complex(e[2], e[3]),
            complex(e[4], e[5]),
            complex(e[6], e[7]),
        )


def test_mat_mul_matches_numpy():
    for m in random_matrices(20, seed=1):
        for n in random_matrices(1, seed=hash(m) % 2**31):
            got = kernel.mat_mul(m, n)
            want = (
                np.array(m).reshape(2, 2) @ np.array(n).reshape(2, 2)
            ).reshape(4)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_inverse_and_det():
    for m in random_matrices(20, seed=2):
        det = kernel.mat_det(m)
        if abs(det) < 1e-6:
            continue
        inv = kernel.mat_inv(m)
        prod = kernel.mat_mul(m, inv)
        # adjugate inverse: m @ adj(m) == det * Id
        assert abs(prod[0] - det) < 1e-10 * max(1.0, abs(det))
        assert abs(prod[1]) < 1e-10 * max(1.0, abs(det))
        assert abs(prod[3] - det) < 1e-10 * max(1.0, abs(det))


def test_normalize_unimodular():
    for m in random_matrices(20, seed=3):
        if abs(kernel.mat_det(m)) < 1e-6:
            continue
        norm, det = kernel.normalize_unimodular(m)
        assert abs(kernel.mat_det(norm) - 1.0) < 1e-10


def test_apply_mobius_infinity():
    m = (0.0j, 1.0 + 0j, 1.0 + 0j, 0.0j)  # z -> 1/z
    assert kernel.apply_mobius(m, None) == 0.0
    assert kernel.apply_mobius(m, 0.0) is None
    assert abs(kernel.apply_mobius(m, 2.0) - 0.5) < 1e-15


def test_implementations_agree_on_words():
    """``eval_word`` equals the numpy product of the same factors, with
    negative codes selecting the inverse of a unimodular generator."""
    gens = []
    for m in random_matrices(2, seed=4):
        m, _ = kernel.normalize_unimodular(m)
        gens.append(m)
    arrays = [np.array(m).reshape(2, 2) for m in gens]
    for codes in ([1, 2, -1, 2, 2, -2, 1], [-2, -1, 1, -2], [2], [-1], []):
        want = np.eye(2, dtype=complex)
        for code in codes:
            factor = arrays[abs(code) - 1]
            want = want @ (factor if code > 0 else np.linalg.inv(factor))
        got = kernel.eval_word(codes, gens)
        assert max(abs(g - w) for g, w in zip(got, want.reshape(4))) < 1e-12


def test_kernel_functions_belong_to_the_module():
    """One implementation, and each of its functions reports
    ``pleatlab.kernel`` as its module, which is how a tracer that wraps
    a layer's own functions finds the kernel's."""
    assert kernel.IMPLEMENTATION == "python"
    functions = {name: obj for name, obj in vars(kernel).items()
                 if callable(obj) and not name.startswith("_")}
    assert {"mat_mul", "mat_inv", "mat_conj", "mat_det", "normalize_unimodular",
            "apply_mobius", "eval_word"} <= set(functions)
    for obj in functions.values():
        assert obj.__module__ == "pleatlab.kernel"
