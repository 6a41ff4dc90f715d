from fractions import Fraction as F

import numpy as np
import pytest

from symcurv import symfun
from symcurv.errors import DegenerateInputError, DomainError

from oracles import elem_sym_enumerate, polarized_enumerate, fd_second_directional


def test_elem_sym_trivial_values():
    assert symfun.elem_sym((2, 3, 4), 1) == 9
    assert symfun.elem_sym((1, 1, 1), 2) == 3
    assert symfun.elem_sym((2, 3, 4), 2) == elem_sym_enumerate((2, 3, 4), 2) == 26
    assert symfun.elem_sym((2, 3, 4), 0) == 1


def test_elem_sym_range_errors():
    with pytest.raises(DomainError):
        symfun.elem_sym((1, 2), 3)
    with pytest.raises(DomainError):
        symfun.elem_sym((1, 2), -1)
    with pytest.raises(DomainError):
        symfun.elem_sym((), 0)


def test_elem_sym_matches_enumeration_exact_and_float():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        lam_exact = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n))
        for m in range(n + 1):
            assert symfun.elem_sym(lam_exact, m) == elem_sym_enumerate(lam_exact, m)
        lam = tuple(rng.uniform(-3, 3, n))
        for m in range(n + 1):
            want = elem_sym_enumerate(lam, m)
            assert symfun.elem_sym(lam, m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_elem_sym_deleted():
    assert symfun.elem_sym_deleted((1, 2, 3), 1, [1]) == 4
    assert symfun.elem_sym_deleted((1, 2, 3), 2, [0]) == 6
    assert symfun.elem_sym_deleted((1, 2, 3), 0, [0, 2]) == 1
    with pytest.raises(DomainError):
        symfun.elem_sym_deleted((1, 2, 3), 1, [3])
    with pytest.raises(DomainError):
        symfun.elem_sym_deleted((1, 2, 3), 1, [0, 0])


def test_sigma_grad_values():
    assert symfun.sigma_grad((1, 2, 3), 2) == [5, 4, 3]
    assert symfun.sigma_grad((1, 1, 1), 2) == [2, 2, 2]
    assert symfun.sigma_grad((4, -1, 7), 1) == [1, 1, 1]


def test_sigma_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = rng.uniform(0.5, 2.5, n)
        h = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (symfun.elem_sym(lam + e, k) - symfun.elem_sym(lam - e, k)) / (2 * h)
            assert symfun.sigma_grad(tuple(lam), k)[i] == pytest.approx(fd, rel=1e-6)


def test_sigma_hess_structure_and_values():
    h = symfun.sigma_hess((5.0, -2.0, 3.3), 2)
    assert all(h[i][i] == 0 for i in range(3))
    assert all(h[i][j] == 1 for i in range(3) for j in range(3) if i != j)
    assert symfun.sigma_hess((1, 2, 3), 3)[0][1] == 3
    assert symfun.sigma_hess((9, 9, 9), 1) == [[0] * 3 for _ in range(3)]


def test_sigma_hess_matches_finite_differences_of_grad():
    rng = np.random.default_rng(2)
    lam = rng.uniform(0.5, 2.0, 5)
    k = 3
    h = 1e-6
    hess = symfun.sigma_hess(tuple(lam), k)
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (np.array(symfun.sigma_grad(lam + e, k))
              - np.array(symfun.sigma_grad(lam - e, k))) / (2 * h)
        for i in range(5):
            assert hess[i][j] == pytest.approx(fd[i], rel=1e-6, abs=1e-8)


def test_euler_and_deletion_identities():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        lam = tuple(rng.uniform(-2, 2, n))
        for k in range(1, n + 1):
            grad = symfun.sigma_grad(lam, k)
            euler = sum(x * g for x, g in zip(lam, grad))
            assert euler == pytest.approx(k * symfun.elem_sym(lam, k), rel=1e-10, abs=1e-10)
        for i in range(n):
            for k in range(1, n):
                lhs = symfun.elem_sym(lam, k)
                rhs = symfun.elem_sym_deleted(lam, k, [i]) + lam[i] * symfun.elem_sym_deleted(
                    lam, k - 1, [i]
                )
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_polarized_sigma_examples():
    assert symfun.polarized_sigma((1, 1, 1), (1, 1, 1), 1, 2) == 6
    lam = (F(1), F(2), F(-1), F(3))
    for k in range(5):
        for l in range(k + 1):
            from math import comb

            assert symfun.polarized_sigma(lam, lam, l, k) == comb(k, l) * symfun.elem_sym(lam, k)


def test_polarized_sigma_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        lam = tuple(rng.uniform(-2, 2, n))
        mu = tuple(rng.uniform(-2, 2, n))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, k + 1))
        want = polarized_enumerate(lam, mu, l, k)
        assert symfun.polarized_sigma(lam, mu, l, k) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_polarized_sigma_exact_on_rationals():
    # exact values, and a Fraction wherever a Fraction enters: int rows give
    # ints, sigma_{k,0}(lam, mu) = sigma_k(lam) stays an int for int lam
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        lam = tuple(int(v) for v in rng.integers(-4, 5, n))
        mu = tuple(F(int(v), int(d)) for v, d in zip(rng.integers(-9, 10, n), rng.integers(1, 5, n)))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, k + 1))
        got = symfun.polarized_sigma(lam, mu, l, k)
        assert got == polarized_enumerate(lam, mu, l, k)
        assert type(got) is (int if l == k else F)
        assert type(symfun.polarized_sigma(lam, lam, l, k)) is int


def test_profile_table_batches_rows():
    # a float batch equals the exact table row by row, to rounding
    rng = np.random.default_rng(8)
    p, d = rng.uniform(-2, 2, (5, 4)), rng.uniform(-2, 2, (5, 4))
    table = symfun.profile_table(p, d, 3)
    assert table.shape == (4, 4, 5)
    for r in range(5):
        for k in range(4):
            for l in range(k + 1):
                want = polarized_enumerate(d[r], p[r], l, k)
                assert table[k, l, r] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_polarization_blend_expansion():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = tuple(rng.uniform(-2, 2, n))
        mu = tuple(rng.uniform(-2, 2, n))
        t = float(rng.uniform())
        blend = tuple(t * a + (1 - t) * b for a, b in zip(lam, mu))
        lhs = symfun.elem_sym(blend, k)
        rhs = sum(
            t**l * (1 - t) ** (k - l) * symfun.polarized_sigma(lam, mu, l, k)
            for l in range(k + 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_polarized_dimension_mismatch():
    with pytest.raises(DomainError):
        symfun.polarized_sigma((1, 2), (1, 2, 3), 1, 2)


def test_newton_maclaurin_gap():
    assert symfun.newton_maclaurin_gap((1, 1, 1, 1), 2) == 0
    assert symfun.newton_maclaurin_gap((1, 2, 3), 2) == F(1, 3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, n + 1))
        lam = tuple(rng.uniform(-4, 4, n))
        gap = symfun.newton_maclaurin_gap(lam, k)
        # brute-force re-evaluation via enumeration
        from math import comb

        p = [elem_sym_enumerate(lam, m) / comb(n, m) for m in range(k + 1)]
        assert gap == pytest.approx(p[k - 1] ** 2 - p[k] * p[k - 2], rel=1e-9, abs=1e-10)
        assert gap >= -1e-12 * max(1.0, abs(gap))


def test_matrix_second_derivative_examples():
    # trace is linear: any direction differentiates to zero
    assert symfun.matrix_symfun_second_derivative(1, (1.0, 2.0, 4.0), np.eye(3)) == 0
    # det(diag(1,2) + s*offdiag) = 2 - s^2
    assert symfun.matrix_symfun_second_derivative(2, (1, 2), [[0, 1], [1, 0]]) == -2
    assert symfun.matrix_symfun_second_derivative(2, (1, 2), [[1, 0], [0, 1]]) == 2


def test_matrix_second_derivative_degenerate_rejected():
    with pytest.raises(DegenerateInputError):
        symfun.matrix_symfun_second_derivative(2, (1.0, 1.0 + 1e-12), np.eye(2))


def test_matrix_second_derivative_vs_eigenvalue_composition():
    # formula against central differences of s -> sigma_k(eig(A + sB)),
    # 100 instances with eigengap >= 0.1
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        diag = np.sort(rng.uniform(-2, 2, n))
        if np.min(np.diff(diag)) < 0.1:
            continue
        k = int(rng.integers(1, n + 1))
        b = rng.uniform(-1, 1, (n, n))
        b = 0.5 * (b + b.T)
        a = np.diag(diag)

        def value(s):
            return symfun.elem_sym(np.linalg.eigvalsh(a + s * b), k)

        want = fd_second_directional(value, h=1e-4)
        got = symfun.matrix_symfun_second_derivative(k, tuple(diag), b)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5)
        checked += 1


def test_sigma_all_batch_matches_scalar():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2, 2, (50, 4))
    batch = symfun.sigma_all_batch(pts, 4)
    for row, p in zip(batch, pts):
        for m in range(5):
            assert row[m] == pytest.approx(symfun.elem_sym(tuple(p), m), rel=1e-12, abs=1e-12)
