from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import elem_sym_enumerate, sample_one

from symcurv import combop, hypcheck, symfun
from symcurv.combop import OperatorSpec, PolyCoeffs
from symcurv.cones import ConeSpec, trial_rng
from symcurv.errors import DomainError, SingularityError


def test_operator_spec_validation_and_normalization():
    op = OperatorSpec(3, 2, (F(1), F(2), F(2)))
    assert op.alphas == (F(1, 2), F(1), F(1))
    assert op.is_exact
    with pytest.raises(DomainError):
        OperatorSpec(3, 2, (1, 2))          # wrong length
    with pytest.raises(DomainError):
        OperatorSpec(3, 2, (1, -1, 1))      # negative coefficient
    with pytest.raises(DomainError):
        OperatorSpec(3, 2, (1, 1, 0))       # zero leading coefficient
    assert OperatorSpec.sum_type(4, 2, 3).sum_type_alpha == 3
    assert OperatorSpec(3, 2, (0, 0, 1)).sum_type_alpha == 0
    assert OperatorSpec(3, 2, (1, 0, 1)).sum_type_alpha is None


def test_q_eval_examples():
    op = OperatorSpec.sum_type(3, 2, 2)
    assert combop.q_eval(op, (1, 1, 1)) == 9
    assert combop.q_eval(OperatorSpec(3, 2, (0, 0, 1)), (1, 1, -1)) == -1
    op_const = OperatorSpec(3, 2, (1, 0, 1))
    assert combop.q_eval(op_const, (2, 3, 4)) == 1 + 26


def test_q_grad_hess_examples():
    op1 = OperatorSpec(4, 1, (0, 1))
    assert combop.q_grad(op1, (5, 6, 7, 8)) == [1, 1, 1, 1]
    assert combop.q_hess(op1, (5, 6, 7, 8)) == [[0] * 4 for _ in range(4)]
    op = OperatorSpec.sum_type(3, 2, 2)
    assert combop.q_grad(op, (1, 1, -1)) == [2, 2, 4]
    h = combop.q_hess(op, (1.5, -0.5, 2.0))
    assert all(h[i][i] == 0 for i in range(3))
    assert all(h[i][j] == h[j][i] for i in range(3) for j in range(3))


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_eval_grad_hess_equal_enumerated_sums(data):
    # Q, Q^{ii} and Q^{pp,qq} against subset enumeration of lam, lam|i, lam|pq
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, n))
    lam = data.draw(st.lists(_fractions, min_size=n, max_size=n))
    alphas = data.draw(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=5),
                                min_size=k, max_size=k)) + [F(1)]
    op = OperatorSpec(n, k, tuple(alphas))

    def brute(values, shift):
        return sum(a * elem_sym_enumerate(values, s - shift)
                   for s, a in enumerate(op.alphas) if s >= shift)

    assert combop.q_eval(op, lam) == brute(lam, 0)
    assert combop.q_grad(op, lam) == [brute(lam[:i] + lam[i + 1:], 1) for i in range(n)]
    hess = combop.q_hess(op, lam)
    for p in range(n):
        for q in range(n):
            rest = [x for i, x in enumerate(lam) if i not in (p, q)]
            assert hess[p][q] == (0 if p == q else brute(rest, 2))


def test_q_hess_zero_diagonal_has_the_coefficients_type():
    lam = (1, 2, 3)
    # the sum of alpha_s * 0 over the nonzero alpha_s, s >= 2
    assert type(combop.q_hess(OperatorSpec(3, 3, (0, 0, F(1, 2), 1)), lam)[0][0]) is F
    assert type(combop.q_hess(OperatorSpec(3, 2, (0, 0, 2)), lam)[0][0]) is F
    assert type(combop.q_hess(OperatorSpec(3, 3, (0, 0, 0.5, 1)), lam)[0][0]) is float
    assert type(combop.q_hess(OperatorSpec(3, 3, (0, 0.5, 0.0, 1)), lam)[0][0]) is int
    assert type(combop.q_hess(OperatorSpec(3, 1, (1, 1)), lam)[1][1]) is int


def test_q_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    op = OperatorSpec(5, 3, (0.5, 1.0, 2.0, 1.0))
    lam = rng.uniform(0.5, 2.0, 5)
    h = 1e-6
    grad = combop.q_grad(op, tuple(lam))
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd = (combop.q_eval(op, lam + e) - combop.q_eval(op, lam - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-7)


def test_quotient_q_examples():
    assert combop.quotient_q((1, 1, 1), 1, 0) == 1
    assert combop.quotient_q((1, 1, 1), 1, 1) == pytest.approx(1.5)
    with pytest.raises(SingularityError):
        combop.quotient_q((1.0, -1.0, 0.0), 1, 0.0)


def test_quotient_recursion_identity():
    # (k+1) q_k - alpha*sigma_k/Q_S^k == sum_i [lam_i - lam_i^2/(lam_i + q_{k-1}(lam|i))]
    rng_spec = ConeSpec("garding", 5, 3)
    for trial in range(50):
        lam = sample_one(rng_spec, trial_rng(11, trial))
        for alpha in (0.5, 2.0):
            k = 2
            e = symfun.sigma_all(lam, k + 1)
            lhs = (k + 1) * combop.quotient_q(lam, k, alpha) - alpha * e[k] / (
                e[k] + alpha * e[k - 1]
            )
            rhs = 0.0
            for i in range(len(lam)):
                rest = symfun.delete_entries(lam, [i])
                q_del = combop.quotient_q(rest, k - 1, alpha)
                rhs += lam[i] - lam[i] ** 2 / (lam[i] + q_del)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_poly_coeffs_strip_and_eval():
    p = PolyCoeffs((1, 2, 0, 0))
    assert p.degree == 1 and p.coeffs == (1, 2)
    assert p(3) == 7
    assert PolyCoeffs((0,)).degree == 0


def test_shifted_profile_examples():
    theta = (1, 1, 1)
    s2 = OperatorSpec(3, 2, (0, 0, 1))
    p = combop.shifted_profile(s2, theta, theta)
    assert p.coeffs == (3, 6, 3)  # 3(1+t)^2
    assert combop.profile_roots(p) == pytest.approx([-1, -1])
    p2 = combop.shifted_profile(s2, (1, 2, 3), theta)
    assert p2.coeffs == (11, 12, 3)
    s1 = OperatorSpec(3, 1, (0, 1))
    p3 = combop.shifted_profile(s1, (1, 2, 3), (2, 0, 1))
    assert p3.coeffs == (6, 3)  # sigma_1(x) + sigma_1(a) t


def test_shifted_profile_exactness_and_degree_drop():
    op = OperatorSpec(3, 2, (F(1), F(1), F(1)))
    p = combop.shifted_profile(op, (F(1), F(2), F(3)), (F(1), F(-1), F(0)))
    assert all(isinstance(c, (int, F)) for c in p.coeffs)
    # sigma_2(a) = -1 for a=(1,-1,0): full degree
    assert p.degree == 2
    a_drop = (F(1), F(-1), F(1))  # sigma_2 = 1 -1 -1 = -1 != 0; build a true drop
    a_drop = (F(1), F(1), F(-1, 2))  # sigma_2 = 1 - 1/2 - 1/2 = 0
    p_drop = combop.shifted_profile(op, (F(1), F(2), F(3)), a_drop)
    assert p_drop.degree < 2


def test_shifted_profile_keeps_a_small_leading_coefficient():
    # (1 + 1e-5 t)^3: every coefficient is exact up to rounding, the leading
    # one 1e-15 is no dust beside the constant 1 (a triple root at -1e5)
    p = combop.shifted_profile(OperatorSpec.sum_type(3, 3, 0), (1.0,) * 3, (1e-5,) * 3)
    assert p.degree == 3
    assert p.coeffs == pytest.approx((1.0, 3e-5, 3e-10, 1e-15), rel=1e-12)
    assert combop.profile_roots(p) == pytest.approx([-1e5] * 3, rel=1e-3)
    # dust is still dropped: sigma_1(a) cancels to 5.6e-17 for a = (0.1, 0.2, -0.3)
    dust = combop.shifted_profile(OperatorSpec(3, 1, (0, 1)), (1.0, 2.0, 3.0), (0.1, 0.2, -0.3))
    assert dust.degree == 0


def test_shifted_profile_matches_mixed_forms_exactly():
    # coefficient l is sum_m alpha_m sigma_{l,m-l}(a, x), summed in
    # increasing m over the nonzero alphas: values and types
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        x = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n))
        a = tuple(int(v) for v in rng.integers(-3, 4, n))
        alphas = tuple(F(int(v), 2) for v in rng.integers(0, 3, k)) + (1,)
        op = OperatorSpec(n, k, alphas)
        want = [sum((op.alphas[m] * symfun.polarized_sigma(a, x, l, m)
                     for m in range(l, k + 1) if op.alphas[m] != 0), 0) for l in range(k + 1)]
        while len(want) > 1 and want[-1] == 0:
            want.pop()
        got = combop.shifted_profile(op, x, a).coeffs
        assert got == tuple(want)
        assert [type(c) for c in got] == [type(c) for c in want]


def test_profile_roots_quadratic_and_complex():
    roots = combop.profile_roots(PolyCoeffs((11, 12, 3)))
    assert roots == pytest.approx([-2 - 1 / np.sqrt(3), -2 + 1 / np.sqrt(3)])
    roots = combop.profile_roots(PolyCoeffs((1, 0, F(1, 6))))
    assert all(isinstance(r, complex) for r in roots)
    assert sorted(r.imag for r in roots) == pytest.approx([-np.sqrt(6), np.sqrt(6)])
    with pytest.raises(DomainError):
        combop.profile_roots(PolyCoeffs((0,)))
    with pytest.raises(DomainError):
        combop.profile_roots(PolyCoeffs((5,)))
    for p in ([10**400, 0, 1], PolyCoeffs((1, 0, F(10**400, 3)))):
        with pytest.raises(DomainError, match="beyond float range"):
            combop.profile_roots(p)


_coeff_st = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False).filter(lambda c: c == 0 or abs(c) > 1e-6),
             min_size=1, max_size=9),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9))


@given(desc=_coeff_st, lead=st.floats(1e-3, 1e3) | st.integers(1, 99),
       zeros=st.integers(0, 3))
def test_companion_roots_equal_np_roots_bit_for_bit(desc, lead, zeros):
    # the leading coefficient nonzero, zero constant terms appended
    desc = [lead] + desc + [0] * zeros
    want = np.roots(desc)
    got = combop._companion_roots(desc)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_profile_derivative_matches_gradient_sum():
    # d/dt Q(t*theta + x) at 0 equals sum_i Q^{ii}(x)
    rng = np.random.default_rng(1)
    op = OperatorSpec(4, 3, (0.25, 1.0, 0.5, 1.0))
    for _ in range(20):
        x = tuple(rng.uniform(-1, 2, 4))
        p = combop.shifted_profile(op, x, (1, 1, 1, 1))
        assert p.coeffs[1] == pytest.approx(sum(combop.q_grad(op, x)), rel=1e-10)


def test_profile_homogeneity_scaling():
    # roots of Q(a . + x) profile scale: roots at (a*t + x) = t * roots of the
    # operator with alpha_s / t^(k-s) at (a + x/t)
    rng = np.random.default_rng(2)
    n, k = 4, 3
    op = OperatorSpec(n, k, (0.3, 0.7, 1.2, 1.0))
    for _ in range(20):
        x = tuple(rng.uniform(-1, 2, n))
        a = tuple(rng.uniform(-1, 2, n))
        t = float(rng.uniform(0.3, 2.5))
        shifted = tuple(ai * t + xi for ai, xi in zip(a, x))
        r_left = combop.profile_roots(combop.shifted_profile(op, shifted, (1,) * n))
        scaled = OperatorSpec(n, k, tuple(al / t ** (k - s) for s, al in enumerate(op.alphas)))
        moved = tuple(ai + xi / t for ai, xi in zip(a, x))
        r_right = combop.profile_roots(combop.shifted_profile(scaled, moved, (1,) * n))
        lhs = sorted(z.real if isinstance(z, complex) else z for z in r_left)
        rhs = sorted(t * (z.real if isinstance(z, complex) else z) for z in r_right)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


def _real_roots(op, x, a):
    p = combop.shifted_profile(op, x, a)
    return combop.profile_roots(p)


def test_real_rootedness_on_gamma_k_segments():
    # for operators passing the exact hyperbolicity check, the profile
    # Q(a t + x) is real-rooted for every x in Gamma_k and every direction
    # with sigma_k(a) != 0; the second operator is built backward from the
    # witness b = (1, 1/2): Q = sigma_3 + 3 sigma_2 + 3 sigma_1 at n = 4
    cases = [
        (4, 3, OperatorSpec(4, 3, (F(0), F(3), F(3), F(1)))),
        (5, 2, OperatorSpec.sum_type(5, 2, F(3, 2))),
    ]
    for n, k, op in cases:
        assert hypcheck.check_condition_c(op).all_real
        spec = ConeSpec("garding", n, k)
        count = 0
        trial = 0
        while count < 1000:
            rng = trial_rng(21, trial)
            trial += 1
            x = sample_one(spec, rng)
            a = tuple(rng.normal(size=n))
            if abs(symfun.elem_sym(a, k)) < 1e-3:
                continue
            for r in _real_roots(op, x, a):
                assert not isinstance(r, complex), (x, a, r)
            count += 1


def test_root_sign_pattern_on_segments():
    # mu_m * (t + lam_m(x, a)) > 0 for t in [0, 1], with mu the eigenvalues
    # of a (negated roots of the sigma_k profile along the all-ones
    # direction based at a), matched to the lam values by sign
    n, k = 4, 2
    op = OperatorSpec(n, k, (0, 2.0, 1.0))
    sk = OperatorSpec(n, k, (0, 0, 1))
    spec = ConeSpec("garding", n, k)
    theta = (1.0,) * n
    done = 0
    for trial in range(300):
        rng = trial_rng(31, trial)
        x = sample_one(spec, rng)
        y = sample_one(spec, rng)
        a = tuple(yi - xi for yi, xi in zip(y, x))
        if abs(symfun.elem_sym(a, k)) < 1e-6:
            continue
        mu = [-r for r in combop.profile_roots(combop.shifted_profile(sk, a, theta))]
        lam = [-r for r in combop.profile_roots(combop.shifted_profile(op, x, a))]
        if any(isinstance(z, complex) for z in mu + lam):
            continue
        neg_mu = sorted(m for m in mu if m < 0)
        pos_mu = sorted(m for m in mu if m > 0)
        neg_lam = sorted(v for v in lam if v < 0)
        pos_lam = sorted(v for v in lam if v > 0)
        assert len(neg_mu) == len(neg_lam) and len(pos_mu) == len(pos_lam)
        for t in (0.0, 0.5, 1.0):
            for m, v in zip(neg_mu, neg_lam):
                assert m * (t + v) > 0
            for m, v in zip(pos_mu, pos_lam):
                assert m * (t + v) > 0
        done += 1
    assert done > 100


def test_lower_operator_examples():
    n, k = 5, 3
    alpha = F(1, 2)
    op = OperatorSpec.sum_type(n, k, alpha)
    rep = hypcheck.check_condition_c(op)
    low = combop.lower_operator(op, rep.witness, k - 1, 1)
    # sigma_{k-1} + alpha (n-k+2)/(n-k+1) sigma_{k-2}
    assert low.coeffs == (0, alpha * F(n - k + 2, n - k + 1), F(1))
    # pure sigma_k: identity operator on sigma_{k-1}
    opk = OperatorSpec(n, k, (0, 0, 0, 1))
    repk = hypcheck.check_condition_c(opk)
    lowk = combop.lower_operator(opk, repk.witness, k - 1, 0)
    assert lowk.coeffs == (0, 0, F(1))
    lowk_full = combop.lower_operator(opk, repk.witness, k - 1, repk.N)
    assert lowk_full.coeffs == (0, 0, F(1))
    # dropping the last first-order factor only removes its contribution
    low_n = combop.lower_operator(op, rep.witness, k - 1, rep.N)
    low_n1 = combop.lower_operator(op, rep.witness, k - 1, rep.N - 1)
    assert low_n.coeffs[-1] == low_n1.coeffs[-1] == F(1)


def test_witness_check_exact_and_within_tolerance():
    ap = (F(1), F(3, 2), F(1, 2))  # sigma_m of b = (1, 1/2)
    combop._check_witness((F(1), F(1, 2)), ap, 2)
    combop._check_witness((1.0, 0.5 + 1e-12), ap, 2)
    with pytest.raises(DomainError):
        combop._check_witness((F(1), F(1, 2) + F(1, 10**12)), ap, 2)  # exact: no tolerance
    with pytest.raises(DomainError):
        combop._check_witness((1.0, 0.5 + 1e-6), ap, 2)
    # entries past the end of alpha' count as zero
    combop._check_witness((F(1), F(0)), (F(1), F(1)), 2)
    with pytest.raises(DomainError):
        combop._check_witness((F(1), F(1)), (F(1), F(2)), 2)


def test_lower_operator_witness_validation():
    op = OperatorSpec.sum_type(4, 2, F(1))
    with pytest.raises(DomainError):
        combop.lower_operator(op, (F(5), F(0)), 1, 1)  # wrong witness
    with pytest.raises(DomainError):
        combop.lower_operator(op, (F(-1),), 1, 1)      # negative entries
    rep = hypcheck.check_condition_c(op)
    with pytest.raises(DomainError):
        combop.lower_operator(op, rep.witness, 2, 1)   # l must be < k
