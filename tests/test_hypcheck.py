from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import full_chain_real_rooted, rooted_product
from symcurv import hypcheck
from symcurv.combop import OperatorSpec
from symcurv.errors import DomainError


def test_alpha_prime_examples():
    # pure sigma_k
    op = OperatorSpec(5, 3, (0, 0, 0, 1))
    assert hypcheck.alpha_prime(op) == (F(1), F(0), F(0), F(0))
    # sum type: second coefficient alpha/(n-k+1)
    op = OperatorSpec.sum_type(5, 3, F(2))
    assert hypcheck.alpha_prime(op) == (F(1), F(2, 3), F(0), F(0))
    # sigma_2 + sigma_0 at n=3: (1, 0, 1/6)
    op = OperatorSpec(3, 2, (1, 0, 1))
    assert hypcheck.alpha_prime(op) == (F(1), F(0), F(1, 6))


def test_real_rooted_examples():
    r = hypcheck.real_rooted([1, 1])
    assert r.all_real and r.roots == (-1.0,)
    r = hypcheck.real_rooted([1, 2, 1])
    assert r.all_real and r.roots == pytest.approx([-1.0, -1.0])
    r = hypcheck.real_rooted([1, 0, F(1, 6)])
    assert not r.all_real
    assert abs(r.witness[0].imag) == pytest.approx(np.sqrt(6))
    assert hypcheck.real_rooted([7]).all_real  # degree 0, vacuous
    with pytest.raises(DomainError):
        hypcheck.real_rooted([0, 0, 0])


def test_real_rooted_triple_root_exact():
    r = hypcheck.real_rooted([1, 3, 3, 1])
    assert r.all_real
    assert r.roots == pytest.approx([-1.0, -1.0, -1.0], abs=1e-9)


def test_numeric_mode_is_blind_to_repeated_roots():
    # 2 + 6t + 6t^2 + 2t^3 = 2(1 + t)^3: the companion matrix splits the
    # triple root into a cluster of width ~eps^(1/3), above the snap tolerance
    p = [2, 6, 6, 2]
    assert hypcheck.real_rooted(p, mode="exact").all_real
    assert not hypcheck.real_rooted(p, mode="numeric").all_real


def test_widely_scaled_coefficients_neither_overflow_nor_underflow():
    # roots -1e-200 and -5e-201: the monic constant 5e-401 is below float range
    r = hypcheck.real_rooted([1, 3 * 10**200, 2 * 10**400])
    assert r.all_real and len(r.roots) == 2
    for got, want in zip(r.roots, (-1e-200, -5e-201)):
        assert abs(got - want) <= 1e-12 * abs(want)
    # roots +-1e200 i: the coefficient 10**400 is above float range
    r = hypcheck.real_rooted([10**400, 0, 1])
    assert not r.all_real
    assert sorted(w.imag for w in r.witness) == pytest.approx([-1e200, 1e200], rel=1e-12)
    assert all(abs(w.real) <= 1e-12 * 1e200 for w in r.witness)
    # numeric mode converts to float, so it rejects such coefficients
    for p in ([10**400, 0, 1], [1, 0, F(10**400, 3)]):
        with pytest.raises(DomainError, match="beyond float range"):
            hypcheck.real_rooted(p, mode="numeric")


# products of (a t + b)^m with distinct roots -b/a, optionally times t^2 + c
_linear_st = st.lists(
    st.tuples(st.integers(-9, 9).filter(bool), st.integers(-9, 9), st.integers(1, 3)),
    min_size=1, max_size=4, unique_by=lambda f: F(-f[1], f[0]),
)
_quadratic_st = st.none() | st.builds(F, st.integers(1, 20), st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(linear=_linear_st, c=_quadratic_st)
def test_exact_decision_on_constructed_products(linear, c):
    coeffs, roots = rooted_product(linear, c)
    r = hypcheck.real_rooted(coeffs, mode="exact")
    assert r.all_real == (c is None)
    if r.all_real:
        assert len(r.roots) == len(roots)
        for got, want in zip(r.roots, roots):
            assert abs(got - want) <= 1e-9 * abs(want)
    else:
        assert r.witness[0] == r.witness[1].conjugate() and r.witness[0].imag != 0


@settings(max_examples=100, deadline=None)
@given(linear=_linear_st, c=_quadratic_st,
       scale=st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 50)))
def test_exact_decision_invariant_under_scaling_and_floats(linear, c, scale):
    coeffs, _ = rooted_product(linear, c)
    want = hypcheck.real_rooted(coeffs, mode="exact")
    scaled = hypcheck.real_rooted([scale * x for x in coeffs], mode="exact")
    # integer multiples are exact as floats below 2**53
    den = np.lcm.reduce([F(x).denominator for x in coeffs])
    ints = [int(x * den) for x in coeffs]
    assume(all(abs(x) < 2**53 for x in ints))
    floats = hypcheck.real_rooted([float(x) for x in ints], mode="exact")
    for r in (scaled, floats):
        assert r.all_real == want.all_real
        if want.all_real:
            assert r.roots == pytest.approx(want.roots, rel=1e-12, abs=0)


def test_coefficient_span_beyond_float_range_raises():
    # scaled by 2^-4000 so the largest coefficient fits, 1 + 2^5000 t + t^2
    # keeps a leading 1 that underflows to 0.0; the roots are -2^-5000 and
    # about -2^5000.  Without the check the companion matrix lost a degree
    # and real_rooted reported the one root 0.0.
    with pytest.raises(DomainError, match="beyond float range"):
        hypcheck.real_rooted([1, 2**5000, 1])
    # (t^2 + 1)(t + 2^5000): the witness path underflows the same way
    with pytest.raises(DomainError, match="beyond float range"):
        hypcheck.real_rooted([2**5000, 1, 2**5000, 1])


# up to degree 12: products of linear factors (repeated ones included),
# the same times a complex quadratic, and free integer polynomials
_products_st = st.tuples(_linear_st, _quadratic_st).filter(
    lambda lc: sum(m for _, _, m in lc[0]) + 2 * (lc[1] is not None) <= 12
).map(lambda lc: rooted_product(*lc)[0])
_free_st = st.lists(st.integers(-9, 9) | st.integers(-10**12, 10**12), min_size=2, max_size=13)
_poly_st = (_products_st | _free_st).filter(any)


@settings(max_examples=300, deadline=None)
@given(coeffs=_poly_st)
@example(coeffs=[2, 0, -1])   # Yun's factor is -f; f's companion rounds 1.414... differently
@example(coeffs=[1, 0, 1])    # e = 0: the 2^e rebuild turns the real parts -0.0 into 0.0
def test_early_exit_matches_full_chain(coeffs):
    # decision, roots and witness, bit for bit (repr tells -0.0 from 0.0)
    r = hypcheck.real_rooted(coeffs)
    assert repr(r) == repr(full_chain_real_rooted(coeffs))
    if r.all_real:   # one root per degree, multiplicities included
        assert len(r.roots) == max(i for i, c in enumerate(coeffs) if c)


def test_exact_and_numeric_modes_agree_smoke():
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(1, 9))
        coeffs = [int(c) for c in rng.integers(-9, 10, d + 1)]
        if all(c == 0 for c in coeffs):
            continue
        exact = hypcheck.real_rooted(coeffs, mode="exact")
        numeric = hypcheck.real_rooted(coeffs, mode="numeric")
        assert exact.all_real == numeric.all_real, coeffs


def test_witness_examples():
    # pure sigma_k: all zeros, length k
    assert hypcheck.witness_b((F(1), F(0), F(0)), 2) == (F(0), F(0))
    # sum type: single positive entry alpha/(n-k+1), exact
    b = hypcheck.witness_b((F(1), F(2, 3), F(0), F(0)), 3)
    assert b == (F(2, 3), F(0), F(0))
    # failing coefficients rejected
    with pytest.raises(DomainError):
        hypcheck.witness_b((F(2), F(1)), 1)   # alpha'_0 != 1
    with pytest.raises(DomainError):
        hypcheck.witness_b((F(1), F(-1)), 1)  # negative coefficient


def test_check_condition_c_sum_type_battery_small():
    for n in range(2, 6):
        for k in range(1, n):
            for alpha in (F(0), F(1, 3), F(7)):
                op = OperatorSpec.sum_type(n, k, alpha)
                rep = hypcheck.check_condition_c(op)
                assert rep.all_real
                want = tuple([alpha / (n - k + 1)] + [F(0)] * (rep.N - 1))
                assert rep.witness == want
                assert rep.N == max(k, 1)


def test_check_condition_c_failure():
    rep = hypcheck.check_condition_c(OperatorSpec(3, 2, (1, 0, 1)))
    assert not rep.all_real
    assert rep.failure_witness is not None
    assert "FAIL" in str(rep)


def test_witness_round_trip_exact():
    # rebuild alphas from sigma_m(b) through the inverse transform
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        b = tuple(F(int(rng.integers(0, 4)), int(rng.integers(1, 5))) for _ in range(k))
        from symcurv.symfun import sigma_all

        sig = sigma_all(b, k)
        alphas = tuple(
            F(sig[k - s]) * factorial(n - k + (k - s)) / factorial(n - k)
            for s in range(k + 1)
        )
        op = OperatorSpec(n, k, alphas)
        rep = hypcheck.check_condition_c(op)
        assert rep.all_real
        assert tuple(rep.alphas_prime) == tuple(F(x) for x in sig)
        # round trip: sigma_m(witness) reproduces alpha'_m hence alphas
        wit_sig = sigma_all(rep.witness, k)
        for m in range(k + 1):
            assert abs(float(wit_sig[m]) - float(sig[m])) <= 1e-9 * (1 + abs(float(sig[m])))


def test_binomial_family_witness():
    # alphas chosen so alpha'_m = C(3,m): witness is (1,1,1)
    n, k = 5, 3
    ap = [F(1), F(3), F(3), F(1)]
    alphas = tuple(ap[k - s] * factorial(n - s) / factorial(n - k) for s in range(k + 1))
    op = OperatorSpec(n, k, alphas)
    rep = hypcheck.check_condition_c(op)
    assert rep.all_real
    assert rep.witness == pytest.approx([1.0, 1.0, 1.0])


def test_derived_lower_coefficients_nonnegative():
    from symcurv.combop import lower_operator

    for (n, k, alpha) in [(4, 2, F(1)), (5, 3, F(2)), (6, 4, F(1, 2))]:
        op = OperatorSpec.sum_type(n, k, alpha)
        rep = hypcheck.check_condition_c(op)
        assert all(x >= 0 for x in rep.witness)
        for l in range(1, k):
            low = lower_operator(op, rep.witness, l, rep.N)
            assert all(c >= 0 for c in low.coeffs)
            assert low.coeffs[l] == 1


def test_check_condition_q_requires_condition_c():
    op = OperatorSpec(3, 2, (1, 0, 1))
    with pytest.raises(DomainError):
        hypcheck.check_condition_q(op, 10, seed=0)


def test_check_condition_q_small_scan():
    op = OperatorSpec.sum_type(4, 2, F(1))
    rep = hypcheck.check_condition_q(op, 300, seed=5)
    assert rep.passed
    opk = OperatorSpec(4, 3, (0, 0, 0, 1))
    repk = hypcheck.check_condition_q(opk, 300, seed=6)
    assert repk.passed
    op1 = OperatorSpec.sum_type(4, 1, F(2))
    assert hypcheck.check_condition_q(op1, 10, seed=7).passed  # k=1, vacuous
