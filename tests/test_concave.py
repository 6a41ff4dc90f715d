import math
from fractions import Fraction as F
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from symcurv import combop, concave, cones, symfun, hypcheck
from symcurv.combop import OperatorSpec, lower_operator
from symcurv.symfun import Jet
from symcurv.cones import ConeSpec, trial_rng, _sample_one
from symcurv.errors import DomainError, DomainExitError, SingularityError

from oracles import elem_sym_enumerate


def test_fd_hessian_hooks():
    f = concave.ScalarField("x1x2", 2, lambda x: x[0] * x[1])
    assert np.allclose(concave.fd_hessian(f, (0.3, -0.7), 1e-4), [[0, 1], [1, 0]], atol=1e-6)
    g = concave.ScalarField("-|x|^2", 3, lambda x: -sum(v * v for v in x))
    assert np.allclose(concave.fd_hessian(g, (1.0, 2.0, 3.0), 1e-4), -2 * np.eye(3), atol=1e-5)


def test_fd_hessian_matches_sigma_hess():
    op = OperatorSpec(4, 2, (0, 0, 1))
    from symcurv.combop import q_eval

    fld = concave.ScalarField("sigma2", 4, lambda x: float(q_eval(op, x)))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = tuple(rng.uniform(0.5, 2.0, 4))
        got = concave.fd_hessian(fld, x, 1e-4 * (1.0 + max(x)))
        want = np.array(symfun.sigma_hess(x, 2), dtype=float)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_fd_hessian_domain_exit():
    fld = concave.ScalarField(
        "q", 2, lambda x: x[0] * x[1], domain=ConeSpec("garding", 2, 2)
    )
    with pytest.raises(DomainExitError) as err:
        concave.fd_hessian(fld, (1e-9, 1e-9), 0.1)
    assert err.value.point is not None


def test_q1_closed_form_examples():
    lhs, rhs = concave.q1_closed_form_check((1, 1), (1, -1), 1)
    assert lhs == pytest.approx(2 / 3)
    assert rhs == pytest.approx(2 / 3)
    lhs, rhs = concave.q1_closed_form_check((1.0, 2.0), (0.0, 0.0), 0.5)
    assert lhs == 0 and rhs == 0
    with pytest.raises(SingularityError):
        concave.q1_closed_form_check((1.0, -3.0), (0.1, 0.2), 2.0)


def test_q1_closed_form_randomized():
    spec = ConeSpec("garding", 4, 1)
    worst = 0.0
    for i in range(500):
        rng = trial_rng(17, i)
        lam = _sample_one(spec, rng)
        alpha = float(rng.uniform(0, 3))
        scale = 0.3 * (alpha + sum(lam))
        xi = tuple(rng.normal(size=4) * scale / 4)
        if sum(lam) + sum(xi) + alpha <= 0 or sum(lam) - sum(xi) + alpha <= 0:
            continue
        lhs, rhs = concave.q1_closed_form_check(lam, xi, alpha)
        gap = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, gap)
    assert worst <= 1e-10


def test_concavity_scan_linear_field():
    fld = concave.ScalarField(
        "sigma1", 3, lambda x: sum(x), domain=ConeSpec("garding", 3, 1)
    )
    rep = concave.concavity_scan(fld, 200, seed=3)
    assert rep.passed
    assert abs(rep.worst_value) <= 1e-12


def test_concavity_scan_negative_control():
    fld = concave.ScalarField(
        "sigma2", 2, lambda x: x[0] * x[1], domain=ConeSpec("garding", 2, 2)
    )
    rep = concave.concavity_scan(fld, 300, seed=4)
    assert not rep.passed
    assert rep.worst_value < -1e-6
    assert rep.witness is not None
    assert rep.details["hessian_worst"] > 1e-3


def test_concavity_scan_square_root_field():
    rep = concave.concavity_scan(concave.sum_root_field(3, 2, 0.0), 500, seed=5)
    assert rep.passed


def test_quotient_field_on_shrunken_domain():
    # the sum-type quotient stays concave on the smaller cone Gamma_{k+1}
    f_small = concave.quotient_qk_field(4, 2, 1.0, domain=ConeSpec("garding", 4, 3))
    rep = concave.concavity_scan(f_small, 400, seed=6)
    assert rep.passed
    f_big = concave.quotient_qk_field(4, 2, 1.0)
    rep_big = concave.concavity_scan(f_big, 400, seed=6)
    assert rep_big.passed


def test_concavity_scan_without_evidence_is_inconclusive():
    # no Hessian probe validates at this margin: the scan must not pass
    rep = concave.concavity_scan(concave.sum_root_field(3, 2, 1.0), 200, seed=1,
                                 hessian_trials=50, hessian_margin=0.99)
    assert rep.details["hessian_validated"] == 0
    assert rep.details["inconclusive"] and not rep.passed
    assert str(rep).startswith("FAIL (inconclusive)")
    assert rep.details["trials_evaluated"] == 200
    # no midpoint trial at all
    rep = concave.concavity_scan(concave.sum_root_field(3, 2, 1.0), 0, seed=1)
    assert rep.details["trials_evaluated"] == 0
    assert rep.details["inconclusive"] and not rep.passed


def test_concavity_scan_counts_evidence():
    rep = concave.concavity_scan(concave.quotient_qk_field(4, 2, 1.0), 300, seed=2,
                                 hessian_trials=30)
    d = rep.details
    assert rep.passed and not d["inconclusive"]
    assert d["trials_evaluated"] + d["trials_skipped"] == 300
    assert d["directions_unresolved"] <= 4 * d["trials_evaluated"]
    assert 1 <= d["hessian_validated"] <= 30


def test_concavity_scan_accounts_for_every_trial():
    # a trial with a cone point but no finite midpoint residual (sqrt of a
    # negative number at every probe) is skipped, not lost
    fld = concave.ScalarField("sqrt(x0-1)", 2, lambda x: (x[0] - 1.0) ** 0.5,
                              domain=ConeSpec("garding", 2, 2))
    with np.errstate(invalid="ignore"):
        rep = concave.concavity_scan(fld, 300, seed=2, hessian_trials=30)
    d = rep.details
    assert d["trials_evaluated"] == 161 and d["trials_skipped"] == 139


def _catalog_fields():
    op = OperatorSpec.sum_type(4, 3, 2)
    rep = hypcheck.check_condition_c(op)
    return [concave.quotient_qk_field(4, 2, 1.0), concave.sigma_over_q_field(4, 3, 2.0),
            concave.sum_ratio_field(5, 3, 1, 0.5), concave.sum_root_field(3, 2, 2.0),
            concave.root_q_field(op),
            concave.lower_quotient_field(op, lower_operator(op, rep.witness, 1, rep.N))]


def test_catalog_field_call_is_values_on_one_row():
    rng = np.random.default_rng(0)
    for fld in _catalog_fields():
        points = ([np.zeros(fld.n)] + cones.sample_cone(fld.domain, 20, seed=1)
                  + list(rng.normal(size=(50, fld.n))))
        singular = 0
        for x in points:
            with np.errstate(divide="ignore", invalid="ignore"):
                want = fld.values([x])[0]
            if np.isfinite(want):
                assert np.float64(fld(x)).tobytes() == want.tobytes(), (fld.name, x)
            else:
                singular += 1
                with pytest.raises(SingularityError):
                    fld(x)
        assert singular, fld.name
        with pytest.raises(DomainError):
            fld(np.ones(fld.n + 1))


def _closed_forms():
    """(field, its kernel written out from sigma_all_batch slices)."""
    e = symfun.sigma_all_batch

    def coeffs(op):
        return np.array([float(a) for a in op.alphas])

    for n, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
        for a in (0.0, 0.5, 2.0):
            yield (concave.quotient_qk_field(n, k, a), lambda x, k=k, a=a: (
                (e(x, k + 1)[..., k + 1] + a * e(x, k + 1)[..., k])
                / (e(x, k + 1)[..., k] + a * e(x, k + 1)[..., k - 1])))
            yield (concave.sigma_over_q_field(n, k, a), lambda x, k=k, a=a: (
                e(x, k)[..., k] / (e(x, k)[..., k] + a * e(x, k)[..., k - 1])))
            yield (concave.sum_root_field(n, k, a), lambda x, k=k, a=a: (
                (e(x, k)[..., k] + a * e(x, k)[..., k - 1]) ** (1.0 / k)))
            for l in range(1, k):
                yield (concave.sum_ratio_field(n, k, l, a), lambda x, k=k, l=l, a=a: (
                    ((e(x, k)[..., k] + a * e(x, k)[..., k - 1])
                     / (e(x, k)[..., l] + a * e(x, k)[..., l - 1])) ** (1.0 / (k - l))))
            op = OperatorSpec.sum_type(n, k, F(a).limit_denominator(10))
            yield (concave.root_q_field(op), lambda x, op=op: (
                (e(x, op.k) @ coeffs(op)) ** (1.0 / op.k)))
            rep = hypcheck.check_condition_c(op)
            for l in range(1, k):
                low = lower_operator(op, rep.witness, l, rep.N)
                yield (concave.lower_quotient_field(op, low), lambda x, op=op, low=low: (
                    ((e(x, op.k) @ coeffs(op)) / (e(x, low.l) @ coeffs(low.as_operator())))
                    ** (1.0 / (op.k - low.l))))


def test_catalog_fields_equal_their_closed_forms_bit_for_bit():
    rng = np.random.default_rng(20)
    for fld, closed in _closed_forms():
        x = np.array(cones.sample_cone(fld.domain, 40, seed=3))
        jet = Jet.of(x, rng.normal(size=x.shape), 0.0)
        assert fld.values(x).tobytes() == closed(x).tobytes(), fld.name
        assert fld.jet(jet).c.tobytes() == closed(jet).c.tobytes(), fld.name


def test_quotient_field_rejects_k_out_of_range():
    for n, k in ((3, 3), (3, 0), (4, 5)):
        with pytest.raises(DomainError):
            concave.quotient_qk_field(n, k, 1.0)
    with pytest.raises(DomainError):
        concave.quotient_qk_field(4, 2, -1.0)


def test_scan_requires_domain():
    fld = concave.ScalarField("free", 2, lambda x: x[0])
    with pytest.raises(DomainError):
        concave.concavity_scan(fld, 10, seed=0)


@pytest.mark.parametrize("fn", [lambda x: 1.0, lambda x: math.sqrt(x[0] * x[1])],
                         ids=["returns-float", "math-on-jet"])
def test_scan_names_the_jet_contract(fn):
    # the Hessian trials run fn on Taylor jets: a constant float and a math
    # function break that contract, and the error says so
    fld = concave.ScalarField("c", 2, fn, domain=ConeSpec("garding", 2, 2))
    with pytest.raises(DomainError, match=r"only \+, -, \*, / and real powers"):
        concave.concavity_scan(fld, 20, seed=0)


def _sum_type_inputs(n, k, alpha):
    op = OperatorSpec.sum_type(n, k, alpha)
    rep = hypcheck.check_condition_c(op)
    s_l = lower_operator(op, rep.witness, k - 1, rep.N)
    return op, s_l


def test_guan_inequality_zero_direction():
    op, s_l = _sum_type_inputs(3, 2, F(1))
    inp = concave.GuanCheckInput(
        w_diag=(1.0, 1.0, 1.0), w_vec=(0.0, 0.0, 0.0), op=op, s_l=s_l, delta=1.0
    )
    r1, r2 = concave.guan_inequality_check(inp)
    assert r1 == 0 and r2 == 0


def test_guan_inequality_hand_instance():
    # W = theta, w = theta, Q = sigma_2 + sigma_1 at n = 3, S_1 = sigma_1 + 3/2:
    # first inequality holds with residual exactly 1/9
    op, s_l = _sum_type_inputs(3, 2, F(1))
    assert s_l.coeffs == (F(3, 2), F(1))
    inp = concave.GuanCheckInput(
        w_diag=(1.0, 1.0, 1.0), w_vec=(1.0, 1.0, 1.0), op=op, s_l=s_l, delta=1.0
    )
    r1, r2 = concave.guan_inequality_check(inp)
    assert r1 == pytest.approx(1 / 9, rel=1e-12)
    assert r2 == pytest.approx(7.5 - 8 / 3, rel=1e-12)


def test_guan_input_validation():
    op, s_l = _sum_type_inputs(3, 2, F(1))
    with pytest.raises(DomainError):
        concave.GuanCheckInput(w_diag=(1, 1, -1), w_vec=(0, 0, 0), op=op, s_l=s_l)
    with pytest.raises(DomainError):
        concave.GuanCheckInput(w_diag=(1, 1, 1), w_vec=(0, 0, 0), op=op, s_l=s_l, delta=0)


def test_guan_scan_small():
    op, s_l = _sum_type_inputs(3, 2, F(1))
    rep = concave.guan_scan(op, s_l, 500, seed=9)
    assert rep.passed
    assert rep.worst_value >= -1e-9
    assert "second_inequality_worst" in rep.details


# ---------------------------------------------------------------------------
# exactness of the jet Hessians

_X = sympy.symbols("x0:5")


def _q_expr(n, coeffs):
    """sum_s coeffs[s] sigma_s(x_0..x_{n-1}) as a sympy expression, the
    coefficients taken at their exact value."""
    return sum(sympy.Rational(F(c)) * elem_sym_enumerate(_X[:n], s)
               for s, c in enumerate(coeffs) if c)


def _sum_type_expr(n, k, alpha):
    return _q_expr(n, [0] * (k - 1) + [alpha, 1])


@lru_cache(maxsize=None)
def _exact_cases():
    """(field, its sympy Hessian as an mpmath function) for each catalog kind."""
    op = OperatorSpec.sum_type(4, 3, F(2))
    rep = hypcheck.check_condition_c(op)
    low = lower_operator(op, rep.witness, 1, rep.N)
    q, ql, half = _q_expr(4, op.alphas), _q_expr(4, low.coeffs), sympy.Rational(1, 2)
    cases = [
        (concave.quotient_qk_field(4, 2, 0.5),
         _sum_type_expr(4, 3, 0.5) / _sum_type_expr(4, 2, 0.5)),
        (concave.quotient_qk_field(5, 3, 2.0),
         _sum_type_expr(5, 4, 2.0) / _sum_type_expr(5, 3, 2.0)),
        (concave.sigma_over_q_field(4, 3, 2.0),
         elem_sym_enumerate(_X[:4], 3) / _sum_type_expr(4, 3, 2.0)),
        (concave.sum_ratio_field(5, 3, 1, 0.5),
         (_sum_type_expr(5, 3, 0.5) / _sum_type_expr(5, 1, 0.5)) ** half),
        (concave.sum_root_field(3, 2, 2.0), _sum_type_expr(3, 2, 2.0) ** half),
        (concave.root_q_field(op), q ** sympy.Rational(1, 3)),
        (concave.lower_quotient_field(op, low), (q / ql) ** half),
    ]
    return [(fld, sympy.lambdify(_X[:fld.n], sympy.hessian(expr, _X[:fld.n]), "mpmath", cse=True))
            for fld, expr in cases]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(case=st.integers(0, 6), data=st.data())
def test_jet_hessian_equals_exact_hessian(case, data):
    # at dyadic rational points (exact in binary), the jet's second
    # directional derivatives and the scan's normalized largest eigenvalue
    # match sympy's Hessian to 1e-12 relative
    fld, exact = _exact_cases()[case]
    n = fld.n
    x = [F(data.draw(st.integers(-32, 256)), 2 ** data.draw(st.integers(0, 5))) for _ in range(n)]
    xf = np.array([float(v) for v in x])
    assume(cones.cone_margin(fld.domain, xf) >= 1e-2)
    with mpmath.workdps(40):
        hess = np.array(exact(*[mpmath.mpf(v.numerator) / v.denominator for v in x]).tolist(),
                        dtype=float)
    i, j = np.triu_indices(n)
    dirs = np.eye(n)[i] + np.eye(n)[j]
    jet = fld.jet(Jet.of(np.tile(xf, (dirs.shape[0], 1)), dirs, 0.0))
    want = np.einsum("dp,pq,dq->d", dirs, hess, dirs)
    assert np.all(np.abs(2.0 * jet.c[2] - want) <= 1e-12 * np.abs(hess).max() * 4.0)
    scale = (1.0 + abs(fld(xf))) / (1.0 + np.abs(xf).max()) ** 2
    got = concave._max_hessian_eigs(fld, xf[None])[0]
    assert abs(got - np.linalg.eigvalsh(hess)[-1] / scale) <= 1e-12 * n * np.abs(hess).max() / scale


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_guan_terms_match_exact_derivatives(n, data):
    # a_q = v^T Hess Q v and grad Q . v from the jet along v, against the
    # scalar combop path over Fractions
    k = data.draw(st.integers(2, n))
    op = OperatorSpec.sum_type(n, k, F(data.draw(st.integers(0, 12)), 4))
    rep = hypcheck.check_condition_c(op)
    low = lower_operator(op, rep.witness, k - 1, rep.N).as_operator()
    w = [F(data.draw(st.integers(1, 256)), 2 ** data.draw(st.integers(0, 5))) for _ in range(n)]
    v = [F(data.draw(st.integers(-256, 256)), 2 ** data.draw(st.integers(0, 5))) for _ in range(n)]
    wf, vf = np.array([[float(t) for t in w]]), np.array([[float(t) for t in v]])
    _, _, a_q, qv, _ = concave._guan_terms(op, low, 1.0, 1.0, wf, vf)
    hess, grad = combop.q_hess(op, w), combop.q_grad(op, w)
    terms = [hess[p][q] * v[p] * v[q] for p in range(n) for q in range(n)]
    assert abs(a_q[0] - float(sum(terms))) <= 1e-12 * float(sum(abs(t) for t in terms))
    assert qv[0] == pytest.approx(float(combop.q_eval(op, w)), rel=1e-12)
    dq = combop.q_eval_batch(op, Jet.of(wf, vf, 0.0)).c[1][0]
    terms = [g * t for g, t in zip(grad, v)]
    assert abs(dq - float(sum(terms))) <= 1e-12 * float(sum(abs(t) for t in terms))


def test_negative_control_hessian_is_exact():
    # sigma_2 = x0 x1 has Hessian [[0, 1], [1, 0]]: the reported worst is
    # its normalized largest eigenvalue 1 at the Hessian witness, exactly
    fld = concave.ScalarField("sigma2", 2, lambda x: x[0] * x[1],
                              domain=ConeSpec("garding", 2, 2))
    rep = concave.concavity_scan(fld, 300, seed=4)
    d = rep.details
    assert not rep.passed and d["hessian_validated"] == d["hessian_trials"]
    x = d["hessian_witness"]
    want = (1.0 + max(abs(v) for v in x)) ** 2 / (1.0 + abs(x[0] * x[1]))
    assert d["hessian_worst"] == pytest.approx(want, rel=1e-12) and want > 1e-3
    # with the midpoint gate out of reach the Hessian gate alone refutes it,
    # and the witness is the Hessian point
    rep = concave.concavity_scan(fld, 300, seed=4, tol=10.0)
    assert rep.details["midpoint_worst"] >= -10.0
    assert not rep.passed and rep.witness == rep.details["hessian_witness"]
