from fractions import Fraction as F

import numpy as np
import pytest

from symcurv import concave, symfun, hypcheck
from symcurv.combop import OperatorSpec, lower_operator
from symcurv.cones import ConeSpec, trial_rng, _sample_one
from symcurv.errors import DomainError, DomainExitError, SingularityError


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
        got = concave.fd_hessian(fld, x, concave.default_step(x))
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
        "sigma1", 3, lambda x: float(sum(x)), domain=ConeSpec("garding", 3, 1)
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


def test_scan_requires_domain():
    fld = concave.ScalarField("free", 2, lambda x: x[0])
    with pytest.raises(DomainError):
        concave.concavity_scan(fld, 10, seed=0)


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
