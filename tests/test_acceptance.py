"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import time
from fractions import Fraction as F

import numpy as np

from symcurv import concave, cones, geomsolve as gs, hypcheck
from symcurv.combop import OperatorSpec, lower_operator
from symcurv.cones import ConeSpec, trial_rng, _sample_one


def _report(num, passed, detail):
    print(f"\nCRITERION {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_condition_c_exact():
    t0 = time.time()
    alphas = (F(0), F(1, 3), F(1), F(7))
    checked = 0
    for n in range(2, 9):
        for k in range(1, n):
            for alpha in alphas:
                op = OperatorSpec.sum_type(n, k, alpha)
                rep = hypcheck.check_condition_c(op)
                assert rep.all_real, (n, k, alpha)
                want = tuple([alpha / (n - k + 1)] + [F(0)] * (rep.N - 1))
                assert rep.witness == want, (n, k, alpha, rep.witness)
                checked += 1
    fail = hypcheck.check_condition_c(OperatorSpec(3, 2, (1, 0, 1)))
    assert not fail.all_real and fail.failure_witness is not None
    dt = time.time() - t0
    _report(1, dt < 1.0, f"{checked} sum-type operators exact-PASS with the "
                         f"closed-form witness, sigma_2+sigma_0 FAILs ({dt:.2f}s)")


def test_criterion_02_real_rooted_cross_validation():
    t0 = time.time()
    rng = trial_rng(20260810, 0)
    agree = 0
    total = 0
    disagreements = []
    while total < 10_000:
        d = int(rng.integers(1, 9))
        coeffs = [int(c) for c in rng.integers(-9, 10, d + 1)]
        if coeffs[d] == 0:
            continue
        total += 1
        exact = hypcheck.real_rooted(coeffs, mode="exact")
        numeric = hypcheck.real_rooted(coeffs, mode="numeric")
        if exact.all_real == numeric.all_real:
            agree += 1
        else:
            disagreements.append(coeffs)
    dt = time.time() - t0
    _report(2, agree == total and dt < 60.0,
            f"exact Sturm vs companion snap agree on {agree}/{total} "
            f"random integer polynomials ({dt:.1f}s)"
            + (f"; disagreements {disagreements[:3]}" if disagreements else ""))


def _battery_fields():
    battery = [(3, 2), (4, 2), (4, 3), (5, 3)]
    for (n, k) in battery:
        for alpha in (0.5, 2.0):
            yield concave.quotient_qk_field(n, k, alpha)
            yield concave.sigma_over_q_field(n, k, alpha)
            yield concave.sum_root_field(n, k, alpha)
            for l in range(1, k):
                yield concave.sum_ratio_field(n, k, l, alpha)
            op = OperatorSpec.sum_type(n, k, F(alpha).limit_denominator(10))
            rep = hypcheck.check_condition_c(op)
            for l in range(1, k):
                yield concave.lower_quotient_field(
                    op, lower_operator(op, rep.witness, l, rep.N)
                )


def test_criterion_03_concavity_suites():
    t0 = time.time()
    mid_worst, hess_worst = np.inf, -np.inf
    worst_field = ""
    count = 0
    for fld in _battery_fields():
        rep = concave.concavity_scan(
            fld, 10_000, seed=303, tol=1e-9, hessian_trials=1_000, hessian_tol=1e-6
        )
        count += 1
        if rep.worst_value < mid_worst:
            mid_worst = rep.worst_value
        hw = rep.details["hessian_worst"]
        if hw > hess_worst:
            hess_worst, worst_field = hw, fld.name
        assert rep.passed, (fld.name, rep.worst_value, hw)
    neg = concave.ScalarField(
        "sigma2(n=2)", 2, lambda x: x[0] * x[1], domain=ConeSpec("garding", 2, 2)
    )
    neg_rep = concave.concavity_scan(neg, 1_000, seed=303)
    assert not neg_rep.passed and neg_rep.witness is not None
    dt = time.time() - t0
    _report(3, dt < 300.0,
            f"{count} scans pass (worst midpoint {mid_worst:.2e} >= -1e-9, "
            f"worst Hessian eig {hess_worst:.2e} <= 1e-6 at {worst_field}); "
            f"negative control refuted with witness ({dt:.0f}s)")


def test_criterion_04_q1_closed_form():
    t0 = time.time()
    spec = ConeSpec("garding", 3, 1)
    worst = 0.0
    done = 0
    trial = 0
    while done < 10_000:
        rng = trial_rng(404, trial)
        trial += 1
        lam = _sample_one(spec, rng)
        alpha = float(rng.uniform(0.0, 3.0))
        scale = 0.25 * (alpha + sum(lam))
        xi = tuple(rng.normal(size=3) * scale / 3)
        if alpha + sum(lam) + sum(xi) <= 0 or alpha + sum(lam) - sum(xi) <= 0:
            continue
        lhs, rhs = concave.q1_closed_form_check(lam, xi, alpha)
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, gap)
        done += 1
    dt = time.time() - t0
    _report(4, worst <= 1e-10 and dt < 10.0,
            f"closed-form q_1 identity worst relative gap {worst:.2e} "
            f"over {done} admissible triples ({dt:.1f}s)")


def test_criterion_05_convexity_and_ellipticity():
    t0 = time.time()
    configs = [(3, 2, 0.5), (3, 2, 2.0), (5, 3, 1.0)]
    conv_worst, elli_worst = np.inf, np.inf
    for (n, k, alpha) in configs:
        spec = ConeSpec("tilde", n, k, alpha)
        conv = cones.segment_convexity_check(spec, 10_000, seed=505)
        assert conv.passed and conv.worst_value >= -1e-12, (n, k, alpha)
        conv_worst = min(conv_worst, conv.worst_value)
        op = OperatorSpec.sum_type(n, k, alpha)
        elli = cones.ellipticity_scan(op, spec, 10_000, seed=506)
        assert elli.passed and elli.worst_value > 0.0, (n, k, alpha)
        elli_worst = min(elli_worst, elli.worst_value)
    dt = time.time() - t0
    _report(5, dt < 60.0,
            f"no convexity violation below -1e-12 (worst margin {conv_worst:.2e}); "
            f"min_i Q^ii positive at all sampled points "
            f"(worst normalized {elli_worst:.2e}) ({dt:.0f}s)")


def test_criterion_06_matrix_second_derivative():
    t0 = time.time()
    rng = trial_rng(606, 0)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        diag = np.sort(rng.uniform(-2.0, 2.0, n))
        if n > 1 and np.min(np.diff(diag)) < 0.1:
            continue
        k = int(rng.integers(1, n + 1))
        b = rng.uniform(-1.0, 1.0, (n, n))
        b = 0.5 * (b + b.T)
        a = np.diag(diag)

        def value(s):
            from symcurv.symfun import elem_sym

            return elem_sym(np.linalg.eigvalsh(a + s * b), k)

        h = 1e-4
        fd = (value(h) - 2.0 * value(0.0) + value(-h)) / h**2
        from symcurv.symfun import matrix_symfun_second_derivative

        got = matrix_symfun_second_derivative(k, tuple(diag), b)
        rel = abs(got - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
        checked += 1
    dt = time.time() - t0
    _report(6, worst <= 1e-5 and dt < 10.0,
            f"matrix second-derivative formula vs eigenvalue-composition "
            f"differences: worst relative error {worst:.2e} on 100 instances ({dt:.1f}s)")


def test_criterion_07_guan_inequality():
    t0 = time.time()
    worst = np.inf
    second = np.inf
    for alpha in (F(1, 2), F(1), F(2)):
        op = OperatorSpec.sum_type(3, 2, alpha)
        rep_c = hypcheck.check_condition_c(op)
        s_l = lower_operator(op, rep_c.witness, 1, rep_c.N)
        rep = concave.guan_scan(op, s_l, 10_000, seed=707, delta=1.0)
        assert rep.passed and rep.worst_value >= -1e-9, (alpha, rep.worst_value)
        worst = min(worst, rep.worst_value)
        second = min(second, rep.details["second_inequality_worst"])
    dt = time.time() - t0
    _report(7, dt < 60.0,
            f"diagonal quotient inequality residual >= -1e-9 on 3x10^4 "
            f"instances (worst {worst:.2e}; second form observed >= {second:.2e}, "
            f"reported only) ({dt:.0f}s)")


def test_criterion_08_newton_sphere():
    t0 = time.time()
    grid = gs.SphereGrid(32, 16)
    op = OperatorSpec.sum_type(2, 2, 1.0)
    psi = gs.PsiSpec("constant", c=1.25)  # Q_S^2(1/2, 1/2)
    initial = gs.perturbed_sphere(grid, 2.0, 0.05, seed=808)
    surf, diag = gs.newton_solve(initial, op, psi)
    err = float(np.abs(surf.rho - 2.0).max())
    iters = diag.n_iter - 1
    dt = time.time() - t0
    _report(8, diag.converged and err <= 1e-8 and iters <= 12 and dt < 60.0,
            f"Newton from 5%-perturbed sphere: max|rho-2| = {err:.2e} "
            f"in {iters} iterations ({dt:.1f}s)")


def test_criterion_09_manufactured_ellipsoid_convergence():
    t0 = time.time()
    op = OperatorSpec.sum_type(2, 2, 1.0)
    axes = (1.0, 1.0, 1.2)
    psi = gs.PsiSpec("manufactured-ellipsoid", axes=axes, op=op)
    errs = {}
    for (n_lon, n_lat) in [(32, 16), (64, 32)]:
        grid = gs.SphereGrid(n_lon, n_lat)
        surf, diag = gs.newton_solve(gs.RadialSurfaceField.sphere(grid, 1.05), op, psi)
        assert diag.converged
        r_hat, _, _ = grid.unit_vectors()
        exact = gs.ellipsoid_radial_graph(r_hat, axes)
        errs[(n_lon, n_lat)] = float(np.abs(surf.rho - exact).max())
    ratio = errs[(32, 16)] / errs[(64, 32)]
    dt = time.time() - t0
    _report(9, ratio >= 3.0 and dt < 600.0,
            f"L-inf(rho) error {errs[(32, 16)]:.2e} -> {errs[(64, 32)]:.2e}, "
            f"ratio {ratio:.2f} >= 3 (2nd order) ({dt:.0f}s)")


def test_criterion_10_homotopy_and_monitor():
    t0 = time.time()
    op = OperatorSpec.sum_type(2, 2, 1.0)
    psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0.0, 0.0, 1.0))
    barrier = gs.barrier_check(psi, op, 0.5, 2.0)
    assert barrier.passed
    grid = gs.SphereGrid(32, 16)
    path = gs.homotopy_solve(op, psi, grid, 0.5, 2.0, steps=20, eps=1e-2)
    final_res = path.final_diagnostics.iterations[-1][0]
    _, summary = gs.monitor_path(path)
    kappa_max = summary["max_kappa1"]
    dt = time.time() - t0
    _report(10, path.ts[-1] == 1.0 and final_res <= 1e-8
            and np.isfinite(kappa_max) and dt < 600.0,
            f"continuation reached t=1 in {len(path.ts)} steps, final residual "
            f"{final_res:.2e} <= 1e-8, max-over-path kappa_1 = {kappa_max:.4f} "
            f"(finite, reported) ({dt:.0f}s)")
