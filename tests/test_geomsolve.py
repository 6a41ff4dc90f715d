import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (barrier_monotonicity_loop, cs_jacobian_dense, ellipsoid_curvatures,
                     fd_jacobian_dense, in_cone_exact, kappa_residual,
                     normalized_margin_exact, stencil_matvec, write_csv_rows)
from symcurv import geomsolve as gs
from symcurv.combop import OperatorSpec, q_eval
from symcurv.errors import ConeExitError, ContinuationError, ConvergenceError, DomainError

OP = OperatorSpec.sum_type(2, 2, 1.0)  # sigma_2 + sigma_1 on two curvatures


def test_grid_validation():
    with pytest.raises(DomainError):
        gs.SphereGrid(7, 8)   # odd longitude count
    with pytest.raises(DomainError):
        gs.SphereGrid(8, 1)
    g = gs.SphereGrid(16, 8)
    assert g.theta[0] == pytest.approx(np.pi / 16)
    assert g.theta[-1] == pytest.approx(np.pi - np.pi / 16)


def test_surface_validation():
    g = gs.SphereGrid(8, 4)
    with pytest.raises(DomainError):
        gs.RadialSurfaceField(np.zeros(g.shape), g)
    with pytest.raises(DomainError):
        gs.RadialSurfaceField(np.ones((3, 3)), g)


def test_grid_constants_are_cached_read_only():
    g = gs.SphereGrid(16, 8)
    assert g.unit_vectors() is gs.SphereGrid(16, 8).unit_vectors()
    st, ct = np.sin(g.theta)[:, None], np.cos(g.theta)[:, None]
    sp, cp = np.sin(g.phi), np.cos(g.phi)
    want = [(st * cp, st * sp, ct + 0 * sp), (ct * cp, ct * sp, -st + 0 * sp),
            (-sp + 0 * st, cp + 0 * st, 0 * st * sp)]
    for got, parts in zip(g.unit_vectors(), want):
        assert np.array_equal(got, np.stack(parts, axis=-1))
    assert all(np.array_equal(a, b) for a, b in zip(gs._trig(g), (st, ct, ct / st)))
    for a in (*g.unit_vectors(), *gs._trig(g)):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_sphere_geometry_exact():
    g = gs.SphereGrid(32, 16)
    geo = gs.surface_geometry(gs.RadialSurfaceField.sphere(g, 2.0))
    assert np.abs(geo.kappa - 0.5).max() == 0
    assert np.abs(geo.support - 2.0).max() == 0
    assert np.abs(geo.nu - geo.X / 2.0).max() == 0
    r = np.linalg.norm(geo.X, axis=-1)
    assert np.abs(r - 2.0).max() < 1e-14


def test_ellipsoid_curvature_oracle_against_sphere():
    # the closed-form ellipsoid curvature formula reduces to 1/r on spheres
    pts = np.array([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0], [2 / np.sqrt(2), 2 / np.sqrt(2), 0]])
    kappa = ellipsoid_curvatures(pts, (2.0, 2.0, 2.0))
    assert np.allclose(kappa, 0.5)


def test_principal_curvatures_do_not_cancel_near_umbilics():
    # every node of a sphere is umbilic: 1e-13 relative noise on rho must not
    # move kappa by more than it moves kappa_1 + kappa_2
    g = gs.SphereGrid(32, 16)
    rho = np.full(g.shape, 2.0)
    noisy = rho * (1.0 + 1e-13 * np.random.default_rng(0).normal(size=g.shape))
    k0 = gs.surface_geometry(gs.RadialSurfaceField(rho, g)).kappa
    k1 = gs.surface_geometry(gs.RadialSurfaceField(noisy, g)).kappa
    assert np.abs(k1 - k0).max() <= 2.0 * np.abs(k1.sum(-1) - k0.sum(-1)).max()


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.2), (1.0, 2.0, 3.0), (2.0, 2.0, 2.0)])
def test_ellipsoid_invariants_match_curvature_pair(axes):
    # closed-form tr W and det W against the sum and product of the curvature
    # pair from a tangent frame, at any point of the ray
    rand = np.random.default_rng(3).normal(size=(4000, 3))
    for d in (gs.SphereGrid(64, 32).unit_vectors()[0].reshape(-1, 3),
              rand / np.linalg.norm(rand, axis=-1, keepdims=True)):
        point = gs.ellipsoid_radial_graph(d, axes)[:, None] * d
        kappa = ellipsoid_curvatures(point, axes)
        for X in (point, d, 2.5 * d):
            tr, det = gs._ellipsoid_invariants(X, axes)
            assert np.all(np.abs(tr - kappa.sum(-1)) <= 1e-14 * np.abs(kappa.sum(-1)))
            assert np.all(np.abs(det - kappa.prod(-1)) <= 1e-14 * np.abs(kappa.prod(-1)))


def test_ellipsoid_geometry_second_order():
    axes = (1.0, 1.0, 1.2)
    errs = []
    for n_lon, n_lat in [(16, 8), (32, 16), (64, 32)]:
        g = gs.SphereGrid(n_lon, n_lat)
        r_hat, _, _ = g.unit_vectors()
        surf = gs.RadialSurfaceField(gs.ellipsoid_radial_graph(r_hat, axes), g)
        geo = gs.surface_geometry(surf)
        exact = ellipsoid_curvatures(geo.X, axes)
        errs.append(np.abs(geo.kappa - exact).max())
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_residual_examples():
    g = gs.SphereGrid(16, 8)
    sphere = gs.RadialSurfaceField.sphere(g, 2.0)
    psi = gs.PsiSpec("constant", c=float(q_eval(OP, (0.5, 0.5))))
    assert np.abs(gs.residual(sphere, OP, psi)).max() == 0
    unit = gs.RadialSurfaceField.sphere(g, 1.0)
    psi_q = gs.PsiSpec("constant", c=float(q_eval(OP, (1.0, 1.0))) / 4)
    want = float(q_eval(OP, (1.0, 1.0))) * (1 - 0.25)
    assert gs.residual(unit, OP, psi_q) == pytest.approx(want * np.ones(g.shape))


# (operator, its cone as (kind, k, alpha), points where a defining quantity of
# that cone is exactly 0)
_ADMISSIBILITY_CASES = [
    (OperatorSpec(2, 1, (0, 1)), ("tilde", 1, 0), [(1.0, -1.0), (0.0, 0.0)]),       # Gamma_1
    (OperatorSpec(2, 1, (0.5, 1)), ("tilde", 1, 0.5), [(0.0, -0.5), (0.25, -0.75)]),
    (OperatorSpec(2, 1, (2, 1)), ("tilde", 1, 2), [(0.0, -2.0), (1.0, -3.0)]),
    (OperatorSpec(2, 2, (1, 0, 1)), ("garding", 2, 0), [(1.0, 0.0), (1.0, -1.0), (0.0, 0.0)]),
    (OperatorSpec(2, 2, (1, 0.5, 1)), ("garding", 2, 0), [(0.0, 3.0), (-1.0, 1.0)]),
    (OperatorSpec(2, 2, (0, 0, 1)), ("tilde", 2, 0), [(1.0, 0.0), (1.0, -1.0), (0.0, 0.0)]),
    (OperatorSpec(2, 2, (0, 0.5, 1)), ("tilde", 2, 0.5), [(0.5, -0.25), (1.0, -1.0), (0.0, 0.0)]),
    (OperatorSpec(2, 2, (0, 2, 1)), ("tilde", 2, 2), [(2.0, -1.0), (1.0, -1.0), (0.0, 0.0)]),
]


@pytest.mark.parametrize("op, cone, boundary", _ADMISSIBILITY_CASES)
def test_admissibility_agrees_with_exact_membership(op, cone, boundary):
    # Gamma~_k for sum-type operators (k = 1 always is), Gamma_k otherwise;
    # random pairs off the boundary, and exact boundary points, which are out
    kind, k, alpha = cone
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(4000, 2)) * 10.0 ** rng.uniform(-3, 3, size=(4000, 1))
    pts = np.array([p for p in pts
                    if abs(normalized_margin_exact(kind, p, k, alpha)) > 1e-12] + boundary)
    assert not any(in_cone_exact(kind, p, k, alpha) for p in boundary)
    want = [i for i, p in enumerate(pts) if not in_cone_exact(kind, p, k, alpha)]
    assert [i for (i,) in gs._inadmissible_nodes(op, pts)] == want
    # the origin is admissible exactly where it is inside: Gamma~_1 with alpha > 0
    origin_out = not in_cone_exact(kind, (0.0, 0.0), k, alpha)
    assert gs._inadmissible_nodes(op, np.zeros((1, 2))) == ([(0,)] if origin_out else [])


def test_residual_cone_exit():
    g = gs.SphereGrid(16, 8)
    # strongly non-convex dumbbell-ish surface exits the admissible cone
    th = g.theta[:, None] + 0 * g.phi[None, :]
    rho = 1.0 + 0.9 * np.cos(2 * th) ** 2
    surf = gs.RadialSurfaceField(rho, g)
    psi = gs.PsiSpec("constant", c=1.0)
    with pytest.raises(ConeExitError) as err:
        gs.residual(surf, OP, psi)
    assert len(err.value.nodes) > 0


def test_manufactured_residual_zero_on_reference():
    axes = (1.0, 1.0, 1.2)
    psi = gs.PsiSpec("manufactured-ellipsoid", axes=axes, op=OP)
    g = gs.SphereGrid(32, 16)
    r_hat, _, _ = g.unit_vectors()
    surf = gs.RadialSurfaceField(gs.ellipsoid_radial_graph(r_hat, axes), g)
    res = gs.residual(surf, OP, psi)
    # discrete curvature vs analytic curvature: O(h^2), not zero
    assert np.abs(res).max() < 0.1
    # and the discrete solution of this psi is the ellipsoid up to O(h^2)
    solved, diag = gs.newton_solve(surf, OP, psi)
    assert diag.converged
    assert np.abs(solved.rho - surf.rho).max() < 0.05


def test_newton_sphere_fixed_point():
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("constant", c=float(q_eval(OP, (0.5, 0.5))))
    initial = gs.perturbed_sphere(g, 2.0, 0.05, seed=7)
    surf, diag = gs.newton_solve(initial, OP, psi)
    assert diag.converged
    assert np.abs(surf.rho - 2.0).max() <= 1e-8
    assert diag.n_iter - 1 <= 12


def test_translation_gauge_converges_from_every_seed():
    # constant psi: the three translations are a near-kernel of J; the
    # bordered system pins them and every perturbed start converges
    g = gs.SphereGrid(32, 16)
    psi = gs.PsiSpec("constant", c=1.25)   # Q(1/2, 1/2) = 5/4
    for seed in range(800, 900):
        surf, diag = gs.newton_solve(gs.perturbed_sphere(g, 2.0, 0.05, seed=seed), OP, psi)
        assert diag.converged, seed
        assert np.abs(surf.rho - 2.0).max() <= 1e-8, seed
        assert diag.n_iter - 1 <= 6, seed
        assert len(diag.mu) == 3 and max(map(abs, diag.mu)) <= diag.tol, seed


def test_gauge_multiplier_reports_an_obstructed_psi():
    # psi = c (1 + eps <nu, e>) is free of X but admits no closed solution;
    # the bordered system is solved by the round sphere with mu = c eps e
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("anisotropic-radial", c=1.25, p=0.0, eps=0.1, axis=(0, 0, 1))
    with pytest.raises(ConvergenceError, match="gauge multiplier") as err:
        gs.newton_solve(gs.perturbed_sphere(g, 2.0, 0.03, seed=1), OP, psi)
    assert not err.value.diagnostics.converged
    assert np.allclose(err.value.diagnostics.mu, (0.0, 0.0, 0.125), rtol=0, atol=1e-9)
    assert np.abs(err.value.last_surface.rho - 2.0).max() <= 1e-8


def test_manufactured_ellipsoid_second_order_on_three_levels():
    axes = (1.0, 1.0, 1.2)
    psi = gs.PsiSpec("manufactured-ellipsoid", axes=axes, op=OP)
    errs = []
    for shape in [(32, 16), (64, 32), (128, 64)]:
        grid = gs.SphereGrid(*shape)
        surf, diag = gs.newton_solve(gs.RadialSurfaceField.sphere(grid, 1.05), OP, psi)
        assert diag.converged and diag.mu == ()
        exact = gs.ellipsoid_radial_graph(grid.unit_vectors()[0], axes)
        errs.append(np.abs(surf.rho - exact).max())
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def _jacobian_cases(grid):
    aniso = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0, 0, 1))
    return [
        (gs.perturbed_sphere(grid, 2.0, 0.05, seed=808), gs.PsiSpec("constant", c=1.25)),
        (gs.perturbed_sphere(grid, 1.0, 0.05, seed=1), aniso),
        (gs.perturbed_sphere(grid, 1.05, 0.05, seed=2),
         gs.PsiSpec("manufactured-ellipsoid", axes=(1.0, 1.0, 1.2), op=OP)),
        (gs.perturbed_sphere(grid, 1.0, 0.05, seed=3), gs._BlendedPsi(aniso, OP, 0.5, 1e-2)),
    ]


@pytest.mark.parametrize("shape", [(16, 8), (32, 16)])
def test_invariant_residual_agrees_with_kappa_oracle(shape):
    # Q from (1, tr W, det W), and the manufactured psi from the ellipsoid's
    # tr and det, against Q of the eigenvalue pairs
    grid = gs.SphereGrid(*shape)
    for surf, psi in _jacobian_cases(grid):
        res, (X, nu, shape_op, _) = gs._residual_raw(surf.rho, grid, OP, psi)
        want = kappa_residual(OP, shape_op, X, nu, psi)
        scale = np.abs(psi.evaluate(X, nu)).max()
        assert np.abs(res - want).max() <= 1e-12 * scale, psi


@pytest.mark.parametrize("shape", [(4, 2), (10, 5), (16, 8), (32, 16)])
def test_jacobian_equals_dense_oracles(shape):
    # the chain-rule Jacobian against a column-by-column complex step (exact
    # to rounding) and a forward difference (accurate to about sqrt(eps))
    grid = gs.SphereGrid(*shape)
    for surf, psi in _jacobian_cases(grid):
        def f(x):
            return gs._residual_raw(x.reshape(grid.shape), grid, OP, psi)[0].ravel()

        jac = _dense(gs._jacobian(surf.rho, grid, OP, psi))
        scale = np.abs(jac).max()
        assert np.abs(jac - cs_jacobian_dense(f, surf.rho.ravel())).max() <= 1e-13 * scale, psi
        steps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(surf.rho.ravel()))
        fd = fd_jacobian_dense(f, surf.rho.ravel(), steps)
        assert np.abs(jac - fd).max() <= 1e-5 * scale, psi


def _dense(coef):
    """The dense matrix of stencil coefficients (the oracle's)."""
    n = coef[0, 0].size
    return stencil_matvec(coef, np.eye(n).reshape(*coef.shape[2:], n)).reshape(n, n)


@pytest.mark.parametrize("shape", [(4, 2), (10, 5), (32, 16)])
def test_trimmed_complex_step_is_bit_identical(shape):
    # psi is evaluated on the complex-step surfaces 0-2 only: the Jacobian
    # equals the one from the whole residual on all 6 surfaces bit for bit
    grid = gs.SphereGrid(*shape)
    for surf, psi in _jacobian_cases(grid):
        q = np.stack(gs._derivatives(surf.rho, grid))[:, None]
        batch = q + 1j * gs._CS_STEP * np.eye(6)[:, :, None, None]
        full = gs._pointwise_residual(batch, grid, OP, psi)[0].imag / gs._CS_STEP
        want = np.einsum("qji,qab->abji", full, gs._stencil_weights(grid))
        assert np.array_equal(gs._jacobian(surf.rho, grid, OP, psi), want), psi


@pytest.mark.parametrize("shape", [(4, 2), (10, 5), (16, 8), (32, 16)])
def test_stencil_weights_reproduce_derivatives(shape):
    # (4, 2): the stencil wraps onto itself, so offsets meet at one node;
    # (10, 5): n_lon not a multiple of 3
    grid = gs.SphereGrid(*shape)
    rho = gs.perturbed_sphere(grid, 1.0, 0.3, seed=5).rho
    for w, want in zip(gs._stencil_weights(grid), gs._derivatives(rho, grid)):
        coef = np.broadcast_to(w[:, :, None, None], (3, 3, *grid.shape))
        bound = 8 * np.finfo(float).eps * stencil_matvec(np.abs(coef), rho)
        assert np.all(np.abs(stencil_matvec(coef, rho) - want) <= bound)
    # the gauge borders J with U = r_hat and C = r_hat sin(theta) / sum sin(theta)
    n = grid.n_lat * grid.n_lon
    U, C = gs._gauge(grid, True)
    r_hat = grid.unit_vectors()[0].reshape(n, 3)
    sin = np.repeat(np.sin(grid.theta), grid.n_lon)[:, None]
    assert np.array_equal(U, r_hat)
    assert np.allclose(C, r_hat * sin / sin.sum(), rtol=1e-15, atol=0)
    assert [a.shape for a in gs._gauge(grid, False)] == [(n, 0), (n, 0)]


@pytest.mark.parametrize("shape", [(4, 2), (10, 5), (32, 16), (64, 32)])
def test_block_lu_solves_the_bordered_system(shape):
    # the block LU with its Schur-complement gauge against a dense bordered
    # solve [[J, U], [C', 0]] [x; mu] = rhs in numpy; J alone only where psi
    # depends on X (otherwise translations are a near-kernel of J)
    grid = gs.SphereGrid(*shape)
    n = grid.n_lat * grid.n_lon
    rng = np.random.default_rng(3)
    for surf, psi in _jacobian_cases(grid):
        coef = gs._jacobian(surf.rho, grid, OP, psi)
        for gauge in (True,) if gs._position_free(psi) else (False, True):
            U, C = gs._gauge(grid, gauge)
            bordered = np.block([[_dense(coef), U], [C.T, np.zeros((U.shape[1],) * 2)]])
            rhs = rng.normal(size=n + U.shape[1])
            want = np.linalg.solve(bordered, rhs)
            got = gs._BlockLU(coef, U, C).solve(rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (psi, gauge)


def test_block_lu_refuses_singular_and_non_finite_blocks():
    grid = gs.SphereGrid(16, 8)
    coef = gs._jacobian(gs.perturbed_sphere(grid, 2.0, 0.05, seed=7).rho, grid, OP,
                        gs.PsiSpec("constant", c=1.25))
    for gauge in (False, True):
        gs._BlockLU(coef, *gs._gauge(grid, gauge))
        with pytest.raises(np.linalg.LinAlgError):
            gs._BlockLU(np.zeros_like(coef), *gs._gauge(grid, gauge))
        bad = coef.copy()
        bad[1, 1, 5, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            gs._BlockLU(bad, *gs._gauge(grid, gauge))
    # J fine, the gauge's Schur complement singular: U = 0 makes S = C'Z zero
    U, C = gs._gauge(grid, True)
    with pytest.raises(np.linalg.LinAlgError):
        gs._BlockLU(coef, np.zeros_like(U), C)


_PSI_FAMILIES = [
    gs.PsiSpec("constant", c=1.25),
    gs.PsiSpec("radial-power", c=2.0, p=3.0),
    gs.PsiSpec("anisotropic-radial", c=3.0, p=2.5, eps=0.3, axis=(1.0, -2.0, 0.5)),
    gs.PsiSpec("manufactured-ellipsoid", axes=(1.0, 2.0, 1.2), op=OP),
    gs._BlendedPsi(gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1), OP, 0.4, 1e-2),
]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_PSI_FAMILIES) - 1),
       data=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       radius=st.floats(0.5, 2.0))
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_psi_complex_step_matches_central_difference(which, data, radius):
    psi = _PSI_FAMILIES[which]
    x, n, dx, dn = np.array(data).reshape(4, 3) + np.array([[0.1, 0.2, 0.3]] + [[0.0] * 3] * 3)
    assume(np.linalg.norm(x) > 0.1)
    X = radius * x / np.linalg.norm(x)
    nu = np.array([n[0], n[1], 1.0]) / np.linalg.norm([n[0], n[1], 1.0])
    cs = psi.evaluate(X + 1e-30j * dx, nu + 1e-30j * dn).imag / 1e-30
    h = 1e-5
    cd = (psi.evaluate(X + h * dx, nu + h * dn) - psi.evaluate(X - h * dx, nu - h * dn)) / (2 * h)
    scale = abs(psi.evaluate(X, nu)) * (1.0 + np.abs(dx).sum() + np.abs(dn).sum())
    assert abs(cs - cd) <= 1e-7 * scale


def test_newton_singular_jacobian_raises(monkeypatch):
    g = gs.SphereGrid(16, 8)
    # constant psi: J is bordered by the 3 gauge rows and columns
    monkeypatch.setattr(gs, "_jacobian", lambda *args: np.zeros((3, 3, *g.shape)))
    initial = gs.perturbed_sphere(g, 2.0, 0.05, seed=7)
    with pytest.raises(ConvergenceError, match="singular Jacobian") as err:
        gs.newton_solve(initial, OP, gs.PsiSpec("constant", c=1.25))
    assert np.array_equal(err.value.last_surface.rho, initial.rho)
    diag = err.value.diagnostics
    assert diag.n_iter == 1
    assert not diag.converged
    # the failed step is recorded once in each per-step list
    assert diag.residual_evals == [6] and diag.factored == [True]
    assert len(diag.jacobian_s) == len(diag.linsolve_s) == 1
    assert diag.line_search_s == [0.0]


def test_newton_holds_one_factor_of_l_inverse_and_g():
    # a factor keeps L_j, D'_j^-1 and G_j: 3 n_lat n_lon^2 doubles.  Newton
    # drops the factor in hand before it builds the next one, and builds
    # none of the blocks it does not keep, so the traced peak of a whole
    # solve stays within twice that
    grid = gs.SphereGrid(64, 32)
    psi = gs.PsiSpec("manufactured-ellipsoid", axes=(1.0, 1.0, 1.2), op=OP)
    initial = gs.RadialSurfaceField.sphere(grid, 1.05)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, diag = gs.newton_solve(initial, OP, psi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert diag.converged and sum(diag.factored) >= 2
    assert peak <= 2 * 3 * grid.n_lat * grid.n_lon**2 * 8


def test_newton_step_solves_the_linear_system_at_128x64(monkeypatch):
    # the step from the block LU solves J s = -F
    grid = gs.SphereGrid(128, 64)
    psi = gs.PsiSpec("manufactured-ellipsoid", axes=(1.0, 1.0, 1.2), op=OP)
    initial = gs.RadialSurfaceField.sphere(grid, 1.05)
    seen = {}

    class Recording(gs._BlockLU):
        def __init__(self, coef, U, C):
            seen["coef"] = coef
            super().__init__(coef, U, C)

        def solve(self, rhs):
            seen["step"] = super().solve(rhs)
            return seen["step"]

    monkeypatch.setattr(gs, "_BlockLU", Recording)
    with pytest.raises(ConvergenceError):
        gs.newton_solve(initial, OP, psi, gs.SolveOptions(max_iter=1, max_halvings=0))
    F = gs._residual_raw(initial.rho, grid, OP, psi)[0]
    coef, step = seen["coef"], seen["step"].reshape(grid.shape)
    r = stencil_matvec(coef, step) + F
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(F)
    # sup norm: the pole rows hold entries near 2.4e6, so rounding alone puts
    # |J s + F| near eps (|J||s| + |F|) ~ 1.5e-10 |F| there; the step must be
    # backward stable row by row
    eps = np.finfo(float).eps
    assert np.max(np.abs(r) / (stencil_matvec(np.abs(coef), np.abs(step)) + np.abs(F))) <= 64 * eps


def _stale_handoff(grid, psi):
    """A handoff holding the LU factor of the Jacobian at another start."""
    other = gs.perturbed_sphere(grid, 2.5, 0.05, seed=1)
    handoff = gs._Handoff()
    handoff.lu = gs._BlockLU(gs._jacobian(other.rho, grid, OP, psi), *gs._gauge(grid, True))
    return handoff


def _bordered_norm(surface, psi):
    """Sup norm of Newton's bordered residual at surface with mu = 0."""
    res = gs._residual_raw(surface.rho, surface.grid, OP, psi)[0]
    C = gs._gauge(surface.grid, True)[1]
    return float(np.max(np.abs(np.concatenate([res.ravel(), surface.rho.ravel() @ C]))))


def test_newton_telemetry_adds_up(monkeypatch):
    # a plain solve, and one handed a stale factor whose chord step fails
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("constant", c=1.25)
    initial = gs.perturbed_sphere(g, 2.0, 0.05, seed=7)
    raw = gs._shape_operator
    for stale in (False, True):
        handoff = _stale_handoff(g, psi) if stale else None
        norms = [_bordered_norm(initial, psi)]
        surfaces = []

        def counting(q, grid):
            surfaces.append(q[0].size // (grid.n_lat * grid.n_lon))
            return raw(q, grid)

        monkeypatch.setattr(gs, "_shape_operator", counting)
        _, diag = gs.newton_solve(initial, OP, psi, None, handoff)
        monkeypatch.setattr(gs, "_shape_operator", raw)
        steps = diag.n_iter - 1
        assert steps > 0
        logs = (diag.residual_evals, diag.jacobian_s, diag.linsolve_s, diag.line_search_s,
                diag.factored)
        for log in logs:
            assert len(log) == steps
            assert all(x >= 0 for x in log)
        norms += [norm for norm, _, _ in diag.iterations[:steps]]
        # the initial residual, then per step: one candidate when a chord
        # step is tried (with a handed-in factor, or after a step that cut
        # the residual below theta times its value); if that fails or none
        # is tried, one call on the Jacobian's 6 complex-step surfaces and
        # one per line-search candidate (every candidate here stays positive)
        want = [1]
        kinds = set()
        for i, (evals, jac_s, factored, (_, scale, halvings)) in enumerate(
                zip(diag.residual_evals, diag.jacobian_s, diag.factored, diag.iterations)):
            tried = stale if i == 0 else norms[i] < gs._CHORD_THETA * norms[i - 1]
            kinds.add((tried, factored))
            assert tried or factored
            if not factored:
                assert evals == 1 and jac_s == 0.0 and (scale, halvings) == (1.0, 0)
                assert norms[i + 1] < gs._CHORD_THETA * norms[i]
                want += [1]
            else:
                assert evals == tried + 6 + halvings + 1 and jac_s > 0.0
                want += [1] * tried + [6] + [1] * (halvings + 1)
        assert surfaces == want
        # both solves take chord steps; only the stale factor's chord step fails
        assert (True, False) in kinds and ((True, True) in kinds) == stale


def test_stale_factor_refactors_to_the_same_solution():
    # a factor from another start fails its chord step: Newton refactors from
    # the same iterate, so the solve is the one without the handed factor
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("constant", c=1.25)
    initial = gs.perturbed_sphere(g, 2.0, 0.05, seed=7)
    fresh, fresh_diag = gs.newton_solve(initial, OP, psi)
    handoff = _stale_handoff(g, psi)
    stale_lu = handoff.lu
    surf, diag = gs.newton_solve(initial, OP, psi, None, handoff)
    assert diag.converged and diag.iterations[-1][0] <= diag.tol
    assert diag.factored[0] and diag.residual_evals[0] == 1 + 6 + diag.iterations[0][2] + 1
    assert np.array_equal(surf.rho, fresh.rho)
    assert diag.iterations == fresh_diag.iterations
    # no chord step is accepted without cutting the residual below theta times
    norms = [_bordered_norm(initial, psi)] + [n for n, _, _ in diag.iterations]
    for i, factored in enumerate(diag.factored):
        assert factored or norms[i + 1] < gs._CHORD_THETA * norms[i]
    # the handoff now holds the factor Newton last built, not the stale one
    assert handoff.lu is not stale_lu and handoff.geometry is not None
    assert sum(diag.factored) < len(diag.factored)


def test_newton_rejects_inadmissible_start():
    g = gs.SphereGrid(16, 8)
    th = g.theta[:, None] + 0 * g.phi[None, :]
    rho = 1.0 + 0.9 * np.cos(2 * th) ** 2
    with pytest.raises(ConeExitError):
        gs.newton_solve(gs.RadialSurfaceField(rho, g), OP, gs.PsiSpec("constant", c=1.0))


def test_newton_failure_reports_rather_than_wrong_answer():
    # a solve that cannot reach tolerance inside its budget must raise with
    # diagnostics and the last iterate attached, never return a surface
    g = gs.SphereGrid(8, 4)
    psi = gs.PsiSpec("radial-power", c=30.0, p=-2.0)
    initial = gs.RadialSurfaceField.sphere(g, 3.0)
    with pytest.raises(ConvergenceError) as err:
        gs.newton_solve(initial, OP, psi, gs.SolveOptions(max_iter=2))
    assert err.value.last_surface is not None
    assert err.value.diagnostics is not None
    assert not err.value.diagnostics.converged


def test_solver_scale_covariance():
    # constant psi matched to radius r solves to the sphere of radius r
    g = gs.SphereGrid(16, 8)
    for r in (0.5, 2.0, 4.0):
        psi = gs.PsiSpec("constant", c=float(q_eval(OP, (1 / r, 1 / r))))
        initial = gs.perturbed_sphere(g, r, 0.03, seed=11)
        surf, diag = gs.newton_solve(initial, OP, psi)
        assert np.abs(surf.rho - r).max() < 1e-7 * max(1.0, r)


def test_rotation_equivariance():
    # rotating the anisotropy axis by one longitude step rotates the solution
    g = gs.SphereGrid(16, 8)
    shift = 1
    angle = 2 * np.pi * shift / g.n_lon
    e1 = (1.0, 0.0, 0.0)
    e2 = (np.cos(angle), np.sin(angle), 0.0)
    sol = {}
    for name, e in (("a", e1), ("b", e2)):
        psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=e)
        surf, _ = gs.newton_solve(gs.RadialSurfaceField.sphere(g, 1.0), OP, psi)
        sol[name] = surf.rho
    rotated = np.roll(sol["a"], shift, axis=1)
    assert np.abs(rotated - sol["b"]).max() <= 1e-6


def test_uniqueness_heuristic_two_starts():
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0, 0, 1))
    s1, _ = gs.newton_solve(gs.perturbed_sphere(g, 1.0, 0.04, seed=1), OP, psi)
    s2, _ = gs.newton_solve(gs.perturbed_sphere(g, 1.1, 0.04, seed=2), OP, psi)
    assert np.abs(s1.rho - s2.rho).max() <= 1e-7


def test_barrier_examples():
    q_round = float(q_eval(OP, (1.0, 1.0)))
    # exact cancellation: psi = Q(1,1)/|X|^k gives zero margins
    psi_eq = gs.PsiSpec("radial-power", c=q_round, p=2.0)
    rep = gs.barrier_check(psi_eq, OP, 0.5, 2.0)
    assert rep.passed
    assert abs(rep.worst_value) < 1e-10
    assert abs(rep.details["monotonicity_margin"]) < 1e-10
    # single-radius mode
    rep_single = gs.barrier_check(gs.PsiSpec("constant", c=q_round / 4), OP, 2.0)
    assert rep_single.passed
    assert abs(rep_single.worst_value) < 1e-12
    # psi growing with |X| violates radial monotonicity
    rep_bad = gs.barrier_check(gs.PsiSpec("radial-power", c=1.0, p=-1.0), OP, 0.5, 2.0)
    assert not rep_bad.passed
    assert rep_bad.witness is not None
    with pytest.raises(DomainError):
        gs.barrier_check(psi_eq, OP, 2.0, 0.5)


@pytest.mark.parametrize("op, psi, r1, r2, mono_worst", [
    (OP, gs.PsiSpec("constant", c=1.25), 0.5, 2.0, True),
    (OP, gs.PsiSpec("radial-power", c=2.0, p=3.0), 0.5, 2.0, True),
    (OP, gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0, 0, 1)), 0.5, 2.0, True),
    (OP, gs.PsiSpec("manufactured-ellipsoid", axes=(1.0, 1.0, 1.2), op=OP), 0.5, 2.0, False),
    # k = 3: here r^3 by numpy's array power would move the margin's last bit
    (OperatorSpec.sum_type(3, 3, 1.0),
     gs.PsiSpec("anisotropic-radial", c=3.0, p=2.5, eps=0.1, axis=(0, 0, 1)), 0.3, 7.1, False),
])
def test_barrier_monotonicity_equals_loop_oracle(op, psi, r1, r2, mono_worst):
    rep = gs.barrier_check(psi, op, r1, r2)
    margin, witness = barrier_monotonicity_loop(psi, op.k, r1, r2, gs._direction_grid())
    assert rep.details["monotonicity_margin"] == margin
    assert (rep.worst_value == margin) == mono_worst
    if mono_worst:
        assert rep.witness == witness


def _small_path():
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0, 0, 1))
    return psi, gs.homotopy_solve(OP, psi, g, 0.5, 2.0, steps=4, eps=1e-2)


def test_monitor_path_summarises_recomputed_records():
    _, path = _small_path()
    records = [gs.curvature_monitor(s) for s in path.surfaces]
    summary = {
        "max_kappa1": max(r["max_kappa1"] for r in records),
        "min_support": min(r["min_support"] for r in records),
        "p_moments": {m: max(r["p_moments"][m] for r in records) for m in (2, 6, 10)},
    }
    assert gs.monitor_path(path) == (records, summary)


def test_path_csv_residual_norm_is_surface_max_residual(tmp_path):
    psi, path = _small_path()
    gs.write_path_csv(tmp_path, path)
    rows = (tmp_path / "path.csv").read_text().strip().splitlines()
    assert rows[0] == "t,max_kappa1,min_support,residual_norm"
    assert len(rows) == 1 + len(path.ts)
    for idx, row in enumerate(rows[1:]):
        lines = (tmp_path / f"surface_{idx:04d}.csv").read_text().strip().splitlines()
        res = [float(line.split(",")[-1]) for line in lines[1:]]
        assert float(row.split(",")[-1]) == max(abs(r) for r in res)
        surf = path.surfaces[idx]
        again = gs.write_solution_csv(tmp_path / "again.csv", surf, OP,
                                      gs._BlendedPsi(psi, OP, path.ts[idx], 1e-2))
        assert again.shape == surf.grid.shape
        assert again.ravel().tolist() == res


def test_path_keeps_newtons_fields_and_csv_evaluates_no_geometry(tmp_path, monkeypatch):
    # each accepted step's residual, curvatures and support come from the
    # Newton solve that accepted it, equal to their recomputation from the
    # surface; write_path_csv then evaluates no geometry
    psi, path = _small_path()
    assert len(path.fields) == len(path.ts)
    for t, surf, (res, kappa, support) in zip(path.ts, path.surfaces, path.fields):
        datum = gs._BlendedPsi(psi, OP, t, 1e-2)
        want, (_, _, shape, want_support) = gs._residual_raw(surf.rho, surf.grid, OP, datum)
        assert np.array_equal(res, want)
        assert np.array_equal(kappa, gs._principal(shape))
        assert np.array_equal(support, want_support)

    def refuse(*args):
        raise AssertionError("write_path_csv evaluated geometry")

    monkeypatch.setattr(gs, "_geometry", refuse)
    gs.write_path_csv(tmp_path, path)
    assert len(list(tmp_path.glob("surface_*.csv"))) == len(path.ts)


def _newton_calls(monkeypatch, fail_at=None, error=ConeExitError):
    """Record (t, start rho) of every newton_solve call homotopy_solve makes;
    call number fail_at raises error instead of solving."""
    calls = []
    solve = gs.newton_solve

    def recorded(initial, op, psi, opts=None, _handoff=None):
        calls.append((psi.t, initial.rho.copy()))
        if len(calls) - 1 == fail_at:
            raise error("injected failure")
        return solve(initial, op, psi, opts, _handoff)

    monkeypatch.setattr(gs, "newton_solve", recorded)
    return calls


def test_homotopy_starts_newton_from_the_secant_prediction(monkeypatch):
    calls = _newton_calls(monkeypatch)
    _, path = _small_path()
    assert path.ts == [0.0, 0.25, 0.5, 0.75, 1.0]
    # call 0 solves t = 0 from the round sphere, call 1 starts from the
    # t = 0 surface, call i >= 2 from the secant through surfaces i-2, i-1
    assert len(calls) == 5
    assert np.array_equal(calls[1][1], path.surfaces[0].rho)
    for i in range(2, 5):
        (t0, t1), (s0, s1) = path.ts[i - 2: i], path.surfaces[i - 2: i]
        want = s1.rho + (calls[i][0] - t1) / (t1 - t0) * (s1.rho - s0.rho)
        assert np.array_equal(calls[i][1], want)


@pytest.mark.parametrize("error", [ConeExitError, ConvergenceError])
def test_homotopy_halves_the_step_when_a_predicted_start_fails(monkeypatch, error):
    # call 2 is the first from a predicted start: it fails, dt halves, and
    # the retry predicts to the nearer t from the same two surfaces
    calls = _newton_calls(monkeypatch, fail_at=2, error=error)
    _, path = _small_path()
    assert [t for t, _ in calls[:4]] == [0.0, 0.25, 0.5, 0.375]
    assert path.ts[:3] == [0.0, 0.25, 0.375] and path.ts[-1] == 1.0
    s0, s1 = path.surfaces[:2]
    assert np.array_equal(calls[3][1], s1.rho + (0.375 - 0.25) / 0.25 * (s1.rho - s0.rho))


def test_non_positive_prediction_is_a_failed_step(monkeypatch):
    calls = _newton_calls(monkeypatch)
    g = gs.SphereGrid(16, 8)
    rho = np.full(g.shape, 1.0)
    rho[2, 3] = -1e-3
    psi = gs._BlendedPsi(gs.PsiSpec("constant", c=2.0), OP, 0.5, 1e-2)
    assert gs._continuation_step(rho, g, OP, psi, None, gs._Handoff()) is None
    assert calls == []   # Newton is not started from it


def _reaches(obj, cls):
    """Whether any object reachable from obj through references is a cls."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (np.ndarray, type)):
            continue
        seen.add(id(o))
        if isinstance(o, cls):
            return True
        todo.extend(gc.get_referents(o))
    return False


def test_continuation_hands_its_factor_on(monkeypatch):
    # criterion 10's path: each continuation step first tries the factor the
    # previous accepted step ended with, so the path factors fewer Jacobians
    # than it takes steps, and no factor stays on what it returns
    factors = []
    block_lu = gs._BlockLU

    class Counting(block_lu):
        def __init__(self, *args):
            super().__init__(*args)
            factors.append(self)

    monkeypatch.setattr(gs, "_BlockLU", Counting)
    psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0.0, 0.0, 1.0))
    path = gs.homotopy_solve(OP, psi, gs.SphereGrid(32, 16), 0.5, 2.0, steps=20, eps=1e-2)
    assert path.ts[-1] == 1.0 and path.final_diagnostics.converged
    assert 0 < len(factors) < len(path.ts) - 1
    assert path.records == [gs.curvature_monitor(s) for s in path.surfaces]
    assert _reaches({"lu": [factors[-1]]}, block_lu)
    assert not _reaches(path, block_lu)


@pytest.mark.parametrize("steps", [2, 3, 4])
def test_homotopy_predictor_raises_no_cone_exit(steps):
    # long steps make long predictions; a start that leaves the cone is a
    # failed step, never an error out of homotopy_solve
    psi = gs.PsiSpec("anisotropic-radial", c=3.0, p=3.0, eps=0.1, axis=(0, 0, 1))
    try:
        path = gs.homotopy_solve(OP, psi, gs.SphereGrid(16, 8), 0.5, 2.0, steps=steps, eps=1e-2)
    except ContinuationError:
        return
    assert path.ts[-1] == 1.0


def test_candidate_outside_psi_domain_halves_the_step():
    # without the barrier check, psi = 2.5 leads the path to large radii: a
    # full Newton step proposes a radius where the blended datum
    # (1 + eps)/r^2 - eps is negative and psi.evaluate raises DomainError.
    # The line search rejects that candidate like any other, so the path
    # ends in ContinuationError, not in the DomainError
    with pytest.raises(ContinuationError) as info:
        gs.homotopy_solve(OP, gs.PsiSpec("constant", c=2.5), gs.SphereGrid(16, 8), 0.5, 2.0,
                          steps=5, eps=0.01, check_barrier=False)
    assert 0.2 < info.value.last_t < 0.25


def test_homotopy_constant_sphere_path():
    # psi already matching a sphere: every accepted step stays round
    g = gs.SphereGrid(16, 8)
    q1 = float(q_eval(OP, (1.0, 1.0)))
    psi = gs.PsiSpec("radial-power", c=q1, p=2.0)
    path = gs.homotopy_solve(OP, psi, g, 0.5, 2.0, steps=5, eps=1e-2)
    assert path.ts[-1] == 1.0
    for surf in path.surfaces:
        assert np.ptp(surf.rho) <= 1e-7
    assert np.abs(path.surfaces[-1].rho - 1.0).max() <= 1e-7


def test_bracketed_root_bisects_to_adjacent_floats():
    r = gs._bracketed_root(lambda r: r * r - 2.0, 1e-3, 1e3)
    after = float(np.nextafter(r, np.inf))
    assert r * r - 2.0 < 0.0 < after * after - 2.0


@pytest.mark.parametrize("f", [lambda r: r * r - 2.0, lambda r: 2.0 - r * r,
                               lambda r: math.exp(-r) - 0.01, lambda r: math.log(r) - 0.3,
                               lambda r: r**5 - 7.77, lambda r: 0.7 - 1.0 / r,
                               lambda r: math.atan(r) - 1.2])
def test_bracketed_root_agrees_with_brentq(f):
    from scipy.optimize import brentq

    r = gs._bracketed_root(f, 1e-3, 1e3)
    grid = np.geomspace(1e-3, 1e3, 121)
    i = np.searchsorted(grid, r, side="right")
    want = brentq(f, grid[i - 1], grid[i], xtol=1e-300, rtol=4 * np.finfo(float).eps)
    assert abs(r - want) <= 2 * np.spacing(r)


def test_homotopy_from_a_round_start_off_the_bracket_grid(monkeypatch):
    # with eps = 0.005, (1 + eps) - eps != 1 in floats, so the comparison
    # datum's round solution is not the grid point 1.0 and the bisection runs
    starts = []
    bracketed = gs._bracketed_root

    def recording(f, lo, hi):
        starts.append(bracketed(f, lo, hi))
        return starts[-1]

    monkeypatch.setattr(gs, "_bracketed_root", recording)
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("constant", c=float(q_eval(OP, (1.0, 1.0))))
    path = gs.homotopy_solve(OP, psi, g, 0.5, 2.0, steps=5, eps=0.005, check_barrier=False)
    [r0] = starts
    assert r0 not in np.geomspace(1e-3, 1e3, 121) and abs(r0 - 1.0) < 1e-15
    diag = path.final_diagnostics
    assert path.ts[-1] == 1.0 and diag.converged and diag.iterations[-1][0] <= diag.tol


def test_homotopy_refuses_bad_barrier():
    g = gs.SphereGrid(16, 8)
    psi = gs.PsiSpec("radial-power", c=1.0, p=-1.0)
    with pytest.raises(DomainError):
        gs.homotopy_solve(OP, psi, g, 0.5, 2.0)


def test_curvature_monitor_sphere():
    g = gs.SphereGrid(16, 8)
    rec = gs.curvature_monitor(gs.RadialSurfaceField.sphere(g, 2.0), z=0.5)
    assert rec["max_kappa1"] == pytest.approx(0.5)
    assert rec["min_support"] == pytest.approx(2.0)
    assert rec["is_convex"]
    for m in (2, 6, 10):
        assert rec["p_moments"][m] == pytest.approx(2 * 0.5**m)
        want = np.log(2 * 0.5**m) - m * 0.5 * np.log(2.0)
        assert rec["test_function"][m] == pytest.approx(want)
    rec0 = gs.curvature_monitor(gs.RadialSurfaceField.sphere(g, 2.0), z=0.0)
    for m in (2, 6, 10):
        assert rec0["test_function"][m] == pytest.approx(np.log(2 * 0.5**m))


def test_solution_csv_roundtrip(tmp_path):
    g = gs.SphereGrid(8, 4)
    psi = gs.PsiSpec("constant", c=float(q_eval(OP, (0.5, 0.5))))
    surf = gs.RadialSurfaceField.sphere(g, 2.0)
    out = tmp_path / "solution.csv"
    gs.write_solution_csv(out, surf, OP, psi)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lon_index,lat_index,phi,theta,rho,kappa1,kappa2,support,residual"
    assert len(lines) == 1 + g.n_lat * g.n_lon
    row = lines[1].split(",")
    assert float(row[4]) == 2.0
    assert float(row[5]) == 0.5
    # identical rewrite is byte-identical
    out2 = tmp_path / "again.csv"
    gs.write_solution_csv(out2, surf, OP, psi)
    assert out.read_bytes() == out2.read_bytes()


def _solution_rows(surface, res):
    """The rows write_solution_csv writes, in the order it writes them."""
    geo = gs.surface_geometry(surface)
    g = surface.grid
    return [[i, j, g.phi[i], g.theta[j], surface.rho[j, i], geo.kappa[j, i, 0],
             geo.kappa[j, i, 1], geo.support[j, i], res[j, i]]
            for j in range(g.n_lat) for i in range(g.n_lon)]


def test_solution_csv_matches_csv_writer_oracle(tmp_path, monkeypatch):
    g = gs.SphereGrid(16, 8)
    surf = gs.perturbed_sphere(g, 2.0, 0.05, seed=3)
    psi = gs.PsiSpec("constant", c=1.25)
    # no surface gives a residual of exactly -0.0 (x - x is +0.0), so one
    # node's residual is set to -0.0 to check that its sign reaches the file
    raw = gs._residual_raw

    def signed_zero(rho, grid, op, psi):
        res, geo = raw(rho, grid, op, psi)
        res[3, 5] = -0.0
        return res, geo

    monkeypatch.setattr(gs, "_residual_raw", signed_zero)
    res = gs.write_solution_csv(tmp_path / "solution.csv", surf, OP, psi)
    assert np.signbit(res[3, 5]) and res[3, 5] == 0.0
    write_csv_rows(tmp_path / "oracle.csv",
                   ["lon_index", "lat_index", "phi", "theta", "rho", "kappa1", "kappa2",
                    "support", "residual"], _solution_rows(surf, res))
    data = (tmp_path / "solution.csv").read_bytes()
    assert data == (tmp_path / "oracle.csv").read_bytes()
    assert b",-0.0\r\n" in data


def test_path_csv_matches_csv_writer_oracle(tmp_path):
    psi, path = _small_path()
    gs.write_path_csv(tmp_path, path)
    rows = []
    for idx, (t, surf, rec) in enumerate(zip(path.ts, path.surfaces, path.records)):
        res = gs.write_solution_csv(tmp_path / "again.csv", surf, OP,
                                    gs._BlendedPsi(psi, OP, t, 1e-2))
        assert (tmp_path / "again.csv").read_bytes() == \
            (tmp_path / f"surface_{idx:04d}.csv").read_bytes()
        rows.append([t, rec["max_kappa1"], rec["min_support"], float(np.max(np.abs(res)))])
    write_csv_rows(tmp_path / "oracle.csv", ["t", "max_kappa1", "min_support", "residual_norm"],
                   rows)
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
