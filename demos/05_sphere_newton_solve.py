"""Prescribed-curvature solves on starshaped surfaces.

Newton iteration on the radial graph: a perturbed sphere relaxes back to
the round solution of Q(kappa) = const, and a manufactured ellipsoid datum
is recovered with second-order accuracy under grid refinement.
"""

import numpy as np

from symcurv import geomsolve as gs
from symcurv.combop import OperatorSpec, q_eval

op = OperatorSpec.sum_type(2, 2, 1.0)  # sigma_2 + sigma_1 in the two curvatures

print("sphere fixed point: psi = Q(1/2, 1/2) = 5/4, start at 2*(1 + 0.05*smooth noise)")
grid = gs.SphereGrid(32, 16)
psi = gs.PsiSpec("constant", c=float(q_eval(op, (0.5, 0.5))))
initial = gs.perturbed_sphere(grid, 2.0, 0.05, seed=42)
surf, diag = gs.newton_solve(initial, op, psi)
print(f"  converged in {diag.n_iter - 1} iterations, {sum(diag.factored)} of them with a "
      "fresh LU factor (the rest are chord steps)")
print("  residual history:", ["%.1e" % it[0] for it in diag.iterations])
print(f"  max |rho - 2| = {np.abs(surf.rho - 2.0).max():.2e}")

print("\nmanufactured ellipsoid (axes 1, 1, 1.2): psi carries the analytic")
print("curvatures of the ellipsoid, the solver recovers its radial graph:")
axes = (1.0, 1.0, 1.2)
psi_ell = gs.PsiSpec("manufactured-ellipsoid", axes=axes, op=op)
errs = []
for n_lon, n_lat in [(16, 8), (32, 16), (64, 32)]:
    g = gs.SphereGrid(n_lon, n_lat)
    solved, d = gs.newton_solve(gs.RadialSurfaceField.sphere(g, 1.05), op, psi_ell)
    r_hat, _, _ = g.unit_vectors()
    exact = gs.ellipsoid_radial_graph(r_hat, axes)
    errs.append(np.abs(solved.rho - exact).max())
    print(f"  {n_lon:3d}x{n_lat:<3d} grid: {d.n_iter - 1} iterations "
          f"({sum(d.factored)} factored), "
          f"L-inf(rho) error {errs[-1]:.3e}")
print("  refinement ratios:", ", ".join(f"{a / b:.2f}" for a, b in zip(errs, errs[1:])),
      "(second order = 4)")

print("\ncurvature diagnostics of the solved surface:")
record = gs.curvature_monitor(solved, z=0.5)
print(f"  max kappa_1 = {record['max_kappa1']:.4f}, min support = "
      f"{record['min_support']:.4f}, convex = {record['is_convex']}")
print("  power sums P_m (max over nodes):",
      {m: round(v, 4) for m, v in record["p_moments"].items()})

out = "demo_solution.csv"
gs.write_solution_csv(out, solved, op, psi_ell)
print(f"\nwrote per-node solution table to {out}")
