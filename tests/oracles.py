"""Independent brute-force oracles used by the tests.

These stay deliberately naive (subset enumeration, plain finite
differences) so they share no code path with the implementations they
check.
"""

from itertools import combinations

import numpy as np


def elem_sym_enumerate(lam, m):
    """sigma_m by explicit subset enumeration."""
    lam = tuple(lam)
    if m == 0:
        return 1
    total = 0
    for idx in combinations(range(len(lam)), m):
        prod = 1
        for i in idx:
            prod = prod * lam[i]
        total = total + prod
    return total


def polarized_enumerate(lam, mu, l, k):
    """sigma_{l,k-l} by enumerating ordered pairs of disjoint index subsets."""
    lam, mu = tuple(lam), tuple(mu)
    n = len(lam)
    total = 0
    for idx_i in combinations(range(n), l):
        rest = [j for j in range(n) if j not in idx_i]
        for idx_j in combinations(rest, k - l):
            prod = 1
            for i in idx_i:
                prod = prod * lam[i]
            for j in idx_j:
                prod = prod * mu[j]
            total = total + prod
    return total


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    fx = f(x)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i, i] = (f(x + e) - 2 * fx + f(x - e)) / h**2
        for j in range(i + 1, n):
            d = np.zeros(n)
            d[i] = d[j] = h
            fpp = f(x + d)
            d[j] = -h
            fpm = f(x + d)
            d[i], d[j] = -h, h
            fmp = f(x + d)
            d[j] = -h
            fmm = f(x + d)
            out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4 * h**2)
    return out


def fd_second_directional(s_values_fn, h=1e-5):
    """d^2/ds^2 at s=0 of a scalar function given via s -> value."""
    return (s_values_fn(h) - 2.0 * s_values_fn(0.0) + s_values_fn(-h)) / h**2


def fd_jacobian_dense(f, x, steps):
    """Dense forward-difference Jacobian of a vector function: column j is
    (f(x + steps[j] e_j) - f(x)) / steps[j], one call of f per column."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    out = np.zeros((fx.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = steps[j]
        out[:, j] = (np.asarray(f(x + e), dtype=float) - fx) / steps[j]
    return out


def cs_jacobian_dense(f, x, h=1e-30):
    """Dense complex-step Jacobian of a vector function that accepts complex
    input: column j is Im f(x + i h e_j) / h, one call of f per column."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((np.asarray(f(x)).size, x.size))
    for j in range(x.size):
        z = x.astype(complex)
        z[j] += 1j * h
        out[:, j] = np.asarray(f(z)).imag / h
    return out


def ellipsoid_curvatures(points, axes):
    """Principal curvatures (descending) of the ellipsoid at on-surface points.

    Closed-form via the implicit surface F = sum (x_i/a_i)^2 - 1: the shape
    operator is the tangential restriction of Hess F / |grad F|, in a
    tangent frame built by cross products.
    """
    p = np.asarray(points, float)
    a2 = np.asarray(axes, float) ** 2
    grad = 2.0 * p / a2
    gn = np.linalg.norm(grad, axis=-1)
    m = grad / gn[..., None]
    # tangent frame: cross with whichever coordinate axis is far from m
    helper = np.zeros_like(m)
    use_z = np.abs(m[..., 2]) < 0.9
    helper[..., 2] = np.where(use_z, 1.0, 0.0)
    helper[..., 0] = np.where(use_z, 0.0, 1.0)
    t1 = np.cross(helper, m)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(m, t1)
    # S_ij = t_i . (Hess F) t_j / |grad F|, Hess F = diag(2/a_i^2)
    h11 = (2.0 * t1 * t1 / a2).sum(axis=-1) / gn
    h12 = (2.0 * t1 * t2 / a2).sum(axis=-1) / gn
    h22 = (2.0 * t2 * t2 / a2).sum(axis=-1) / gn
    tr = h11 + h22
    disc = np.sqrt(np.maximum((h11 - h22) ** 2 + 4.0 * h12**2, 0.0))
    return np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0], axis=-1)


def kappa_residual(op, shape, X, nu, psi):
    """Q(kappa) - psi per node, with kappa the eigenvalue pair of the
    symmetric shape operator [[s11, s12], [s12, s22]] (numpy's eigvalsh) and
    Q through sigma_all_batch on it.  A manufactured-ellipsoid psi is Q of
    ellipsoid_curvatures at the radial projection of X onto the ellipsoid."""
    from symcurv.geomsolve import ellipsoid_radial_graph
    from symcurv.symfun import sigma_all_batch

    def q(kappa):
        return sigma_all_batch(kappa, op.k) @ np.array([float(a) for a in op.alphas])

    s11, s12, s22 = shape
    kappa = np.linalg.eigvalsh(np.stack([np.stack([s11, s12], -1),
                                         np.stack([s12, s22], -1)], -2))
    if getattr(psi, "family", None) == "manufactured-ellipsoid":
        d = X / np.linalg.norm(X, axis=-1, keepdims=True)
        point = ellipsoid_radial_graph(d, psi.axes)[..., None] * d
        return q(kappa) - q(ellipsoid_curvatures(point, psi.axes))
    return q(kappa) - psi.evaluate(X, nu)


def barrier_monotonicity_loop(psi, k, r1, r2, dirs, n_rho=33):
    """Radial monotonicity margin of rho^k psi over [r1, r2], one psi call
    per (normal, radius) pair: for each normal nu (the directions, then
    +-e_1..e_3), centered differences of r^k psi(r * dirs, nu) over the
    radii, min(-d/drho) / (1 + max|r^k psi| / (r2 - r1)).  Returns the
    smallest such margin and the (point, normal) of its first strict
    minimum."""
    rhos = np.linspace(r1, r2, n_rho)
    nus = np.concatenate([dirs, np.eye(3), -np.eye(3)], axis=0)
    worst, witness = np.inf, None
    for nu in nus:
        nu_rows = np.broadcast_to(nu, dirs.shape)
        g = np.zeros((n_rho, len(dirs)))
        for a, r in enumerate(rhos):
            g[a] = r**k * psi.evaluate(r * dirs, nu_rows)
        dg = (g[2:] - g[:-2]) / (2.0 * (rhos[1] - rhos[0]))
        m = float(np.min(-dg) / (1.0 + np.max(np.abs(g)) / (r2 - r1)))
        if m < worst:
            a, b = np.unravel_index(int(np.argmin(-dg)), dg.shape)
            worst, witness = m, (tuple(rhos[a + 1] * dirs[b]), tuple(nu))
    return worst, witness


def in_cone_exact(kind, point, k, alpha=0):
    """Strict membership of the exact rational value of a float point:
    sigma_1..sigma_k > 0 for Gamma_k ('garding'); sigma_1..sigma_{k-1} > 0
    and alpha*sigma_{k-1} + sigma_k > 0 for Gamma~_k ('tilde')."""
    from fractions import Fraction

    lam = [Fraction(v) for v in point]
    sig = [elem_sym_enumerate(lam, m) for m in range(k + 1)]
    if kind == "garding":
        return all(s > 0 for s in sig[1:])
    return all(s > 0 for s in sig[1:k]) and Fraction(alpha) * sig[k - 1] + sig[k] > 0


def normalized_margin_exact(kind, point, k, alpha=0):
    """The cone margin of a float point over its exact rational value:
    min over m of sigma_m / (C(n,m) max|x|^m) (m = 1..k for Gamma_k,
    m = 1..k-1 and the alpha*sigma_{k-1} + sigma_k quotient for Gamma~_k)."""
    from fractions import Fraction
    from math import comb

    lam = [Fraction(v) for v in point]
    n, top = len(lam), max(abs(v) for v in lam)
    if top == 0:
        return Fraction(0)
    sig = [elem_sym_enumerate(lam, m) for m in range(k + 1)]
    upto = k if kind == "garding" else k - 1
    qs = [sig[m] / (comb(n, m) * top**m) for m in range(1, upto + 1)]
    if kind == "tilde":
        a = Fraction(alpha)
        qs.append((a * sig[k - 1] + sig[k]) / (comb(n, k) * top**k + a * comb(n, k - 1) * top ** (k - 1)))
    return min(qs)


def rooted_product(linear, quadratic_c=None):
    """Coefficients (constant first, exact) of prod (a t + b)^m over
    linear = [(a, b, m), ...], times t^2 + c when quadratic_c = c is given,
    by repeated schoolbook multiplication; with the real roots -b/a
    repeated m times, sorted."""
    from fractions import Fraction

    factors = [[b, a] for a, b, m in linear for _ in range(m)]
    if quadratic_c is not None:
        factors.append([quadratic_c, 0, 1])
    coeffs = [1]
    for f in factors:
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(f):
                out[i + j] = out[i + j] + x * y
        coeffs = out
    roots = sorted(Fraction(-b, a) for a, b, m in linear for _ in range(m))
    return coeffs, roots


def ladder_top_full(spec, p, v):
    """The sampler's boundary ladder evaluated at all 48 points: per row of
    p, v (m, n), the largest position j in 1..48 whose blend
    (1 - L_j) p + L_j v, L = linspace(1/48, 1, 48), has cone margin > tol;
    0 when none has.  Margins come from cone_margins_batch, so only the
    search along the ladder differs from the sampler's."""
    from symcurv.cones import cone_margins_batch

    ladder = np.linspace(1.0 / 48, 1.0, 48)
    feasible = np.stack([cone_margins_batch(spec, (1.0 - lam) * p + lam * v) > spec.tol
                         for lam in ladder], axis=1)
    return np.where(feasible.any(axis=1), 48 - np.argmax(feasible[:, ::-1], axis=1), 0)


def write_csv_rows(path, header, rows):
    """csv.writer with its defaults, one writerow per row; float cells
    written as repr(float(x)), other cells as csv.writer converts them."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                        for x in row])
