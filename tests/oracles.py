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


def stencil_matvec(coef, x):
    """J x for the 9-point stencil coef[dj+1, di+1, j, i] on a half-offset
    latitude-longitude grid, x of shape (n_lat, n_lon, ...), entry by entry:
    row (j, i) reads node (j+dj, (i+di) mod n_lon), or (j, (i+di+n_lon/2)
    mod n_lon) when j+dj falls across a pole.  J = stencil_matvec(coef,
    identity) is the dense matrix."""
    _, _, n_lat, n_lon = coef.shape
    out = np.zeros(np.shape(x))
    for (a, b, j, i), c in np.ndenumerate(coef):
        nj, ni = j + a - 1, i + b - 1
        if not 0 <= nj < n_lat:
            nj, ni = j, ni + n_lon // 2
        out[j, i] += c * x[nj, ni % n_lon]
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


def sample_one(spec, rng):
    """One cone point drawn from the numpy generator rng through the
    scans' candidate map and margin check, or None after cones._MAX_TRIES
    tries.  Try r reads 4*ceil((2n+3)/4) doubles of rng; the tries are drawn
    in passes of try 0 alone, then 1-7, 8-15, 16-23, ..., and the first
    accepted try is kept, so a caller that goes on drawing from rng sees
    the same stream on every run."""
    from symcurv import cones

    width = 4 * -(-(2 * spec.n + 3) // 4)
    r = 0
    while r < cones._MAX_TRIES:
        rounds = 1 if r == 0 else min(cones._MAX_TRIES - r, 8 - r % 8)
        u = rng.random((rounds, 1, width))[:, 0]
        cand = cones._candidates(spec, u, u[:, spec.n] < cones._BOUNDARY_BIAS)
        ok = cones.cone_margins_batch(spec, cand) >= spec.tol
        if ok.any():
            return tuple(cand[ok.argmax()].tolist())
        r += rounds
    return None


_M64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix13(z):
    """Stafford's Mix13 finalizer over Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def splitmix64(seed, start=0):
    """The sequential SplitMix64 generator of a seed over Python ints
    (Steele, Lea & Flood, OOPSLA 2014), from its start-th draw on.  The
    state starts at key + start * gamma, with key = mix13(seed * golden)
    and gamma = mix13(key + golden) | 1, flipped by 0xAA..A when it has
    fewer than 24 bit transitions; each step yields
    (mix13(state) >> 11) * 2^-53 and then adds gamma to the state."""
    key = mix13(seed * _GOLDEN & _M64)
    gamma = mix13((key + _GOLDEN) & _M64) | 1
    if bin(gamma ^ (gamma >> 1)).count("1") < 24:
        gamma ^= 0xAAAAAAAAAAAAAAAA
    state = (key + start * gamma) & _M64
    while True:
        yield (mix13(state) >> 11) * 2.0**-53
        state = (state + gamma) & _M64


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


def full_chain_real_rooted(coeffs):
    """The exact decision with the whole Sturm chain, as real_rooted made it
    before its early exit: every signed pseudo-remainder of f and f' (f the
    primitive integer polynomial of coeffs), V(-inf) - V(+inf) distinct
    real roots counted against deg f - deg gcd(f, f') distinct roots, and
    np.roots of every factor of Yun's square-free decomposition, the
    constant gcd included, scaled by 2^e and rebuilt with ldexp.  It reuses
    hypcheck's integer arithmetic, so it checks the shortcuts taken on top
    of it (and the float roots), not that arithmetic."""
    from symcurv import hypcheck as h

    def float_roots(p):
        d, j = len(p) - 1, next(i for i, c in enumerate(p) if c)
        e = round((abs(p[j]).bit_length() - abs(p[d]).bit_length()) / (d - j)) if d > j else 0
        q = [c << e * m if e >= 0 else c << -e * (d - m) for m, c in enumerate(p)]
        top = 1 << max(0, max(abs(c).bit_length() for c in q) - 1000)
        raw = np.roots([c / top for c in reversed(q)])
        return np.ldexp(raw.real, e) + 1j * np.ldexp(raw.imag, e)

    f = h._integer_poly(list(coeffs))
    if len(f) == 1:
        return h.RealRootedResult(True, "exact", roots=())
    chain = [f, h._primitive(h._deriv(f))]
    while len(chain[-1]) > 1 and (r := h._prem(chain[-2], chain[-1])):
        chain.append([-c for c in r])
    plus = [q[-1] > 0 for q in chain]  # signs at +inf; at -inf they flip for odd degree
    minus = [s == (len(q) % 2 == 1) for s, q in zip(plus, chain)]
    v_minus, v_plus = (sum(x != y for x, y in zip(s, s[1:])) for s in (minus, plus))
    if v_minus - v_plus != len(f) - len(chain[-1]):
        return h.RealRootedResult(False, "exact", witness=h._complex_pair(float_roots(f)))
    roots = [float(r.real) for factor, mult in h._squarefree(f, h._primitive(chain[-1]))
             for r in float_roots(factor) for _ in range(mult)]
    return h.RealRootedResult(True, "exact", roots=tuple(sorted(roots)))


def _roots_rows(poly):
    """Roots of each row's polynomial (rows, deg+1), constant first, padded
    with nan: eigenvalues of the stacked companion matrices np.roots
    builds, np.roots itself on a row whose leading coefficient is 0."""
    rows, deg = poly.shape[0], poly.shape[1] - 1
    out = np.full((rows, deg), np.nan, dtype=complex)
    full = poly[:, -1] != 0.0
    comp = np.zeros((int(full.sum()), deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, 0] = -poly[full, -2::-1] / poly[full, -1:]
    out[full] = np.linalg.eigvals(comp)
    for r in np.flatnonzero(~full):
        roots = np.roots(poly[r, ::-1])
        out[r, : roots.size] = roots
    return out


def cone_exit_roots(spec, p, v):
    """Per row of p, v (m, n): the smallest real root r in (0, 1] over all
    the cone's defining polynomials along s -> p + s (v - p) (sigma_1..sigma_k
    for Gamma_k; sigma_1..sigma_{k-1} and alpha sigma_{k-1} + sigma_k for
    Gamma~_k), inf where none has one; and whether r is simple in a sense
    float64 resolves: 2^-40 |f|(r) / |f'(r)| < 1e-7, with f its polynomial
    and |f| the same expansion over |p|, |v - p| and alpha (a bound on
    f's rounding error, so that f's float sign is right outside that
    distance of r).

    The coefficients in s come from the product expansion of
    prod_i (1 + x (p_i + s d_i)), written out here over a (rows, k+1, k+1)
    array, and the roots from numpy's companion-matrix eigenvalues per row,
    polished by two Newton steps; no grid search and no reduction to one
    polynomial is shared with the sampler."""
    p = np.asarray(p, float)
    d = np.asarray(v, float) - p
    rows, k = p.shape[0], spec.k

    def expansion(p, d):
        coef = np.zeros((rows, k + 1, k + 1))  # [row, m, j]: x^m s^j
        coef[:, 0, 0] = 1.0
        for i in range(p.shape[1]):
            old = coef.copy()
            coef[:, 1:, :] += p[:, i, None, None] * old[:, :-1, :]
            coef[:, 1:, 1:] += d[:, i, None, None] * old[:, :-1, :-1]
        polys = [coef[:, m, : m + 1] for m in range(1, k + 1)]
        if spec.kind == "tilde":
            polys[-1] = polys[-1] + np.pad(spec.alpha * coef[:, k - 1, :k], ((0, 0), (0, 1)))
        return polys

    def value(poly, s):
        return sum(c * s**j for j, c in enumerate(poly.T))

    best = np.full(rows, np.inf)
    simple = np.zeros(rows, dtype=bool)
    for poly, size in zip(expansion(p, d), expansion(np.abs(p), np.abs(d))):
        roots = _roots_rows(poly)
        real = (np.abs(roots.imag) <= 1e-6) & (roots.real > 0.0) & (roots.real <= 1.0)
        rows_in = np.flatnonzero(real.any(axis=1))
        poly, size = poly[rows_in], size[rows_in]
        deriv = poly[:, 1:] * np.arange(1, poly.shape[1])
        r = np.where(real[rows_in], roots[rows_in].real, np.inf).min(axis=1)
        for _ in range(2):
            r = r - value(poly, r) / value(deriv, r)
        first = r < best[rows_in]
        best[rows_in[first]] = r[first]
        with np.errstate(divide="ignore"):
            simple[rows_in[first]] = (2.0**-40 * value(size, r) / np.abs(value(deriv, r)))[first] < 1e-7
    return best, simple


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
