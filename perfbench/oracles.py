"""Arithmetic the benchmark checks symcurv's outputs against.

Everything here is written from the definitions (subset enumeration, the
factorial transform, the ellipsoid equation) over exact rationals where the
inputs allow it, and shares no code with symcurv.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod


def sigma_enum(values, m):
    """sigma_m by enumerating index subsets; exact for Fraction input.

    Zero entries cannot contribute to any product, so they are dropped
    before enumerating (sigma_m of the rest is the same number).
    """
    if m == 0:
        return 1
    live = [v for v in values if v != 0]
    return sum((prod(sub) for sub in combinations(live, m)), 0)


def sigma_deleted_enum(values, m, i):
    """sigma_m of values with entry i removed."""
    return sigma_enum([v for j, v in enumerate(values) if j != i], m)


def exact(values):
    """Fractions holding the exact binary value of each float."""
    return [Fraction(v) for v in values]


def in_garding(values, k):
    """sigma_1..sigma_k all strictly positive (exact on the float values)."""
    x = exact(values)
    return all(sigma_enum(x, m) > 0 for m in range(1, k + 1))


def in_cone(kind, values, k, alpha=0.0):
    """Membership of Gamma_k ('garding') or Gamma~_k ('tilde'), exactly."""
    if kind == "garding":
        return in_garding(values, k)
    x = exact(values)
    a = Fraction(alpha)
    return in_garding(values, k - 1) and a * sigma_enum(x, k - 1) + sigma_enum(x, k) > 0


def normalized_margin(kind, values, k, alpha=0.0):
    """Smallest of sigma_m / (C(n,m) top^m), m < k (m <= k for 'garding'),
    and for 'tilde' (alpha sigma_{k-1} + sigma_k) / (C(n,k) top^k +
    alpha C(n,k-1) top^(k-1)); top = max |x_i|."""
    x = exact(values)
    n = len(x)
    top = max(abs(v) for v in x)
    if top == 0:
        return 0.0
    upto = k if kind == "garding" else k - 1
    out = [sigma_enum(x, m) / (comb(n, m) * top**m) for m in range(1, upto + 1)]
    if kind == "tilde":
        a = Fraction(alpha)
        q = a * sigma_enum(x, k - 1) + sigma_enum(x, k)
        out.append(q / (comb(n, k) * top**k + a * comb(n, k - 1) * top ** (k - 1)))
    return float(min(out))


def min_q_ii(alphas, values):
    """min_i sum_s alpha_s sigma_{s-1}(lam | i), exactly."""
    x = exact(values)
    a = [Fraction(c) for c in alphas]
    return min(
        sum(a[s] * sigma_deleted_enum(x, s - 1, i) for s in range(1, len(a)) if a[s])
        for i in range(len(x))
    )


def alpha_prime(n, k, alphas):
    """alpha'_m = (n-k)! alpha_{k-m} / (n-k+m)!, m = 0..k, after scaling the
    coefficients so that alpha_k = 1."""
    a = [Fraction(c) / Fraction(alphas[k]) for c in alphas]
    return [a[k - m] * factorial(n - k) / factorial(n - k + m) for m in range(k + 1)]


def witness_error(n, k, alphas, b):
    """Largest defect of sigma_m(b) = alpha'_m over m = 0..k.

    Exact Fraction witnesses return the exact largest |difference|; float
    witnesses return the largest |difference| / (1 + |alpha'_m|), with
    sigma_m(b) taken over the exact binary values of b.
    """
    ap = alpha_prime(n, k, alphas)
    is_exact = all(isinstance(v, (int, Fraction)) for v in b)
    bx = exact(b)
    worst = Fraction(0)
    for m in range(k + 1):
        diff = abs(sigma_enum(bx, m) - ap[m])
        worst = max(worst, diff if is_exact else diff / (1 + abs(ap[m])))
    return worst


def real_root_count(coeffs):
    """Real roots with multiplicity of sum_i coeffs[i] t^i, from sympy.

    Counts the real roots of each square-free factor (Sturm, in sympy) and
    weights them by the factor's multiplicity.  Returns (count, degree,
    square_free).
    """
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
                       else sympy.Integer(c) for c in reversed(coeffs)], t, domain="QQ")
    if poly.degree() <= 0:
        return 0, max(poly.degree(), 0), True
    _, factors = poly.sqf_list()
    count = sum(mult * f.count_roots() for f, mult in factors)
    return count, poly.degree(), all(mult == 1 for _, mult in factors)


def midpoint_defect(f, x, direction, eps):
    """2 f(x) - f(x + eps xi) - f(x - eps xi) over the exact float values."""
    xe, de, e = exact(x), exact(direction), Fraction(eps)
    plus = [a + e * b for a, b in zip(xe, de)]
    minus = [a - e * b for a, b in zip(xe, de)]
    return 2 * f(xe) - f(plus) - f(minus)


def sphere_grid_directions(n_lon, n_lat):
    """Unit directions of the half-offset latitude-longitude grid, as nested
    lists [lat][lon] of (x, y, z): theta_j = (j+1/2) pi / n_lat,
    phi_i = 2 pi i / n_lon."""
    from math import cos, pi, sin

    out = []
    for j in range(n_lat):
        th = (j + 0.5) * pi / n_lat
        out.append([(sin(th) * cos(2 * pi * i / n_lon), sin(th) * sin(2 * pi * i / n_lon),
                     cos(th)) for i in range(n_lon)])
    return out


def ellipsoid_radius(direction, axes):
    """Distance from the origin to sum (x_i/a_i)^2 = 1 along a unit direction."""
    return 1.0 / sum((d / a) ** 2 for d, a in zip(direction, axes)) ** 0.5
