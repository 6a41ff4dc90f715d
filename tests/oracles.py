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
