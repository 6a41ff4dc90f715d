"""Calculus of elementary symmetric polynomials.

Eigenvalue/curvature vectors are plain sequences (list, tuple or 1-d
ndarray).  Entries may be ints, floats or ``fractions.Fraction``; all
routines here use generic Python arithmetic, so results are exact whenever
the inputs are exact rationals.  No routine reorders its input.

``sigma_m`` conventions: sigma_0 = 1, and the recurrences treat sigma_m = 0
for m beyond the vector length.  The public ``elem_sym`` entry point
enforces 0 <= m <= n as a hard contract.
"""

import math
from math import comb

import numpy as np

from .errors import DegenerateInputError, DomainError

__all__ = [
    "Jet",
    "elem_sym",
    "elem_sym_deleted",
    "sigma_all",
    "sigma_all_batch",
    "sigma_grad",
    "sigma_hess",
    "polarized_sigma",
    "profile_table",
    "newton_maclaurin_gap",
    "matrix_symfun_second_derivative",
    "delete_entries",
]


def as_tuple(lam):
    """Validate an eigenvalue vector and return it as a tuple."""
    values = tuple(lam)
    if len(values) < 1:
        raise DomainError("eigenvalue vector must have at least one entry")
    for x in values:
        if isinstance(x, (float, np.floating)) and not math.isfinite(x):
            raise DomainError(f"non-finite entry {x!r} in eigenvalue vector")
    return values


def sigma_all(lam, upto=None):
    """All sigma_0..sigma_upto of lam in one pass of the product recurrence.

    Expands prod_i (1 + t*lam_i); entry j of the result is sigma_j.  Cost
    O(n*upto), stable (no subtractions beyond those present in the data).
    """
    values = as_tuple(lam)
    n = len(values)
    m = n if upto is None else upto
    e = [1] + [0] * m
    for i, x in enumerate(values):
        for j in range(min(i + 1, m), 0, -1):
            e[j] = e[j] + x * e[j - 1]
    return e


def elem_sym(lam, m):
    """sigma_m(lam), the m-th elementary symmetric polynomial."""
    values = as_tuple(lam)
    n = len(values)
    if not 0 <= m <= n:
        raise DomainError(f"m={m} out of range 0..{n}")
    return sigma_all(values, m)[m]


def delete_entries(lam, omit):
    """Copy of lam with the 0-based indices in omit removed."""
    values = as_tuple(lam)
    n = len(values)
    omit = tuple(omit)
    seen = set()
    for i in omit:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise DomainError(f"invalid index {i!r} for vector of length {n}")
        if i in seen:
            raise DomainError(f"repeated index {i} in omit set")
        seen.add(i)
    return tuple(x for i, x in enumerate(values) if i not in seen)


def elem_sym_deleted(lam, m, omit):
    """sigma_m(lam|omit): sigma_m of lam with the given entries removed."""
    rest = delete_entries(lam, omit)
    if not 0 <= m <= len(rest):
        raise DomainError(f"m={m} out of range 0..{len(rest)}")
    return _combine((0,) * m + (1,), rest)


def _combine(coeffs, values):
    """sum_s coeffs[s] * sigma_s(values) from one pass of the product
    recurrence over a possibly empty tuple (sigma_s = 0 for s past its
    length); exact for exact input, zero coefficients add nothing."""
    upto = len(coeffs) - 1
    total = 0
    for c, e in zip(coeffs, sigma_all(values, upto) if values else [1] + [0] * upto):
        if c != 0:
            total = total + c * e
    return total


def _deleted_sums(coeffs, values, order):
    """sum_s coeffs[s] * sigma_{s-order}(values|I) over the deleted index
    sets I of size order: the list over I = {i} for order 1, the symmetric
    matrix over I = {p, q} for order 2, whose diagonal is the zero of the
    coefficients' type (int 0 for int coefficients)."""
    n, rest = len(values), coeffs[order:]
    if order == 1:
        return [_combine(rest, values[:i] + values[i + 1:]) for i in range(n)]
    zero = sum(c * 0 for c in rest if c != 0)
    out = [[zero] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            out[p][q] = out[q][p] = _combine(rest, values[:p] + values[p + 1: q] + values[q + 1:])
    return out


def sigma_grad(lam, k):
    """Gradient of sigma_k: component i is sigma_{k-1}(lam|i)."""
    values = as_tuple(lam)
    n = len(values)
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    return _deleted_sums((0,) * k + (1,), values, 1)


def sigma_hess(lam, k):
    """Hessian of sigma_k: entry (p,q) is sigma_{k-2}(lam|pq) for p != q, 0 on the diagonal."""
    values = as_tuple(lam)
    n = len(values)
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    return _deleted_sums((0,) * k + (1,), values, 2)


def profile_table(p, d, k):
    """Coefficients of prod_i (1 + x*(p_i + s*d_i)) up to x^k for each row
    of the (rows, n) arrays p and d: shape (k+1, k+1, rows), entry [m, j]
    the coefficient of x^m s^j (0 for j > m), the sum of p_I d_J over
    disjoint index sets with |I| = m - j and |J| = j.  Row m holds the
    coefficients in s of sigma_m(p + s*d), constant first.  Float arrays
    give a float table; object arrays (ints, Fractions, floats) one in
    Python arithmetic, exact for exact entries."""
    p, d = np.asarray(p), np.asarray(d)
    # u[a, b]: the terms with a entries of p and b of d
    u = np.zeros((k + 1, k + 1) + p.shape[:1], dtype=p.dtype)
    u[0, 0] = 1
    for i, (pi, di) in enumerate(zip(p.T, d.T)):
        # after i factors only entries with a + b <= i are nonzero; both
        # products read the previous factor's table
        top = min(i + 1, k)
        from_p, from_d = pi * u[:top, :top + 1], di * u[:top + 1, :top]
        u[1:top + 1, :top + 1] += from_p
        u[:top + 1, 1:top + 1] += from_d
    m, j = np.tril_indices(k + 1)
    table = np.zeros_like(u)
    table[m, j] = u[m - j, j]
    return table


def polarized_sigma(lam, mu, l, k):
    """Mixed form sigma_{l,k-l}(lam, mu): sum over disjoint index sets.

    Sums lam_I * mu_J over all disjoint pairs of index subsets with |I| = l
    and |J| = k - l.  With this (unit-constant) normalization the blend
    expansion holds exactly:

        sigma_k(t*lam + (1-t)*mu) = sum_l t^l (1-t)^(k-l) sigma_{l,k-l}(lam, mu)

    Read from profile_table with p = mu and d = lam: the coefficient of
    x^k s^l in prod_i (1 + x*(mu_i + s*lam_i)).
    """
    a = as_tuple(lam)
    b = as_tuple(mu)
    n = len(a)
    if len(b) != n:
        raise DomainError(f"dimension mismatch: {n} vs {len(b)}")
    if not (0 <= l <= k <= n):
        raise DomainError(f"need 0 <= l <= k <= n, got l={l}, k={k}, n={n}")
    return profile_table(np.array([b], dtype=object), np.array([a], dtype=object), k)[k, l, 0]


def newton_maclaurin_gap(lam, k):
    """p_{k-1}^2 - p_k * p_{k-2} with p_m = sigma_m / C(n,m); >= 0 for all real lam."""
    values = as_tuple(lam)
    n = len(values)
    if not 2 <= k <= n:
        raise DomainError(f"k={k} out of range 2..{n}")
    e = sigma_all(values, k)
    exact = all(not isinstance(x, (float, np.floating)) for x in values)
    if exact:
        from fractions import Fraction

        p = [Fraction(e[m]) / comb(n, m) for m in range(k + 1)]
    else:
        p = [e[m] / comb(n, m) for m in range(k + 1)]
    return p[k - 1] * p[k - 1] - p[k] * p[k - 2]


def matrix_symfun_second_derivative(k, a_diag, b):
    """Second derivative of A -> sigma_k(eigenvalues(A)) at diagonal A in direction B.

    A is given by its diagonal (pairwise distinct entries required), B is a
    symmetric matrix.  Returns

        sum_{j,l} hess[j][l] B_jj B_ll
        + 2 sum_{j<l} (grad_j - grad_l)/(a_j - a_l) * B_jl^2

    with grad/hess the first and second derivatives of sigma_k.
    """
    values = as_tuple(a_diag)
    n = len(values)
    if not 1 <= k <= n:
        raise DomainError(f"k={k} out of range 1..{n}")
    rows = [list(row) for row in b]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DomainError(f"direction matrix must be {n}x{n}")
    scale = max(1.0, max(abs(float(x)) for x in values))
    gap = min((abs(float(values[i]) - float(values[j])) for i in range(n)
               for j in range(i + 1, n)), default=math.inf)
    if gap < 1e-8 * scale:
        raise DegenerateInputError(
            f"eigengap {gap:.3e} below 1e-8*scale; formula assumes distinct eigenvalues"
        )
    grad = sigma_grad(values, k)
    hess = sigma_hess(values, k)
    total = 0
    for j in range(n):
        for l in range(n):
            total = total + hess[j][l] * rows[j][j] * rows[l][l]
    for j in range(n):
        for l in range(j + 1, n):
            diff = (grad[j] - grad[l]) / (values[j] - values[l])
            total = total + 2 * diff * rows[j][l] * rows[j][l]
    return total


class Jet:
    """Second-order Taylor jet c0 + c1*t + c2*t^2 of an array-valued function
    of t, the coefficients stacked on axis 0 of the ndarray c.  Arithmetic
    with jets and constants, real powers, indexing on the value axes,
    transpose and ``@`` with a constant propagate them exactly up to
    rounding (Griewank, Utke & Walther, Math. Comp. 69, 2000): a kernel fed
    the jet x + t*d returns f(x), f's derivative along d and half its
    second derivative along d."""

    __array_ufunc__ = None  # ndarray <op> Jet defers to the Jet's reflected op

    def __init__(self, c):
        self.c = c

    @classmethod
    def of(cls, c0, c1, c2):
        """The jet with these coefficients, broadcast to one value shape."""
        c = np.empty((3,) + np.broadcast(c0, c1, c2).shape)
        c[0], c[1], c[2] = c0, c1, c2
        return cls(c)

    @property
    def shape(self):
        return self.c.shape[1:]

    def __getitem__(self, key):
        return Jet(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def __setitem__(self, key, value):
        for c, part in zip(self.c, value.c if isinstance(value, Jet) else (value, 0.0, 0.0)):
            c[key] = part

    def transpose(self, axes):
        return Jet(self.c.transpose((0,) + tuple(a + 1 for a in axes)))

    def copy(self):
        return Jet(self.c.copy())

    def __matmul__(self, const):
        return Jet(self.c @ const)

    def __neg__(self):
        return Jet(-self.c)

    def __add__(self, other):
        a, b = _aligned(self, other)
        return Jet(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet) and np.ndim(other) == 0:
            return Jet(self.c * other)
        a, b = _aligned(self, other)
        c = a[0] * b
        c[1:] += a[1] * b[:2]
        c[2] += a[2] * b[0]
        return Jet(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = _aligned(self, other)
        q = a / b[0]
        q[1] -= q[0] * b[1] / b[0]
        q[2] -= (q[0] * b[2] + q[1] * b[1]) / b[0]
        return Jet(q)

    def __rtruediv__(self, other):
        return Jet.of(other, 0.0, 0.0) / self

    def __pow__(self, p):
        x0, x1, x2 = self.c
        d1 = p * x0 ** (p - 1)
        return Jet.of(x0**p, d1 * x1, d1 * x2 + 0.5 * p * (p - 1) * x0 ** (p - 2) * x1 * x1)


def _aligned(*xs):
    """The coefficient arrays of Jets or constants (whose t-terms are zero),
    with value axes padded in front to a common number of axes."""
    cs = [x.c if isinstance(x, Jet) else Jet.of(x, 0.0, 0.0).c for x in xs]
    nd = max(c.ndim for c in cs)
    return [c[(slice(None),) + (None,) * (nd - c.ndim)] for c in cs]


def sigma_all_batch(values, upto):
    """Vectorized sigma_0..sigma_upto along the last axis of an ndarray or Jet.

    values has shape (..., n); returns shape (..., upto+1), float dtype (a
    Jet for a Jet).
    """
    cols = _entry_major(values)
    e = _sigma_rows(cols, upto)
    return e.transpose(tuple(range(1, len(e.shape))) + (0,)).copy()


def _entry_major(values):
    """View of a (..., n) float array or Jet with the entry axis first: (n, ...)."""
    arr = values if isinstance(values, Jet) else np.asarray(values, dtype=float)
    d = len(arr.shape) - 1
    return arr.transpose((d,) + tuple(range(d)))


def _sigma_rows(cols, upto):
    """sigma_0..sigma_upto of entry-major values cols (n, ...): shape (upto+1, ...).

    Working entry-major, every step of the recurrence reads and writes
    contiguous rows."""
    e = np.zeros((upto + 1,) + cols.shape[1:])
    if isinstance(cols, Jet):
        e = Jet.of(e, 0.0, 0.0)
    e[0] = 1.0
    if upto and cols.shape[0]:
        # step 0 adds cols[0] * sigma_0 = cols[0] to sigma_1 = 0 (+ 0.0
        # turns -0.0 into 0.0, as that addition does)
        e[1] = cols[0] + 0.0
    for i in range(1, cols.shape[0]):
        top = min(i + 1, upto)
        # one product-recurrence step for all j at once; the right-hand side
        # reads the previous step's values, as the descending scalar loop does
        e[1: top + 1] += cols[i] * e[:top]
    return e
