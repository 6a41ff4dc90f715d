"""Linear combinations Q = sum_s alpha_s sigma_s and their derived objects.

Operators are normalized so the top coefficient is 1 (exactly, when the
given coefficients are exact).  Q, Q^{ii} and Q^{pp,qq} are one exact sum
sum_s c_s sigma_s over lam, lam|i and lam|pq with c = alphas, alphas[1:] and
alphas[2:], one product-recurrence pass each.  Univariate profiles
t -> Q(a*t + x) are read from one symfun.profile_table of the mixed forms
sigma_{l,m-l}(a, x), exact for exact inputs.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DomainError, SingularityError
from .symfun import (_combine, _deleted_sums, as_tuple, profile_table, sigma_all,
                     sigma_all_batch)

__all__ = [
    "OperatorSpec",
    "PolyCoeffs",
    "LowerOperatorSpec",
    "q_eval",
    "q_grad",
    "q_hess",
    "q_eval_batch",
    "quotient_q",
    "shifted_profile",
    "profile_roots",
    "lower_operator",
    "alpha_prime",
]


def _is_exact(x):
    return isinstance(x, (int, Fraction, np.integer))


@dataclass(frozen=True)
class OperatorSpec:
    """Operator Q = sum_{s=0}^{k} alphas[s] * sigma_s on n variables.

    Coefficients are nonnegative with alphas[k] > 0 and are normalized at
    construction so that alphas[k] == 1.
    """

    n: int
    k: int
    alphas: tuple

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        alphas = tuple(self.alphas)
        if len(alphas) != self.k + 1:
            raise DomainError(
                f"expected {self.k + 1} coefficients alpha_0..alpha_k, got {len(alphas)}"
            )
        if any(a < 0 for a in alphas):
            raise DomainError("coefficients must be nonnegative")
        top = alphas[-1]
        if top <= 0:
            raise DomainError("leading coefficient alpha_k must be positive")
        if top != 1:
            if all(_is_exact(a) for a in alphas):
                alphas = tuple(Fraction(a, top) if not isinstance(a, Fraction) else a / top
                               for a in alphas)
            else:
                alphas = tuple(a / top for a in alphas)
        object.__setattr__(self, "alphas", alphas)

    @classmethod
    def sum_type(cls, n, k, alpha=0):
        """The two-term operator sigma_k + alpha*sigma_{k-1}."""
        return cls(n, k, (0,) * (k - 1) + (alpha, 1))

    @property
    def is_exact(self):
        return all(_is_exact(a) for a in self.alphas)

    @property
    def sum_type_alpha(self):
        """alpha if this is sigma_k + alpha*sigma_{k-1}, else None."""
        if all(a == 0 for a in self.alphas[: self.k - 1]):
            return self.alphas[self.k - 1]
        return None


def _check_dim(op, values):
    if len(values) != op.n:
        raise DomainError(f"operator expects n={op.n} entries, got {len(values)}")


def q_eval(op, lam):
    """Q(lam) = sum_s alpha_s sigma_s(lam)."""
    values = as_tuple(lam)
    _check_dim(op, values)
    return _combine(op.alphas, values)


def q_grad(op, lam):
    """Componentwise Q^{ii}(lam) = sum_s alpha_s sigma_{s-1}(lam|i)."""
    values = as_tuple(lam)
    _check_dim(op, values)
    return _deleted_sums(op.alphas, values, 1)


def q_hess(op, lam):
    """Matrix Q^{pp,qq}(lam) = sum_s alpha_s sigma_{s-2}(lam|pq); zero diagonal."""
    values = as_tuple(lam)
    _check_dim(op, values)
    return _deleted_sums(op.alphas, values, 2)


def q_eval_batch(op, values):
    """Vectorized Q over the last axis: values shape (..., n) -> shape (...)."""
    return sigma_all_batch(values, op.k) @ np.array([float(a) for a in op.alphas])


def quotient_q(lam, k, alpha):
    """Sum-type quotient q_k = (sigma_{k+1} + alpha*sigma_k) / (sigma_k + alpha*sigma_{k-1})."""
    values = as_tuple(lam)
    n = len(values)
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    e = sigma_all(values, k + 1)
    den = e[k] + alpha * e[k - 1]
    num = e[k + 1] + alpha * e[k]
    scale = max(abs(float(x)) for x in values) + 1.0
    if abs(float(den)) <= 1e-300 * scale**k or den == 0:
        raise SingularityError("denominator sigma_k + alpha*sigma_{k-1} vanishes")
    return num / den


@dataclass(frozen=True)
class PolyCoeffs:
    """Univariate polynomial, constant term first; exact trailing zeros stripped."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise DomainError("empty coefficient list")
        d = len(coeffs) - 1
        while d > 0 and coeffs[d] == 0:
            d -= 1
        object.__setattr__(self, "coeffs", coeffs[: d + 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def shifted_profile(op, x, a):
    """Coefficients of t -> Q(a*t + x), exact for exact inputs.

    Coefficient of t^l is sum_{m>=l} alpha_m * sigma_{l,m-l}(a, x), all read
    from one symfun.profile_table of p = x, d = a.  The degree is op.k when
    sigma_k(a) != 0; otherwise the profile degenerates and the returned
    polynomial has smaller degree (reported by .degree, not an error).  On
    float input a leading coefficient at most 1e-13 times its rounding
    scale, the same coefficient over |x| and |a|, is dust and dropped.
    """
    xv = as_tuple(x)
    av = as_tuple(a)
    _check_dim(op, xv)
    _check_dim(op, av)
    p, d = np.array([xv], dtype=object), np.array([av], dtype=object)
    if any(isinstance(v, (float, np.floating)) for v in xv + av + op.alphas):
        # a second row, over the magnitudes (the alphas are nonnegative),
        # gives each coefficient's rounding scale
        p, d = np.vstack([p, np.abs(p)]), np.vstack([d, np.abs(d)])
    table = profile_table(p, d, op.k)
    rows = [sum((a * table[m, j] for m, a in enumerate(op.alphas) if m >= j and a != 0), 0)
            for j in range(op.k + 1)]
    coeffs = [c[0] for c in rows]
    if any(isinstance(c, (float, np.floating)) for c in coeffs):
        top = len(coeffs) - 1
        while top > 0 and abs(float(coeffs[top])) <= 1e-13 * float(rows[top][1]):
            coeffs[top] = 0
            top -= 1
    return PolyCoeffs(tuple(coeffs))


def _as_floats(coeffs):
    """Polynomial coefficients as floats; DomainError beyond float range."""
    try:
        return [float(c) for c in coeffs]
    except OverflowError:
        raise DomainError("a coefficient is beyond float range") from None


@lru_cache(maxsize=None)
def _shift(n):
    """np.eye(n, k=-1), read-only; callers copy it."""
    a = np.eye(n, k=-1)
    a.flags.writeable = False
    return a


def _companion_roots(desc):
    """np.roots(desc), bit for bit, for coefficients in descending order, not
    all zero: the eigenvalues of the same companion matrix (its one entry
    when p is linear), then one zero root per trailing zero coefficient,
    without np.roots' array trimming; DomainError where the first row
    overflows."""
    first, last = 0, len(desc) - 1
    while desc[first] == 0:
        first += 1
    while desc[last] == 0:
        last -= 1
    p = np.array(desc[first: last + 1], dtype=float)
    roots = -p[1:] / p[0]   # the companion matrix's first row
    if p.size > 2:
        a = _shift(p.size - 1).copy()
        a[0] = roots
        try:
            roots = np.linalg.eigvals(a)
        except np.linalg.LinAlgError:   # the first row overflowed
            raise DomainError("coefficient ratios beyond float range") from None
    elif not np.isfinite(roots).all():   # the linear root, if any
        raise DomainError("coefficient ratio beyond float range")
    trailing = len(desc) - 1 - last
    return np.concatenate([roots, np.zeros(trailing, roots.dtype)]) if trailing else roots


def profile_roots(p):
    """All roots of p via companion-matrix eigenvalues, sorted by real part.

    Roots with |imag| <= 1e-8 * (1 + max|coeff|) are snapped to the real
    axis.  Raises DomainError for constant polynomials (the zero polynomial
    included) and for coefficients beyond float range.
    """
    coeffs = p.coeffs if isinstance(p, PolyCoeffs) else PolyCoeffs(tuple(p)).coeffs
    if len(coeffs) == 1:
        if coeffs[0] == 0:
            raise DomainError("zero polynomial has no well-defined roots")
        raise DomainError("constant polynomial has no roots")
    cf = _as_floats(coeffs)
    snap = 1e-8 * (1.0 + max(abs(c) for c in cf))
    raw = _companion_roots(cf[::-1]).tolist()
    out = [z.real if abs(z.imag) <= snap else z for z in raw]
    return sorted(out, key=lambda z: (z.real, z.imag))  # a float's imag is 0.0


@dataclass(frozen=True)
class LowerOperatorSpec:
    """Degree-l companion operator derived from a hyperbolicity witness b.

    coeffs[s] multiplies sigma_s; coeffs[l] == 1 and all entries are
    nonnegative, so as_operator() is a valid OperatorSpec.
    """

    base: OperatorSpec
    l: int
    n_prime: int
    coeffs: tuple

    def as_operator(self):
        return OperatorSpec(self.base.n, self.l, self.coeffs)


def lower_operator(op, b, l, n_prime):
    """Apply prod_{m<=n_prime} (1 + b_m d/dt) to the degree-l profile and read
    the result back as explicit sigma-coefficients.

    Using d^j/dt^j sigma_l(t*theta + x) = (n-l+j)!/(n-l)! * sigma_{l-j}(t*theta + x),
    the coefficient of sigma_{l-j} is sigma_j(b[:n_prime]) * (n-l+j)!/(n-l)!.
    b must be the operator's hyperbolicity witness (nonnegative entries).
    """
    bv = as_tuple(b)
    if not 1 <= l < op.k:
        raise DomainError(f"need 1 <= l < k={op.k}, got l={l}")
    if not 0 <= n_prime <= len(bv):
        raise DomainError(f"n_prime={n_prime} out of range 0..{len(bv)}")
    if any(x < 0 for x in bv):
        raise DomainError("witness entries must be nonnegative")
    _check_witness(bv, alpha_prime(op), op.k)
    n = op.n
    prefix = bv[:n_prime]
    eb = sigma_all(prefix, min(l, len(prefix))) if prefix else [1]
    coeffs = [0] * (l + 1)
    for j in range(min(l, len(prefix)) + 1):
        sj = eb[j] if j < len(eb) else 0
        if sj == 0:
            continue
        ratio = Fraction(factorial(n - l + j), factorial(n - l))
        weight = sj * ratio if _is_exact(sj) else sj * float(ratio)
        coeffs[l - j] = weight
    return LowerOperatorSpec(base=op, l=l, n_prime=n_prime, coeffs=tuple(coeffs))


def alpha_prime(op):
    """Transformed coefficients alpha'_m = (n-k)! alpha_{k-m} / (n-k+m)!, exact.

    Float coefficients are taken at their exact binary value.
    """
    n, k = op.n, op.k
    base = factorial(n - k)
    return tuple(
        Fraction(op.alphas[k - m]) * base / factorial(n - k + m) for m in range(k + 1)
    )


def _check_witness(b, alphas_prime, k):
    """Raise DomainError unless sigma_m(b) = alpha'_m for m = 0..k (entries
    missing from alphas_prime are 0): exactly when b is exact, else within
    1e-9 relative."""
    exact = all(_is_exact(x) for x in b)
    while len(b) > 1 and b[-1] == 0:   # a zero tail adds to no sigma_m
        b = b[:-1]
    eb = sigma_all(b, min(k, len(b))) + [0] * max(0, k - len(b))
    for m in range(k + 1):
        got = eb[m]
        want = alphas_prime[m] if m < len(alphas_prime) else Fraction(0)
        if exact:
            ok = Fraction(got) == want
        else:
            ok = abs(float(got) - float(want)) <= 1e-9 * (1.0 + abs(float(want)))
        if not ok:
            raise DomainError(
                f"inconsistent witness: sigma_{m}(b) = {got} but alpha'_{m} = {want}"
            )
