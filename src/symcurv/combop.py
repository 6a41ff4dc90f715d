"""Linear combinations Q = sum_s alpha_s sigma_s and their derived objects.

Operators are normalized so the top coefficient is 1 (exactly, when the
given coefficients are exact).  Univariate profiles t -> Q(a*t + x) are
expanded through the mixed forms sigma_{l,m-l}(a, x), which keeps the
coefficients exact for exact inputs.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .errors import DomainError, SingularityError
from .symfun import as_tuple, polarized_sigma, sigma_all, sigma_all_batch, sigma_grad, sigma_hess

__all__ = [
    "OperatorSpec",
    "PolyCoeffs",
    "LowerOperatorSpec",
    "q_eval",
    "q_grad",
    "q_hess",
    "q_eval_batch",
    "q_grad_batch",
    "q_hess_batch",
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
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        coeffs[k - 1] = alpha
        return cls(n, k, tuple(coeffs))

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
    e = sigma_all(values, op.k)
    total = 0
    for s, a in enumerate(op.alphas):
        if a != 0:
            total = total + a * e[s]
    return total


def q_grad(op, lam):
    """Componentwise Q^{ii}(lam) = sum_s alpha_s sigma_{s-1}(lam|i)."""
    values = as_tuple(lam)
    _check_dim(op, values)
    out = [0] * op.n
    for s, a in enumerate(op.alphas):
        if s == 0 or a == 0:
            continue
        g = sigma_grad(values, s)
        for i in range(op.n):
            out[i] = out[i] + a * g[i]
    return out


def q_hess(op, lam):
    """Matrix Q^{pp,qq}(lam) = sum_s alpha_s sigma_{s-2}(lam|pq); zero diagonal."""
    values = as_tuple(lam)
    _check_dim(op, values)
    out = [[0] * op.n for _ in range(op.n)]
    for s, a in enumerate(op.alphas):
        if s < 2 or a == 0:
            continue
        h = sigma_hess(values, s)
        for p in range(op.n):
            for q in range(op.n):
                out[p][q] = out[p][q] + a * h[p][q]
    return out


def q_eval_batch(op, values):
    """Vectorized Q over the last axis: values shape (..., n) -> shape (...)."""
    return sigma_all_batch(values, op.k) @ _float_coeffs(op)


def _float_coeffs(op):
    return np.array([float(a) for a in op.alphas])


@lru_cache(maxsize=None)
def _complements(n, size):
    # row r lists the indices outside the r-th size-subset of range(n)
    # (subsets in lexicographic order)
    return np.array([[i for i in range(n) if i not in c] for c in combinations(range(n), size)],
                    dtype=int).reshape(-1, n - size)


def q_grad_batch(op, values):
    """Vectorized Q^{ii}: values shape (..., n) -> shape (..., n)."""
    arr = np.asarray(values, dtype=float)
    rest = arr[..., _complements(op.n, 1)]
    return sigma_all_batch(rest, op.k - 1) @ _float_coeffs(op)[1:]


@lru_cache(maxsize=None)
def _pairs(n):
    # index arrays (p, q) of the pairs p < q, in combinations(range(n), 2) order
    return np.triu_indices(n, 1)


def q_hess_batch(op, values):
    """Vectorized Q^{pp,qq}: values shape (..., n) -> shape (..., n, n), zero diagonal."""
    arr = np.asarray(values, dtype=float)
    n = op.n
    out = np.zeros(arr.shape + (n,))
    if op.k < 2:
        return out
    p, q = _pairs(n)
    vals = sigma_all_batch(arr[..., _complements(n, 2)], op.k - 2) @ _float_coeffs(op)[2:]
    out[..., p, q] = vals
    out[..., q, p] = vals
    return out


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

    Coefficient of t^l is sum_{m>=l} alpha_m * sigma_{l,m-l}(a, x).  The
    degree is op.k when sigma_k(a) != 0; otherwise the profile degenerates
    and the returned polynomial has smaller degree (reported by .degree,
    not an error).
    """
    xv = as_tuple(x)
    av = as_tuple(a)
    _check_dim(op, xv)
    _check_dim(op, av)
    coeffs = []
    for l in range(op.k + 1):
        c = 0
        for m in range(l, op.k + 1):
            if op.alphas[m] != 0:
                c = c + op.alphas[m] * polarized_sigma(av, xv, l, m)
        coeffs.append(c)
    # strip float dust in the leading coefficients (exact zeros strip in PolyCoeffs)
    if any(isinstance(c, (float, np.floating)) for c in coeffs):
        top = max(abs(float(c)) for c in coeffs)
        d = len(coeffs) - 1
        while d > 0 and abs(float(coeffs[d])) <= 1e-13 * top:
            coeffs[d] = 0
            d -= 1
    return PolyCoeffs(tuple(coeffs))


def profile_roots(p):
    """All roots of p via companion-matrix eigenvalues, sorted by real part.

    Roots with |imag| <= 1e-8 * (1 + max|coeff|) are snapped to the real
    axis.  Raises for constant polynomials (the zero polynomial included).
    """
    coeffs = p.coeffs if isinstance(p, PolyCoeffs) else PolyCoeffs(tuple(p)).coeffs
    if len(coeffs) == 1:
        if coeffs[0] == 0:
            raise DomainError("zero polynomial has no well-defined roots")
        raise DomainError("constant polynomial has no roots")
    cf = [float(c) for c in coeffs]
    snap = 1e-8 * (1.0 + max(abs(c) for c in cf))
    raw = np.roots(list(reversed(cf)))
    out = []
    for r in raw:
        if abs(r.imag) <= snap:
            out.append(float(r.real))
        else:
            out.append(complex(r))
    out.sort(key=lambda z: (z.real if isinstance(z, complex) else z,
                            z.imag if isinstance(z, complex) else 0.0))
    return out


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
    eb = sigma_all(b, min(k, len(b))) + [0] * max(0, k - len(b))
    exact = all(_is_exact(x) for x in b)
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
