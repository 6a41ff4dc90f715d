"""Exact hyperbolicity decision for combination operators.

The transformed coefficients alpha'_m = (n-k)! alpha_{k-m} / (n-k+m)! form a
univariate polynomial; the operator is hyperbolic-compatible iff that
polynomial has only real roots, equivalently alpha'_m = sigma_m(b) for a
nonnegative witness vector b.  The decision runs over exact rational
arithmetic (Sturm counts on the square-free part), so it is tolerance-free;
a numeric companion-matrix mode is kept as an independent cross-check.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, SymcurvError
from .combop import OperatorSpec, PolyCoeffs, _check_witness, alpha_prime, lower_operator

__all__ = [
    "ConditionCReport",
    "RealRootedResult",
    "alpha_prime",
    "real_rooted",
    "witness_b",
    "check_condition_c",
    "check_condition_q",
]


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists over Fraction, constant first)

def _strip(p):
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return p[: d + 1]


def _deriv(p):
    return _strip([i * c for i, c in enumerate(p)][1:]) if len(p) > 1 else [Fraction(0)]


def _divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(c != 0 for c in a):
        da = len(a) - 1
        if a[da] == 0:
            a.pop()
            continue
        c = a[da] / lb
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
        a.pop()
    if not a:
        a = [Fraction(0)]
    return _strip(q), _strip(a)


def _gcd(a, b):
    a, b = _strip(list(a)), _strip(list(b))
    while b != [Fraction(0)] and any(c != 0 for c in b):
        a, b = b, _divmod(a, b)[1]
    lead = a[-1]
    return [c / lead for c in a] if lead != 0 else [Fraction(1)]


def _sturm_distinct_real_roots(p):
    """Number of distinct real roots of square-free p (sign variations at -inf/+inf)."""
    chain = [_strip(list(p))]
    d1 = _deriv(chain[0])
    if d1 != [Fraction(0)]:
        chain.append(d1)
        while len(chain[-1]) > 1:
            rem = _divmod(chain[-2], chain[-1])[1]
            if rem == [Fraction(0)] or all(c == 0 for c in rem):
                break
            chain.append([-c for c in rem])

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

    at_plus = [1 if q[-1] > 0 else -1 if q[-1] < 0 else 0 for q in chain]
    at_minus = [
        s * (1 if (len(q) - 1) % 2 == 0 else -1)
        for s, q in zip(at_plus, chain)
    ]
    return variations(at_minus) - variations(at_plus)


def _yun_squarefree(p):
    """Square-free decomposition: list of (factor, multiplicity), factors monic."""
    p = _strip([Fraction(c) for c in p])
    out = []
    dp = _deriv(p)
    g = _gcd(p, dp)
    c = _divmod(p, g)[0]
    d = [x - y for x, y in zip(_divmod(dp, g)[0] + [Fraction(0)] * len(c), _deriv(c) + [Fraction(0)] * len(c))]
    d = _strip(d)
    i = 1
    while len(c) > 1:
        f = _gcd(c, d)
        if len(f) > 1:
            out.append(([x / f[-1] for x in f], i))
        c_next = _divmod(c, f)[0]
        d = _strip([x - y for x, y in zip(_divmod(d, f)[0] + [Fraction(0)] * len(c_next),
                                          _deriv(c_next) + [Fraction(0)] * len(c_next))])
        c = c_next
        i += 1
    return out


def _to_fractions(coeffs):
    out = []
    for c in coeffs:
        if isinstance(c, float) or isinstance(c, np.floating):
            out.append(Fraction(float(c)))  # floats are dyadic rationals, exact
        else:
            out.append(Fraction(c))
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealRootedResult:
    all_real: bool
    mode: str
    roots: tuple = None      # when all_real: real roots with multiplicity
    witness: tuple = None    # when not: a conjugate pair of complex roots


def real_rooted(p, mode="exact"):
    """Decide whether p has only real roots.

    Exact mode: Sturm count on the square-free part over rational
    arithmetic (all distinct roots real iff the count equals the square-free
    degree); multiple real roots therefore pass.  Numeric mode: companion
    matrix roots, real iff |imag| <= 1e-8 * (1 + max|coeff|).  Degree 0 is
    vacuously all-real.
    """
    coeffs = list(p.coeffs) if isinstance(p, PolyCoeffs) else list(p)
    if all(c == 0 for c in coeffs):
        raise DomainError("the zero polynomial is not accepted")
    if mode == "numeric":
        cf = [float(c) for c in coeffs]
        d = len(cf) - 1
        while d > 0 and cf[d] == 0.0:
            d -= 1
        cf = cf[: d + 1]
        if d == 0:
            return RealRootedResult(True, mode, roots=())
        snap = 1e-8 * (1.0 + max(abs(c) for c in cf))
        raw = np.roots(list(reversed(cf)))
        bad = raw[np.abs(raw.imag) > snap]
        if bad.size:
            worst = bad[np.argmax(np.abs(bad.imag))]
            return RealRootedResult(False, mode, witness=(complex(worst), complex(worst.conjugate())))
        return RealRootedResult(True, mode, roots=tuple(sorted(float(r) for r in raw.real)))
    if mode != "exact":
        raise DomainError(f"unknown mode {mode!r}")
    f = _strip(_to_fractions(coeffs))
    if len(f) == 1:
        return RealRootedResult(True, mode, roots=())
    g = _divmod(f, _gcd(f, _deriv(f)))[0]
    all_real = _sturm_distinct_real_roots(g) == len(g) - 1
    if not all_real:
        cf = [float(c) for c in f]
        raw = np.roots(list(reversed(cf)))
        worst = raw[np.argmax(np.abs(raw.imag))]
        return RealRootedResult(False, mode, witness=(complex(worst), complex(worst.conjugate())))
    roots = []
    for factor, mult in _yun_squarefree(f):
        rs = np.roots(list(reversed([float(c) for c in factor])))
        roots.extend(float(r.real) for r in rs for _ in range(mult))
    return RealRootedResult(True, mode, roots=tuple(sorted(roots)))


def witness_b(alphas_prime, k):
    """Witness vector b with sigma_m(b) = alpha'_m, from the roots t_i of the
    transformed polynomial (all negative when it is real-rooted with
    nonnegative coefficients): b_i = -1/t_i, zero-padded to length max(k, d).

    Exact (Fraction entries) when the polynomial is linear or constant;
    otherwise numeric roots of the square-free factors, replicated by
    multiplicity.  Raises DomainError if the recovered b fails to reproduce
    alpha'.
    """
    ap = _strip([Fraction(c) for c in alphas_prime])
    if ap[0] != 1:
        raise DomainError("expected alpha'_0 == 1 (normalized operator)")
    if any(c < 0 for c in ap):
        raise DomainError("transformed coefficients must be nonnegative")
    d = len(ap) - 1
    n_len = max(k, d)
    if d == 0:
        return tuple(Fraction(0) for _ in range(n_len))
    if d == 1:
        b1 = ap[1] / ap[0]
        b = tuple([b1] + [Fraction(0)] * (n_len - 1))
    else:
        vals = []
        for factor, mult in _yun_squarefree(ap):
            for r in np.roots(list(reversed([float(c) for c in factor]))):
                if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
                    raise SymcurvError(
                        "internal consistency: complex root in a real-rooted polynomial"
                    )
                if r.real >= 0:
                    raise SymcurvError(
                        "internal consistency: nonnegative coefficients exclude roots >= 0"
                    )
                vals.extend([-1.0 / float(r.real)] * mult)
        vals.sort(reverse=True)
        b = tuple(vals) + tuple(0.0 for _ in range(n_len - len(vals)))
    _check_witness(b, ap, k)
    return b


@dataclass(frozen=True)
class ConditionCReport:
    """Exact hyperbolicity report for one operator."""

    op: OperatorSpec
    alphas_prime: tuple
    all_real: bool
    roots: tuple = None
    witness: tuple = None          # the vector b, length max(k, degree)
    failure_witness: tuple = None  # conjugate complex root pair

    @property
    def N(self):
        return len(self.witness) if self.witness is not None else None

    def __str__(self):
        if self.all_real:
            return f"PASS witness b = {tuple(str(x) for x in self.witness)}"
        return f"FAIL complex roots {self.failure_witness}"


def check_condition_c(op):
    """Exact decision: transformed coefficient polynomial real-rooted?"""
    ap = alpha_prime(op)
    res = real_rooted(ap, mode="exact")
    if not res.all_real:
        return ConditionCReport(
            op=op, alphas_prime=ap, all_real=False, failure_witness=res.witness
        )
    b = witness_b(ap, op.k)
    return ConditionCReport(
        op=op, alphas_prime=ap, all_real=True, roots=res.roots, witness=b
    )


def check_condition_q(op, samples, seed, hessian_trials=None):
    """Quotient-concavity verification for an operator passing the exact
    hyperbolicity check: for each l = 1..k-1 the field (Q / Q^N_l)^(1/(k-l))
    is scanned for concavity on Gamma_k samples; reports the worst case.
    """
    from . import concave
    from .cones import VerificationReport

    rep = check_condition_c(op)
    if not rep.all_real:
        raise DomainError(
            "operator fails the exact real-rootedness check; use the "
            "counterexample scan mode of concave.concavity_scan instead"
        )
    if op.k < 2:
        return VerificationReport(passed=True, trials=0, worst_value=0.0, seed=seed,
                                  details={"note": "k=1 has no lower quotients"})
    per_l = {}
    worst = np.inf
    hess_worst = -np.inf
    witness = None
    for l in range(1, op.k):
        s_l = lower_operator(op, rep.witness, l, rep.N)
        fld = concave.lower_quotient_field(op, s_l)
        r = concave.concavity_scan(fld, samples, seed, hessian_trials=hessian_trials)
        per_l[l] = r
        if r.worst_value < worst:
            worst = r.worst_value
            witness = r.witness
        hess_worst = max(hess_worst, r.details.get("hessian_worst", -np.inf))
    passed = all(r.passed for r in per_l.values())
    return VerificationReport(
        passed=passed,
        trials=samples * (op.k - 1),
        worst_value=float(worst),
        seed=seed,
        witness=witness,
        details={"per_l": per_l, "hessian_worst": float(hess_worst), "witness_b": rep.witness},
    )
