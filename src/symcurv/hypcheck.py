"""Exact hyperbolicity decision for combination operators.

The transformed coefficients alpha'_m = (n-k)! alpha_{k-m} / (n-k+m)! form a
univariate polynomial; the operator is hyperbolic-compatible iff that
polynomial has only real roots, equivalently alpha'_m = sigma_m(b) for a
nonnegative witness vector b.  The decision is tolerance-free: the Sturm
chain of signed pseudo-remainders over the integers, denominators cleared
once, stops at the first remainder whose leading sign is not p's or whose
degree drops by two or more, which proves a non-real root (Basu, Pollack &
Roy, "Algorithms in Real Algebraic Geometry", 2006, ch. 2 and 8); roots
come from numpy per factor of Yun's square-free decomposition over the
integers.  A numeric companion-matrix mode is an independent cross-check.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DomainError, SymcurvError
from .combop import (OperatorSpec, PolyCoeffs, _as_floats, _check_witness, _companion_roots,
                     alpha_prime, lower_operator, profile_roots)

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
# integer polynomials: lists of ints, constant first; [] is zero

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _integer_poly(coeffs):
    """Primitive integer polynomial with the roots of coeffs; a float is
    taken at its exact binary value, denominators are cleared once."""
    if not all(isinstance(c, (int, np.integer)) for c in coeffs):
        coeffs = [Fraction(float(c)) if isinstance(c, (float, np.floating)) else Fraction(c)
                  for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    return _primitive(_trim([int(c) for c in coeffs]))


def _prem(a, b):
    """Remainder of m*a by b for some m > 0 (signs kept), made primitive."""
    a = list(a)
    while len(a) >= len(b):
        g = gcd(a[-1], b[-1])
        ma, mb = abs(b[-1]) // g, (a.pop() if b[-1] > 0 else -a.pop()) // g
        a = [c * ma for c in a]
        for i, x in enumerate(b[:-1], len(a) + 1 - len(b)):
            a[i] -= mb * x
        _trim(a)
    return _primitive(a) if a else a


def _exact_div(a, b):
    """a / b where b divides a; integral when b is primitive (Gauss's lemma)."""
    a, q = list(a), []
    while len(a) >= len(b):
        c, r = divmod(a.pop(), b[-1])
        if r:
            raise SymcurvError("internal consistency: inexact polynomial division")
        q.append(c)
        for i, x in enumerate(b[:-1], len(a) + 1 - len(b)):
            a[i] -= c * x
    if any(a):
        raise SymcurvError("internal consistency: inexact polynomial division")
    return q[::-1]


def _gcd(a, b):
    while b:
        a, b = b, _prem(a, b)
    return _primitive(a)


def _squarefree(p, g):
    """Yun's square-free decomposition over the integers, given g = gcd(p, p')
    primitive: (factor, multiplicity) pairs with p = c * prod factor^mult."""
    b, d = _exact_div(p, g), _exact_div(_deriv(p), g)
    out, i = [], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip(d + [0] * len(b), _deriv(b) + [0] * len(d))])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, d, i = _exact_div(b, a), _exact_div(d, a), i + 1
    return out


def _float_roots(p):
    """numpy's roots of p after t = 2^e s, e from the coefficients' bit
    lengths, so neither coefficients nor roots overflow or underflow; the
    roots are scaled back by 2^e exactly; DomainError if the scaled lead
    or lowest term underflows to 0, or if undoing 2^e does not give numpy's
    root back (a root part overflows, or underflows past float range)."""
    d, j = len(p) - 1, next(i for i, c in enumerate(p) if c)
    e = round((abs(p[j]).bit_length() - abs(p[d]).bit_length()) / (d - j)) if d > j else 0
    q = [c << e * m if e >= 0 else c << -e * (d - m) for m, c in enumerate(p)]
    bits = max(abs(c).bit_length() for c in q)
    top = 1 << max(0, bits - 1000)
    desc = [c / top for c in reversed(q)]
    if desc[0] == 0 or desc[d - j] == 0:
        raise DomainError("coefficients span beyond float range; roots not computable")
    raw = _companion_roots(desc)
    # |root| < d 2^(bits - bit length of the lead + 1), the companion matrix's
    # row-sum bound; only past it (2 bits spare) can 2^e overflow and is
    # np.errstate, about 1.7 us a call, worth paying
    if e + bits - abs(q[-1]).bit_length() + d.bit_length() + 3 > 1024:
        with np.errstate(over="ignore"):
            re, im = np.ldexp(raw.real, e), np.ldexp(raw.imag, e)
    else:
        re, im = np.ldexp(raw.real, e), np.ldexp(raw.imag, e)
    if e and not ((np.ldexp(re, -e) == raw.real).all() and (np.ldexp(im, -e) == raw.imag).all()):
        raise DomainError("a root lies beyond float range; roots not computable")
    return re + 1j * im


@dataclass(frozen=True)
class RealRootedResult:
    all_real: bool
    mode: str
    roots: tuple = None      # when all_real: real roots with multiplicity
    witness: tuple = None    # when not: a conjugate pair of complex roots


def _complex_pair(roots):
    worst = max(roots, key=lambda z: abs(z.imag))
    return complex(worst.real, abs(worst.imag)), complex(worst.real, -abs(worst.imag))


def real_rooted(p, mode="exact"):
    """Decide whether p has only real roots.

    Exact mode: the Sturm chain of p and p' over primitive integer
    coefficients gives V(-inf) - V(+inf) distinct real roots and it ends in
    gcd(p, p'), so p has deg p - deg gcd distinct roots; p is all-real iff
    the counts agree (multiple real roots pass).  As L elements follow p,
    V(-inf) - V(+inf) <= L <= deg p - deg gcd, both equalities holding iff
    every leading sign is p's and every degree drop is one: the chain stops
    at the first element that breaks this.  Roots, with multiplicity, are
    numpy's per square-free factor (DomainError when the coefficients span
    beyond float range).  Numeric mode: combop.profile_roots, real iff every
    root snaps to the real axis; it is blind to repeated roots, which split
    into clusters of width ~eps^(1/multiplicity) (2(1 + t)^3 comes out
    complex), and it raises DomainError on coefficients beyond float range.
    Degree 0 is vacuously all-real.
    """
    coeffs = list(p.coeffs) if isinstance(p, PolyCoeffs) else list(p)
    if all(c == 0 for c in coeffs):
        raise DomainError("the zero polynomial is not accepted")
    if mode == "numeric":
        cf = _trim(_as_floats(coeffs))
        roots = profile_roots(cf) if len(cf) > 1 else []
        bad = [r for r in roots if isinstance(r, complex)]
        if bad:
            return RealRootedResult(False, mode, witness=_complex_pair(bad))
        return RealRootedResult(True, mode, roots=tuple(roots))
    if mode != "exact":
        raise DomainError(f"unknown mode {mode!r}")
    f = _integer_poly(coeffs)
    if len(f) == 1:
        return RealRootedResult(True, mode, roots=())
    a, b = f, _primitive(_deriv(f))  # primitive signed pseudo-remainders; end in gcd(f, f')
    while len(b) > 1 and (r := _prem(a, b)):
        a, b = b, [-c for c in r]
        if len(b) < len(a) - 1 or (b[-1] > 0) != (f[-1] > 0):
            return RealRootedResult(False, mode, witness=_complex_pair(_float_roots(f)))
    # b = [sign of f's lead] when gcd(f, f') = 1: Yun's one factor is f / b, exactly
    factors = _squarefree(f, b) if len(b) > 1 else [([b[0] * c for c in f], 1)]
    roots = sorted(float(r.real) for factor, mult in factors for r in _float_roots(factor)
                   for _ in range(mult))
    return RealRootedResult(True, mode, roots=tuple(roots))


def _witness(ap, k, roots):
    """witness_b of the Fraction tuple ap, given the roots of sum ap_m t^m."""
    if ap[0] != 1:
        raise DomainError("expected alpha'_0 == 1 (normalized operator)")
    if any(c < 0 for c in ap):
        raise DomainError("transformed coefficients must be nonnegative")
    d = len(_trim(list(ap))) - 1
    if d <= 1:
        b = [ap[1]] if d else []
    elif any(r >= 0 for r in roots):
        raise SymcurvError("internal consistency: nonnegative coefficients exclude roots >= 0")
    else:
        b = sorted((-1.0 / r for r in roots), reverse=True)
    b = tuple(b) + (0.0 if d > 1 else Fraction(0),) * (max(k, d) - len(b))
    _check_witness(b, ap, k)
    return b


def witness_b(alphas_prime, k):
    """Witness vector b with sigma_m(b) = alpha'_m, from the roots t_i of the
    transformed polynomial (all negative when it is real-rooted with
    nonnegative coefficients): b_i = -1/t_i, zero-padded to length max(k, d).

    Exact (Fraction entries) when the polynomial is linear or constant;
    otherwise float, from real_rooted's roots.  Raises DomainError if
    alpha'_0 != 1, a coefficient is negative, a root is complex, or b fails
    to reproduce alpha'.
    """
    ap = tuple(Fraction(c) for c in alphas_prime)
    res = real_rooted(ap, mode="exact")
    if not res.all_real:
        raise DomainError("the transformed polynomial has complex roots; no witness exists")
    return _witness(ap, k, res.roots)


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
        return ConditionCReport(op, ap, False, failure_witness=res.witness)
    return ConditionCReport(op, ap, True, roots=res.roots, witness=_witness(ap, op.k, res.roots))


def check_condition_q(op, samples, seed, hessian_trials=None):
    """Quotient-concavity verification for an operator passing the exact
    hyperbolicity check: for each l = 1..k-1 the field (Q / Q^N_l)^(1/(k-l))
    is scanned for concavity on Gamma_k samples; reports the worst case.
    details["trials_evaluated"] and ["trials_skipped"] sum the per-l scans'
    counters (0 and 0 when k = 1).
    """
    from . import concave
    from .cones import VerificationReport, _Worst

    rep = check_condition_c(op)
    if not rep.all_real:
        raise DomainError(
            "operator fails the exact real-rootedness check; use the "
            "counterexample scan mode of concave.concavity_scan instead"
        )
    if op.k < 2:
        return VerificationReport(passed=True, trials=0, worst_value=0.0, seed=seed,
                                  details={"note": "k=1 has no lower quotients",
                                           "trials_evaluated": 0, "trials_skipped": 0})
    per_l = {}
    worst = _Worst()
    for l in range(1, op.k):
        s_l = lower_operator(op, rep.witness, l, rep.N)
        fld = concave.lower_quotient_field(op, s_l)
        r = per_l[l] = concave.concavity_scan(fld, samples, seed, hessian_trials=hessian_trials)
        worst.offer(np.array([r.worst_value]), lambda i: (r.witness, None))
    passed = all(r.passed for r in per_l.values())
    # inconclusive: some l had no evidence and none was refuted with evidence
    inconclusive = not passed and all(r.passed or r.details.get("inconclusive")
                                      for r in per_l.values())
    return VerificationReport(
        passed=passed,
        trials=samples * (op.k - 1),
        worst_value=worst.value,
        seed=seed,
        witness=worst.witness,
        details={"per_l": per_l,
                 "hessian_worst": max(r.details["hessian_worst"] for r in per_l.values()),
                 "witness_b": rep.witness,
                 "inconclusive": inconclusive,
                 **{key: sum(r.details[key] for r in per_l.values())
                    for key in ("trials_evaluated", "trials_skipped")}},
    )
