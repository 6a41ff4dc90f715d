"""Numerical concavity verification.

Fields under test are scalar functions on an open cone.  Every catalog
field is (A/B)^p for two operators A and B (B = 1 for the roots), and one
kernel evaluates them all from one sigma_all_batch pass.  Two instruments:
a midpoint test 2f(x) - f(x+eps*xi) - f(x-eps*xi) >= 0 (exact for concave f
at any admissible probe size, so it runs tight tolerances even near the
cone boundary) and the largest eigenvalue of the Hessian, which must be
nonpositive.  The Hessian is exact up to rounding: it is propagated as
second-order Taylor jets (symfun.Jet) through the field's own kernel, so
it needs no step and no probe other than the point itself (Griewank &
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).

Residuals are normalized: midpoint defects by 1 + |f(x)|, Hessian
eigenvalues by (1 + |f(x)|) / (1 + |x|_inf)^2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, DomainExitError, SingularityError
from .symfun import Jet, as_tuple, sigma_all_batch
from .combop import OperatorSpec, LowerOperatorSpec, q_eval_batch, quotient_q
from .cones import (
    ConeSpec,
    cone_contains,
    cone_margins_batch,
    _PHASE_HESSIAN,
    _PHASE_POINT,
    _Part,
    _Worst,
    _chunks,
    _evidence_report,
    _pass_rounds,
    _normal_chunk,
    _sample,
)

__all__ = [
    "ScalarField",
    "GuanCheckInput",
    "quotient_qk_field",
    "sigma_over_q_field",
    "sum_ratio_field",
    "sum_root_field",
    "root_q_field",
    "lower_quotient_field",
    "fd_hessian",
    "concavity_scan",
    "q1_closed_form_check",
    "guan_inequality_check",
    "guan_scan",
]

@dataclass(frozen=True)
class ScalarField:
    """A named scalar function with its domain cone (None = all of R^n).

    values(points) is the one float evaluation path.  fn, the one kernel,
    gets m points entry-major (x[i] is the column of entry i) and returns
    their m values.  values runs fn through jet(x), which also takes a Jet
    (the Hessian trials of concavity_scan), and then x[i] is a jet column:
    fn may use only +, -, *, / and real powers (x[0] * x[1] and sum(x)
    qualify, float() and math functions do not), and a kernel that breaks
    this raises DomainError.  Calling the field evaluates one point through
    values and raises SingularityError where it is not finite.
    """

    name: str
    n: int
    fn: object
    domain: ConeSpec = None

    def __call__(self, x):
        point = as_tuple(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = float(self.values([point])[0])
        if not np.isfinite(value):
            raise SingularityError(f"{self.name} is not finite at {point}")
        return value

    def values(self, points):
        return self.jet(np.asarray(points, dtype=float))

    def jet(self, x):
        """The field on x of shape (m, n), a float array or a Jet: fn on
        x's entry-major view, m values of x's type; DomainError on any
        other shape or when the kernel breaks the contract above."""
        if x.shape[1:] != (self.n,):
            raise DomainError(f"{self.name} expects points of shape (m, {self.n}), got {x.shape}")
        try:
            out = self.fn(x.transpose((1, 0)))
            if not isinstance(out, type(x)):
                raise TypeError(f"returned {type(out).__name__}, not {type(x).__name__}")
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{self.name}: the field is evaluated on columns and on Taylor "
                              "jets, so fn may use only +, -, *, / and real powers") from exc
        return out

    def inside(self, points):
        """Boolean mask of strict domain membership for an (m, n) array."""
        pts = np.asarray(points, dtype=float)
        if self.domain is None:
            return np.ones(pts.shape[0], dtype=bool)
        return cone_margins_batch(self.domain, pts) > self.domain.tol


# ---------------------------------------------------------------------------
# field catalog

def _ratio_field(name, n, domain, num, den=None, power=1.0):
    """The field (num / den)^power of two OperatorSpecs (num^power when den
    is None): one sigma_all_batch pass over the columns' (m, n) view up to the
    larger degree, dotted with each operator's zero-padded coefficients."""
    ops = (num,) if den is None else (num, den)
    top = max(op.k for op in ops)
    coeffs = [np.array([float(a) for a in op.alphas] + [0.0] * (top - op.k)) for op in ops]

    def kernel(cols):
        e = sigma_all_batch(cols.transpose((1, 0)), top)
        value = e @ coeffs[0] if den is None else (e @ coeffs[0]) / (e @ coeffs[1])
        return value if power == 1 else value ** power

    return ScalarField(name=name, n=n, fn=kernel, domain=domain)


def quotient_qk_field(n, k, alpha, domain=None):
    """Sum-type quotient q_k = Q_S^{k+1} / Q_S^k, Q_S^k = sigma_k + alpha*sigma_{k-1},
    1 <= k <= n-1, alpha >= 0.

    Default domain Gamma_k; pass e.g. Gamma_{k+1} to test the smaller domain.
    """
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    a = float(alpha)
    return _ratio_field(f"q_{k}[alpha={alpha}]", n, domain or ConeSpec("garding", n, k),
                        OperatorSpec.sum_type(n, k + 1, a), OperatorSpec.sum_type(n, k, a))


def sigma_over_q_field(n, k, alpha):
    """sigma_k / Q_S^k on the admissible cone Gamma~_k."""
    return _ratio_field(f"sigma_{k}/Q_S^{k}[alpha={alpha}]", n, ConeSpec("tilde", n, k, alpha),
                        OperatorSpec.sum_type(n, k), OperatorSpec.sum_type(n, k, float(alpha)))


def sum_ratio_field(n, k, l, alpha):
    """(Q_S^k / Q_S^l)^(1/(k-l)) on Gamma~_k, 1 <= l < k."""
    if not 1 <= l < k:
        raise DomainError(f"need 1 <= l < k, got l={l}, k={k}")
    a = float(alpha)
    return _ratio_field(f"(Q_S^{k}/Q_S^{l})^(1/{k - l})[alpha={alpha}]", n,
                        ConeSpec("tilde", n, k, alpha), OperatorSpec.sum_type(n, k, a),
                        OperatorSpec.sum_type(n, l, a), 1.0 / (k - l))


def sum_root_field(n, k, alpha):
    """(Q_S^k)^(1/k) on Gamma~_k."""
    return _ratio_field(f"(Q_S^{k})^(1/{k})[alpha={alpha}]", n, ConeSpec("tilde", n, k, alpha),
                        OperatorSpec.sum_type(n, k, float(alpha)), power=1.0 / k)


def root_q_field(op):
    """Q^(1/k) on Gamma_k."""
    return _ratio_field(f"Q^(1/{op.k})", op.n, ConeSpec("garding", op.n, op.k), op,
                        power=1.0 / op.k)


def lower_quotient_field(op, lower):
    """(Q / Q^{N'}_l)^(1/(k-l)) on Gamma_k for a derived lower operator."""
    if not isinstance(lower, LowerOperatorSpec):
        raise DomainError("lower must be a LowerOperatorSpec from combop.lower_operator")
    return _ratio_field(f"(Q/Q^{lower.n_prime}_{lower.l})^(1/{op.k - lower.l})", op.n,
                        ConeSpec("garding", op.n, op.k), op, lower.as_operator(),
                        1.0 / (op.k - lower.l))


# ---------------------------------------------------------------------------
# instruments

def fd_hessian(field, x, h):
    """Central-difference Hessian of the field at x, step h: entry (i, j)
    from the four corners x + h*(+-e_i +- e_j) (the diagonal from x +- 2h*e_i).
    A probe outside the domain cone raises DomainExitError carrying it."""
    xv = np.array([float(v) for v in as_tuple(x)])
    n = xv.size
    steps = h * np.eye(n)
    # probes[a, b, i, j] = x + s_a h e_i + s_b h e_j, s = (1, -1)
    probes = np.array([[xv + a * steps[:, None] + b * steps for b in (1, -1)]
                       for a in (1, -1)]).reshape(-1, n)
    ok = field.inside(probes)
    if not ok.all():
        raise DomainExitError("finite-difference probe left the domain cone",
                              point=tuple(probes[int(np.argmin(ok))]))
    (pp, pm), (mp, mm) = field.values(probes).reshape(2, 2, n, n)
    return (pp - pm - mp + mm) / (4.0 * h * h)


@lru_cache(maxsize=None)
def _polarization(n):
    """Directions e_i, then e_i + e_j for the pairs (i, j), i < j, of triu_indices."""
    i, j = np.triu_indices(n, 1)
    return np.concatenate([np.eye(n), np.eye(n)[i] + np.eye(n)[j]]), i, j


def _max_hessian_eigs(field, xs):
    """Normalized largest Hessian eigenvalue of the field at each row of
    xs (m, n), -inf where the Hessian or the value is not finite.

    One jet evaluation along the directions e_i and e_i + e_j (i < j)
    gives c2(d) = d^T H d / 2 exactly up to rounding, so by polarization
    H_ii = 2 c2(e_i) and H_ij = c2(e_i + e_j) - c2(e_i) - c2(e_j)."""
    m, n = xs.shape
    dirs, i, j = _polarization(n)
    d = dirs.shape[0]
    f = field.jet(Jet(Jet.of(xs[:, None], dirs, 0.0).c.reshape(3, m * d, n))).c.reshape(3, m, d)
    half = f[2]
    hess = np.empty((m, n, n))
    hess[:, range(n), range(n)] = 2.0 * half[:, :n]
    hess[:, i, j] = hess[:, j, i] = half[:, n:] - half[:, i] - half[:, j]
    scale = (1.0 + np.abs(f[0, :, 0])) / (1.0 + np.max(np.abs(xs), axis=1)) ** 2
    ok = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(scale)
    values = np.full(m, -np.inf)
    values[ok] = np.linalg.eigvalsh(hess[ok])[:, -1] / scale[ok]
    return values


_DIRECTIONS = 4  # random midpoint directions per trial


def _midpoint_residuals(field, seed, start, xs, found):
    """Normalized 2f(x) - f(x+eps*xi) - f(x-eps*xi) of one chunk of trials
    (the first is trial start; found marks the rows of xs that hold a
    point) along _DIRECTIONS random unit directions xi per trial.  Per
    pair, eps starts at 0.05 * (1 + |x|_inf) and is halved (up to 60
    times) until both probes are inside the cone; when few pairs are left,
    several halvings are tried in one pass (halving is exact, so the result
    is the same).  Returns the points found, their directions (m, d, n),
    residuals and eps (m, d); pairs with no admissible eps or a NaN
    residual carry +inf residual."""
    n = field.n
    dirs = _normal_chunk(seed, start, found.size, _DIRECTIONS * n)
    dirs = dirs.reshape(found.size, _DIRECTIONS, n)[found]
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=2, keepdims=True))
    xs = xs[found]
    m, d, _ = dirs.shape
    base = np.repeat(xs, d, axis=0)
    flat = dirs.reshape(m * d, n)
    eps = np.repeat(0.05 * (1.0 + np.max(np.abs(xs), axis=1)), d)
    alive = np.ones(m * d, dtype=bool)
    halvings = 0
    while halvings < 60:
        idx = alive.nonzero()[0]
        if idx.size == 0:
            break
        levels = min(60 - halvings, _pass_rounds(idx.size))
        trial_eps = eps[idx] * 0.5 ** np.arange(levels)[:, None]         # (levels, k)
        step = trial_eps[..., None] * flat[idx]
        ok = field.inside(np.concatenate([base[idx] + step, base[idx] - step]).reshape(-1, n))
        good = (ok[: step.size // n] & ok[step.size // n:]).reshape(levels, idx.size)
        hit = good.any(axis=0)
        first = np.argmax(good, axis=0)
        eps[idx] = np.where(hit, trial_eps[first, np.arange(idx.size)], trial_eps[-1] * 0.5)
        alive[idx[hit]] = False
        halvings += levels
    usable = (~alive).nonzero()[0]
    res = np.full(m * d, np.inf)
    step = eps[usable, None] * flat[usable]
    vals = field.values(np.concatenate([xs, base[usable] + step, base[usable] - step]))
    f0 = vals[usable // d]
    plus, minus = vals[m: m + usable.size], vals[m + usable.size:]
    res[usable] = (2.0 * f0 - plus - minus) / (1.0 + np.abs(f0))
    res[np.isnan(res)] = np.inf
    return xs, dirs, res.reshape(m, d), eps.reshape(m, d)


def concavity_scan(
    field,
    trials,
    seed,
    tol=1e-9,
    hessian_trials=None,
    hessian_tol=1e-6,
    hessian_margin=1e-2,
):
    """Randomized concavity verification of a scalar field on its cone.

    Midpoint trials sample the full (boundary-biased) cone distribution,
    probe 4 random unit directions each and must stay >= -tol after
    normalization.  Hessian trials sample interior points (normalized
    cone margin >= hessian_margin, boundary bias 0.5), take the exact
    Hessian from second-order jets (see _max_hessian_eigs; a hand-written
    fn must therefore take jets) and require its maximum eigenvalue
    <= hessian_tol after normalization.  Defaults: hessian_trials =
    max(1, trials // 10).

    Returns a VerificationReport; details carry the Hessian worst case,
    hessian_validated (Hessian points with a finite eigenvalue) and the
    evidence counters: trials_evaluated (midpoint trials with a finite
    residual), trials_skipped (the other midpoint trials: no point found,
    or no finite residual) and directions_unresolved (sampled (trial,
    direction) pairs with no admissible probe size or a non-finite
    residual).  A scan with no finite midpoint residual, or with Hessian
    trials requested and no finite Hessian eigenvalue, does not pass; it
    is inconclusive (details["inconclusive"]) unless the other check
    fails.  A negative trial count raises DomainError.
    """
    if field.domain is None:
        raise DomainError("concavity_scan needs a field with a domain cone")
    if hessian_trials is None:
        hessian_trials = max(1, trials // 10)
    mid, hess = _Worst(), _Worst()   # hess holds -(largest eigenvalue)
    evaluated = unresolved = validated = 0
    mid_chunks, hess_chunks = _chunks(trials), _chunks(hessian_trials)
    for c in range(max(len(mid_chunks), len(hess_chunks))):
        # a chunk's midpoint and Hessian trials share the sampler's rounds
        parts = [_Part(_PHASE_POINT, *mid_chunks[c])] if c < len(mid_chunks) else []
        if c < len(hess_chunks):
            parts.append(_Part(_PHASE_HESSIAN, *hess_chunks[c], 0.5, hessian_margin))
        sampled = _sample(field.domain, seed, parts)
        if c < len(mid_chunks):
            xs, found = sampled.pop(0)
            xs, dirs, res, eps = _midpoint_residuals(field, seed, mid_chunks[c][0], xs, found)
            resolved = res < np.inf
            unresolved += int(resolved.size - resolved.sum())
            evaluated += int(resolved.any(axis=1).sum())
            mid.offer(res, lambda i, j: (tuple(xs[i].tolist()), {
                "direction": tuple(dirs[i, j].tolist()), "eps": float(eps[i, j])}))
        if c < len(hess_chunks):
            xs, found = sampled.pop(0)
            xs = xs[found]
            values = _max_hessian_eigs(field, xs)
            validated += int(np.sum(values > -np.inf))
            hess.offer(-values, lambda i: (tuple(xs[i].tolist()), None))

    details = {"field": field.name, "midpoint_worst": mid.value, "hessian_worst": -hess.value,
               "hessian_trials": hessian_trials, "hessian_validated": validated,
               "hessian_witness": hess.witness, "directions_unresolved": unresolved,
               "tol": tol, "hessian_tol": hessian_tol}
    return _evidence_report(mid, tol, trials, seed, evaluated, details,
                            [(hess, hessian_tol, validated)] if hessian_trials >= 1 else [])


# ---------------------------------------------------------------------------
# closed-form identity for the first sum-type quotient

def q1_closed_form_check(lam, xi, alpha):
    """Both sides of the q_1 midpoint identity.

    Returns (direct, closed_form) with
    direct = 2 q_1(lam) - q_1(lam+xi) - q_1(lam-xi) and
    closed_form = [alpha^2 sigma_1(xi)^2 + sum_i ((alpha+sigma_1(lam)) xi_i
    - sigma_1(xi) lam_i)^2] / prod of the three denominators.
    """
    lv = as_tuple(lam)
    xv = as_tuple(xi)
    if len(lv) != len(xv):
        raise DomainError("lam and xi must have the same length")
    plus = tuple(a + b for a, b in zip(lv, xv))
    minus = tuple(a - b for a, b in zip(lv, xv))
    q0, qp, qm = (quotient_q(v, 1, alpha) for v in (lv, plus, minus))
    direct = 2 * q0 - qp - qm
    s1l = sum(lv)
    s1x = sum(xv)
    num = alpha * alpha * s1x * s1x
    for li, xi_i in zip(lv, xv):
        term = (alpha + s1l) * xi_i - s1x * li
        num = num + term * term
    den = (alpha + s1l) * (alpha + sum(plus)) * (alpha + sum(minus))
    if den == 0:
        raise SingularityError("a q_1 denominator vanishes")
    return direct, num / den


# ---------------------------------------------------------------------------
# quotient-concavity inequality on diagonal second fundamental forms

@dataclass(frozen=True)
class GuanCheckInput:
    """Diagonal specialization data for the quotient-concavity inequalities.

    w_diag: diagonal entries of the curvature tensor (must lie in Gamma_k);
    w_vec: the fixed-direction derivative components (one per diagonal
    entry); op and s_l: the operator and its derived lower operator;
    delta: the free positive parameter of the second inequality.
    """

    w_diag: tuple
    w_vec: tuple
    op: OperatorSpec
    s_l: LowerOperatorSpec
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "w_diag", as_tuple(self.w_diag))
        object.__setattr__(self, "w_vec", as_tuple(self.w_vec))
        if len(self.w_diag) != self.op.n or len(self.w_vec) != self.op.n:
            raise DomainError("w_diag and w_vec must have length n")
        if self.delta <= 0:
            raise DomainError("delta must be positive")
        if not cone_contains(ConeSpec("garding", self.op.n, self.op.k), self.w_diag):
            raise DomainError("w_diag must lie in Gamma_k")

    @property
    def beta(self):
        return 1.0 / (self.op.k - self.s_l.l)


def _guan_terms(op, low, beta, delta, w, v):
    """Residuals of both quotient-concavity inequalities for rows of
    diagonal curvature tensors w (m, n) and derivative vectors v (m, n).

    Returns (residual_1, residual_2, a_q, Q(W), S_l(W)), each shape (m,).
    Q and S_l with their first and second derivatives along v (a_q =
    v^T Hess Q v) come from one jet w + t*v per row.
    """
    jet = Jet.of(w, v, 0.0)
    (qv, dq, half_q), (sv, ds, half_s) = q_eval_batch(op, jet).c, q_eval_batch(low, jet).c
    if np.any(qv == 0.0) or np.any(sv == 0.0):
        raise SingularityError("Q(W) or S_l(W) vanishes")
    a_q, a_s = 2.0 * half_q, 2.0 * half_s
    gq = dq / qv
    gs = ds / sv

    lhs1 = -a_q / qv + a_s / sv
    rhs1 = (gq - gs) * ((beta - 1.0) * gq - (beta + 1.0) * gs)
    lhs2 = -a_q + (1.0 - beta + beta / delta) * dq * dq / qv
    rhs2 = qv * (beta + 1.0 - delta * beta) * gs * gs - (qv / sv) * a_s
    return lhs1 - rhs1, lhs2 - rhs2, a_q, qv, sv


def guan_inequality_check(inp):
    """LHS - RHS of the two quotient-concavity inequalities at one instance.

    Contractions are specialized to a diagonal curvature tensor and a single
    derivative direction (only the diagonal derivative components enter).
    Returns (residual_1, residual_2); residual_1 >= 0 is the certified
    direction, residual_2 is reported for inspection.
    """
    w = np.array([[float(t) for t in inp.w_diag]])
    v = np.array([[float(t) for t in inp.w_vec]])
    r1, r2, _, _, _ = _guan_terms(inp.op, inp.s_l.as_operator(), inp.beta,
                                  float(inp.delta), w, v)
    return float(r1[0]), float(r2[0])


def guan_scan(op, s_l, trials, seed, delta=1.0, tol=1e-9):
    """Randomized scan of the first quotient-concavity inequality.

    Samples W in Gamma_k and normal derivative vectors scaled by
    1 + |W|_inf; worst_value is the minimum of
    residual_1 / (1 + |a_q / Q| + |residual_1|), with a_q the
    Hessian of Q contracted with the derivative vector.  The second
    inequality's worst normalized residual is reported in details, not
    asserted.  A trial the sampler finds no point for is skipped.
    """
    cone = ConeSpec("garding", op.n, op.k)
    low = s_l.as_operator()
    beta = 1.0 / (op.k - s_l.l)
    worst1, worst2 = _Worst(), _Worst()
    evaluated = 0
    for start, m in _chunks(trials):
        [(w, found)] = _sample(cone, seed, [_Part(_PHASE_POINT, start, m)])
        v = _normal_chunk(seed, start, m, op.n)
        w, v = w[found], v[found] * (1.0 + np.max(np.abs(w[found]), axis=1))[:, None]
        evaluated += w.shape[0]
        r1, r2, a_q, qv, sv = _guan_terms(op, low, beta, float(delta), w, v)
        n1 = r1 / (1.0 + np.abs(a_q / qv) + np.abs(r1))
        n2 = r2 / (1.0 + np.abs(a_q) + np.abs(r2) + qv * qv / np.maximum(sv, 1e-300))
        worst1.offer(n1, lambda i: (tuple(w[i].tolist()),
                                    {"w_vec": tuple(v[i].tolist()), "delta": delta}))
        worst2.offer(n2, lambda i: (None, None))
    return _evidence_report(worst1, tol, trials, seed, evaluated,
                            {"second_inequality_worst": worst2.value, "delta": delta})
