"""Numerical concavity verification.

Fields under test are scalar functions on an open cone.  Two instruments:
a midpoint test 2f(x) - f(x+eps*xi) - f(x-eps*xi) >= 0 (exact for concave f
at any admissible probe size, so it runs tight tolerances even near the
cone boundary) and a central-difference Hessian whose maximum eigenvalue
must be nonpositive (run at interior points, where floating-point noise is
controlled).

Residuals are normalized: midpoint defects by 1 + |f(x)|, Hessian
eigenvalues by (1 + |f(x)|) / (1 + |x|_inf)^2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, DomainExitError, SingularityError
from .symfun import as_tuple, sigma_all, sigma_all_batch
from .combop import (
    OperatorSpec,
    LowerOperatorSpec,
    _pairs,
    q_eval_batch,
    q_grad_batch,
    q_hess_batch,
)
from .cones import (
    ConeSpec,
    VerificationReport,
    cone_contains,
    cone_margins_batch,
    _PHASE_HESSIAN,
    _PHASE_NORMAL,
    _PHASE_POINT,
    _Draws,
    _Part,
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
    "default_step",
    "concavity_scan",
    "q1_closed_form_check",
    "guan_inequality_check",
    "guan_scan",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ScalarField:
    """A named scalar function with its domain cone (None = all of R^n).

    values(points) is the one evaluation path.  batch_fn maps an (m, n)
    array to m values; the catalog fields below are built from this batch
    kernel alone.  A hand-written field may give a scalar fn instead, which
    values applies row by row.  Calling the field evaluates one point
    through values and raises SingularityError where the value is not
    finite.
    """

    name: str
    n: int
    fn: object = None
    domain: ConeSpec = None
    batch_fn: object = None

    def __call__(self, x):
        point = as_tuple(x)
        if len(point) != self.n:
            raise DomainError(f"field expects n={self.n}, got {len(point)}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = float(self.values([point])[0])
        if not np.isfinite(value):
            raise SingularityError(f"{self.name} is not finite at {point}")
        return value

    def contains(self, x):
        return self.domain is None or cone_contains(self.domain, x)

    def values(self, points):
        pts = np.asarray(points, dtype=float)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(pts), dtype=float)
        return np.array([self.fn(tuple(p)) for p in pts], dtype=float)

    def inside(self, points):
        """Boolean mask of strict domain membership for an (m, n) array."""
        pts = np.asarray(points, dtype=float)
        if self.domain is None:
            return np.ones(pts.shape[0], dtype=bool)
        return cone_margins_batch(self.domain, pts) > self.domain.tol


# ---------------------------------------------------------------------------
# field catalog

def quotient_qk_field(n, k, alpha, domain=None):
    """Sum-type quotient q_k = (sigma_{k+1}+alpha*sigma_k)/(sigma_k+alpha*sigma_{k-1}),
    1 <= k <= n-1.

    Default domain Gamma_k; pass e.g. Gamma_{k+1} to test the smaller domain.
    """
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    a = float(alpha)

    def batch(pts):
        e = sigma_all_batch(pts, k + 1)
        return (e[..., k + 1] + a * e[..., k]) / (e[..., k] + a * e[..., k - 1])

    return ScalarField(
        name=f"q_{k}[alpha={alpha}]",
        n=n,
        domain=domain or ConeSpec("garding", n, k),
        batch_fn=batch,
    )


def sigma_over_q_field(n, k, alpha):
    """sigma_k / (sigma_k + alpha*sigma_{k-1}) on the admissible cone Gamma~_k."""
    a = float(alpha)

    def batch(pts):
        e = sigma_all_batch(pts, k)
        return e[..., k] / (e[..., k] + a * e[..., k - 1])

    return ScalarField(
        name=f"sigma_{k}/Q_S^{k}[alpha={alpha}]",
        n=n,
        domain=ConeSpec("tilde", n, k, alpha),
        batch_fn=batch,
    )


def sum_ratio_field(n, k, l, alpha):
    """(Q_S^k / Q_S^l)^(1/(k-l)) on Gamma~_k, 1 <= l < k."""
    if not 1 <= l < k:
        raise DomainError(f"need 1 <= l < k, got l={l}, k={k}")
    a = float(alpha)
    power = 1.0 / (k - l)

    def batch(pts):
        e = sigma_all_batch(pts, k)
        return ((e[..., k] + a * e[..., k - 1]) / (e[..., l] + a * e[..., l - 1])) ** power

    return ScalarField(
        name=f"(Q_S^{k}/Q_S^{l})^(1/{k - l})[alpha={alpha}]",
        n=n,
        domain=ConeSpec("tilde", n, k, alpha),
        batch_fn=batch,
    )


def sum_root_field(n, k, alpha):
    """(Q_S^k)^(1/k) on Gamma~_k."""
    a = float(alpha)

    def batch(pts):
        e = sigma_all_batch(pts, k)
        return (e[..., k] + a * e[..., k - 1]) ** (1.0 / k)

    return ScalarField(
        name=f"(Q_S^{k})^(1/{k})[alpha={alpha}]",
        n=n,
        domain=ConeSpec("tilde", n, k, alpha),
        batch_fn=batch,
    )


def root_q_field(op):
    """Q^(1/k) on Gamma_k."""
    return ScalarField(
        name=f"Q^(1/{op.k})",
        n=op.n,
        domain=ConeSpec("garding", op.n, op.k),
        batch_fn=lambda pts: q_eval_batch(op, pts) ** (1.0 / op.k),
    )


def lower_quotient_field(op, lower):
    """(Q / Q^{N'}_l)^(1/(k-l)) on Gamma_k for a derived lower operator."""
    if not isinstance(lower, LowerOperatorSpec):
        raise DomainError("lower must be a LowerOperatorSpec from combop.lower_operator")
    low_op = lower.as_operator()
    power = 1.0 / (op.k - lower.l)
    return ScalarField(
        name=f"(Q/Q^{lower.n_prime}_{lower.l})^(1/{op.k - lower.l})",
        n=op.n,
        domain=ConeSpec("garding", op.n, op.k),
        batch_fn=lambda pts: (q_eval_batch(op, pts) / q_eval_batch(low_op, pts)) ** power,
    )


# ---------------------------------------------------------------------------
# instruments

def default_step(x):
    """Central-second-difference step: eps^(1/4) * (1 + |x|_inf).

    The fourth-root scaling balances truncation against roundoff for second
    differences; the cube-root first-derivative step leaves ~1e-5 noise in
    the normalized eigenvalues, too coarse for the 1e-6 gate used here.
    """
    return _EPS**0.25 * (1.0 + max(abs(float(v)) for v in x))


@lru_cache(maxsize=None)
def _hessian_stencil(n):
    # displacement stencil (unit steps) for one central-difference Hessian:
    # row 0 is the base point, then +-e_i, then the four corners per (i, j)
    rows = [np.zeros(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.extend([e, -e])
    for i in range(n):
        for j in range(i + 1, n):
            d = np.zeros(n)
            d[i], d[j] = 1.0, 1.0
            rows.append(d.copy())
            d[j] = -1.0
            rows.append(d.copy())
            d[i], d[j] = -1.0, 1.0
            rows.append(d.copy())
            d[j] = -1.0
            rows.append(d.copy())
    return np.array(rows)


def _stencil_probes(xs, hs):
    """Central-difference probe points, shape (m, 2n^2+1, n), for rows of
    xs (m, n) with steps hs (m,)."""
    return xs[:, None, :] + hs[:, None, None] * _hessian_stencil(xs.shape[1])[None]


def _hessians_from_values(vals, n, hs):
    """Central-difference Hessians (m, n, n) from stencil values (m, 2n^2+1)."""
    m = vals.shape[0]
    h2 = (hs**2)[:, None]
    fx = vals[:, :1]
    hess = np.zeros((m, n, n))
    diag = np.arange(n)
    hess[:, diag, diag] = (vals[:, 1: 2 * n + 1: 2] - 2.0 * fx + vals[:, 2: 2 * n + 2: 2]) / h2
    if n > 1:
        i, j = _pairs(n)  # same pair order as the stencil
        fpp, fpm, fmp, fmm = vals[:, 2 * n + 1:].reshape(m, -1, 4).transpose(2, 0, 1)
        off = (fpp - fpm - fmp + fmm) / (4.0 * h2)
        hess[:, i, j] = off
        hess[:, j, i] = off
    return hess


def fd_hessian(field, x, h):
    """Symmetrized central-difference Hessian of the field at x, step h.

    Every probe point must stay inside the field's domain cone; a probe
    that exits raises DomainExitError carrying the offending point.
    """
    xv = np.array([float(v) for v in as_tuple(x)])
    n = xv.size
    if field.n != n:
        raise DomainError(f"field expects n={field.n}, got {n}")
    hs = np.array([float(h)])
    probes = _stencil_probes(xv[None, :], hs)[0]
    ok = field.inside(probes)
    if not ok.all():
        bad = probes[int(np.argmin(ok))]
        raise DomainExitError("finite-difference probe left the domain cone",
                              point=tuple(bad))
    return _hessians_from_values(field.values(probes)[None, :], n, hs)[0]


def _validated_max_eigs(field, xs, gate):
    """Normalized max Hessian eigenvalues with a step-halving validity gate.

    For each row of xs (m, n), evaluates the central-difference Hessian at
    steps h and h/2 and accepts the Richardson extrapolate
    (4*H(h/2) - H(h))/3 only when the two max-eigenvalue estimates agree
    within `gate` (normalized); otherwise the step is halved, up to 3
    times.  A stencil that leaves the domain also halves the step.  Returns
    (values, validated); rows with no trustworthy estimate (truncation-
    dominated probe, e.g. too close to the cone boundary) are not validated.
    """
    m, n = xs.shape
    top = 1.0 + np.max(np.abs(xs), axis=1)
    h = 2.0 * _EPS**0.25 * top
    values = np.full(m, np.nan)
    validated = np.zeros(m, dtype=bool)
    for _ in range(3):
        rows = (~validated).nonzero()[0]
        if rows.size == 0:
            break
        k = rows.size
        hs = np.concatenate([h[rows], 0.5 * h[rows]])
        probes = _stencil_probes(np.concatenate([xs[rows], xs[rows]]), hs)
        s = probes.shape[1]
        inside = field.inside(probes.reshape(-1, n)).reshape(2 * k, s).all(axis=1)
        usable = (inside[:k] & inside[k:]).nonzero()[0]
        if usable.size:
            both = np.concatenate([usable, usable + k])
            vals = field.values(probes[both].reshape(-1, n)).reshape(-1, s)
            hess = _hessians_from_values(vals, n, hs[both])
            coarse, fine = hess[: usable.size], hess[usable.size:]
            extrap = (4.0 * fine - coarse) / 3.0
            # stencil row 0 is x itself
            scale = (1.0 + np.abs(vals[: usable.size, 0])) / top[rows[usable]] ** 2
            e_coarse, e_fine, e_extrap = np.linalg.eigvalsh(
                np.concatenate([hess, extrap]))[:, -1].reshape(3, -1) / scale
            agree = np.abs(e_coarse - e_fine) <= gate
            done = rows[usable[agree]]
            values[done] = e_extrap[agree]
            validated[done] = True
        h[rows] *= 0.5
    return values, validated


def _midpoint_residuals(field, xs, dirs):
    """Normalized 2f(x) - f(x+eps*xi) - f(x-eps*xi) for every (trial,
    direction) pair: xs (m, n), dirs (m, d, n).  Per pair, eps starts at
    0.05 * (1 + |x|_inf) and is halved (up to 60 times) until both probes
    are inside the cone; when few pairs are left, several halvings are
    tried in one pass (halving is exact, so the result is the same).
    Returns (residuals, eps), shape (m, d); pairs with no admissible eps
    carry +inf residual."""
    m, d, n = dirs.shape
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
    return res.reshape(m, d), eps.reshape(m, d)


def _midpoint_chunk(field, draws, start, xs, found, directions):
    """Midpoint residuals of one chunk of trials (see _midpoint_residuals)
    along `directions` random unit directions per trial.  Returns the
    trials that have a point, their directions, residuals (NaN read as
    unresolved, +inf) and probe sizes."""
    m, n = found.size, field.n
    dirs = _normal_chunk(draws, _PHASE_NORMAL, start, m, directions * n)
    dirs = dirs.reshape(m, directions, n)[found]
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=2, keepdims=True))
    xs = xs[found]
    res, eps = _midpoint_residuals(field, xs, dirs)
    res[np.isnan(res)] = np.inf
    return xs, dirs, res, eps


def _hessian_chunk(field, draws, start, xs, found, gate, margin):
    """Validated max Hessian eigenvalues of one chunk of trials, given their
    first samples; a trial whose estimate does not validate is resampled,
    up to 6 samples in all.  Returns (values, points, validated)."""
    m = found.size
    values = np.full(m, -np.inf)
    points = np.zeros((m, field.n))
    done = np.zeros(m, dtype=bool)
    for j in range(6):
        if j:
            if done.all():
                break
            [(xs, found)] = _sample(field.domain, draws,
                                    [_Part(_PHASE_HESSIAN + j, start, m, 0.5, margin, ~done)])
        rows = found.nonzero()[0]
        if rows.size:
            got, ok = _validated_max_eigs(field, xs[rows], gate)
            rows = rows[ok]
            values[rows], points[rows], done[rows] = got[ok], xs[rows], True
    return values, points, done


def concavity_scan(
    field,
    trials,
    seed,
    tol=1e-9,
    hessian_trials=None,
    hessian_tol=1e-6,
    directions=4,
    hessian_margin=1e-2,
):
    """Randomized concavity verification of a scalar field on its cone.

    Midpoint trials sample the full (boundary-biased) cone distribution and
    must stay >= -tol after normalization.  Hessian trials sample interior
    points (normalized cone margin >= hessian_margin), validate each
    eigenvalue estimate by step-halving agreement (up to 6 resamples per
    trial), and require the maximum eigenvalue <= hessian_tol after
    normalization.  Defaults: hessian_trials = max(1, trials // 10).

    Returns a VerificationReport; details carry the Hessian worst case, the
    number of validated Hessian probes and the evidence counters:
    trials_evaluated (midpoint trials with a finite residual),
    trials_skipped (midpoint trials the sampler found no point for) and
    directions_unresolved (sampled (trial, direction) pairs with no
    admissible probe size or a non-finite residual).  A scan with no finite
    midpoint residual, or with Hessian trials requested and none
    validated, is inconclusive: details["inconclusive"] is True and the
    report does not pass.
    """
    if field.domain is None:
        raise DomainError("concavity_scan needs a field with a domain cone")
    if hessian_trials is None:
        hessian_trials = max(1, trials // 10)
    dom, n = field.domain, field.n
    draws = _Draws(seed)
    mid_worst = np.inf
    mid_witness = None
    mid_extra = None
    evaluated = skipped = unresolved = 0
    hess_worst = -np.inf
    hess_witness = None
    validated = 0
    mid_chunks, hess_chunks = _chunks(trials), _chunks(hessian_trials)
    for c in range(max(len(mid_chunks), len(hess_chunks))):
        # a chunk's midpoint and Hessian trials share the sampler's rounds
        parts = [_Part(_PHASE_POINT, *mid_chunks[c])] if c < len(mid_chunks) else []
        if c < len(hess_chunks):
            parts.append(_Part(_PHASE_HESSIAN, *hess_chunks[c], 0.5, hessian_margin))
        sampled = _sample(dom, draws, parts)
        if c < len(mid_chunks):
            xs, found = sampled.pop(0)
            xs, dirs, res, eps = _midpoint_chunk(field, draws, mid_chunks[c][0], xs, found,
                                                 directions)
            resolved = res < np.inf
            skipped += found.size - xs.shape[0]
            unresolved += int(resolved.size - resolved.sum())
            evaluated += int(resolved.any(axis=1).sum())
            if res.size:
                i, j = np.unravel_index(np.argmin(res), res.shape)
                if res[i, j] < mid_worst:
                    mid_worst = float(res[i, j])
                    mid_witness = tuple(float(v) for v in xs[i])
                    mid_extra = {"direction": tuple(float(v) for v in dirs[i, j]),
                                 "eps": float(eps[i, j])}
        if c < len(hess_chunks):
            xs, found = sampled.pop(0)
            values, points, done = _hessian_chunk(field, draws, hess_chunks[c][0], xs, found,
                                                  0.3 * hessian_tol, hessian_margin)
            validated += int(done.sum())
            i = int(np.argmax(values))
            if done[i] and values[i] > hess_worst:
                hess_worst = float(values[i])
                hess_witness = tuple(float(v) for v in points[i])

    inconclusive = evaluated == 0 or (hessian_trials >= 1 and validated == 0)
    passed = not inconclusive and bool(mid_worst >= -tol) and bool(hess_worst <= hessian_tol)
    witness = hess_witness if (mid_worst >= -tol and hess_worst > hessian_tol) else mid_witness
    return VerificationReport(
        passed=passed,
        trials=trials,
        worst_value=float(mid_worst),
        seed=seed,
        witness=witness,
        witness_extra=mid_extra,
        details={
            "field": field.name,
            "midpoint_worst": float(mid_worst),
            "hessian_worst": float(hess_worst),
            "hessian_trials": hessian_trials,
            "hessian_validated": validated,
            "hessian_witness": hess_witness,
            "trials_evaluated": evaluated,
            "trials_skipped": skipped,
            "directions_unresolved": unresolved,
            "inconclusive": inconclusive,
            "tol": tol,
            "hessian_tol": hessian_tol,
        },
    )


# ---------------------------------------------------------------------------
# closed-form identity for the first sum-type quotient

def _q1(lam, alpha):
    e = sigma_all(lam, 2)
    den = e[1] + alpha
    if den == 0:
        raise SingularityError("sigma_1 + alpha vanishes")
    return (e[2] + alpha * e[1]) / den


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
    direct = 2 * _q1(lv, alpha) - _q1(plus, alpha) - _q1(minus, alpha)
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

    Returns (residual_1, residual_2, a_q, Q(W), S_l(W)), each shape (m,);
    Q, S_l, their gradients and Hessians are evaluated once per row.
    """
    qv = q_eval_batch(op, w)
    sv = q_eval_batch(low, w)
    if np.any(qv == 0.0) or np.any(sv == 0.0):
        raise SingularityError("Q(W) or S_l(W) vanishes")
    a_q = np.einsum("mp,mpq,mq->m", v, q_hess_batch(op, w), v)
    a_s = np.einsum("mp,mpq,mq->m", v, q_hess_batch(low, w), v)
    dq = np.sum(q_grad_batch(op, w) * v, axis=-1)
    ds = np.sum(q_grad_batch(low, w) * v, axis=-1)
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


def guan_scan(op, s_l, trials, seed, delta=1.0, tol=1e-9, w_scale=1.0):
    """Randomized scan of the first quotient-concavity inequality.

    Samples W in Gamma_k and normal derivative vectors; worst_value is the
    minimum of residual_1 / (1 + |a_q / Q| + |residual_1|), with a_q the
    Hessian of Q contracted with the derivative vector.  The second
    inequality's worst normalized residual is reported in details, not
    asserted.  A trial the sampler finds no point for is skipped.
    """
    cone = ConeSpec("garding", op.n, op.k)
    low = s_l.as_operator()
    beta = 1.0 / (op.k - s_l.l)
    draws = _Draws(seed)
    worst1 = np.inf
    worst2 = np.inf
    witness = None
    extra = None
    evaluated = 0
    for start, m in _chunks(trials):
        [(w, found)] = _sample(cone, draws, [_Part(_PHASE_POINT, start, m)])
        v = _normal_chunk(draws, _PHASE_NORMAL, start, m, op.n)
        w, v = w[found], v[found] * (w_scale * (1.0 + np.max(np.abs(w[found]), axis=1)))[:, None]
        evaluated += w.shape[0]
        if w.shape[0] == 0:
            continue
        r1, r2, a_q, qv, sv = _guan_terms(op, low, beta, float(delta), w, v)
        n1 = r1 / (1.0 + np.abs(a_q / qv) + np.abs(r1))
        n2 = r2 / (1.0 + np.abs(a_q) + np.abs(r2) + qv * qv / np.maximum(sv, 1e-300))
        i = int(np.argmin(n1))
        if n1[i] < worst1:
            worst1 = float(n1[i])
            witness = tuple(float(t) for t in w[i])
            extra = {"w_vec": tuple(float(t) for t in v[i]), "delta": delta}
        worst2 = min(worst2, float(n2.min()))
    return _evidence_report(worst1, tol, trials, seed, evaluated, witness, extra,
                            {"second_inequality_worst": float(worst2), "delta": delta})
