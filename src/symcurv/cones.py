"""Membership, sampling and randomized verification for the cones Gamma_k
(all sigma_m > 0 up to k) and the admissible cone Gamma~_k
(Gamma_{k-1} intersected with {alpha*sigma_{k-1} + sigma_k > 0}).

Strict inequalities are tested against dimension-aware scales: sigma_m is
compared with tol * C(n,m) * max|lam_i|^m.  Randomness is counter-based
(Philox keyed by seed, one counter block per trial), so every report is
reproducible from (seed, trial index).
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DomainError, SamplingError
from .symfun import as_tuple, sigma_all, sigma_all_batch
from . import combop

__all__ = [
    "DEFAULT_TOL",
    "ConeSpec",
    "VerificationReport",
    "trial_rng",
    "in_gamma_k",
    "in_gamma_tilde",
    "cone_contains",
    "cone_margin",
    "sample_cone",
    "segment_convexity_check",
    "ellipticity_check",
    "ellipticity_scan",
]

DEFAULT_TOL = 1e-12

_MAG_LO, _MAG_HI = -2.0, 2.0  # log10 magnitude window for sampling


@dataclass(frozen=True)
class ConeSpec:
    """Identifies Gamma_k ('garding') or Gamma~_k ('tilde', with alpha)."""

    kind: str
    n: int
    k: int
    alpha: float = 0.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.kind not in ("garding", "tilde"):
            raise DomainError(f"unknown cone kind {self.kind!r}")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.alpha < 0:
            raise DomainError("alpha must be nonnegative")
        if self.tol < 0:
            raise DomainError("tol must be nonnegative")


@dataclass
class VerificationReport:
    """Outcome of a randomized property scan.

    worst_value is the signed residual of the property (normalized so that
    nonnegative means satisfied); passed is worst_value >= -tol under the
    scan's tolerance.  witness holds the worst-case sample.
    """

    passed: bool
    trials: int
    worst_value: float
    seed: int
    witness: tuple = None
    witness_extra: dict = None
    details: dict = field(default_factory=dict)

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} trials={self.trials} worst={self.worst_value:.3e} seed={self.seed}"


def trial_rng(seed, index):
    """Independent generator for one trial: Philox keyed by seed, counter=index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[index, 0, 0, 0]))


class _TrialStreams:
    """Pool producing the same per-trial streams as trial_rng(seed, i) but
    reusing one bit generator (state reset instead of reconstruction)."""

    def __init__(self, seed):
        self._bg = np.random.Philox(key=seed)
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state
        self._template["buffer_pos"] = 4  # force refill from the counter
        self._template["has_uint32"] = 0
        self._template["uinteger"] = 0

    def at(self, index):
        self._template["state"]["counter"][0] = index
        self._bg.state = self._template
        return self._gen


def _normalized_sigmas(values, k):
    # sigma_m / (C(n,m) max|lam|^m) for m = 1..k
    n = len(values)
    e = sigma_all(values, k)
    top = max(abs(float(x)) for x in values)
    if top == 0.0:
        return [0.0] * k
    out = []
    power = 1.0
    for m in range(1, k + 1):
        power *= top
        out.append(float(e[m]) / (comb(n, m) * power))
    return out


def in_gamma_k(lam, k, tol=DEFAULT_TOL):
    """True iff sigma_m(lam) > tol * C(n,m) * max|lam|^m for all m = 1..k.

    k = 0 is the whole space (vacuously true).
    """
    values = as_tuple(lam)
    n = len(values)
    if not 0 <= k <= n:
        raise DomainError(f"k={k} out of range 0..{n}")
    if k == 0:
        return True
    return all(v > tol for v in _normalized_sigmas(values, k))


def _tilde_quantity(values, k, alpha):
    # alpha*sigma_{k-1} + sigma_k, normalized by its own scale
    n = len(values)
    e = sigma_all(values, k)
    q = alpha * e[k - 1] + e[k]
    top = max(abs(float(x)) for x in values)
    if top == 0.0:
        return 0.0
    scale = comb(n, k) * top**k + float(alpha) * comb(n, k - 1) * top ** (k - 1)
    return float(q) / scale


def in_gamma_tilde(lam, k, alpha, tol=DEFAULT_TOL):
    """True iff lam is in Gamma_{k-1} and alpha*sigma_{k-1} + sigma_k > tol*scale."""
    values = as_tuple(lam)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    if not in_gamma_k(values, k - 1, tol):
        return False
    return _tilde_quantity(values, k, alpha) > tol


def cone_contains(spec, lam):
    if spec.kind == "garding":
        return in_gamma_k(lam, spec.k, spec.tol)
    return in_gamma_tilde(lam, spec.k, spec.alpha, spec.tol)


def cone_margin(spec, lam):
    """Smallest normalized defining quantity; positive iff strictly inside."""
    values = as_tuple(lam)
    if spec.kind == "garding":
        return min(_normalized_sigmas(values, spec.k))
    qs = _normalized_sigmas(values, spec.k - 1) if spec.k > 1 else []
    qs.append(_tilde_quantity(values, spec.k, spec.alpha))
    return min(qs)


@lru_cache(maxsize=None)
def _binom_row(n, k):
    return np.array([comb(n, m) for m in range(k + 1)], dtype=float)


def cone_margins_batch(spec, points):
    """Normalized cone margins for an (m, n) array of points (vectorized)."""
    pts = np.asarray(points, dtype=float)
    n, k = spec.n, spec.k
    e = sigma_all_batch(pts, k)
    top = np.max(np.abs(pts), axis=-1)
    safe = np.where(top > 0.0, top, 1.0)
    binom = _binom_row(n, k)
    upto = k if spec.kind == "garding" else k - 1
    margins = np.full(pts.shape[:-1] + (max(upto, 1),), np.inf)
    power = np.ones_like(safe)
    for m in range(1, upto + 1):
        power = power * safe
        margins[..., m - 1] = e[..., m] / (binom[m] * power)
    out = margins.min(axis=-1) if upto >= 1 else np.full(pts.shape[:-1], np.inf)
    if spec.kind == "tilde":
        alpha = float(spec.alpha)
        q = alpha * e[..., k - 1] + e[..., k]
        scale = binom[k] * safe**k + alpha * binom[k - 1] * safe ** (k - 1)
        out = np.minimum(out, q / scale)
    return np.where(top > 0.0, out, 0.0)


_LADDER = np.linspace(1.0 / 48, 1.0, 48)


def _sample_one(spec, rng, boundary_bias=0.8, min_margin=0.0, max_tries=200):
    """One cone point: positive-orthant draw, optionally mixed toward a
    direction with one negative entry, pulled back just inside the boundary."""
    n = spec.n
    for _ in range(max_tries):
        p = 10.0 ** rng.uniform(_MAG_LO, _MAG_HI, n)
        cand = p
        if rng.uniform() < boundary_bias:
            v = 10.0 ** rng.uniform(_MAG_LO, _MAG_HI, n)
            v[rng.integers(n)] *= -1.0
            # feasible blend parameters form an interval around 0 (convex
            # cone), so the largest feasible ladder point approximates the
            # boundary from inside
            t = _LADDER[:, None]
            margins = cone_margins_batch(spec, (1.0 - t) * p[None, :] + t * v[None, :])
            feasible = np.nonzero(margins > spec.tol)[0]
            t_hi = float(_LADDER[feasible[-1]]) if feasible.size else 0.0
            t = 0.999 * t_hi * rng.uniform() ** 0.25
            cand = (1.0 - t) * p + t * v
        point = tuple(float(v) for v in cand)
        if cone_margin(spec, point) >= max(min_margin, spec.tol):
            return point
    return None


def sample_cone(spec, count, seed, boundary_bias=0.8, min_margin=0.0):
    """count verified cone points, deterministic in seed.

    Magnitudes are log-uniform in [1e-2, 1e2]; a boundary_bias fraction of
    draws is mixed toward a vector with one negative entry so that Gamma~_k
    samples populate the sigma_k < 0 region.  Draws that exit the cone are
    rejected; a trial that finds no point is replaced by the next trial
    index after count, and SamplingError is raised once the empty trials
    outnumber the points requested.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    out = []
    failures = 0
    streams = _TrialStreams(seed)
    index = 0
    while len(out) < count:
        point = _sample_one(spec, streams.at(index), boundary_bias, min_margin)
        index += 1
        if point is None:
            failures += 1
            if failures > count:
                raise SamplingError(
                    f"{failures} empty trials outnumber the {len(out)} points drawn "
                    f"({count} requested) while sampling {spec.kind} cone"
                )
            continue
        out.append(point)
    return out


def segment_convexity_check(spec, trials, seed):
    """Worst normalized cone margin over random in-cone segments.

    Each trial draws two cone points and checks the 9 interior blends
    t = 0.1..0.9; the report's worst_value is the minimum margin seen
    (convexity of the cone makes it positive).
    """
    worst = np.inf
    witness = None
    extra = None
    streams = _TrialStreams(seed)
    for i in range(trials):
        rng = streams.at(i)
        lam = _sample_one(spec, rng)
        mu = _sample_one(spec, rng)
        if lam is None or mu is None:
            raise SamplingError("cone sampling failed during convexity scan")
        for j in range(1, 10):
            t = j / 10.0
            blend = tuple(t * a + (1 - t) * b for a, b in zip(lam, mu))
            m = cone_margin(spec, blend)
            if m < worst:
                worst = m
                witness = lam
                extra = {"other_endpoint": mu, "t": t, "blend": blend}
    return VerificationReport(
        passed=bool(worst >= -spec.tol),
        trials=trials,
        worst_value=float(worst),
        seed=seed,
        witness=witness,
        witness_extra=extra,
    )


def ellipticity_check(op, lam):
    """min_i Q^{ii}(lam); positive iff Q is strictly elliptic at lam."""
    return min(combop.q_grad(op, lam))


def _grad_scale(op, values):
    top = max(abs(float(x)) for x in values) or 1.0
    n = op.n
    total = 0.0
    for s, a in enumerate(op.alphas):
        if s == 0 or a == 0:
            continue
        total += float(a) * comb(n - 1, s - 1) * top ** (s - 1)
    return total or 1.0


def ellipticity_scan(op, spec, trials, seed, tol=DEFAULT_TOL):
    """Worst normalized min_i Q^{ii} over cone samples."""
    worst = np.inf
    witness = None
    streams = _TrialStreams(seed)
    for i in range(trials):
        lam = _sample_one(spec, streams.at(i))
        if lam is None:
            raise SamplingError("cone sampling failed during ellipticity scan")
        value = float(ellipticity_check(op, lam)) / _grad_scale(op, lam)
        if value < worst:
            worst = value
            witness = lam
    return VerificationReport(
        passed=bool(worst >= -tol),
        trials=trials,
        worst_value=float(worst),
        seed=seed,
        witness=witness,
    )
