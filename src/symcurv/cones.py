"""Membership, sampling and randomized verification for the cones Gamma_k
(all sigma_m > 0 up to k) and the admissible cone Gamma~_k
(Gamma_{k-1} intersected with {alpha*sigma_{k-1} + sigma_k > 0}).

Strict inequalities are tested against dimension-aware scales: sigma_m is
compared with tol * C(n,m) * max|lam_i|^m.

Randomness is counter-based (Philox keyed by the seed, after Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  The scans draw
with the counter [block, group, phase, 0]: in each (phase, group) trial i
owns the fixed-width block of doubles starting at double i*W (W a multiple
of 4, so the block is W/4 whole Philox counter blocks).  The phase
separates the independent draws of one trial (its cone point, a second
point, its normal directions, its Hessian resamples); the sampler's
rejection tries come in groups of _TRY_GROUP, try r reading the slice
r mod _TRY_GROUP of the block of group r // _TRY_GROUP.  Only
fixed-consumption variates (``random()``) are drawn and then transformed,
so trial i's draws depend only on (seed, i): not on the trial count, the
chunk boundaries or the other trials, and no two trials share a draw.
Scans process trials in chunks of _CHUNK, drawing a chunk with one Philox
call per pass and evaluating it in masked, vectorized rounds.
trial_rng(seed, i) is a separate per-trial generator (trial index in the
top counter word) for code that draws one trial at a time.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DomainError, SamplingError
from .symfun import as_tuple, _entry_major, _sigma_rows
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
    scan's tolerance.  witness holds the worst-case sample.  The scans
    count their evidence in details (trials_evaluated, trials_skipped); a
    scan without evidence is inconclusive (details["inconclusive"]) and
    does not pass.
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
        if self.details.get("inconclusive"):
            tag += " (inconclusive)"
        return f"{tag} trials={self.trials} worst={self.worst_value:.3e} seed={self.seed}"


def trial_rng(seed, index):
    """Independent generator for one trial: Philox keyed by seed, with the
    trial index in the top counter word, so the streams of different trials
    never overlap.  trial_rng(seed, 0) is Philox(key=seed)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


_CHUNK = 512  # trials drawn and evaluated together; bounds memory per scan

# phases: independent draws of one trial (counter word 2)
_PHASE_POINT = 0      # the trial's cone point
_PHASE_OTHER = 1      # a second cone point (segment convexity)
_PHASE_NORMAL = 2     # normal vectors (midpoint directions, Guan derivative vectors)
_PHASE_HESSIAN = 3    # Hessian resamples use _PHASE_HESSIAN + j


def _width(count):
    """Doubles per trial block: count rounded up to whole Philox blocks."""
    return 4 * -(-count // 4)


class _Draws:
    """Uniform draws of one seed's Philox stream in the scans' layout.

    One bit generator per phase is reused while successive draws of that
    phase move forward in the counter, and rebuilt when a draw lies behind
    the last one."""

    def __init__(self, seed):
        self.seed = seed
        # phase -> (bit generator, generator, counter after its last draw:
        # the next block it makes is that counter + 1)
        self._streams = {}

    def uniforms(self, phase, first, rounds, start, count, width, group=1):
        """Uniforms of trials start..start+count-1 for tries first..first+rounds-1
        in `phase`: shape (rounds, count, width).

        Tries come in groups of `group`: in try group g trial i owns the
        block of group * width doubles that starts after Philox counter
        [i * group * width / 4, g, phase, 0] (Philox pre-increments its
        counter), and try r reads the (r mod group)-th width-slice of it.
        The tries asked for must lie in one group."""
        g, j = divmod(first, group)
        if j + rounds > group:
            raise ValueError("tries must lie in one group")
        blocks = group * width // 4
        start, count = int(start), int(count)
        target = start * blocks + (g << 64)
        bg, gen, at = self._streams.get(phase, (None, None, 0))
        if bg is None or target < at:
            bg = np.random.Philox(key=self.seed, counter=[start * blocks, g, phase, 0])
            gen = np.random.Generator(bg)
        elif target > at:
            bg.advance(target - at)
        out = gen.random((count, group, width))[:, j: j + rounds]
        self._streams[phase] = (bg, gen, target + count * blocks)
        return out.transpose(1, 0, 2)


def _chunks(total):
    """(start, count) of consecutive trial chunks covering range(total)."""
    return [(s, min(_CHUNK, total - s)) for s in range(0, total, _CHUNK)]


def _normal_chunk(draws, phase, start, count, size):
    """Standard normals, shape (count, size), for trials start..start+count-1.

    Box-Muller on one fixed-width block of uniforms per trial."""
    half = -(-size // 2)
    u = draws.uniforms(phase, 0, 1, start, count, _width(2 * half))[0]
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    angle = 2.0 * np.pi * u[:, half: 2 * half]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :size]


def in_gamma_k(lam, k, tol=DEFAULT_TOL):
    """True iff sigma_m(lam) > tol * C(n,m) * max|lam|^m for all m = 1..k.

    k = 0 is the whole space (vacuously true).
    """
    values = as_tuple(lam)
    n = len(values)
    if not 0 <= k <= n:
        raise DomainError(f"k={k} out of range 0..{n}")
    return k == 0 or cone_contains(ConeSpec("garding", n, k, tol=tol), values)


def in_gamma_tilde(lam, k, alpha, tol=DEFAULT_TOL):
    """True iff lam is in Gamma_{k-1} and alpha*sigma_{k-1} + sigma_k > tol*scale."""
    values = as_tuple(lam)
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    return cone_contains(ConeSpec("tilde", len(values), k, alpha, tol), values)


def cone_contains(spec, lam):
    return cone_margin(spec, lam) > spec.tol


def cone_margin(spec, lam):
    """Smallest normalized defining quantity; positive iff strictly inside."""
    return float(cone_margins_batch(spec, np.array([as_tuple(lam)], dtype=float))[0])


@lru_cache(maxsize=None)
def _binom_column(n, k, ndim):
    # C(n, m) for m = 0..k, shaped to broadcast against entry-major arrays
    # with ndim trailing axes
    return np.array([comb(n, m) for m in range(k + 1)], dtype=float).reshape((k + 1,) + (1,) * ndim)


def cone_margins_batch(spec, points):
    """Normalized cone margins for an (..., n) array of points (vectorized).

    sigma_m(x) / (C(n,m) max|x|^m) is computed as sigma_m(x / max|x|) / C(n,m),
    so no power of max|x| can underflow or overflow."""
    cols = _entry_major(points)
    k = spec.k
    top = np.abs(cols).max(axis=0)
    nonzero = top > 0.0
    e = _sigma_rows(cols / np.where(nonzero, top, 1.0), k)
    binom = _binom_column(spec.n, k, top.ndim)
    if spec.kind == "garding":
        out = (e[1:] / binom[1:]).min(axis=0)
    else:
        # (alpha sigma_{k-1} + sigma_k) / (C(n,k) top^k + alpha C(n,k-1) top^(k-1)),
        # divided through by top^(k-1)
        alpha = float(spec.alpha)
        out = (alpha * e[k - 1] + top * e[k]) / (alpha * binom[k - 1] + top * binom[k])
        if k > 1:
            out = np.minimum((e[1:k] / binom[1:k]).min(axis=0), out)
    return np.where(nonzero, out, 0.0)


_LADDER = np.linspace(1.0 / 48, 1.0, 48)
_LADDER_BLEND = (1.0 - _LADDER[:, None], _LADDER[:, None])
_MAX_TRIES = 200
_TRY_GROUP = 8  # a trial's sampler tries are drawn in groups of this many


def _pass_rounds(pending):
    """Rounds of a masked loop to evaluate in one pass when `pending` rows
    are left: several once few are, so the per-call overhead of the array
    operations is shared (up to 256 row-rounds, at most 8 rounds)."""
    return min(8, max(1, 256 // pending))


def _candidates(spec, u, boundary_bias):
    """One try per row of uniforms u (m, >= 2n+3): a positive-orthant draw,
    mixed toward a direction with one negative entry and pulled back just
    inside the boundary where u[:, n] < boundary_bias (per row)."""
    n = spec.n
    # p = u[:, :n] and v = u[:, n+1:2n+1] mapped to magnitudes in one step
    pv = 10.0 ** (_MAG_LO + (_MAG_HI - _MAG_LO) * u[:, : 2 * n + 1])
    cand = pv[:, :n]
    mixed = (u[:, n] < boundary_bias).nonzero()[0]
    if mixed.size:
        um, p = u[mixed], cand[mixed]
        neg = np.minimum((um[:, 2 * n + 1] * n).astype(int), n - 1)
        v = np.where(np.arange(n) == neg[:, None], -1.0, 1.0) * pv[mixed, n + 1:]
        # feasible blend parameters form an interval around 0 (convex
        # cone), so the largest feasible ladder point approximates the
        # boundary from inside
        feasible = cone_margins_batch(spec, _LADDER_BLEND[0] * p[:, None, :]
                                      + _LADDER_BLEND[1] * v[:, None, :]) > spec.tol
        t = (0.999 * (feasible * _LADDER).max(axis=1) * um[:, 2 * n + 2] ** 0.25)[:, None]
        cand[mixed] = (1.0 - t) * p + t * v
    return cand


def _sample_rounds(spec, draw, active, boundary_bias, floor, max_tries=_MAX_TRIES):
    """Masked rejection rounds for a batch of trials.

    Round r makes try r of every trial still pending; a try is accepted when
    its margin is >= the trial's floor, and a trial keeps its first
    accepted try.  draw(r, rounds, rows) returns the uniforms of tries
    r..r+rounds-1 of the given rows, shape (rounds, len(rows), >= 2n+3).
    Several rounds (of one try group) are evaluated in one pass when few
    trials are pending (_pass_rounds); the result is the same as one round
    at a time.  boundary_bias and floor are per-row arrays; only the rows
    of `active` are sampled.  Returns (points, found), shapes (m, n) and
    (m,).
    """
    points = np.zeros((active.size, spec.n))
    found = np.zeros(active.size, dtype=bool)
    rows = active.nonzero()[0]
    r = 0
    while r < max_tries and rows.size:
        # without a margin floor most trials accept their first try, so
        # round 0 goes alone
        rounds = 1 if r == 0 and floor.max() <= spec.tol else min(
            max_tries - r, _pass_rounds(rows.size), _TRY_GROUP - r % _TRY_GROUP)
        u = draw(r, rounds, rows).reshape(rounds * rows.size, -1)
        cand = _candidates(spec, u, np.tile(boundary_bias[rows], rounds))
        ok = (cone_margins_batch(spec, cand) >= np.tile(floor[rows], rounds)).reshape(rounds, -1)
        hit = ok.any(axis=0)
        first = np.argmax(ok, axis=0)[hit]
        points[rows[hit]] = cand.reshape(rounds, rows.size, -1)[first, hit]
        found[rows[hit]] = True
        rows = rows[~hit]
        r += rounds
    return points, found


class _Part:
    """Trials start..start+count-1 of one phase, for _sample; active masks
    the trials to sample (None samples all)."""

    __slots__ = ("phase", "start", "count", "boundary_bias", "min_margin", "active")

    def __init__(self, phase, start, count, boundary_bias=0.8, min_margin=0.0, active=None):
        self.phase, self.start, self.count = phase, start, count
        self.boundary_bias, self.min_margin, self.active = boundary_bias, min_margin, active


def _sample(spec, draws, parts):
    """Cone points for the trials of several parts, drawn in the same
    masked rounds; returns one (points, found) pair per part.

    Try r of trial i in a part reads the slice r mod _TRY_GROUP of trial
    i's block of (phase, try group r // _TRY_GROUP): one Philox call per
    part and pass."""
    width = _width(2 * spec.n + 3)
    counts = [part.count for part in parts]
    ends = np.cumsum([0] + counts)
    active = np.concatenate([np.ones(part.count, dtype=bool) if part.active is None
                             else part.active for part in parts])
    bias = np.repeat([part.boundary_bias for part in parts], counts)
    floor = np.repeat([max(part.min_margin, spec.tol) for part in parts], counts)

    def draw(r, rounds, rows):
        out = []
        for part, lo_row, hi_row in zip(parts, ends[:-1], ends[1:]):
            sub = rows[(rows >= lo_row) & (rows < hi_row)] - lo_row
            if sub.size:
                lo = sub[0]
                u = draws.uniforms(part.phase, r, rounds, part.start + lo, sub[-1] - lo + 1,
                                   width, _TRY_GROUP)
                out.append(u[:, sub - lo])
        return out[0] if len(out) == 1 else np.concatenate(out, axis=1)

    points, found = _sample_rounds(spec, draw, active, bias, floor)
    return [(points[lo:hi], found[lo:hi]) for lo, hi in zip(ends[:-1], ends[1:])]


def _sample_one(spec, rng, boundary_bias=0.8, min_margin=0.0, max_tries=_MAX_TRIES):
    """One cone point drawn from the generator rng (the scans' rounds, one
    block of uniforms per try), or None after max_tries."""
    width = _width(2 * spec.n + 3)
    points, found = _sample_rounds(spec, lambda r, rounds, rows: rng.random((rounds, 1, width)),
                                   np.ones(1, dtype=bool), np.array([boundary_bias]),
                                   np.array([max(min_margin, spec.tol)]), max_tries)
    return tuple(float(v) for v in points[0]) if found[0] else None


def sample_cone(spec, count, seed, boundary_bias=0.8, min_margin=0.0):
    """count verified cone points, deterministic in seed.

    Magnitudes are log-uniform in [1e-2, 1e2]; a boundary_bias fraction of
    draws is mixed toward a vector with one negative entry so that Gamma~_k
    samples populate the sigma_k < 0 region.  Draws that exit the cone are
    rejected; a trial that finds no point is replaced by the next trial
    index after count, and SamplingError is raised once the empty trials
    outnumber the points requested.  Point i is the i-th trial, in index
    order, that found a point.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    draws = _Draws(seed)
    out = []
    failures = 0
    start = 0
    while len(out) < count:
        # at most the points still missing, so no trial past the last one needed is used
        m = min(count - len(out), _CHUNK)
        [(points, found)] = _sample(spec, draws, [_Part(_PHASE_POINT, start, m, boundary_bias,
                                                        min_margin)])
        start += m
        misses = (~found).nonzero()[0]
        if failures + misses.size > count:
            first_over = misses[count - failures]
            drawn = len(out) + int(found[:first_over].sum())
            raise SamplingError(
                f"{count + 1} empty trials outnumber the {drawn} points drawn "
                f"({count} requested) while sampling {spec.kind} cone"
            )
        failures += misses.size
        out.extend(tuple(float(v) for v in p) for p in points[found])
    return out


def _evidence_report(worst, tol, trials, seed, evaluated, witness=None, extra=None,
                     details=None):
    """Report of a scan that needs worst >= -tol over the trials it
    evaluated; with none evaluated it is inconclusive and does not pass."""
    inconclusive = evaluated == 0
    return VerificationReport(
        passed=not inconclusive and bool(worst >= -tol),
        trials=trials,
        worst_value=float(worst),
        seed=seed,
        witness=witness,
        witness_extra=extra,
        details={**(details or {}), "trials_evaluated": evaluated,
                 "trials_skipped": trials - evaluated, "inconclusive": inconclusive},
    )


def segment_convexity_check(spec, trials, seed):
    """Worst normalized cone margin over random in-cone segments.

    Each trial draws two cone points and checks the 9 interior blends
    t = 0.1..0.9; the report's worst_value is the minimum margin seen
    (convexity of the cone makes it positive).  A trial the sampler finds
    no pair of points for is skipped.
    """
    draws = _Draws(seed)
    worst = np.inf
    witness = None
    extra = None
    evaluated = 0
    t = (np.arange(1, 10) / 10.0)[:, None]
    for start, m in _chunks(trials):
        (lam, found), (mu, found_mu) = _sample(spec, draws, [_Part(_PHASE_POINT, start, m),
                                                             _Part(_PHASE_OTHER, start, m)])
        both = found & found_mu
        lam, mu = lam[both], mu[both]
        evaluated += lam.shape[0]
        if not lam.shape[0]:
            continue
        blends = t * lam[:, None, :] + (1 - t) * mu[:, None, :]
        margins = cone_margins_batch(spec, blends)
        i, j = np.unravel_index(np.argmin(margins), margins.shape)
        if margins[i, j] < worst:
            worst = float(margins[i, j])
            witness = tuple(float(v) for v in lam[i])
            extra = {"other_endpoint": tuple(float(v) for v in mu[i]), "t": float(t[j, 0]),
                     "blend": tuple(float(v) for v in blends[i, j])}
    return _evidence_report(worst, spec.tol, trials, seed, evaluated, witness, extra)


def ellipticity_check(op, lam):
    """min_i Q^{ii}(lam); positive iff Q is strictly elliptic at lam."""
    return min(combop.q_grad(op, lam))


def _grad_scale(op, points):
    """sum_s alpha_s C(n-1, s-1) max|lam|^(s-1) per row of an (m, n) array."""
    top = np.max(np.abs(points), axis=-1)
    top = np.where(top > 0.0, top, 1.0)
    total = np.zeros_like(top)
    for s, a in enumerate(op.alphas):
        if s and a:
            total += float(a) * comb(op.n - 1, s - 1) * top ** (s - 1)
    return np.where(total != 0.0, total, 1.0)


def ellipticity_scan(op, spec, trials, seed, tol=DEFAULT_TOL):
    """Worst normalized min_i Q^{ii} over cone samples; a trial the sampler
    finds no point for is skipped."""
    draws = _Draws(seed)
    worst = np.inf
    witness = None
    evaluated = 0
    for start, m in _chunks(trials):
        [(lam, found)] = _sample(spec, draws, [_Part(_PHASE_POINT, start, m)])
        lam = lam[found]
        evaluated += lam.shape[0]
        if not lam.shape[0]:
            continue
        values = combop.q_grad_batch(op, lam).min(axis=-1) / _grad_scale(op, lam)
        i = int(np.argmin(values))
        if values[i] < worst:
            worst = float(values[i])
            witness = tuple(float(v) for v in lam[i])
    return _evidence_report(worst, tol, trials, seed, evaluated, witness)
