"""Membership, sampling and randomized verification for the cones Gamma_k
(all sigma_m > 0 up to k) and the admissible cone Gamma~_k
(Gamma_{k-1} intersected with {alpha*sigma_{k-1} + sigma_k > 0}), the
Garding cones of sigma_k and of sigma_k(lam, alpha) in n+1 entries.

Strict inequalities are tested against dimension-aware scales: sigma_m is
compared with tol * C(n,m) * max|lam_i|^m.

Randomness is counter-based (after Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): one SplitMix64 stream per seed
(Steele, Lea & Flood, OOPSLA 2014), read by index.  Draw i of the stream
is (mix64(key + i*gamma) >> 11) * 2^-53, with mix64 Stafford's Mix13
finalizer, key = mix64(seed*gamma0) and gamma = mix64(key + gamma0) | 1
(gamma0 the golden-ratio constant; SplitMix's guard against gammas with
few bit transitions).  A scan's draw sits at the index
trial << 20 | try << 12 | phase << 10 | slot: the phase separates the
independent draws of one trial (its cone point, a second point, its
normal directions, its interior Hessian point), the try is the sampler's
rejection try and the slot the uniform within it.  A field that would
overflow its bits raises DomainError, so no two draws share an index.
Only uniforms are drawn and then transformed, so the draws are a pure
function of (seed, phase, trial, try, slot): not of the trial count, the
chunk boundaries or the other trials.  Scans process trials in chunks of
_CHUNK, drawing exactly the tries, pending trials and slots of each pass
and evaluating them in masked, vectorized rounds.  trial_rng(seed, i) is
the one numpy generator, for code that draws one trial at a time; it
loads numpy.random when it is called.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DomainError, SamplingError
from .symfun import Jet, as_tuple, profile_table, _entry_major, _sigma_rows
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

    @property
    def tag(self):
        """'PASS', 'FAIL', or 'FAIL (inconclusive)' for a scan without evidence."""
        tag = "PASS" if self.passed else "FAIL"
        return tag + " (inconclusive)" if self.details.get("inconclusive") else tag

    def __str__(self):
        return f"{self.tag} trials={self.trials} worst={self.worst_value:.3e} seed={self.seed}"


def trial_rng(seed, index):
    """Independent generator for one trial: Philox keyed by seed, with the
    trial index in the top counter word, so the streams of different trials
    never overlap.  trial_rng(seed, 0) is Philox(key=seed)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


_CHUNK = 512  # trials drawn and evaluated together; bounds memory per scan

# phases: independent draws of one trial
_PHASE_POINT = 0      # the trial's cone point
_PHASE_OTHER = 1      # a second cone point (segment convexity)
_PHASE_NORMAL = 2     # normal vectors (midpoint directions, Guan derivative vectors)
_PHASE_HESSIAN = 3    # interior points of the Hessian trials

# a draw's index: trial << 20 | try << 12 | phase << 10 | slot
_TRIAL_BITS, _TRY_BITS, _PHASE_BITS, _SLOT_BITS = 44, 8, 2, 10
_GAMMA0 = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, SplitMix64's seed step


def _mix64(z):
    """Stafford's Mix13 finalizer on a uint64 array, in place (wrapping)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _check_field(name, lo, hi, bits):
    """DomainError unless the values lo..hi-1 of a stream field fit in bits."""
    if lo < 0 or hi > 1 << bits:
        raise DomainError(f"{name} {lo}..{hi - 1} does not fit in {bits} bits")


@lru_cache(maxsize=256)
def _stream(seed):
    """(key, gamma) of the seed's SplitMix64 stream, as uint64 scalars."""
    _check_field("seed", seed, seed + 1, 64)
    key = _mix64(np.array([seed * _GAMMA0 % 2**64], dtype=np.uint64))
    gamma = int(_mix64(key + np.uint64(_GAMMA0))[0]) | 1
    if (gamma ^ (gamma >> 1)).bit_count() < 24:
        gamma ^= 0xAAAAAAAAAAAAAAAA
    return key[0], np.uint64(gamma)


def _heads(phase, start, count):
    """The index bits trial << 20 | phase << 10 of trials
    start..start+count-1 in `phase`, as uint64."""
    _check_field("phase", phase, phase + 1, _PHASE_BITS)
    _check_field("trial", start, start + count, _TRIAL_BITS)
    trials = np.arange(start, start + count, dtype=np.uint64)
    return trials << np.uint64(_TRY_BITS + _PHASE_BITS + _SLOT_BITS) \
        | np.uint64(phase << _SLOT_BITS)


def _uniforms(seed, heads, first, rounds, slots):
    """Uniforms of tries first..first+rounds-1 of the trials whose index
    bits are heads (_heads), slots 0..slots-1 of each: shape
    (rounds, len(heads), slots), exactly the draws asked for."""
    _check_field("try", first, first + rounds, _TRY_BITS)
    _check_field("slot", 0, slots, _SLOT_BITS)
    key, gamma = _stream(int(seed))
    tries = np.arange(first, first + rounds, dtype=np.uint64) << np.uint64(_PHASE_BITS + _SLOT_BITS)
    z = (tries[:, None] | heads)[:, :, None] | np.arange(slots, dtype=np.uint64)
    z *= gamma
    z += key
    return (_mix64(z) >> np.uint64(11)).astype(float) * 2.0**-53


def _chunks(total):
    """(start, count) of consecutive trial chunks covering range(total)."""
    return [(s, min(_CHUNK, total - s)) for s in range(0, total, _CHUNK)]


def _normal_chunk(seed, start, count, size):
    """Standard normals, shape (count, size), for trials start..start+count-1
    in _PHASE_NORMAL.

    Box-Muller on the uniforms of each trial's try 0."""
    half = -(-size // 2)
    u = _uniforms(seed, _heads(_PHASE_NORMAL, start, count), 0, 1, 2 * half)[0]
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    angle = 2.0 * np.pi * u[:, half:]
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
    so no power of max|x| can underflow or overflow.  The origin's margin is
    that of sigma_0 = 1: alpha / alpha = 1 in Gamma~_1 with alpha > 0, else 0.
    A last axis of other than spec.n entries raises DomainError."""
    cols = _entry_major(points)
    if cols.shape[0] != spec.n:
        raise DomainError(f"{spec.kind} cone expects n={spec.n} entries, got {cols.shape[0]}")
    k = spec.k
    top = np.abs(cols).max(axis=0)
    e = _sigma_rows(cols / np.where(top > 0.0, top, 1.0), k)
    binom = _binom_column(spec.n, k, top.ndim)
    if spec.kind == "garding":
        out = (e[1:] / binom[1:]).min(axis=0)
    else:
        # (alpha sigma_{k-1} + sigma_k) / (C(n,k) top^k + alpha C(n,k-1) top^(k-1)),
        # divided through by top^(k-1)
        alpha = float(spec.alpha)
        den = alpha * binom[k - 1] + top * binom[k]
        if alpha == 0.0:   # den is 0 at the origin, and so is the numerator
            den = np.where(top > 0.0, den, 1.0)
        out = (alpha * e[k - 1] + top * e[k]) / den
        if k > 1:
            out = np.minimum((e[1:k] / binom[1:k]).min(axis=0), out)
    return out


_GRID = np.arange(1.0, 49.0)  # each level of the exit search: 48 steps up its bracket
_MAX_TRIES = 200
_BOUNDARY_BIAS = 0.8  # share of a trial's tries mixed toward the boundary


def _pass_rounds(pending):
    """Rounds of a masked loop to evaluate in one pass when `pending` rows
    are left: several once few are, so the per-call overhead of the array
    operations is shared (up to 256 row-rounds, at most 8 rounds)."""
    return min(8, max(1, 256 // pending))


@lru_cache(maxsize=None)
def _one_negative(n):
    """Row i: the sign vector with -1 in entry i and +1 elsewhere."""
    signs = 1.0 - 2.0 * np.eye(n)
    signs.flags.writeable = False
    return signs


def _segment_exit(spec, p, v):
    """Per row of p, v (p positive, v with one negative entry), the last
    point before the first s in (0, 1] where the cone's own polynomial
    c(s) = sigma_k(p + s(v - p)), plus alpha*sigma_{k-1} for Gamma~_k, is
    <= 0, on the finest of three nested 48-point grids; 1 where c stays
    positive on the first grid.

    On the segment (at most one negative entry) c > 0 holds exactly inside
    the cone (Garding, J. Math. Mech. 8, 1959).  The first grid brackets
    the first failing point and two more each refine the bracket 48-fold,
    to 48^-3.  The top of a refined bracket failed one level up and counts
    as failing again, so rounding in c moves the result by about a cell."""
    table = profile_table(p, v - p, spec.k)
    c = table[-1] + (float(spec.alpha) if spec.kind == "tilde" else 0.0) * table[-2]
    exit_ = np.zeros(len(p))
    rows = np.arange(len(p))
    step = 1.0 / 48
    for level in range(3):
        s = exit_[rows, None] + step * _GRID
        bad = np.polynomial.polynomial.polyval(s, c[:, rows, None], tensor=False) <= 0.0
        bad[:, -1] |= level > 0
        inside = np.where(bad.any(axis=1), bad.argmax(axis=1), 48)
        exit_[rows] += step * inside
        rows = rows[inside < 48]
        step /= 48
    return exit_


def _candidates(spec, u, mixed):
    """One try per row of uniforms u (m, >= 2n+3): a positive-orthant draw
    p, and where the boolean mask `mixed` is set, a point mixed toward a
    direction v with one negative entry and pulled back just inside the
    boundary: the blend at t = 0.999 * e * w^(1/4) of p -> v, with e where
    p -> v leaves the cone (_segment_exit) and w uniform.  Every try still
    passes the margin check, so a rounding error in e can only reject it."""
    n = spec.n
    # p = u[:, :n] and v = u[:, n+1:2n+1] mapped to magnitudes in one step
    pv = 10.0 ** (_MAG_LO + (_MAG_HI - _MAG_LO) * u[:, : 2 * n + 1])
    cand = pv[:, :n]
    rows = mixed.nonzero()[0]
    if rows.size:
        pvm, w = pv[rows], u[rows, 2 * n + 1:]
        p = pvm[:, :n]
        # the negative entry: floor(w0 n), kept below n against rounding
        v = _one_negative(n)[np.minimum((w[:, 0] * n).astype(int), n - 1)] * pvm[:, n + 1:]
        t = (0.999 * _segment_exit(spec, p, v) * w[:, 1] ** 0.25)[:, None]
        cand[rows] = (1.0 - t) * p + t * v
    return cand


def _sample_rounds(spec, draw, boundary_bias, floor):
    """Masked rejection rounds for a batch of trials.

    Round r < _MAX_TRIES makes try r of every trial still pending; a try is
    accepted when its margin is >= the trial's floor, and a trial keeps its
    first accepted try.  draw(r, rounds, rows) returns the uniforms of tries
    r..r+rounds-1 of the given rows, shape (rounds, len(rows), >= 2n+3).
    Several rounds are evaluated in one pass when few
    trials are pending (_pass_rounds); the result is the same as one round
    at a time.  boundary_bias and floor are per-row arrays.  Returns
    (points, found), shapes (m, n) and (m,).
    """
    points = np.zeros((floor.size, spec.n))
    found = np.zeros(floor.size, dtype=bool)
    rows = np.arange(floor.size)
    r = 0
    while r < _MAX_TRIES and rows.size:
        # without a margin floor most trials accept their first try, so
        # round 0 goes alone
        rounds = 1 if r == 0 and floor.max() <= spec.tol else min(
            _MAX_TRIES - r, _pass_rounds(rows.size))
        u = draw(r, rounds, rows)
        # the per-row bias and floor broadcast over the rounds
        cand = _candidates(spec, u.reshape(rounds * rows.size, -1),
                           (u[..., spec.n] < boundary_bias[rows]).ravel())
        ok = cone_margins_batch(spec, cand).reshape(rounds, -1) >= floor[rows]
        hit = ok.any(axis=0)
        done = rows[hit]
        points[done] = cand.reshape(rounds, rows.size, -1)[ok.argmax(axis=0)[hit], hit]
        found[done] = True
        rows = rows[~hit]
        r += rounds
    return points, found


# trials start..start+count-1 of one phase, for _sample
_Part = namedtuple("_Part", "phase start count boundary_bias min_margin",
                   defaults=(_BOUNDARY_BIAS, 0.0))


def _sample(spec, seed, parts):
    """Cone points for the trials of several parts, drawn in the same
    masked rounds; returns one (points, found) pair per part.

    Try r of trial i in a part reads slots 0..2n+2 of (part.phase, i, r):
    one draw per pass, of the pending trials only."""
    counts = [part.count for part in parts]
    ends = np.cumsum([0] + counts)
    heads = np.concatenate([_heads(part.phase, part.start, part.count) for part in parts])
    bias = np.repeat([part.boundary_bias for part in parts], counts)
    floor = np.repeat([max(part.min_margin, spec.tol) for part in parts], counts)
    points, found = _sample_rounds(
        spec, lambda r, rounds, rows: _uniforms(seed, heads[rows], r, rounds, 2 * spec.n + 3),
        bias, floor)
    return [(points[lo:hi], found[lo:hi]) for lo, hi in zip(ends[:-1], ends[1:])]


def sample_cone(spec, count, seed, min_margin=0.0):
    """count verified cone points, deterministic in seed.

    Magnitudes are log-uniform in [1e-2, 1e2]; 80% of the draws are mixed
    toward a vector with one negative entry, a random fraction of the way
    to where that segment leaves the cone (_candidates), so that Gamma~_k
    samples populate the sigma_k < 0 region.  Draws with a margin below
    max(min_margin, spec.tol) are rejected; a trial that finds no point in
    200 tries is replaced by the next trial index after count, and
    SamplingError is raised once the empty trials outnumber the points
    requested.  Point i is the i-th trial, in index order, that found one.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    out = []
    failures = 0
    start = 0
    while len(out) < count:
        # at most the points still missing, so no trial past the last one needed is used
        m = min(count - len(out), _CHUNK)
        [(points, found)] = _sample(spec, seed, [_Part(_PHASE_POINT, start, m,
                                                      min_margin=min_margin)])
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


class _Worst:
    """Running minimum of a scan's values with its worst trial's (witness,
    extra).  offer(values, at) takes one chunk's values, of any shape, and
    calls at(*index) for the (witness, extra) of the chunk's first minimum
    only when that minimum is strictly below the best so far: the first
    minimum wins within a chunk and across chunks, and empty chunks and
    all-+inf values change nothing.  A NaN reads as -inf at its own index."""

    def __init__(self):
        self.value, self.witness, self.extra = np.inf, None, None

    def offer(self, values, at):
        if np.size(values):
            index = np.unravel_index(np.argmin(values), np.shape(values))
            value = -np.inf if np.isnan(values[index]) else float(values[index])
            if value < self.value:
                self.value = value
                self.witness, self.extra = at(*index)


def _evidence_report(worst, tol, trials, seed, evaluated, details=None, gates=()):
    """Report of a scan that needs worst.value >= -tol (worst a _Worst) over
    the trials it evaluated; trials_skipped counts the other trials.  Each
    (tracker, tol, count) in gates is one more check of that form with its
    own count of evidence.  The report passes when every check holds, and
    is inconclusive (and does not pass) when a check has no evidence.  Its
    witness and witness_extra are those of the first failing check, else
    worst's; worst_value is always worst's."""
    checks = [(worst, tol, evaluated), *gates]
    failed = [w for w, t, _ in checks if not w.value >= -t]
    inconclusive = any(count == 0 for _, _, count in checks)
    shown = (failed or [worst])[0]
    return VerificationReport(
        passed=not inconclusive and not failed,
        trials=trials,
        worst_value=worst.value,
        seed=seed,
        witness=shown.witness,
        witness_extra=shown.extra,
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
    worst = _Worst()
    evaluated = 0
    t = (np.arange(1, 10) / 10.0)[:, None]
    for start, m in _chunks(trials):
        (lam, found), (mu, found_mu) = _sample(spec, seed, [_Part(_PHASE_POINT, start, m),
                                                            _Part(_PHASE_OTHER, start, m)])
        both = found & found_mu
        lam, mu = lam[both], mu[both]
        evaluated += lam.shape[0]
        blends = t * lam[:, None, :] + (1 - t) * mu[:, None, :]
        worst.offer(cone_margins_batch(spec, blends), lambda i, j: (
            tuple(lam[i].tolist()), {"other_endpoint": tuple(mu[i].tolist()),
                                     "t": float(t[j, 0]), "blend": tuple(blends[i, j].tolist())}))
    return _evidence_report(worst, spec.tol, trials, seed, evaluated)


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
    """Worst normalized min_i Q^{ii} (Q's jet along e_i) over cone samples;
    a trial the sampler finds no point for is skipped."""
    worst = _Worst()
    evaluated = 0
    for start, m in _chunks(trials):
        [(lam, found)] = _sample(spec, seed, [_Part(_PHASE_POINT, start, m)])
        lam = lam[found]
        evaluated += lam.shape[0]
        grad = combop.q_eval_batch(op, Jet.of(lam[:, None], np.eye(op.n), 0.0)).c[1]
        worst.offer(grad.min(axis=-1) / _grad_scale(op, lam),
                    lambda i: (tuple(lam[i].tolist()), None))
    return _evidence_report(worst, tol, trials, seed, evaluated)
