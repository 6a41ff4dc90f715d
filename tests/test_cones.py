import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cone_exit_roots, in_cone_exact
from symcurv import cones, symfun
from symcurv.combop import OperatorSpec
from symcurv.cones import ConeSpec
from symcurv.errors import DomainError, SamplingError


def test_gamma_k_membership_examples():
    assert cones.in_gamma_k((1, 1, 1), 3)
    assert not cones.in_gamma_k((1, 1, -1), 2)
    assert cones.in_gamma_k((3, 1, -1), 1)
    assert not cones.in_gamma_k((3, 1, -1), 2)
    assert cones.in_gamma_k((5, -1, -1), 0)  # whole space
    assert not cones.in_gamma_k((0, 0, 0), 1)


def test_gamma_tilde_membership_examples():
    assert cones.in_gamma_tilde((1, 1, -1), 2, 2)
    assert not cones.in_gamma_tilde((1, 1, -1), 2, 0.5)
    with pytest.raises(DomainError):
        cones.in_gamma_tilde((1, 1, 1), 2, -1)


def test_cone_spec_validation():
    with pytest.raises(DomainError):
        ConeSpec("weird", 3, 2)
    with pytest.raises(DomainError):
        ConeSpec("garding", 3, 4)
    with pytest.raises(DomainError):
        ConeSpec("tilde", 3, 2, alpha=-1)


def test_margins_batch_agrees_with_scalar():
    rng = np.random.default_rng(0)
    for spec in (ConeSpec("garding", 4, 3), ConeSpec("tilde", 4, 3, 1.5)):
        pts = rng.uniform(-2, 3, (200, 4))
        batch = cones.cone_margins_batch(spec, pts)
        for margin, p in zip(batch, pts):
            assert margin == pytest.approx(cones.cone_margin(spec, tuple(p)), rel=1e-12)
            assert (margin > spec.tol) == cones.cone_contains(spec, tuple(p))


@pytest.mark.parametrize("spec", [ConeSpec("garding", 3, 3), ConeSpec("tilde", 3, 2, 1.0)])
def test_cone_door_checks_the_width(spec):
    # a point of the wrong width has no margin in the cone: the batch door
    # raises, and so does everything that reads margins through it
    for pts in (np.ones((2, 4)), np.ones((2, 2)), np.ones((2, 3, 2))):
        with pytest.raises(DomainError, match=f"n={spec.n}"):
            cones.cone_margins_batch(spec, pts)
    with pytest.raises(DomainError):
        cones.cone_margin(spec, (1.0, 1.0))
    with pytest.raises(DomainError):
        cones.cone_contains(spec, (1.0, 1.0, 1.0, 1.0))
    assert cones.cone_margins_batch(spec, np.ones((2, 3))).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("kind", ["garding", "tilde"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("alpha", [0, 0.5, 2])
def test_origin_margin_matches_exact_membership(kind, k, alpha):
    # the origin is strictly inside Gamma~_1 when alpha > 0 (alpha sigma_0 > 0)
    # and on the boundary of every other cone; computed without a 0/0
    spec = ConeSpec(kind, 2, k, alpha)
    want = in_cone_exact(kind, (0.0, 0.0), k, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins = cones.cone_margins_batch(spec, np.zeros((3, 2)))
        assert cones.cone_contains(spec, (0.0, 0.0)) == want
    assert margins.tolist() == [1.0 if want else 0.0] * 3


def test_sample_cone_postconditions_and_determinism():
    spec = ConeSpec("garding", 3, 2)
    pts = cones.sample_cone(spec, 50, seed=1)
    assert len(pts) == 50
    assert all(cones.in_gamma_k(p, 2) for p in pts)
    assert pts == cones.sample_cone(spec, 50, seed=1)
    assert pts != cones.sample_cone(spec, 50, seed=2)
    with pytest.raises(DomainError):
        cones.sample_cone(spec, 0, seed=1)


def test_sample_cone_replaces_empty_trials():
    # a few of these 2000 trials find no point with margin 0.05; each is
    # replaced by a later trial index instead of failing the whole draw
    spec = ConeSpec("garding", 4, 4)
    pts = cones.sample_cone(spec, 2000, seed=0, min_margin=0.05)
    assert len(pts) == 2000
    assert all(cones.cone_margin(spec, p) >= 0.05 for p in pts)


def test_sample_cone_raises_when_empty_trials_outnumber_points():
    # normalized margins never exceed 1, so every trial comes back empty
    with pytest.raises(SamplingError, match="4 empty trials outnumber the 0 points"):
        cones.sample_cone(ConeSpec("garding", 3, 2), 3, seed=0, min_margin=2.0)


def test_sample_cone_reaches_negative_sigma_k():
    # the mixing strategy must populate the sigma_k < 0 part of Gamma~_k
    spec = ConeSpec("tilde", 3, 2, alpha=2.0)
    pts = cones.sample_cone(spec, 1000, seed=3)
    neg = sum(1 for p in pts if symfun.elem_sym(p, 2) < 0)
    assert neg >= 10
    assert all(cones.in_gamma_tilde(p, 2, 2.0) for p in pts)


def test_cone_scaling_property():
    # Gamma_k is a true cone: closed under every positive scaling
    spec = ConeSpec("garding", 4, 3)
    for i, p in enumerate(cones.sample_cone(spec, 40, seed=5)):
        for s in (1e-3, 1.0, 1e3):
            assert cones.cone_contains(spec, tuple(s * v for v in p)), (i, s)
    # the admissible set mixes sigma degrees, so only downward scalings are
    # guaranteed: alpha*s^(k-1)*sigma_{k-1} + s^k*sigma_k can flip sign for
    # s > 1 when sigma_k < 0
    tilde = ConeSpec("tilde", 4, 2, 0.7)
    escaped_up = 0
    for i, p in enumerate(cones.sample_cone(tilde, 60, seed=5)):
        for s in (1e-3, 0.1, 1.0):
            assert cones.cone_contains(tilde, tuple(s * v for v in p)), (i, s)
        if not cones.cone_contains(tilde, tuple(1e3 * v for v in p)):
            escaped_up += 1
    assert escaped_up > 0  # the counterexamples are real, not sampling luck


def test_inclusion_chain():
    # Gamma_k subset Gamma~_k(alpha) subset Gamma_{k-1}
    n, k = 4, 3
    gk = ConeSpec("garding", n, k)
    for p in cones.sample_cone(gk, 100, seed=7):
        for alpha in (0.0, 0.5, 2.0, 10.0):
            assert cones.in_gamma_tilde(p, k, alpha)
    tilde = ConeSpec("tilde", n, k, 0.5)
    for p in cones.sample_cone(tilde, 100, seed=8):
        assert cones.in_gamma_k(p, k - 1)


def test_segment_convexity_hand_example():
    # midpoint of (1,1,-1) and (-1,1,1) is (0,1,0), inside Gamma~_2(alpha=2)
    assert cones.in_gamma_tilde((1, 1, -1), 2, 2)
    assert cones.in_gamma_tilde((-1, 1, 1), 2, 2)
    assert cones.in_gamma_tilde((0, 1, 0), 2, 2)


def test_segment_convexity_scan():
    rep = cones.segment_convexity_check(ConeSpec("tilde", 3, 2, 2.0), 500, seed=11)
    assert rep.passed and rep.worst_value > -1e-12
    assert rep.trials == 500
    rep2 = cones.segment_convexity_check(ConeSpec("garding", 4, 2), 300, seed=12)
    assert rep2.passed


def test_ellipticity_examples_and_scan():
    op1 = OperatorSpec(4, 1, (0, 1))
    assert cones.ellipticity_check(op1, (9.0, -3.0, 0.5, 2.0)) == 1
    op = OperatorSpec.sum_type(3, 2, 2.0)
    assert cones.ellipticity_check(op, (1, 1, -1)) == 2
    assert cones.ellipticity_check(OperatorSpec(3, 2, (0, 0, 1)), (1, 1, 1)) == 2
    rep = cones.ellipticity_scan(op, ConeSpec("tilde", 3, 2, 2.0), 500, seed=13)
    assert rep.passed and rep.worst_value > 0


def test_report_str():
    spec = ConeSpec("tilde", 3, 2, 1.0)
    passed = cones.segment_convexity_check(spec, 10, seed=1)
    failed = cones.VerificationReport(False, 5, -1.0, 0)
    empty = cones.segment_convexity_check(spec, 0, seed=1)
    assert (passed.tag, failed.tag, empty.tag) == ("PASS", "FAIL", "FAIL (inconclusive)")
    for rep in (passed, failed, empty):
        assert str(rep).startswith(rep.tag + " trials=")


def _segments(u, n):
    """Segments p -> v as _candidates draws them from its uniforms u
    (m, 2n+3): log-uniform magnitudes in [1e-2, 1e2], v negative in entry
    floor(u[:, 2n+1] n)."""
    mag = 10.0 ** (-2.0 + 4.0 * u[:, : 2 * n + 1])
    neg = np.minimum((u[:, 2 * n + 1] * n).astype(int), n - 1)
    return mag[:, :n], np.where(np.arange(n) == neg[:, None], -1.0, 1.0) * mag[:, n + 1:]


def _assert_exit_and_candidates(spec, u, exact_rows):
    """On every row whose first exit root is simple, the sampler's exit lies
    in [root - 2 * 48^-3, root] (up to 1e-7, the oracle's resolution of a
    simple root: the root itself is a float), and its mixed candidate lies
    strictly inside the cone: float margin > 0, and exactly on the
    `exact_rows` candidates of smallest margin.  Returns the counts of
    such rows and of rows with a root."""
    p, v = _segments(u, spec.n)
    exit_ = cones._segment_exit(spec, p, v)
    root, simple = cone_exit_roots(spec, p, v)
    h = 48.0 ** -3
    assert (root[simple] - 2 * h - 1e-7 <= exit_[simple]).all()
    assert (exit_[simple] <= root[simple] + 1e-7).all()
    cand = cones._candidates(spec, u, np.ones(len(u), dtype=bool))[simple]
    margins = cones.cone_margins_batch(spec, cand)
    assert (margins > 0.0).all()
    for point in cand[np.argsort(margins)[:exact_rows]]:
        assert in_cone_exact(spec.kind, point, spec.k, spec.alpha)
    return int(simple.sum()), int(np.isfinite(root).sum())


@st.composite
def _segment_cases(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["garding", "tilde"]))
    spec = ConeSpec(kind, n, draw(st.integers(1, n)), draw(st.floats(0.0, 5.0)))
    rows = draw(st.integers(1, 8))
    width = 2 * n + 3
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                      min_size=width * rows, max_size=width * rows))
    return spec, np.reshape(u, (rows, width))


@settings(max_examples=200, deadline=None)
@given(case=_segment_cases())
def test_segment_exit_brackets_the_first_root(case):
    spec, u = case
    _assert_exit_and_candidates(spec, u, exact_rows=len(u))


def test_segment_exit_under_rounding_stress():
    # in Gamma_6 with n = 12 the profile's float values carry visible
    # rounding (margins along some segments are not monotone); the exit
    # still brackets every simple root, and nearly all roots are simple
    spec = ConeSpec("garding", 12, 6)
    u = np.random.default_rng(12).random((20_000, 2 * 12 + 3))
    simple, rooted = _assert_exit_and_candidates(spec, u, exact_rows=20)
    assert simple > 0.95 * rooted


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tilde_cone_is_garding_cone_with_alpha_appended(data):
    # Gamma~_k = {lam : (lam, alpha) in Gamma_k of n + 1 entries}, alpha >= 0,
    # and Gamma~_k = Gamma_k at alpha = 0: the sampler's exit uses one
    # polynomial, sigma_k(lam, alpha) = alpha sigma_{k-1}(lam) + sigma_k(lam)
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, n))
    entry = st.fractions(-10, 10, max_denominator=8)
    lam = data.draw(st.lists(entry, min_size=n, max_size=n))
    alpha = data.draw(st.fractions(0, 10, max_denominator=8))
    assert in_cone_exact("tilde", lam, k, alpha) == in_cone_exact("garding", lam + [alpha], k)
    assert in_cone_exact("tilde", lam, k, 0) == in_cone_exact("garding", lam, k)
