"""Properties of the batched scans: per-trial randomness, membership of
every sample, and witnesses that reproduce the reported worst values
through the scalar paths."""

import dataclasses
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcurv import cones, concave, hypcheck
from symcurv.combop import OperatorSpec, lower_operator, q_eval, q_hess
from symcurv.cones import ConeSpec

from oracles import fd_hessian as oracle_fd_hessian, in_cone_exact, normalized_margin_exact

CHUNK = cones._CHUNK
SPECS = [ConeSpec("garding", 3, 2), ConeSpec("garding", 4, 3),
         ConeSpec("tilde", 3, 2, 2.0), ConeSpec("tilde", 5, 3, 1.0)]
SLOW = settings(max_examples=8, deadline=None)

spec_st = st.sampled_from(SPECS)
seed_st = st.integers(0, 2**32 - 1)


def test_trial_streams_are_disjoint():
    words = [cones.trial_rng(5, i).bit_generator.random_raw(1024) for i in range(8)]
    assert len(set(np.concatenate(words).tolist())) == 8 * 1024
    for seed in (0, 5, 2**40 + 3):
        assert np.array_equal(cones.trial_rng(seed, 0).bit_generator.random_raw(1024),
                              np.random.Philox(key=seed).random_raw(1024))


@SLOW
@given(spec=spec_st, seed=seed_st, n1=st.integers(CHUNK - 50, CHUNK),
       n2=st.integers(CHUNK + 1, CHUNK + 50))
def test_sample_cone_prefix_independent_of_count(spec, seed, n1, n2):
    # trial i's draws depend on (seed, i) only, not on the count or the chunks
    assert cones.sample_cone(spec, n2, seed)[:n1] == cones.sample_cone(spec, n1, seed)


@SLOW
@given(seed=seed_st, start=st.integers(0, 3 * CHUNK), count=st.integers(1, 40))
def test_chunk_draws_depend_on_trial_index_only(seed, start, count):
    spec = ConeSpec("tilde", 4, 3, 0.5)
    [(whole, found)] = cones._sample(spec, seed, [cones._Part(cones._PHASE_POINT, 0,
                                                               start + count)])
    [(part, found_part)] = cones._sample(spec, seed,
                                         [cones._Part(cones._PHASE_POINT, start, count)])
    assert np.array_equal(whole[start:], part) and np.array_equal(found[start:], found_part)
    # the same draws again, next to the trials of another phase sampled in
    # the same rounds
    [_, (again, _)] = cones._sample(
        spec, seed, [cones._Part(cones._PHASE_HESSIAN, 0, 3, 0.5, 0.01),
                     cones._Part(cones._PHASE_POINT, start, count)])
    assert np.array_equal(again, part)
    normals = cones._normal_chunk(seed, 0, start + count, 7)
    assert np.array_equal(normals[start:],
                          cones._normal_chunk(seed, start, count, 7))


@SLOW
@given(seed=seed_st, phase=st.integers(0, 8), first=st.integers(0, 199),
       rounds=st.integers(1, 8), start=st.integers(0, 5000), count=st.integers(1, 9),
       width=st.sampled_from([4, 12, 16]))
def test_draws_follow_the_counter_layout(seed, phase, first, rounds, start, count, width):
    # in try group g, trial i's block of 8 * width doubles follows Philox
    # counter [i * 8 * width / 4, g, phase, 0]; try r reads its slice r mod 8
    rounds = min(rounds, 8 - first % 8)
    got = cones._uniforms(seed, phase, first, rounds, start, count, width, 8)
    bg = np.random.Philox(key=seed, counter=[start * 2 * width, first // 8, phase, 0])
    block = np.random.Generator(bg).random((count, 8, width))
    for j in range(rounds):
        assert np.array_equal(got[j], block[:, first % 8 + j])


@settings(max_examples=100, deadline=None)
@given(spec=spec_st, point=st.lists(st.floats(-1e3, 1e3) | st.floats(-1e300, 1e300),
                                    min_size=5, max_size=5))
def test_margins_match_exact_oracle(spec, point):
    # margins are scale-free, so tiny and huge entries must not under- or overflow
    x = point[: spec.n]
    want = float(normalized_margin_exact(spec.kind, x, spec.k, spec.alpha))
    assert cones.cone_margins_batch(spec, np.array([x]))[0] == pytest.approx(want, abs=1e-12)
    assert cones.cone_margin(spec, x) == pytest.approx(want, abs=1e-12)


@SLOW
@given(spec=spec_st, seed=seed_st)
def test_sampled_points_are_exact_members(spec, seed):
    for p in cones.sample_cone(spec, 200, seed):
        assert in_cone_exact(spec.kind, p, spec.k, spec.alpha), p


@SLOW
@given(spec=st.sampled_from(SPECS[2:]), seed=seed_st)
def test_convexity_witness_reproduces_worst(spec, seed):
    rep = cones.segment_convexity_check(spec, 300, seed)
    lam, mu, t = rep.witness, rep.witness_extra["other_endpoint"], rep.witness_extra["t"]
    blend = tuple(t * a + (1 - t) * b for a, b in zip(lam, mu))
    assert blend == rep.witness_extra["blend"]
    assert cones.cone_margin(spec, blend) == pytest.approx(rep.worst_value, abs=1e-12)
    assert in_cone_exact(spec.kind, lam, spec.k, spec.alpha)
    assert in_cone_exact(spec.kind, mu, spec.k, spec.alpha)


@SLOW
@given(spec=st.sampled_from(SPECS[2:]), seed=seed_st)
def test_ellipticity_witness_reproduces_worst(spec, seed):
    op = OperatorSpec.sum_type(spec.n, spec.k, spec.alpha)
    rep = cones.ellipticity_scan(op, spec, 300, seed)
    w = rep.witness
    top = max(abs(v) for v in w)
    scale = sum(float(a) * comb(spec.n - 1, s - 1) * top ** (s - 1)
                for s, a in enumerate(op.alphas) if s and a)
    assert float(cones.ellipticity_check(op, w)) / scale == pytest.approx(rep.worst_value,
                                                                         abs=1e-12)


@SLOW
@given(alpha=st.sampled_from([F(1, 2), F(1), F(2)]), seed=seed_st)
def test_guan_witness_reproduces_worst(alpha, seed):
    op = OperatorSpec.sum_type(3, 2, alpha)
    rep_c = hypcheck.check_condition_c(op)
    s_l = lower_operator(op, rep_c.witness, 1, rep_c.N)
    rep = concave.guan_scan(op, s_l, 300, seed)
    w, v = rep.witness, rep.witness_extra["w_vec"]
    r1, _ = concave.guan_inequality_check(
        concave.GuanCheckInput(w_diag=w, w_vec=v, op=op, s_l=s_l, delta=1.0))
    hess = q_hess(op, w)
    a_q = float(sum(hess[p][q] * v[p] * v[q] for p in range(3) for q in range(3)))
    n1 = r1 / (1.0 + abs(a_q / float(q_eval(op, w))) + abs(r1))
    assert n1 == pytest.approx(rep.worst_value, abs=1e-12)


FIELDS = [concave.sum_root_field(3, 2, 0.5), concave.quotient_qk_field(4, 2, 2.0),
          concave.sum_ratio_field(5, 3, 1, 0.5), concave.sigma_over_q_field(4, 3, 2.0)]


@SLOW
@given(field=st.sampled_from(FIELDS), seed=seed_st)
def test_midpoint_witness_reproduces_worst(field, seed):
    rep = concave.concavity_scan(field, 200, seed, hessian_trials=5)
    x = np.array(rep.witness)
    xi = np.array(rep.witness_extra["direction"])
    eps = rep.witness_extra["eps"]
    fx = field(x)
    res = (2.0 * fx - field(x + eps * xi) - field(x - eps * xi)) / (1 + abs(fx))
    assert res == pytest.approx(rep.worst_value, abs=1e-12)
    assert rep.details["trials_evaluated"] + rep.details["trials_skipped"] == 200


def test_batched_hessian_matches_naive_differences():
    # the normalized largest eigenvalue of the jet Hessian against that of
    # the brute-force central differences, to finite-difference accuracy
    field = concave.quotient_qk_field(4, 2, 1.0)
    xs = np.array(cones.sample_cone(ConeSpec("garding", 4, 3), 20, seed=3, min_margin=0.1))
    got = concave._max_hessian_eigs(field, xs)
    for x, eig in zip(xs, got):
        top = 1.0 + np.max(np.abs(x))
        want = oracle_fd_hessian(field, x, 1e-4 * top)
        scale = (1.0 + abs(field(x))) / top**2
        assert eig == pytest.approx(np.linalg.eigvalsh(want)[-1] / scale, abs=1e-6)


def test_multi_round_passes_match_single_rounds(monkeypatch):
    # evaluating several tries per pass must not change which try a trial keeps
    spec = ConeSpec("tilde", 4, 3, 0.5)
    many = cones.sample_cone(spec, 300, seed=4, min_margin=0.02)
    monkeypatch.setattr(cones, "_pass_rounds", lambda pending: 1)
    assert cones.sample_cone(spec, 300, seed=4, min_margin=0.02) == many


def test_worst_tracker_keeps_the_first_minimum():
    worst = cones._Worst()
    seen = []

    def at(*index):
        seen.append(index)
        return index, {"chunk": len(seen)}

    worst.offer(np.array([np.inf, np.inf]), at)     # all +inf: no witness
    assert (worst.value, worst.witness, worst.extra) == (np.inf, None, None) and not seen
    worst.offer(np.array([[3.0, 1.0], [1.0, 2.0]]), at)  # first minimum within a chunk
    assert worst.value == 1.0 and worst.witness == (0, 1) and seen == [(0, 1)]
    worst.offer(np.array([2.0, 1.0]), at)            # a tie does not replace it
    worst.offer(np.empty((0, 4)), at)                # an empty chunk is ignored
    assert worst.witness == (0, 1) and worst.extra == {"chunk": 1} and len(seen) == 1
    worst.offer(np.array([0.5, -1.0, -1.0]), at)     # strictly lower: the first of them
    assert worst.value == -1.0 and worst.witness == (1,) and worst.extra == {"chunk": 2}
    assert isinstance(worst.value, float)


def _guan_inputs(alpha):
    op = OperatorSpec.sum_type(3, 2, alpha)
    rep = hypcheck.check_condition_c(op)
    return op, lower_operator(op, rep.witness, 1, rep.N)


SCANS = {
    "convexity": lambda trials, spec: cones.segment_convexity_check(spec, trials, 3),
    "ellipticity": lambda trials, spec: cones.ellipticity_scan(
        OperatorSpec.sum_type(3, 2, 2), spec, trials, 3),
    "guan": lambda trials, spec: concave.guan_scan(*_guan_inputs(2), trials, 3),
    "concavity": lambda trials, spec: concave.concavity_scan(
        dataclasses.replace(concave.sum_root_field(3, 2, 2.0), domain=spec), trials, 3),
}


@pytest.mark.parametrize("scan", SCANS)
def test_scan_without_evidence_is_inconclusive(scan):
    run = SCANS[scan]
    rep = run(300, SPECS[2])
    d = rep.details
    assert rep.passed and not d["inconclusive"]
    assert d["trials_evaluated"] + d["trials_skipped"] == 300 and d["trials_evaluated"] > 0
    rep = run(0, SPECS[2])
    assert not rep.passed and rep.details["inconclusive"]
    assert rep.details["trials_evaluated"] == rep.details["trials_skipped"] == 0
    assert str(rep).startswith("FAIL (inconclusive)")
    if scan != "guan":
        # a margin floor no point can reach: every trial is skipped
        rep = run(5, ConeSpec("tilde", 3, 2, 2.0, tol=10.0))
        assert rep.details["trials_skipped"] == 5
        assert not rep.passed and rep.details["inconclusive"]
