"""Unit tests for GetCenter / Marginal / MarkSeed (paper Alg. 3)."""
import tracemalloc

import numpy as np
import pytest

from repro.cc.local_cc import cc_labels
from repro.core.evaluate import LocalEvaluator, get_center, get_centers
from repro.core.sketches import build_sketches_local, sampled_arcs
from repro.graphs.csr import build_csr
from repro.graphs.probs import consistent_probs
from repro.hashing import SALT_SKETCH
from tests.conftest import brute_marginal


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 1.0])
def test_marginal_matches_brute_force(small_case, alpha):
    _, csr, probs = small_case
    R = 8
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    for v in range(0, csr.n, max(1, csr.n // 17)):
        got = ev.evaluate(np.array([v]))[0]
        assert got == pytest.approx(brute_marginal(csr, probs, R, v, []))


@pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
def test_marginal_with_seeds_matches_brute_force(small_case, alpha):
    _, csr, probs = small_case
    R = 8
    sk = build_sketches_local(csr, probs, R=R, alpha=alpha)
    ev = LocalEvaluator(csr, probs, sk)
    seeds = [1, csr.n // 2]
    for s in seeds:
        ev.mark_seed(s)
    for v in range(0, csr.n, max(1, csr.n // 13)):
        got = ev.evaluate(np.array([v]))[0]
        assert got == pytest.approx(brute_marginal(csr, probs, R, v, seeds))


def test_seed_own_marginal_is_zero(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    ev.mark_seed(7)
    assert ev.evaluate(np.array([7]))[0] == 0.0


def test_same_cc_as_seed_is_zero(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    # Every vertex sharing v=7's CC on a sketch has no gain there.
    ev.mark_seed(7)
    vs, rs = [], []
    for r in range(sk.R):
        us, vs_ = sampled_arcs(csr, probs, SALT_SKETCH + r)
        lab = cc_labels(csr.n, us, vs_)
        mates = np.flatnonzero(lab == lab[7])[:3]
        vs += mates.tolist()
        rs += [r] * len(mates)
    d, _, _ = get_centers(csr, probs, sk.center_index, sk.labels, ev.sizes,
                          vs, rs, ev.seeds_mask)
    assert len(d) == len(vs) and (d == 0).all()
    # the Spark path: pristine sizes plus the zeroed-key override
    d, _, _ = get_centers(csr, probs, sk.center_index, sk.labels, sk.sizes,
                          vs, rs, ev.seeds_mask, ev.zeroed)
    assert (d == 0).all()


def test_get_center_label_semantics(er_setup):
    csr, probs, sk = er_setup
    centers_set = set(sk.centers.tolist())
    vs = np.repeat(np.arange(0, csr.n, 23), 4)
    rs = np.tile(np.arange(4), len(vs) // 4)
    no_seeds = np.zeros(csr.n, dtype=bool)
    ds, ls, nvs = get_centers(csr, probs, sk.center_index, sk.labels,
                              sk.sizes, vs, rs, no_seeds)
    for v, r, d, l, visits in zip(vs, rs, ds, ls, nvs):
        us, vs_ = sampled_arcs(csr, probs, SALT_SKETCH + int(r))
        lab = cc_labels(csr.n, us, vs_)
        cc = np.flatnonzero(lab == lab[v])
        has_center = bool(centers_set & set(cc.tolist()))
        if has_center:
            assert l >= 0
            # l is the minimal center index within v's CC.
            in_cc = [i for i, c in enumerate(sk.centers) if lab[c] == lab[v]]
            assert l == min(in_cc)
        else:
            assert l == -1
        assert d == len(cc)
        assert visits <= len(cc)
        # the batched lane equals the same pair run alone
        assert (d, l, visits) == get_center(
            csr, probs, sk.center_index, sk.labels, sk.sizes,
            int(r), int(v), no_seeds, frozenset(),
        )


def test_visits_bounded_by_cc_size(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    before = ev.n_visits
    ev.evaluate(np.arange(0, csr.n, 10))
    per_pair = (ev.n_visits - before) / (len(range(0, csr.n, 10)) * sk.R)
    # With alpha=0.3 expected visits per (v, sketch) is about 1/alpha.
    assert per_pair < 3 / sk.alpha


def test_batch_memory_does_not_grow_with_n():
    """Thm. 3.1: a batch costs O(R·min(T, 1/α)) per vertex. On a graph of
    n = 10^6 vertices in tiny components, one evaluation batch must
    allocate far less than n bytes (no per-(v, r) visited array)."""
    n = 1_000_000
    edges = np.arange(n, dtype=np.int64).reshape(-1, 2)  # n/2 disjoint edges
    csr = build_csr(edges, n=n)
    probs = consistent_probs(csr, 0.5)
    sk = build_sketches_local(csr, probs, R=4, alpha=0.5)
    ev = LocalEvaluator(csr, probs, sk)
    vs = np.flatnonzero(sk.center_index < 0)[:16]
    tracemalloc.start()
    try:
        ev.evaluate(vs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.n_visits > 0
    assert peak < n // 20


def test_mark_seed_zeroes_labels(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    ev.mark_seed(3)
    assert len(ev.zeroed) > 0
    r, lab = np.divmod(ev.zeroed, sk.rho)
    assert (ev.sizes[r, lab] == 0).all()
    assert (sk.sizes[r, lab] > 0).all()  # pristine arrays untouched


def test_counters(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    ev.evaluate(np.array([1, 2, 3]))
    ev.evaluate(np.array([4]))
    assert ev.n_reevals == 4
    assert ev.n_jobs == 2


def test_batch_equals_singles(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    vs = np.array([0, 5, 9, 100, 199])
    batch = ev.evaluate(vs)
    singles = np.array([ev.evaluate(np.array([v]))[0] for v in vs])
    assert np.allclose(batch, singles)


def test_full_memo_fast_path_matches_general(er_csr):
    csr = er_csr
    probs = consistent_probs(csr, 0.15)
    sk = build_sketches_local(csr, probs, R=8, alpha=1.0)
    ev = LocalEvaluator(csr, probs, sk)
    assert ev._full_memo()
    vs = np.arange(csr.n)
    fast = ev.evaluate(vs)
    brute = np.array([brute_marginal(csr, probs, 8, v, []) for v in vs])
    assert np.allclose(fast, brute)


def test_init_scores_equal_first_evaluation(er_setup):
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    assert np.allclose(ev.init_scores(), ev.evaluate(np.arange(csr.n)))


def test_monotone_nonincreasing_under_seeding(er_setup):
    # Submodularity consequence: adding seeds never raises a marginal.
    csr, probs, sk = er_setup
    ev = LocalEvaluator(csr, probs, sk)
    vs = np.arange(0, csr.n, 7)
    before = ev.evaluate(vs)
    ev.mark_seed(11)
    ev.mark_seed(42)
    after = ev.evaluate(vs)
    assert (after <= before + 1e-12).all()
