"""Unit tests for the P-tree (binary-heap emulation of the paper's PAM
tree) and its prefix-doubling selector."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.celf import celf_select
from repro.core.evaluate import LocalEvaluator
from repro.core.ptree import PTree, ptree_select
from repro.core.sketches import build_sketches_local


def _scores(n, seed=0):
    g = np.random.default_rng(seed)
    return np.round(g.random(n) * 100, 1)


@pytest.mark.parametrize("n", [1, 2, 17, 100, 1000])
def test_build_sorted(n):
    scores = _scores(n)
    tree = PTree(scores)
    assert len(tree) == n
    got = tree.to_sorted_list()
    want = sorted(range(n), key=lambda v: (-scores[v], v))
    assert [v for v, _ in got] == want


def test_max_key():
    scores = np.array([3.0, 9.0, 9.0, 1.0])
    tree = PTree(scores)
    assert tree.max_key() == (9.0, -1)  # tie → smaller id


def test_max_key_empty():
    tree = PTree(np.array([]))
    with pytest.raises(IndexError):
        tree.max_key()


@pytest.mark.parametrize("k", [1, 2, 5, 32, 200])
def test_split_top(k):
    scores = _scores(120, seed=2)
    tree = PTree(scores)
    got = tree.split_top(k)
    want = sorted(range(120), key=lambda v: (-scores[v], v))[:k]
    assert [v for v, _ in got] == want
    assert len(tree) == max(0, 120 - k)
    if len(tree):
        # remainder stays correctly ordered
        rest = [v for v, _ in tree.to_sorted_list()]
        assert rest == sorted(range(120), key=lambda v: (-scores[v], v))[k:]


def test_split_then_reinsert_roundtrip():
    scores = _scores(60, seed=3)
    tree = PTree(scores)
    batch = tree.split_top(20)
    tree.batch_insert(batch)
    got = [v for v, _ in tree.to_sorted_list()]
    assert got == sorted(range(60), key=lambda v: (-scores[v], v))


def test_insert_with_new_scores_reorders():
    scores = np.array([10.0, 20.0, 30.0])
    tree = PTree(scores)
    batch = tree.split_top(1)  # removes vertex 2 (score 30)
    assert batch == [(2, 30.0)]
    tree.batch_insert([(2, 5.0)])  # comes back demoted
    assert [v for v, _ in tree.to_sorted_list()] == [1, 0, 2]


def test_sizes_consistent_after_mixed_ops():
    scores = _scores(200, seed=4)
    tree = PTree(scores)
    for k in [1, 2, 4, 8, 16]:
        b = tree.split_top(k)
        tree.batch_insert([(v, s / 2) for v, s in b])
    assert len(tree) == 200
    lst = tree.to_sorted_list()
    keys = [(-s, v) for v, s in lst]
    assert keys == sorted(keys)


def test_deterministic_shape():
    a = PTree(_scores(300, seed=5)).to_sorted_list()
    b = PTree(_scores(300, seed=5)).to_sorted_list()
    assert a == b


# --- selector -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 5, 10])
def test_selector_matches_celf(small_case, k):
    _, csr, probs = small_case
    sk = build_sketches_local(csr, probs, R=8, alpha=0.4)
    r_celf = celf_select(LocalEvaluator(csr, probs, sk), k)
    r_pt = ptree_select(LocalEvaluator(csr, probs, sk), k)
    assert r_pt.seeds == r_celf.seeds
    assert np.allclose(r_pt.gains, r_celf.gains)


def test_thm42_eval_bound(small_case):
    """Thm. 4.2: P-tree evaluates at most twice as many vertices."""
    _, csr, probs = small_case
    sk = build_sketches_local(csr, probs, R=8, alpha=1.0)
    r_celf = celf_select(LocalEvaluator(csr, probs, sk), 12)
    r_pt = ptree_select(LocalEvaluator(csr, probs, sk), 12)
    assert r_pt.n_reevals <= 2 * r_celf.n_reevals


def test_logarithmic_batches_per_round(er_setup):
    """Prefix doubling: O(log F_i) batches, far fewer jobs than CELF."""
    csr, probs, sk = er_setup
    r_pt = ptree_select(LocalEvaluator(csr, probs, sk), 10)
    hist = r_pt.extra["batches_per_round"]
    assert len(hist) == 10
    assert max(hist) <= int(np.log2(csr.n)) + 1
    r_celf = celf_select(LocalEvaluator(csr, probs, sk), 10)
    assert r_pt.n_jobs <= r_celf.n_jobs


def test_pinned_counts(er_setup):
    """Seeds and Table 5 counts on a fixed input, as literals: the
    structure behind the P-tree may change, these may not."""
    csr, probs, sk = er_setup
    r = ptree_select(LocalEvaluator(csr, probs, sk), 10)
    assert r.seeds == [156, 55, 158, 149, 129, 174, 124, 128, 89, 1]
    assert r.n_reevals == 156
    assert r.n_jobs == 31
    assert r.extra["batches_per_round"] == [1, 3, 5, 5, 3, 3, 1, 6, 3, 1]


def test_import_leaves_recursion_limit():
    """Importing the pipeline must not change process-wide settings."""
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import repro.core.pacim; print(before, sys.getrecursionlimit())"
    )
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    assert out[0] == out[1]
