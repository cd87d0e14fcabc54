"""Unit tests for the local connectivity kernels."""
import numpy as np
import pytest

from repro.cc.local_cc import cc_labels, cc_sizes, sampled_bfs
from repro.core.sketches import sampled_arcs
from repro.graphs.csr import build_csr
from repro.graphs.generators import erdos_renyi, grid2d
from repro.graphs.probs import consistent_probs


def _ref_labels(n, us, vs):
    """Reference CC via repeated BFS over an adjacency dict."""
    adj = {i: [] for i in range(n)}
    for u, v in zip(us, vs):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    lab = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        if lab[s] >= 0:
            continue
        stack, lab[s] = [s], s
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if lab[y] < 0:
                    lab[y] = s
                    stack.append(y)
    return lab


def test_empty():
    assert np.array_equal(cc_labels(5, np.array([]), np.array([])), np.arange(5))


def test_path():
    us, vs = np.array([0, 1, 2]), np.array([1, 2, 3])
    assert np.array_equal(cc_labels(5, us, vs), np.array([0, 0, 0, 0, 4]))


def test_cycle():
    us, vs = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0])
    assert (cc_labels(4, us, vs) == 0).all()


def test_star_reversed_labels():
    # Hub has the largest id — min-label must still propagate.
    us = np.full(4, 4)
    vs = np.arange(4)
    assert (cc_labels(5, us, vs) == 0).all()


def test_two_components():
    us, vs = np.array([0, 2]), np.array([1, 3])
    assert np.array_equal(cc_labels(4, us, vs), np.array([0, 0, 2, 2]))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [50, 150, 400])
def test_random_vs_reference(seed, m):
    edges = erdos_renyi(120, m, seed=seed)
    us, vs = edges[:, 0], edges[:, 1]
    assert np.array_equal(cc_labels(120, us, vs), _ref_labels(120, us, vs))


def test_duplicate_and_bidirectional_arcs_ok():
    us = np.array([0, 1, 0, 1, 1])
    vs = np.array([1, 0, 1, 2, 2])
    assert np.array_equal(cc_labels(3, us, vs), np.zeros(3, dtype=np.int64))


def test_cc_sizes():
    lab = np.array([0, 0, 0, 3, 3, 5])
    sizes = cc_sizes(lab)
    assert sizes[0] == 3 and sizes[3] == 2 and sizes[5] == 1
    assert sizes[1] == sizes[2] == sizes[4] == 0


@pytest.mark.parametrize("source", [0, 17, 63, 99])
def test_bfs_component_matches_labels(source):
    edges = erdos_renyi(100, 200, seed=3)
    csr = build_csr(edges, n=100)
    probs = consistent_probs(csr, 0.7)
    for salt in range(5):
        keys, hit = sampled_bfs(csr, probs, [0], [source], [salt])
        us, vs = sampled_arcs(csr, probs, salt)
        lab = cc_labels(100, us, vs)
        assert list(keys) == list(np.flatnonzero(lab == lab[source]))
        assert list(hit) == [-1]


def _lane_cases():
    """(csr, probs, lanes, sources, salts): repeated vertices on different
    salts, a zero-degree source, and multi-source lanes."""
    edges = erdos_renyi(60, 110, seed=4)
    csr = build_csr(edges, n=62)  # vertices 60 and 61 have no arcs
    probs = consistent_probs(csr, 0.45)
    lanes = np.array([0, 1, 2, 3, 4, 4, 4, 5, 5, 6])
    sources = np.array([7, 7, 7, 61, 3, 30, 3, 60, 12, 7])
    salts = np.array([11, 12, 13, 11, 14, 15, 11])
    return csr, probs, lanes, sources, salts


@pytest.mark.parametrize("with_stop", [False, True])
def test_lanes_are_independent(with_stop):
    """A multi-lane call equals the same lanes run one at a time, and each
    lane's visited set is the union of its sources' sampled components."""
    csr, probs, lanes, sources, salts = _lane_cases()
    stop = (lambda x: x % 9 == 0) if with_stop else None
    keys, hit = sampled_bfs(csr, probs, lanes, sources, salts, stop=stop)
    lane_of, vert = np.divmod(keys, csr.n)
    for l, salt in enumerate(salts):
        own = sources[lanes == l]
        one_keys, one_hit = sampled_bfs(
            csr, probs, np.zeros(len(own)), own, [salt], stop=stop
        )
        assert list(vert[lane_of == l]) == list(one_keys)
        assert hit[l] == one_hit[0]
        if not with_stop:
            lab = cc_labels(csr.n, *sampled_arcs(csr, probs, int(salt)))
            want = np.flatnonzero(np.isin(lab, lab[own]))
            assert list(one_keys) == list(want)


def test_stop_halts_at_first_wave_with_a_stop_vertex():
    # path 0-1-2-3-4 with every arc alive: stop vertices 2 and 4
    csr = build_csr(np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), n=5)
    probs = consistent_probs(csr, 1.0)
    keys, hit = sampled_bfs(csr, probs, [0, 1, 2], [0, 4, 3], [1, 1, 1],
                            stop=lambda x: (x == 2) | (x == 4))
    lane, vert = np.divmod(keys, 5)
    assert list(hit) == [2, 4, 2]  # lane 2 reaches 2 and 4 in one wave
    assert list(vert[lane == 0]) == [0, 1, 2]
    assert list(vert[lane == 1]) == [4]
    assert list(vert[lane == 2]) == [2, 3, 4]


def test_grid_single_component():
    e = grid2d(6, 7)
    assert (cc_labels(42, e[:, 0], e[:, 1]) == 0).all()
