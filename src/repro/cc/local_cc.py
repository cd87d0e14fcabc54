"""Connected components and sampled BFS, driver/task-local numpy kernels.

``cc_labels`` is min-label propagation with pointer jumping — fully
vectorized, converges in O(log n) rounds on typical inputs, and is the
workhorse inside each per-sketch Spark task (paper Alg. 3 line 2,
where the authors use ConnectIt). ``sampled_bfs`` is the one
hash-sampled frontier kernel: a Ligra-style BFS (Shun & Blelloch,
PPoPP'13) that advances many independent lanes one wave per numpy step.
GetCenter/MarkSeed run it over (vertex, sketch) lanes, the MC oracle
and GeneralGreedy over simulation-id lanes, RIS over root lanes.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.csr import CSR
from repro.hashing import salt_mix, u01_mixed

# Lanes per kernel call for callers whose lane count has no bound (a batch
# of (v, r) pairs, MC simulations, RR sets): the visited keys of a call
# grow with lanes x visits per lane.
LANE_BLOCK = 512


def cc_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """CC labels for an n-vertex graph given arc endpoint arrays.

    The returned label of a component is the minimum vertex id in it —
    a canonical form every other CC implementation here is tested
    against.
    """
    lab = np.arange(n, dtype=np.int64)
    if len(us) == 0:
        return lab
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    while True:
        # Hook: every endpoint adopts the smaller of the two labels.
        new = lab.copy()
        np.minimum.at(new, us, lab[vs])
        np.minimum.at(new, vs, lab[us])
        # Compress: pointer-jump until labels are self-referential.
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def cc_sizes(labels: np.ndarray) -> np.ndarray:
    """Component size indexed by label (0 where the id is not a label)."""
    return np.bincount(labels, minlength=len(labels))


def sampled_bfs(
    csr: CSR,
    probs: np.ndarray,
    lanes: np.ndarray,
    sources: np.ndarray,
    salts: np.ndarray,
    stop: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search of many independent lanes, one wave of every
    lane per numpy step.

    Lane ``l`` searches the sampled graph of ``salts[l]``, in which arc
    ``a`` is alive iff ``u01(csr.arc_key[a], salts[l]) < probs[a]``,
    starting from every ``sources[i]`` with ``lanes[i] == l``. With
    ``stop``, a lane halts at the end of the first wave (its sources
    included) holding a vertex ``x`` with ``stop(x)`` true.

    Returns ``(keys, hit)``. ``keys`` holds ``lane * n + vertex`` for
    every vertex a lane visited, sorted. ``hit[l]`` is the smallest stop
    vertex in lane l's last wave, or -1 if the lane exhausted its
    component. Visited sets are kept as sorted keys, so work and memory
    grow with the vertices visited and arcs scanned, never with n.
    """
    n = csr.n
    indptr, adj, arc_key = csr.indptr, csr.adj, csr.arc_key
    mix = salt_mix(salts)
    hit = np.full(len(mix), -1, dtype=np.int64)
    wave = np.unique(
        np.asarray(lanes, dtype=np.int64) * n + np.asarray(sources, dtype=np.int64)
    )
    seen = wave
    while wave.size:
        lane, vert = np.divmod(wave, n)
        if stop is not None:
            at = stop(vert)
            if at.any():
                # keys are lane-major, so each lane's first stop is its smallest
                stopped, first = np.unique(lane[at], return_index=True)
                hit[stopped] = vert[at][first]
                go = hit[lane] < 0
                lane, vert = lane[go], vert[go]
        start = indptr[vert]
        deg = indptr[vert + 1] - start
        ends = np.cumsum(deg)
        if not ends.size or not ends[-1]:
            break
        arc = np.repeat(start - ends + deg, deg) + np.arange(ends[-1])
        arc_lane = np.repeat(lane, deg)
        alive = u01_mixed(arc_key[arc], mix[arc_lane]) < probs[arc]
        reached = np.unique(arc_lane[alive] * n + adj[arc[alive]])
        pos = np.minimum(np.searchsorted(seen, reached), len(seen) - 1)
        wave = reached[seen[pos] != reached]
        # two sorted runs: the stable sort (timsort) merges them in O(|seen|)
        seen = np.sort(np.concatenate((seen, wave)), kind="stable")
    return seen, hit
