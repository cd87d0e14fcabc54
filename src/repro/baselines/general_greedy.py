"""GeneralGreedy (Kempe et al. [43]) — the original MC-simulation greedy.

For each candidate vertex it estimates Δ(v | S) by averaging R'
Monte-Carlo diffusion simulations of σ(S ∪ {v}) − σ(S), evaluating
*every* vertex each round (no CELF). O(n R' T) per seed — only feasible
on tiny graphs, which is exactly its role here: the quality ground
truth the sketch-based systems are tested against (paper Tab. 2 row 1).
"""
from __future__ import annotations

import numpy as np

from repro.baselines.simulate import spread_counts
from repro.graphs.csr import CSR


def general_greedy(
    csr: CSR, probs: np.ndarray, *, k: int, n_sims: int, sim_offset: int = 0
) -> list[int]:
    """k seeds by MC greedy; ties broken by smaller vertex id."""
    sims = sim_offset + np.arange(n_sims)
    seeds: list[int] = []
    for _ in range(k):
        base = int(spread_counts(csr, probs, seeds, sims).sum())
        best_v, best_gain = -1, -np.inf
        for v in range(csr.n):
            if v in seeds:
                continue
            tot = int(spread_counts(csr, probs, seeds + [v], sims).sum())
            gain = (tot - base) / n_sims
            if gain > best_gain:  # strict: first (smallest id) wins ties
                best_v, best_gain = v, gain
        seeds.append(best_v)
    return seeds
