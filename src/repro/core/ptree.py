"""P-tree seed selection (paper Alg. 4, Sec. 4.1).

The P-tree of the paper is a joinable balanced BST (PAM). Thms. 4.1/4.2
depend only on what its two batch operations do, so we emulate it with
the same ``heapq`` binary heap of ``(-score, vid)`` tuples that CELF
uses: ``split_top(k)`` pops the k best-ranked entries (SplitAndRemove)
and ``batch_insert`` pushes entries back (BatchInsert). The rank order
is the selectors' strict total order, so every count the tests assert
is reproducible.

The selector extracts prefix-doubling batches of 1, 2, 4, … top stale
scores, re-evaluates each batch in parallel (one evaluation job), and
stops once the best true key beats the structure's maximum — evaluating
at most twice as many vertices as CELF (Thm. 4.2) while finishing each
round in O(log |F_i|) parallel batches instead of |F_i| sequential ones.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.celf import SelectionResult, _check_budget, key


class PTree:
    """Ordered max-structure over (score, vertex-id) with batch ops."""

    def __init__(self, scores: np.ndarray | None = None):
        scores = [] if scores is None else scores
        self.heap = [(-float(s), v) for v, s in enumerate(scores)]
        heapq.heapify(self.heap)

    def __len__(self) -> int:
        return len(self.heap)

    def max_key(self) -> tuple[float, int]:
        """Key of the best-ranked element."""
        if not self.heap:
            raise IndexError("empty tree")
        neg, v = self.heap[0]
        return key(-neg, v)

    def split_top(self, k: int) -> list[tuple[int, float]]:
        """SplitAndRemove: extract the k best (vertex, stale score)."""
        top = [heapq.heappop(self.heap) for _ in range(min(k, len(self.heap)))]
        return [(v, -neg) for neg, v in top]

    def batch_insert(self, items: list[tuple[int, float]]) -> None:
        """BatchInsert: add (vertex, score) pairs."""
        for vid, score in items:
            heapq.heappush(self.heap, (-float(score), int(vid)))

    def to_sorted_list(self) -> list[tuple[int, float]]:
        return [(v, -neg) for neg, v in sorted(self.heap)]


def ptree_select(evaluator, k: int, *, max_jobs: int | None = None) -> SelectionResult:
    """Alg. 4: prefix-doubling parallel CELF over a P-tree."""
    scores = evaluator.init_scores()
    n = len(scores)
    jobs0, evals0 = evaluator.n_jobs, evaluator.n_reevals
    tree = PTree(scores)
    seeds: list[int] = []
    gains: list[float] = []
    batch_hist: list[int] = []
    while len(seeds) < k and len(tree):
        best_v, best_s = -1, -np.inf
        collected: list[tuple[int, float]] = []
        j = 0
        n_batches = 0
        while True:
            batch = tree.split_top(1 << j)
            if not batch:
                break
            vs = np.array([v for v, _ in batch], dtype=np.int64)
            truths = evaluator.evaluate(vs)
            _check_budget(evaluator, max_jobs)
            n_batches += 1
            for (v, _), t in zip(batch, truths):
                collected.append((v, float(t)))
                if key(t, v) > key(best_s, best_v):
                    best_v, best_s = v, float(t)
            j += 1
            if len(tree) == 0 or key(best_s, best_v) > tree.max_key():
                break
        batch_hist.append(n_batches)
        tree.batch_insert([(v, s) for v, s in collected if v != best_v])
        seeds.append(best_v)
        gains.append(best_s)
        evaluator.mark_seed(best_v)
    return SelectionResult(
        seeds=seeds,
        gains=gains,
        n_reevals=evaluator.n_reevals - evals0,
        n_jobs=evaluator.n_jobs - jobs0,
        # 48 B per node models the paper's PAM P-tree node (score, id,
        # priority/balance, 2 child pointers, subtree size; 8 B fields),
        # which Fig. 9 compares against Win-Tree — not the heap that
        # emulates it here.
        structure_bytes=48 * n,
        extra={"batches_per_round": batch_hist},
    )
