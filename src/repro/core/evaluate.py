"""Marginal-gain evaluation (paper Alg. 3: GetCenter / Marginal / MarkSeed).

``get_centers`` runs GetCenter for a batch of (vertex, sketch) pairs as
lanes of the shared sampled-BFS kernel
(:func:`repro.cc.local_cc.sampled_bfs`), which advances every lane one
BFS wave per numpy step on its hash-reconstructed sampled graph G'_r.
A lane stops at the first wave that reaches a center and returns the
memoized CC size for that center's label. A lane that exhausts its CC
returns 0 if the CC holds a seed and otherwise the number of vertices
it visited (= the CC size). Expected visits are O(min(T, 1/α)) per
sketch (Thm. 3.1), and nothing a batch allocates grows with n.

Two evaluators call it:

- :class:`LocalEvaluator` — driver-side numpy; used where only
  *evaluation counts* matter (Table 5) and in unit tests;
- :class:`SparkEvaluator` — one Spark job per evaluation **batch**: the
  batch explodes into (vertex, sketch) rows, a ``mapInPandas`` task runs
  ``get_centers`` over its rows against the broadcast CSR + sketches,
  and the driver averages per vertex. A 1-vertex batch is still a job —
  that is exactly the sequential-CELF cost model of the baselines
  (DESIGN.md §2).

``MarkSeed`` always runs on the driver (``get_centers`` over R lanes)
and its effect is shipped to tasks as a small array of zeroed
``r·ρ + label`` keys, so the broadcast sketch arrays stay immutable.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cc.local_cc import LANE_BLOCK, sampled_bfs
from repro.core.sketches import Sketches
from repro.graphs.csr import CSR
from repro.hashing import SALT_SKETCH, u01  # noqa: F401  (u01 stays importable here)
from repro.sparkjob import job_description

_NO_KEYS = np.empty(0, dtype=np.int64)


def get_centers(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    vs: np.ndarray,
    rs: np.ndarray,
    seeds_mask: np.ndarray,
    zeroed: np.ndarray = _NO_KEYS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair i: (marginal δ of ``vs[i]`` on sketch ``rs[i]``, CC label
    or -1, #BFS visits).

    ``sizes`` may already have zeroed entries (LocalEvaluator mutates its
    copy in place); ``zeroed`` holds ``r·ρ + label`` keys additionally
    zeroed since the arrays were broadcast (SparkEvaluator path).
    """
    vs = np.asarray(vs, dtype=np.int64)
    rs = np.asarray(rs, dtype=np.int64)
    parts = [
        _get_center_lanes(csr, probs, center_index, labels, sizes,
                          vs[lo:lo + LANE_BLOCK], rs[lo:lo + LANE_BLOCK],
                          seeds_mask, zeroed)
        for lo in range(0, len(vs), LANE_BLOCK)
    ]
    if not parts:
        return _NO_KEYS, _NO_KEYS, _NO_KEYS
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _get_center_lanes(csr, probs, center_index, labels, sizes, vs, rs,
                      seeds_mask, zeroed):
    L = len(vs)
    keys, hit = sampled_bfs(
        csr, probs, np.arange(L), vs, SALT_SKETCH + rs,
        stop=lambda x: center_index[x] >= 0,
    )
    lane, vert = np.divmod(keys, csr.n)
    visits = np.bincount(lane, minlength=L)
    # a lane that exhausts its CC gains its size, or nothing if a seed is in it
    seeded = np.bincount(lane[seeds_mask[vert]], minlength=L) > 0
    delta = np.where(seeded, 0, visits)
    label = np.full(L, -1, dtype=np.int64)
    at = hit >= 0  # reached a center: adopt its memoized CC info
    r, lab = rs[at], labels[rs[at], center_index[hit[at]]].astype(np.int64)
    label[at] = lab
    zero = np.isin(r * labels.shape[1] + lab, zeroed)
    delta[at] = np.where(zero, 0, sizes[r, lab])
    return delta, label, visits


def get_center(
    csr: CSR,
    probs: np.ndarray,
    center_index: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    r: int,
    v: int,
    seeds_mask: np.ndarray,
    zeroed_r: set[int] | frozenset[int],
) -> tuple[int, int, int]:
    """:func:`get_centers` for one pair: (δ of v on sketch r, CC label or
    -1, #BFS visits); ``zeroed_r`` holds the labels of sketch r zeroed
    since the arrays were broadcast."""
    rho = labels.shape[1]
    zeroed = np.array([r * rho + lab for lab in zeroed_r], dtype=np.int64)
    d, lab, nv = get_centers(csr, probs, center_index, labels, sizes,
                             [v], [r], seeds_mask, zeroed)
    return int(d[0]), int(lab[0]), int(nv[0])


class LocalEvaluator:
    """Driver-side evaluator; mutates its own copy of the size arrays.

    Counters: ``n_reevals`` (total vertices re-evaluated — the paper's
    Table 5 quantity), ``n_jobs`` (evaluation batches — the parallel-
    rounds / span proxy), ``n_visits`` (BFS visits — Thm. 3.1 quantity).
    ``zeroed`` holds the ``r·ρ + label`` key of every CC MarkSeed zeroed.
    """

    def __init__(self, csr: CSR, probs: np.ndarray, sketches: Sketches):
        self.csr = csr
        self.probs = probs
        self.sk = sketches
        self.sizes = sketches.sizes.copy()
        self.seeds: list[int] = []
        self.seeds_mask = np.zeros(csr.n, dtype=bool)
        self.zeroed = _NO_KEYS
        self.n_reevals = 0
        self.n_jobs = 0
        self.n_visits = 0

    @property
    def n(self) -> int:
        return self.csr.n

    def init_scores(self) -> np.ndarray:
        """Marginal(∅, v) for all v — harvested at sketch construction."""
        return self.sk.init_scores.copy()

    def _full_memo(self) -> bool:
        return self.sk.rho == self.csr.n

    def _lanes(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v, r) pairs of a batch, vertex-major: R lanes per vertex."""
        R = self.sk.R
        return np.repeat(vs, R), np.tile(np.arange(R), len(vs))

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        """True marginal gains of a batch; one parallel round."""
        vs = np.asarray(vs, dtype=np.int64)
        self.n_reevals += len(vs)
        self.n_jobs += 1
        if self._full_memo():
            # α = 1: every vertex is a center; pure 2-D array lookup.
            labs = self.sk.labels[:, vs]  # (R, |vs|)
            vals = self.sizes[np.arange(self.sk.R)[:, None], labs]
            self.n_visits += vals.size
            return vals.mean(axis=0)
        deltas, _, visits = get_centers(
            self.csr, self.probs, self.sk.center_index, self.sk.labels,
            self.sizes, *self._lanes(vs), self.seeds_mask,
        )
        self.n_visits += int(visits.sum())
        return deltas.reshape(len(vs), self.sk.R).mean(axis=1)

    def mark_seed(self, v: int) -> None:
        """Paper's MarkSeed: zero the CC size of v's component on every
        sketch whose CC has a center; record the zeroed labels so Spark
        tasks (reading the immutable broadcast) can apply the override."""
        v = int(v)
        vs, rs = self._lanes(np.array([v]))
        _, labs, visits = get_centers(
            self.csr, self.probs, self.sk.center_index, self.sk.labels,
            self.sizes, vs, rs, self.seeds_mask,
        )
        self.n_visits += int(visits.sum())
        at = labs >= 0
        self.sizes[rs[at], labs[at]] = 0
        self.zeroed = np.concatenate((self.zeroed, rs[at] * self.sk.rho + labs[at]))
        self.seeds.append(v)
        self.seeds_mask[v] = True


class SparkEvaluator(LocalEvaluator):
    """Evaluation batches dispatched as Spark jobs over (v, r) rows.

    The CSR, probabilities, and pristine sketch arrays are broadcast at
    construction; per-call state (current seeds, zeroed label keys)
    travels in the task closure — a few hundred integers at most.
    """

    def __init__(
        self, spark: SparkSession, csr: CSR, probs: np.ndarray, sketches: Sketches
    ):
        super().__init__(csr, probs, sketches)
        self.spark = spark
        self._bc = spark.sparkContext.broadcast(
            (csr, probs, sketches.center_index, sketches.labels, sketches.sizes)
        )
        self._parallelism = spark.sparkContext.defaultParallelism

    def evaluate(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        self.n_reevals += len(vs)
        self.n_jobs += 1
        pv, pr = self._lanes(vs)
        pairs = pd.DataFrame({"v": pv, "r": pr})
        bc = self._bc
        seeds = np.array(self.seeds, dtype=np.int64)
        zeroed = self.zeroed

        def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            csr_b, probs_b, cidx_b, labels_b, sizes_b = bc.value
            mask = np.zeros(csr_b.n, dtype=bool)
            mask[seeds] = True
            for pdf in batches:
                v = pdf["v"].to_numpy()
                deltas, _, visits = get_centers(
                    csr_b, probs_b, cidx_b, labels_b, sizes_b,
                    v, pdf["r"].to_numpy(), mask, zeroed,
                )
                yield pd.DataFrame(
                    {"v": v, "delta": deltas.astype(np.float64), "visits": visits}
                )

        # Arrow-based createDataFrame already splits the pairs across
        # defaultParallelism partitions; an explicit repartition would add
        # a shuffle stage and dominate small-batch latency.
        with job_description(
            self.spark,
            f"PaC-IM evaluation batch {self.n_jobs}: "
            f"{len(vs)} vertices, {len(pairs)} (v, r) pairs",
        ):
            out = (
                self.spark.createDataFrame(pairs)
                .mapInPandas(kernel, schema="v long, delta double, visits long")
                .toPandas()
            )
        self.n_visits += int(out["visits"].sum())
        agg = out.groupby("v")["delta"].mean()
        return agg.reindex(vs).to_numpy()
