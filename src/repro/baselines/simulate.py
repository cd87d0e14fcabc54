"""Monte-Carlo estimation of the influence spread σ(S) under the IC model.

Each simulation samples one live-edge graph (hash-deterministic, salt
stream ``SALT_SIM`` — disjoint from the sketch stream, so evaluating a
seed set never reuses the coins that selected it) and BFS-counts the
vertices reachable from S. On undirected graphs this is exactly the IC
process outcome: a vertex activates iff a live path connects it to a
seed. Simulations are lanes of the shared sampled-BFS kernel
(:func:`repro.cc.local_cc.sampled_bfs`), each lane sourced at every seed.

``estimate_spread`` distributes the simulations (one Spark task per
block of simulation ids); ``estimate_spread_local`` is the driver-side
reference used by tests.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.cc.local_cc import LANE_BLOCK, sampled_bfs
from repro.graphs.csr import CSR
from repro.hashing import SALT_SIM
from repro.sparkjob import job_description


def spread_counts(
    csr: CSR, probs: np.ndarray, seeds: np.ndarray, sim_ids: np.ndarray
) -> np.ndarray:
    """#vertices activated from ``seeds`` in the live-edge graph of each
    simulation id."""
    seeds = np.asarray(seeds, dtype=np.int64)
    sim_ids = np.asarray(sim_ids, dtype=np.int64)
    counts = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(sim_ids), LANE_BLOCK):
        salts = SALT_SIM + sim_ids[lo:lo + LANE_BLOCK]
        L = len(salts)
        keys, _ = sampled_bfs(
            csr, probs, np.repeat(np.arange(L), len(seeds)),
            np.tile(seeds, L), salts,
        )
        counts.append(np.bincount(keys // csr.n, minlength=L))
    return np.concatenate(counts)


def estimate_spread_local(
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, driver-side."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size == 0:
        return 0.0
    sims = sim_offset + np.arange(n_sims)
    return int(spread_counts(csr, probs, seeds, sims).sum()) / n_sims


def estimate_spread(
    spark: SparkSession,
    csr: CSR,
    probs: np.ndarray,
    seeds,
    *,
    n_sims: int,
    sim_offset: int = 0,
) -> float:
    """Mean spread over ``n_sims`` simulations, one Spark job."""
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size == 0:
        return 0.0
    bc = spark.sparkContext.broadcast((csr, probs))

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        csr_b, probs_b = bc.value
        for pdf in batches:
            sims = sim_offset + pdf["id"].to_numpy()
            yield pd.DataFrame({"spread": spread_counts(csr_b, probs_b, seeds, sims)})

    with job_description(
        spark, f"MC spread oracle: {n_sims} simulations of {len(seeds)} seeds"
    ):
        out = (
            spark.range(n_sims)  # range already spreads ids over the cores
            .mapInPandas(kernel, schema="spread long")
            .toPandas()
        )
    return float(out["spread"].mean())
