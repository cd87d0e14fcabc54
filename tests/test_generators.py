"""Unit tests for the synthetic graph generators."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import (
    SUITE,
    erdos_renyi,
    grid2d,
    knn_graph,
    rmat,
    suite_graph,
    to_spark_edges,
)

GENS = {
    "rmat": lambda seed: rmat(256, 1500, seed=seed),
    "er": lambda seed: erdos_renyi(300, 900, seed=seed),
    "knn": lambda seed: knn_graph(200, 4, seed=seed),
    "knn-clustered": lambda seed: knn_graph(200, 4, seed=seed, clusters=5),
}


@pytest.mark.parametrize("name", sorted(GENS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_form(name, seed):
    e = GENS[name](seed)
    assert e.ndim == 2 and e.shape[1] == 2
    assert (e[:, 0] < e[:, 1]).all(), "u < v required"
    keys = e[:, 0] * (e.max() + 1) + e[:, 1]
    assert len(np.unique(keys)) == len(e), "no duplicate edges"


@pytest.mark.parametrize("name", sorted(GENS))
def test_deterministic(name):
    assert np.array_equal(GENS[name](7), GENS[name](7))


@pytest.mark.parametrize("name", sorted(GENS))
def test_seed_changes_graph(name):
    assert not np.array_equal(GENS[name](1), GENS[name](2))


def test_rmat_requires_power_of_two():
    with pytest.raises(ValueError):
        rmat(1000, 5000, seed=1)


def test_rmat_edge_count_near_target():
    e = rmat(1024, 8000, seed=4)
    assert 6000 <= len(e) <= 8800


def test_rmat_is_heavy_tailed():
    e = rmat(4096, 40_000, seed=5)
    deg = np.bincount(e.ravel(), minlength=4096)
    # max degree far above the mean, many low-degree vertices.
    assert deg.max() > 10 * deg.mean()
    assert (deg <= 2).sum() > 0.2 * 4096


@pytest.mark.parametrize("rows,cols", [(3, 4), (10, 7), (1, 5)])
def test_grid_structure(rows, cols):
    e = grid2d(rows, cols)
    n = rows * cols
    m_expected = rows * (cols - 1) + cols * (rows - 1)
    assert len(e) == m_expected
    deg = np.bincount(e.ravel(), minlength=n)
    assert deg.max() <= 4
    if rows > 1 and cols > 1:
        assert deg[0] == 2  # corner


def test_grid_is_connected():
    from repro.cc.local_cc import cc_labels

    e = grid2d(8, 9)
    lab = cc_labels(72, e[:, 0], e[:, 1])
    assert (lab == 0).all()


@pytest.mark.parametrize("k", [2, 4, 6])
def test_knn_min_degree(k):
    e = knn_graph(150, k, seed=3)
    deg = np.bincount(e.ravel(), minlength=150)
    # Symmetrized k-NN: every vertex keeps at least its own k edges.
    assert deg.min() >= k


def test_knn_clustered_differs():
    a = knn_graph(200, 4, seed=3)
    b = knn_graph(200, 4, seed=3, clusters=5)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_graphs_wellformed(name):
    edges, p, cls = suite_graph(name)
    assert 0 < p <= 1
    assert cls in ("scale-free", "sparse")
    assert (edges[:, 0] < edges[:, 1]).all()
    assert edges.max() < 40_000


def test_suite_classes_cover_both():
    classes = {SUITE[g]["cls"] for g in SUITE}
    assert classes == {"scale-free", "sparse"}


def test_im_graph_canonical(spark):
    df = to_spark_edges(spark, suite_graph("ROAD-A")[0])
    assert df.columns == ["u", "v"]
    bad = df.where(F.col("u") >= F.col("v")).count()
    assert bad == 0
    assert df.count() == 23980


def test_im_graph_deterministic(spark):
    a = to_spark_edges(spark, suite_graph("KNN-A")[0]).toPandas()
    b = to_spark_edges(spark, suite_graph("KNN-A")[0]).toPandas()
    assert a.equals(b)
