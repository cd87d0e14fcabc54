"""Every Spark job the program launches carries a description naming
what it computes, and the description is cleared after the job."""
from repro.baselines.ris import generate_rr_sets
from repro.baselines.simulate import estimate_spread
from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.generators import rmat
from repro.graphs.probs import consistent_probs


def _job_descriptions(spark) -> dict[int, str | None]:
    """Job id -> description, from Spark's application status store."""
    jobs = spark.sparkContext._jsc.sc().statusStore().jobsList(None)
    out = {}
    for i in range(jobs.size()):
        job = jobs.apply(i)
        desc = job.description()
        out[job.jobId()] = desc.get() if desc.isDefined() else None
    return out


def test_jobs_are_described(spark):
    csr = build_csr(rmat(128, 600, seed=3), n=128)
    probs = consistent_probs(csr, 0.15)
    before = max(_job_descriptions(spark), default=-1)
    res = run_pacim(spark, csr, probs, R=4, alpha=0.2, k=2, backend="spark")
    estimate_spread(spark, csr, probs, res["seeds"], n_sims=8)
    generate_rr_sets(spark, csr, probs, 8)
    spark.range(3).count()
    new = [d for j, d in sorted(_job_descriptions(spark).items()) if j > before]
    assert new[0].startswith("PaC-IM sketches: R=4")
    batches = [d for d in new if d and d.startswith("PaC-IM evaluation batch")]
    assert len(batches) == res["n_eval_jobs"]
    assert batches[0] == "PaC-IM evaluation batch 1: 1 vertices, 4 (v, r) pairs"
    assert any(d and d.startswith("MC spread oracle: 8 simulations") for d in new)
    assert any(d and d.startswith("RIS: 8 RR sets") for d in new)
    assert new[-1] is None  # the label does not leak into later jobs
