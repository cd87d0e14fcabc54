"""One benchmark invocation: set-up, timed iterations, checks, metrics."""
from __future__ import annotations

import hashlib
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy
import pyspark

from probes import Probes, nbytes
from repro.baselines.simulate import estimate_spread, estimate_spread_local
from repro.core.pacim import run_pacim
from repro.graphs.csr import build_csr
from repro.graphs.probs import make_probs
from workloads import WORKLOADS

SPARK_DRIVER_MEMORY = "2g"
LOG4J_CONFIG = Path(__file__).resolve().parent / "log4j2.properties"
ORACLE_MIN_CALLS = 10  # a Spark run fits only two iterations
# Iteration i runs at center seed seed*CENTER_CYCLE + i % CENTER_CYCLE.
# Every sketch shares one center set and the BFS visits hinge on it, so a
# run's fastest iteration is taken over several center sets. Each set
# recurs in a run of more than CENTER_CYCLE iterations and must repeat
# its outputs exactly.
CENTER_CYCLE = 8
PROBE_LOOP = 20_000  # ~1.5 ms of pure Python
PROBE_REPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SELECTORS = ("celf", "ptree", "wintree")
COUNT_FIELDS = ("seeds", "gains", "n_eval_jobs", "n_reevals", "n_visits")


class Ledger:
    """Operations attempted and failed; a failure is an exception, an
    exceeded evaluation budget or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def run(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - every failure is counted and shown
            self.failed.append(what)
            traceback.print_exc()
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _spin() -> float:
    """Seconds a fixed pure-Python loop takes on the current vCPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class Cores:
    """Pins this thread, before each timed driver-side call, to the vCPU
    on which a short probe loop runs fastest. Each of the host's vCPUs
    switches between two speeds ~1.4x apart for seconds at a time,
    independently of the others; unpinned, a run's times follow whichever
    vCPU the scheduler happened to use. Timed Spark calls run unpinned,
    since the JVM and its workers spread over every vCPU."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.enabled = len(self.cpus) > 1

    def pin(self) -> None:
        if self.enabled:
            os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(_spin() for _ in range(PROBE_REPS))

    def release(self) -> None:
        if self.enabled:
            os.sched_setaffinity(0, self.cpus)


@contextmanager
def spark_session(tmp: Path, src: Path):
    """``local[nproc]`` session whose temporary files stay under ``tmp``.
    On exit the gateway JVM, and with it every Python worker, is stopped
    and waited for."""
    master = f"local[{nproc()}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {SPARK_DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} "
        f"-Dlog4j2.configurationFile={LOG4J_CONFIG}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    spark = None
    try:
        spark = (
            SparkSession.builder.appName("perfbench").master(master)
            .config("spark.local.dir", str(tmp))
            .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.shuffle.partitions", "16")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        yield spark, master
    finally:
        if spark is not None:
            spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            proc = getattr(gateway, "proc", None)
            gateway.shutdown()
            if proc is not None:
                proc.stdin.close()  # the gateway JVM exits on EOF
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            SparkContext._gateway = None
            SparkContext._jvm = None


class Bench:
    """One workload at one seed: inputs, timed calls, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, src: Path):
        if workload not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}"
            )
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.ledger = Ledger()
        self.cores = Cores()
        self.spark = None
        self.csr = self.probs = None
        # first iteration's results and oracle spread, for the Spark checks
        self.first_results = self.first_spread = None
        self.meta: dict = {}

    # -- set-up: generate the graph, build_csr, assign probabilities ------
    def time_setup(self) -> list[float]:
        """Build the inputs at least 10 times and for at least 1 s (at
        most 200 times); keep the last build. Each build must equal the
        first one ever made."""
        times: list[float] = []
        self.cores.pin()
        while len(times) < 10 or (sum(times) < 1.0 and len(times) < 200):
            t0 = time.perf_counter()
            csr = build_csr(self.wl.graph(self.seed))
            probs = make_probs(csr, "consistent", p=self.wl.p)
            times.append(time.perf_counter() - t0)
        if self.csr is None:
            self.csr, self.probs = csr, probs
        self.ledger.check(
            "set-up is deterministic",
            csr.n == self.csr.n and numpy.array_equal(probs, self.probs)
            and all(numpy.array_equal(getattr(csr, f), getattr(self.csr, f))
                    for f in ("indptr", "adj", "arc_key", "edges")),
        )
        return times

    # -- the timed calls --------------------------------------------------
    def center_seed(self, i: int) -> int:
        return self.seed * CENTER_CYCLE + i % CENTER_CYCLE

    def run_im(self, backend: str, probes: Probes, center_seed: int,
               k: int | None = None):
        """The workload's ``run_pacim`` call(s); (results, seconds)."""
        wl = self.wl
        spark = self.spark if backend == "spark" else None
        with probes.on():
            if spark is None:
                self.cores.pin()
            else:
                self.cores.release()
            t0 = time.perf_counter()
            results = [
                run_pacim(
                    spark, self.csr, self.probs, R=wl.R, alpha=wl.alpha,
                    k=wl.k if k is None else k, selector=sel, backend=backend,
                    center_seed=center_seed, max_eval_jobs=self.csr.n,
                )
                for sel in wl.selectors
            ]
            return results, time.perf_counter() - t0

    def oracle_kw(self) -> dict:
        return dict(n_sims=self.wl.n_sims,
                    sim_offset=self.seed * self.wl.n_sims)

    def run_oracle(self, seeds):
        """MC spread of ``seeds`` from the driver-side oracle; (spread,
        seconds). The Spark oracle's time spread 14-29% of its median over
        ten runs on a 4-vCPU VM, past any allowed bound: each call waits
        for the slowest of nproc tasks. On the Spark backend it runs once
        per invocation, untimed, as a check."""
        self.cores.pin()
        t0 = time.perf_counter()
        spread = estimate_spread_local(self.csr, self.probs, seeds,
                                       **self.oracle_kw())
        return spread, time.perf_counter() - t0

    # -- output checks ----------------------------------------------------
    def check_results(self, results) -> None:
        chk, k = self.ledger.check, self.wl.k
        for res in results:
            sel, seeds = res["selector"], res["seeds"]
            chk(f"{sel}: {k} distinct seeds",
                len(seeds) == k and len(set(seeds)) == k)
            chk(f"{sel}: est_influence equals the sum of the gains",
                math.isclose(res["est_influence"], math.fsum(res["gains"]),
                             rel_tol=1e-12))
            chk(f"{sel}: every seed has a positive gain",
                all(g > 0 for g in res["gains"]))
        for res in results[1:]:
            chk(f"{res['selector']} picks the seeds {results[0]['selector']} "
                "picks (Thms. 4.1/4.4)", res["seeds"] == results[0]["seeds"])
        by_sel = {res["selector"]: res for res in results}
        if "celf" in by_sel and "ptree" in by_sel:
            chk("P-tree re-evaluates at most 2x what CELF does (Thm. 4.2)",
                by_sel["ptree"]["n_reevals"] <= 2 * by_sel["celf"]["n_reevals"])

    def check_spark_equals_local(self) -> None:
        """On the same input the local backend picks the Spark run's
        seeds, gains and counts, and the Spark oracle returns the local
        oracle's spread (run once, outside the timed region)."""
        local = self.ledger.run(
            "run_pacim (local cross-check)",
            lambda: self.run_im("local", Probes(), self.center_seed(0))[0],
        )
        if local is not None:
            self.ledger.check(
                "Spark backend equals the local backend",
                all(s[f] == l[f] for s, l in zip(self.first_results, local)
                    for f in COUNT_FIELDS),
            )
        seeds = self.first_results[-1]["seeds"]
        spread = self.ledger.run(
            "estimate_spread (Spark cross-check)",
            lambda: estimate_spread(self.spark, self.csr, self.probs, seeds,
                                    **self.oracle_kw()),
        )
        if spread is not None:
            self.ledger.check(
                "Spark oracle equals the local oracle",
                math.isclose(spread, self.first_spread, rel_tol=1e-9),
            )

    # -- measurement ------------------------------------------------------
    def im_iteration(self, probes: Probes, center_seed: int) -> dict | None:
        got = self.ledger.run(
            "run_pacim",
            lambda: self.run_im(self.wl.backend, probes, center_seed),
        )
        if got is None:
            return None
        results, im_s = got
        self.check_results(results)
        return dict(results=results, im_s=im_s, probes=probes,
                    center_seed=center_seed)

    def measure(self) -> tuple[list[dict], list[tuple[float, float]]]:
        """Untraced iterations, each followed by one oracle call on the
        chosen seeds, while the next pair is expected to end within
        ``seconds`` (at least one pair); then oracle calls up to
        ``ORACLE_MIN_CALLS``. An iteration must repeat the seeds, gains
        and counts of every earlier one at its center seed exactly. The
        oracle runs on the first iteration's seeds, and every call must
        repeat the first one's spread, within (0, n]. Returns
        (iterations, oracle calls); both are empty unless every step ran."""
        its: list[dict] = []
        oracle: list[tuple[float, float]] = []

        def call_oracle() -> bool:
            seeds = its[0]["results"][-1]["seeds"]
            got = self.ledger.run("estimate_spread",
                                  lambda: self.run_oracle(seeds))
            if got is not None:
                oracle.append(got)
            return got is not None

        t0 = time.perf_counter()
        while True:
            cs = self.center_seed(len(its))
            it = self.im_iteration(Probes(), cs)
            if it is None:
                return [], []
            for prev in its[:CENTER_CYCLE]:
                if prev["center_seed"] == cs:
                    self.ledger.check(
                        "iterations repeat seeds, gains and counts",
                        _fingerprint(it) == _fingerprint(prev),
                    )
            its.append(it)
            if not call_oracle():
                return [], []
            elapsed = time.perf_counter() - t0
            if elapsed * (len(its) + 1) / len(its) > self.seconds:
                break
        while len(oracle) < ORACLE_MIN_CALLS:
            if not call_oracle():
                return [], []
        spreads = {sp for sp, _ in oracle}
        self.ledger.check("oracle calls repeat the spread", len(spreads) == 1)
        self.ledger.check("spread is within (0, n]",
                          all(0 < sp <= self.csr.n for sp in spreads))
        return its, oracle

    def untraced(self, setup: list[float]) -> dict:
        """Timed iterations and oracle calls, then a second set-up window;
        the end-to-end metrics (none unless every step passed).

        ``setup_s`` is the median of its samples; ``im_s`` and ``oracle_s``
        are the fastest of theirs. On a shared VM each vCPU switches
        between speeds ~1.4x apart for seconds at a time, and the mix of
        states drifts over minutes: a run's median follows that mix, its
        fastest sample follows the program. Over ten seeds on a 4-vCPU VM
        the fastest sample spread 3-7% of the median where the median
        spread 8-16%."""
        its, oracle = self.measure()
        setup = setup + self.time_setup()
        self.meta["center_seeds"] = [i["center_seed"] for i in its]
        self.meta["im_s_samples"] = [i["im_s"] for i in its]
        self.meta["oracle_s_samples"] = [t for _, t in oracle]
        if not its:
            return {}
        results = self.first_results = its[0]["results"]
        self.first_spread = oracle[0][0]
        held = self.held_bytes(its[0]["probes"])
        self.meta["held_mb"] = held / 1e6
        self.meta["pacim_space_mb"] = max(
            r["space"]["total_bytes"] for r in results) / 1e6
        return {
            "setup_s": (statistics.median(setup), "s"),
            "im_s": (min(i["im_s"] for i in its), "s"),
            "oracle_s": (min(t for _, t in oracle), "s"),
            "held_mb": (held / 1e6, "MB"),
            "rounds": (sum(r["n_eval_jobs"] for r in results), "count"),
            "reevals": (sum(r["n_reevals"] for r in results), "count"),
            "est_influence": (results[-1]["est_influence"], "vertices"),
            "spread": (oracle[0][0], "vertices"),
        }

    def warm_up(self) -> None:
        """One small untimed run through the Spark paths timed later."""
        self.ledger.run(
            "warm-up",
            lambda: self.run_im("spark", Probes(), self.center_seed(0), k=1),
        )

    # -- metrics ----------------------------------------------------------
    def held_bytes(self, probes: Probes) -> int:
        """Bytes the run holds, read off the live objects: the CSR, the
        probabilities and, for the largest ``run_pacim`` call, its
        sketches plus its selector's priority structure."""
        per_call = [
            nbytes(sk.result) + sel.result.structure_bytes
            for sk, sel in zip(probes.sketch_calls, probes.select_calls)
        ]
        return nbytes(self.csr) + self.probs.nbytes + max(per_call)

    def traced(self) -> dict:
        """Untraced iterations and oracle calls, then one traced
        iteration; the per-layer metrics."""
        its, oracle = self.measure()
        if not its:
            return {}
        kernel = self.wl.backend == "local"
        traced = self.im_iteration(Probes(layers=True, kernel=kernel),
                                   its[0]["center_seed"])
        if traced is None:
            return {}
        self.ledger.check("the traced iteration repeats the untraced ones",
                          _fingerprint(traced) == _fingerprint(its[0]))
        self.first_results = its[0]["results"]
        self.first_spread = oracle[0][0]
        return self.per_layer(its, traced, oracle)

    def per_layer(self, its: list[dict], traced: dict, oracle) -> dict:
        pr = traced["probes"]
        ev, ms = pr.spans["evaluate"], pr.spans["mark_seed"]
        results = traced["results"]
        sketches = [p.result for p in pr.sketch_calls]
        out = {
            "sketches.s": (sum(p.s for p in pr.sketch_calls), "s"),
            "sketches.bytes": (max(nbytes(s) for s in sketches), "bytes"),
            "graphs.csr_bytes": (nbytes(self.csr), "bytes"),
            "graphs.probs_bytes": (self.probs.nbytes, "bytes"),
            "evaluate.calls": (ev.calls, "count"),
            "evaluate.pairs": (ev.counts["pairs"], "count"),
            "evaluate.s": (ev.s, "s"),
            "evaluate.visits": (ev.counts["visits"], "count"),
            "evaluate.ns_per_visit":
                (_ratio(ev.s * 1e9, ev.counts["visits"]), "ns"),
            "evaluate.us_per_pair":
                (_ratio(ev.s * 1e6, ev.counts["pairs"]), "us"),
            "evaluate.broadcast_bytes":
                (self.broadcast_bytes(sketches[-1]), "bytes"),
            "mark_seed.calls": (ms.calls, "count"),
            "mark_seed.s": (ms.s, "s"),
            "mark_seed.visits": (ms.counts["visits"], "count"),
        }
        call_ms = sorted(1e3 * d for d in ev.durations)
        tail = next((q for q in TAIL_PERCENTILES
                     if len(call_ms) * (1 - q / 100) >= 10), 50.0)
        out["evaluate.call_ms.p50"] = (_percentile(call_ms, 50.0), "ms")
        out["evaluate.call_ms.tail"] = (_percentile(call_ms, tail), "ms")
        out["evaluate.call_ms.tail_pct"] = (tail, "percent")
        for name in ("get_center", "u01"):
            out[f"{name}.calls"] = (pr.spans[name].calls, "count")
            out[f"{name}.s"] = (pr.spans[name].s, "s")
        out["u01.keys"] = (pr.spans["u01"].counts["keys"], "count")
        by_sel = {p.selector: p for p in pr.select_calls}
        for name in SELECTORS:
            p = by_sel.get(name)
            sel = p.result if p else None
            out[f"{name}.self_s"] = (p.s - p.inner_s if p else 0.0, "s")
            out[f"{name}.rounds"] = (sel.n_jobs if p else 0, "count")
            out[f"{name}.reevals"] = (sel.n_reevals if p else 0, "count")
            out[f"{name}.structure_bytes"] = (
                sel.structure_bytes if p else 0, "bytes")
            self.ledger.check(f"{name} self time is non-negative",
                              out[f"{name}.self_s"][0] >= 0)
        out["ptree.reeval_ratio"] = (
            _ratio(out["ptree.reevals"][0], out["celf.reevals"][0]), "ratio")
        out["simulate.sims"] = (self.wl.n_sims, "count")
        out["simulate.s"] = (min(t for _, t in oracle), "s")
        out["pacim.sketch_s"] = (sum(r["sketch_time"] for r in results), "s")
        out["pacim.select_s"] = (sum(r["select_time"] for r in results), "s")
        out["pacim.space_mb"] = (
            max(r["space"]["total_bytes"] for r in results) / 1e6, "MB")
        untraced = min(i["im_s"] for i in its
                       if i["center_seed"] == traced["center_seed"])
        out["trace.overhead_frac"] = (traced["im_s"] / untraced - 1.0, "fraction")
        return out

    def broadcast_bytes(self, sk) -> int:
        """Pickled size of the tuple ``SparkEvaluator`` broadcasts, computed
        with PySpark's pickle protocol; 0 on the local backend."""
        if self.spark is None:
            return 0
        from pyspark.serializers import pickle_protocol

        payload = (self.csr, self.probs, sk.center_index, sk.labels, sk.sizes)
        return len(pickle.dumps(payload, pickle_protocol))

    # -- one invocation ---------------------------------------------------
    def run(self, trace: bool, tmp: Path) -> tuple[dict, dict]:
        """With ``trace`` the per-layer metrics, else the end-to-end ones."""
        self.meta = meta = self.metadata(trace)
        setup = self.time_setup()
        measure = self.traced if trace else lambda: self.untraced(setup)
        if self.wl.backend == "spark":
            self.cores.release()  # the JVM inherits this thread's vCPUs
            t0 = time.perf_counter()
            with spark_session(tmp, self.src) as (spark, master):
                self.spark = spark
                self.warm_up()
                meta["spark_start_s"] = time.perf_counter() - t0
                meta["spark_master"] = master
                metrics = measure()
                if self.first_results is not None:
                    self.check_spark_equals_local()
            self.spark = None
        else:
            metrics = measure()
        self.cores.release()
        failed = len(self.ledger.failed)
        attempted = max(self.ledger.attempted, 1)
        meta["fail_rate"] = failed / attempted
        meta["failed_ops"] = self.ledger.failed
        result = {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, meta

    def metadata(self, trace: bool) -> dict:
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "run_seconds": self.seconds,
            "trace": int(trace),
            "git_sha": _git_sha(self.src.parent),
            "src_sha256": _tree_digest(self.src),
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pyspark": pyspark.__version__,
            "spark_master": "none",
            "spark_start_s": None,
            "pinned_to_fastest_vcpu": self.cores.enabled,
        }


def _fingerprint(it: dict) -> tuple:
    return tuple(tuple(r[f] for f in COUNT_FIELDS) for r in it["results"])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
