"""Probes installed around the program's layers from the benchmark process.

Nothing here edits the program: each probe replaces a class attribute or
a module global with a wrapper for the duration of a ``with`` block and
restores the original on exit.

- ``boundary`` probes sit where ``run_pacim`` calls the sketch builders
  and the selector. They capture the ``Sketches`` and ``SelectionResult``
  objects the run holds (so bytes are read off live objects) and time
  both phases. They cost two clock reads per phase and stay on in the
  untraced run.
- ``layer`` probes (traced run only) wrap ``LocalEvaluator.evaluate``,
  ``SparkEvaluator.evaluate`` and ``LocalEvaluator.mark_seed`` at class
  level, and optionally ``repro.core.evaluate.get_center`` and
  ``repro.core.evaluate.u01`` as module globals, which ``_eval_pairs``
  and ``mark_seed`` resolve at call time. The kernel probes stay off
  with the Spark backend: the in-task kernel runs in worker processes,
  which never see a probe installed in this process.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.core.evaluate as evaluate_mod
import repro.core.pacim as pacim_mod
from repro.core.evaluate import LocalEvaluator, SparkEvaluator


@dataclass
class Span:
    """Calls, busy seconds and work counters of one layer."""

    calls: int = 0
    s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, dt: float, keep: bool = False) -> None:
        self.calls += 1
        self.s += dt
        if keep:
            self.durations.append(dt)


@dataclass
class Phase:
    """One ``run_pacim`` phase call captured at the boundary."""

    selector: str
    s: float
    result: object  # Sketches or SelectionResult
    inner_s: float = 0.0  # evaluate + mark_seed time inside a select call


class Probes:
    """Collects spans and captured objects for one ``with probes.on():``."""

    def __init__(self, *, layers: bool = False, kernel: bool = False):
        self.layers = layers
        self.kernel = kernel and layers
        self.spans: dict[str, Span] = defaultdict(Span)
        self.sketch_calls: list[Phase] = []
        self.select_calls: list[Phase] = []

    # -- wrappers ---------------------------------------------------------
    def _sketch(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.sketch_calls.append(Phase("", time.perf_counter() - t0, out))
            return out

        return wrapper

    def _select(self, name, fn):
        def wrapper(*args, **kwargs):
            inner0 = self._inner_s()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.select_calls.append(
                Phase(name, dt, out, inner_s=self._inner_s() - inner0)
            )
            return out

        return wrapper

    def _inner_s(self) -> float:
        return self.spans["evaluate"].s + self.spans["mark_seed"].s

    def _evaluate(self, fn):
        span = self.spans["evaluate"]

        def wrapper(ev, vs):
            v0 = ev.n_visits
            t0 = time.perf_counter()
            out = fn(ev, vs)
            span.add(time.perf_counter() - t0, keep=True)
            span.counts["pairs"] += len(vs) * ev.sk.R
            span.counts["visits"] += ev.n_visits - v0
            return out

        return wrapper

    def _mark_seed(self, fn):
        span = self.spans["mark_seed"]

        def wrapper(ev, v):
            v0 = ev.n_visits
            t0 = time.perf_counter()
            fn(ev, v)
            span.add(time.perf_counter() - t0)
            span.counts["visits"] += ev.n_visits - v0

        return wrapper

    def _plain(self, name, fn, counter=None):
        span = self.spans[name]

        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            span.add(time.perf_counter() - t0)
            if counter:
                span.counts[counter] += np.size(args[0])
            return out

        return wrapper

    # -- installation -----------------------------------------------------
    def _patches(self) -> list[tuple[object, str, object]]:
        selectors = {n: self._select(n, f) for n, f in pacim_mod._SELECTORS.items()}
        out = [
            (pacim_mod, "build_sketches", self._sketch(pacim_mod.build_sketches)),
            (pacim_mod, "build_sketches_local",
             self._sketch(pacim_mod.build_sketches_local)),
            (pacim_mod, "_SELECTORS", selectors),
        ]
        if self.layers:
            out += [
                (LocalEvaluator, "evaluate",
                 self._evaluate(LocalEvaluator.__dict__["evaluate"])),
                (SparkEvaluator, "evaluate",
                 self._evaluate(SparkEvaluator.__dict__["evaluate"])),
                (LocalEvaluator, "mark_seed",
                 self._mark_seed(LocalEvaluator.__dict__["mark_seed"])),
            ]
        if self.kernel:
            out += [
                (evaluate_mod, "get_center",
                 self._plain("get_center", evaluate_mod.get_center)),
                (evaluate_mod, "u01",
                 self._plain("u01", evaluate_mod.u01, counter="keys")),
            ]
        return out

    @contextmanager
    def on(self):
        """Install every probe; restore the originals on exit."""
        patches = self._patches()
        saved = [(owner, name, _get(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, new in patches:
                setattr(owner, name, new)
            yield self
        finally:
            for owner, name, old in reversed(saved):
                setattr(owner, name, old)


def _get(owner, name):
    """The attribute as stored on ``owner`` itself (not inherited)."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def nbytes(obj) -> int:
    """Sum of ``nbytes`` over the numpy arrays held by a dataclass."""
    return sum(
        v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)
    )
