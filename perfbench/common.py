"""Pieces shared by the workloads: the pass record, output checks, and the
instruments that time the core and kernel layers from outside.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.core.bnloc as bnloc
from repro.core.potentials import shared_registry
from repro.kernels import get_backend
from repro.obs import Tracer

__all__ = [
    "PassResult",
    "bad_estimates",
    "CacheDelta",
    "BackendTimer",
    "LiveLayers",
    "timer_leaves",
    "Sections",
]


@dataclass
class PassResult:
    """What one measured pass over the workload's fixed op list produced.

    ``spans`` are the (start, end) of every answered op's latency and
    ``windows`` the pieces of the measured window, both on the
    probe-excluding clock.  ``probe_ms`` is the mean time of the probes
    run during the pass, ``probe_median_ms`` their median.
    ``layers`` is filled only by a traced pass: ``metrics`` holds per-layer
    values by metric name (times raw, in ms), ``breakdown_s`` the layer
    totals that should add up to ``window_s``, ``bases`` the counts behind
    each ratio.
    """

    ops: int
    spans: list[tuple[float, float]]
    windows: list[tuple[float, float]]
    failed: int
    lost: int
    errors_r: list[float]
    bad_estimates: int
    probe_ms: float
    probe_median_ms: float
    n_probes: int
    layers: dict | None = None
    notes: dict = field(default_factory=dict)

    @property
    def latencies_s(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def window_s(self) -> float:
        return sum(end - start for start, end in self.windows)


def bad_estimates(estimates, width: float = 1.0, height: float = 1.0) -> int:
    """Nodes whose estimate is not finite or lies outside the field."""
    est = np.asarray(estimates, dtype=float).reshape(-1, 2)
    tol = 1e-9
    ok = (
        np.isfinite(est).all(axis=1)
        & (est[:, 0] >= -tol) & (est[:, 0] <= width + tol)
        & (est[:, 1] >= -tol) & (est[:, 1] <= height + tol)
    )
    return int((~ok).sum())


class CacheDelta:
    """Shared potential-cache lookups (``shared_registry().stats()``) made
    between construction and :meth:`result`."""

    def __init__(self) -> None:
        s = shared_registry().stats()
        self._hits, self._misses = s["hits"], s["misses"]

    def result(self) -> tuple[int, int]:
        s = shared_registry().stats()
        return s["hits"] - self._hits, s["misses"] - self._misses


class BackendTimer:
    """Times every call into the two built-in kernel backends.

    Wraps ``run`` and ``run_batch`` of the registered ``reference`` and
    ``batched`` backend instances for the duration of a ``with`` block;
    nested calls (``run_batch`` looping over ``run``) count once.
    """

    _METHODS = ("run", "run_batch")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0
        self._backends = [get_backend("reference"), get_backend("batched")]

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1
                self._depth -= 1

        return timed

    def __enter__(self) -> "BackendTimer":
        for backend in self._backends:
            for name in self._METHODS:
                setattr(backend, name, self._wrap(getattr(backend, name)))
        return self

    def __exit__(self, *exc) -> bool:
        for backend in self._backends:
            for name in self._METHODS:
                vars(backend).pop(name, None)
        return False


def timer_leaves(tracers) -> dict[str, float]:
    """Tracer timer seconds summed by leaf phase name over *tracers*."""
    out: dict[str, float] = {}
    for tracer in tracers:
        for path, entry in tracer.timers.items():
            leaf = path.rsplit("/", 1)[-1]
            out[leaf] = out.get(leaf, 0.0) + entry["seconds"]
    return out


class LiveLayers:
    """Times the solver layers of every solve made inside a ``with`` block.

    For the duration of the block every ``GridBPLocalizer`` built through
    ``repro.core.bnloc`` without a tracer gets its own :class:`Tracer`
    (the ``node_potentials`` / ``edge_potentials`` / ``estimate`` timers
    and the ``bp_iterations`` counter), and the kernel backends are timed
    by :class:`BackendTimer`.  Code that looks the class up at call time,
    as ``execute_batch`` does, is measured without being changed.
    """

    def __init__(self) -> None:
        self.tracers: list[Tracer] = []
        self._kernel = BackendTimer()

    def __enter__(self) -> "LiveLayers":
        base = self._saved = bnloc.GridBPLocalizer
        tracers = self.tracers

        class TracedLocalizer(base):
            def __init__(self, *args, tracer=None, **kwargs):
                if tracer is None:
                    tracer = Tracer()
                    tracers.append(tracer)
                super().__init__(*args, tracer=tracer, **kwargs)

        bnloc.GridBPLocalizer = TracedLocalizer
        self._kernel.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self._kernel.__exit__(*exc)
        bnloc.GridBPLocalizer = self._saved
        return False

    def totals(self) -> dict:
        """Layer seconds, BP rounds summed over problems, and problems."""
        leaves = timer_leaves(self.tracers)
        return {
            "bp_s": self._kernel.seconds,
            "node_s": leaves.get("node_potentials", 0.0),
            "edge_s": leaves.get("edge_potentials", 0.0),
            "estimate_s": leaves.get("estimate", 0.0),
            "iterations": int(
                sum(t.counters.get("bp_iterations", 0) for t in self.tracers)
            ),
            "problems": len(self.tracers),
        }


class Sections:
    """Exclusive wall time of nested, named code sections.

    ``with sections("name"):`` adds the block's time to ``name`` minus the
    time of the sections nested inside it, so the totals of all names
    never count a second twice and can be summed against a wall clock.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._nested: list[float] = []

    @contextmanager
    def __call__(self, name: str):
        self._nested.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.seconds[name] += elapsed - self._nested.pop()
            self.calls[name] += 1
            if self._nested:
                self._nested[-1] += elapsed
