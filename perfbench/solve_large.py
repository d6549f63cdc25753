"""solve-large: one caller, sequential ``GridBPLocalizer.localize`` calls.

The per-call path of a research sweep.  Inputs follow the E12
scalability protocol at n = 100 (10% anchors, radio 0.2*sqrt(100/n),
connectivity not required); each solve runs the default kernel backend
with ``GridBPConfig(grid_size=24, max_iterations=8)``.  No batching, no
IPC and neither runtime is involved.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import GridBPConfig, GridBPLocalizer
from repro.experiments import ScenarioConfig, build_scenario
from repro.obs import Tracer
from repro.utils.rng import spawn_seeds

from common import CacheDelta, PassResult, bad_estimates, timer_leaves

N_NODES = 100
SCENARIO = ScenarioConfig(
    n_nodes=N_NODES,
    anchor_ratio=0.1,
    radio_range=0.2 * math.sqrt(100.0 / N_NODES),
    require_connected=False,
)
BP = GridBPConfig(grid_size=24, max_iterations=8)
#: solves per second of --seconds (frozen: sets the op count of a run)
OPS_PER_SECOND = 3.0
#: probe calls after every solve
PROBES_PER_OP = 2


class Workload:
    name = "solve-large"

    def __init__(self, seed: int, seconds: int, warmup_only: bool = False) -> None:
        n_ops = max(2, round(seconds * OPS_PER_SECOND))
        seeds = spawn_seeds(seed, n_ops + 1)
        self.warmup = build_scenario(SCENARIO, seeds[0])
        self.scenarios = (
            [] if warmup_only else [build_scenario(SCENARIO, s) for s in seeds[1:]]
        )

    def run(self, probe, trace: bool, setup_only: bool) -> dict:
        t0 = time.perf_counter()
        _net, ms, prior = self.warmup
        GridBPLocalizer(prior=prior, config=BP).localize(ms)  # fills the caches
        out: dict = {"ready_s": time.perf_counter() - t0}
        if setup_only:
            return out
        out["passes"] = {"untraced": self._pass(probe, traced=False)}
        if trace:
            out["passes"]["traced"] = self._pass(probe, traced=True)
        return out

    def _pass(self, probe, traced: bool) -> PassResult:
        mark = probe.mark()
        cache = CacheDelta()
        spans, errors, tracers = [], [], []
        failed = bad = 0
        probe.run(PROBES_PER_OP)
        for net, ms, prior in self.scenarios:
            tracer = Tracer() if traced else None
            t0 = probe.now()
            res = GridBPLocalizer(prior=prior, config=BP, tracer=tracer).localize(ms)
            spans.append((t0, probe.now()))
            probe.run(PROBES_PER_OP)
            if tracer is not None:
                tracers.append(tracer)
            n_bad = bad_estimates(res.estimates, ms.width, ms.height)
            bad += n_bad
            fallback = res.fallback_mask is not None and bool(res.fallback_mask.any())
            failed += int(n_bad > 0 or fallback)
            unknown = ~net.anchor_mask
            err = np.linalg.norm(res.estimates - net.positions, axis=1)[unknown]
            errors.extend((err / ms.radio_range).tolist())
        result = PassResult(
            ops=len(self.scenarios),
            spans=spans,
            windows=spans,
            failed=failed,
            lost=0,
            errors_r=errors,
            bad_estimates=bad,
            probe_ms=probe.mean_ms(mark),
            probe_median_ms=probe.median_ms(mark),
            n_probes=probe.mark() - mark,
        )
        if traced:
            result.layers = self._layers(result, tracers, cache.result())
        return result

    @staticmethod
    def _layers(result: PassResult, tracers, cache) -> dict:
        leaves = timer_leaves(tracers)
        bp_s = leaves.get("bp", 0.0) + leaves.get("damped_restart", 0.0)
        iters = int(sum(t.counters.get("bp_iterations", 0) for t in tracers))
        hits, misses = cache
        ops = result.ops
        breakdown = {
            "kernels.bp": bp_s,
            "core.node_potentials": leaves.get("node_potentials", 0.0),
            "core.edge_potentials": leaves.get("edge_potentials", 0.0),
            "core.estimate": leaves.get("estimate", 0.0),
        }
        return {
            "metrics": {
                "kernels.bp_ms": bp_s / ops * 1e3,
                "kernels.bp_round_ms": bp_s / max(iters, 1) * 1e3,
                "kernels.bp_iterations": iters,
                "core.node_potentials_ms": breakdown["core.node_potentials"] / ops * 1e3,
                "core.edge_potentials_ms": breakdown["core.edge_potentials"] / ops * 1e3,
                "core.estimate_ms": breakdown["core.estimate"] / ops * 1e3,
                "core.cache_hit_ratio": hits / max(hits + misses, 1),
            },
            "breakdown_s": breakdown,
            "bases": {
                "per op": f"{ops} solves",
                "kernels.bp_round_ms": f"{iters} BP rounds",
                "core.cache_hit_ratio": f"{hits} hits / {hits + misses} lookups",
            },
            "sum_check": True,
        }
