"""Golden-trace regression tests.

A small fixed-seed network is localized with GridBP and NBP; the solvers'
deterministic trace exports (per-iteration residuals, message counts,
counters) and final estimates are snapshotted under ``tests/data/``.  Any
refactor that silently changes inference behavior — message math, trace
semantics, or RNG consumption order — fails these tests loudly.

Grid BP consumes no randomness, so its trace and estimates must match the
golden file **exactly**; NBP is particle-based, so its residuals and
estimates are compared under a tight tolerance while its integer message
counts stay exact.

Regenerate the golden files (after an *intentional* behavior change) with::

    PYTHONPATH=src:tests python -m test_obs_golden_trace
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CooperativeLocalizer,
    GridBPConfig,
    GridBPLocalizer,
    NBPConfig,
    NBPLocalizer,
)
from repro.measurement import GaussianRanging, observe
from repro.network import NetworkConfig, UnitDiskRadio, generate_network
from repro.obs import Tracer

DATA_DIR = Path(__file__).parent / "data"
GRID_GOLDEN = DATA_DIR / "golden_grid_trace.json"
NBP_GOLDEN = DATA_DIR / "golden_nbp_trace.json"

GRID_CFG = GridBPConfig(grid_size=10, max_iterations=8, tol=1e-6)
NBP_CFG = NBPConfig(n_particles=60, n_iterations=4)
NBP_RUN_SEED = 13


def _scenario():
    net = generate_network(
        NetworkConfig(
            n_nodes=25,
            anchor_ratio=0.2,
            radio=UnitDiskRadio(0.35),
            require_connected=True,
        ),
        rng=11,
    )
    ms = observe(net, GaussianRanging(0.02), rng=12)
    return net, ms


def _grid_run(tracer=None):
    _, ms = _scenario()
    loc = GridBPLocalizer(config=GRID_CFG, tracer=tracer)
    return loc.localize(ms)


def _nbp_run(tracer=None):
    _, ms = _scenario()
    loc = NBPLocalizer(config=NBP_CFG, tracer=tracer)
    return loc.localize(ms, rng=NBP_RUN_SEED)


def _export(result) -> dict:
    """Golden payload: the deterministic trace section + final estimates."""
    return {
        "trace": {
            k: v
            for k, v in result.telemetry.items()
            if k != "timers"  # wall clock — the only non-deterministic part
        },
        "estimates": result.estimates.tolist(),
    }


def regenerate() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    runs = (
        (GRID_GOLDEN, _grid_run),
        (NBP_GOLDEN, _nbp_run),
    )
    for path, run in runs:
        payload = _export(run(tracer=Tracer()))
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")


class TestGridGolden:
    @pytest.fixture(scope="class")
    def run(self):
        return _grid_run(tracer=Tracer())

    def test_trace_matches_golden_exactly(self, run):
        golden = json.loads(GRID_GOLDEN.read_text())
        # JSON floats round-trip exactly, so == is bitwise on every
        # residual; grid BP consumes no randomness and must not drift.
        assert _export(run)["trace"] == golden["trace"]

    def test_estimates_match_golden_exactly(self, run):
        golden = json.loads(GRID_GOLDEN.read_text())
        assert run.estimates.tolist() == golden["estimates"]

    def test_trace_is_json_serializable(self, run):
        assert json.loads(json.dumps(run.telemetry)) == run.telemetry


class TestNBPGolden:
    @pytest.fixture(scope="class")
    def run(self):
        return _nbp_run(tracer=Tracer())

    def test_trace_matches_golden_within_tolerance(self, run):
        golden = json.loads(NBP_GOLDEN.read_text())["trace"]
        trace = _export(run)["trace"]
        assert trace["counters"]["messages"] == golden["counters"]["messages"]
        got = [r["residual"] for r in trace["iterations"]]
        want = [r["residual"] for r in golden["iterations"]]
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-12)
        for got_rec, want_rec in zip(trace["iterations"], golden["iterations"]):
            assert got_rec["messages"] == want_rec["messages"]
            assert got_rec["messages_cum"] == want_rec["messages_cum"]

    def test_estimates_match_golden_within_tolerance(self, run):
        golden = json.loads(NBP_GOLDEN.read_text())
        np.testing.assert_allclose(
            run.estimates, np.asarray(golden["estimates"]), rtol=1e-7, atol=1e-12
        )


class TestSeedStability:
    def test_grid_trace_reproduced_exactly_across_runs(self):
        a = _grid_run(tracer=Tracer())
        b = _grid_run(tracer=Tracer())
        assert _export(a) == _export(b)

    def test_nbp_trace_reproduced_exactly_across_runs(self):
        # Same process, same seed: the particle path is identical, so even
        # the nominally tolerance-compared NBP trace reproduces exactly.
        a = _nbp_run(tracer=Tracer())
        b = _nbp_run(tracer=Tracer())
        assert _export(a) == _export(b)

    def test_cooperative_localizer_run_trace_reproducible(self):
        # The acceptance-criterion path: facade + Tracer + one seed.
        net, _ = _scenario()
        ranging = GaussianRanging(0.02)

        def traced_run():
            loc = CooperativeLocalizer(
                "grid-bp", grid_config=GRID_CFG, tracer=Tracer()
            )
            return loc.run(net, ranging, rng=5)

        a, b = traced_run(), traced_run()
        assert a.telemetry is not None
        assert json.loads(json.dumps(a.telemetry)) == a.telemetry
        res_a = [r["residual"] for r in a.telemetry["iterations"]]
        res_b = [r["residual"] for r in b.telemetry["iterations"]]
        assert res_a == res_b


class TestNullTracerBitIdentical:
    def test_grid_beliefs_identical_with_and_without_tracer(self):
        untraced = _grid_run()
        traced = _grid_run(tracer=Tracer())
        assert untraced.telemetry is None
        for u, belief in untraced.extras["beliefs"].items():
            assert np.array_equal(belief, traced.extras["beliefs"][u])
        assert np.array_equal(untraced.estimates, traced.estimates)
        assert untraced.n_iterations == traced.n_iterations
        assert untraced.messages_sent == traced.messages_sent

    def test_nbp_results_identical_with_and_without_tracer(self):
        untraced = _nbp_run()
        traced = _nbp_run(tracer=Tracer())
        assert untraced.telemetry is None
        assert np.array_equal(untraced.estimates, traced.estimates)
        for u, cloud in untraced.extras["particles"].items():
            assert np.array_equal(cloud, traced.extras["particles"][u])


if __name__ == "__main__":
    regenerate()
