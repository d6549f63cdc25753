"""E20 — joint channel/position inference vs fixed-exponent miscalibration.

The deployment's true path-loss exponent η sweeps across [2, 4] while the
radio's compiled-in inversion exponent stays at η̂₀ = 3.  Reconstructed
claim: a fixed-η likelihood is only as good as its calibration — at the
sweep's ends the ±1 exponent error turns RSSI ranging into a power-law
distortion and the fixed arm degrades ≥2× against the matched oracle —
while joint inference (``bn-pk-joint``: discrete-η EM around batched
grid-BP, NLOS indicators marginalized) tracks the oracle across the whole
axis without being told η.

Also writes the machine-readable per-arm curves to ``BENCH_e20.json`` at
the repo root so the RMSE-ratio acceptance gates are inspectable.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
from conftest import report

from repro.baselines import MLELocalizer
from repro.core import (
    GridBPConfig,
    GridBPLocalizer,
    JointChannelConfig,
    JointChannelLocalizer,
)
from repro.experiments import ChannelConfig, ScenarioConfig, build_scenario
from repro.utils.rng import spawn_seeds
from repro.utils.tables import format_series

TRUE_ETAS = [2.0, 3.0, 4.0]
ASSUMED = 3.0
BASE = ScenarioConfig(
    n_nodes=60,
    anchor_ratio=0.12,
    radio_range=0.25,
    ranging="rssi",
    pk_error=None,
)
BP_CFG = GridBPConfig(grid_size=14, max_iterations=10)
JOINT_CFG = JointChannelConfig(grid=BP_CFG, em_iterations=2)
N_TRIALS = 2


def run_experiment():
    curves = {m: [] for m in ("bn-pk-joint", "bn-oracle", "bn-miscal", "mle")}
    for eta in TRUE_ETAS:
        cfg = BASE.replace(
            channel=ChannelConfig(
                path_loss_exponent=eta,
                assumed_exponent=ASSUMED,
                shadowing_db=2.0,
            )
        )
        errs = {m: [] for m in curves}
        for seed in spawn_seeds(200, N_TRIALS):
            net, ms, prior = build_scenario(cfg, seed)
            unknown = ~net.anchor_mask

            def err_of(result):
                e = result.errors(net.positions)[unknown] / net.radio_range
                return float(np.nanmean(e))

            # the scenario's own ranging IS the matched fixed-η likelihood
            errs["bn-oracle"].append(
                err_of(GridBPLocalizer(prior=prior, config=BP_CFG).localize(ms))
            )
            # a receiver that trusts its compiled-in η̂₀ as the channel η
            ms_mis = dataclasses.replace(
                ms, ranging=ms.ranging.with_exponent(ASSUMED)
            )
            errs["bn-miscal"].append(
                err_of(
                    GridBPLocalizer(prior=prior, config=BP_CFG).localize(ms_mis)
                )
            )
            errs["bn-pk-joint"].append(
                err_of(
                    JointChannelLocalizer(
                        prior=prior, config=JOINT_CFG
                    ).localize(ms_mis)
                )
            )
            errs["mle"].append(err_of(MLELocalizer().localize(ms_mis, rng=0)))
        for m in curves:
            curves[m].append(float(np.mean(errs[m])))
    return curves


def test_e20_joint_channel(benchmark):
    curves = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(
        "e20_joint_channel",
        format_series(
            "true_eta",
            TRUE_ETAS,
            curves,
            title="E20: mean error / r vs true path-loss exponent "
            f"(inversion eta0 = {ASSUMED}, {N_TRIALS} trials)",
        ),
    )
    bench = {
        "true_etas": TRUE_ETAS,
        "assumed_exponent": ASSUMED,
        "n_trials": N_TRIALS,
        "curves": curves,
        "joint_vs_oracle_ratio": [
            j / o for j, o in zip(curves["bn-pk-joint"], curves["bn-oracle"])
        ],
        "miscal_vs_oracle_ratio": [
            m / o for m, o in zip(curves["bn-miscal"], curves["bn-oracle"])
        ],
    }
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_e20.json"
    bench_path.write_text(json.dumps(bench, indent=2) + "\n")

    # joint inference stays within 15% of the matched oracle everywhere,
    # despite starting from the miscalibrated receiver's observations
    for ratio in bench["joint_vs_oracle_ratio"]:
        assert ratio <= 1.15
    # the fixed miscalibrated likelihood pays for its wrong exponent:
    # at least one end of the sweep degrades >= 2x against the oracle
    assert max(bench["miscal_vs_oracle_ratio"]) >= 2.0
    # at the matched point (true eta == eta0) miscal IS the oracle
    i = TRUE_ETAS.index(ASSUMED)
    assert bench["miscal_vs_oracle_ratio"][i] < 1.1
    # joint beats the miscalibrated fixed arm where it matters most
    worst = int(np.argmax(bench["miscal_vs_oracle_ratio"]))
    assert curves["bn-pk-joint"][worst] < curves["bn-miscal"][worst]
