"""Monte-Carlo evaluation of localization methods over scenarios.

The runner is deliberately simple and deterministic: one master seed per
sweep, child seeds per (parameter, trial) cell via ``SeedSequence.spawn``,
every method sees the *same* network and measurements within a trial.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ckpt import (
    decode_value,
    encode_value,
    resolve_checkpoint,
    seed_fingerprint,
    trap_signals,
)

from repro.baselines import (
    CentroidLocalizer,
    DVHopLocalizer,
    MDSMAPLocalizer,
    MLELocalizer,
    MultilaterationLocalizer,
    WeightedCentroidLocalizer,
)
from repro.core.bnloc import GridBPConfig, GridBPLocalizer
from repro.core.nbp import NBPConfig, NBPLocalizer
from repro.core.result import Localizer
from repro.experiments.config import ScenarioConfig, build_scenario
from repro.metrics.error import ErrorSummary, summarize_errors
from repro.obs import NULL_TRACER, NullTracer
from repro.priors.base import PositionPrior
from repro.utils.rng import RNGLike, spawn_seeds

__all__ = [
    "MethodResult",
    "SweepResult",
    "standard_methods",
    "evaluate_methods",
    "run_sweep",
]

#: a factory receives the trial's pre-knowledge prior (or None) and builds
#: a ready-to-run Localizer.
MethodFactory = Callable[[PositionPrior | None], Localizer]


def standard_methods(
    grid_size: int = 20,
    max_iterations: int = 15,
    nbp_particles: int = 150,
    include: Sequence[str] | None = None,
    mcmc_samples: int = 150,
    joint_channel=None,
) -> dict[str, MethodFactory]:
    """The default method lineup used by the benchmarks.

    ``bn-pk`` is the paper's method (grid Bayesian network *with* the
    pre-knowledge prior); ``bn`` is the identical inference without it —
    the ablation that isolates the contribution of pre-knowledge.
    ``mcmc-pk``/``mcmc`` are the continuous-posterior sampler
    (:class:`~repro.core.mcmc.MCMCLocalizer`) with and without the prior.
    ``bn-pk-joint`` is grid BP with latent channel parameters
    (:class:`~repro.core.jointchannel.JointChannelLocalizer`): path-loss
    exponent and per-link LOS/NLOS indicators estimated jointly with the
    positions — applicable to RSSI-ranged scenarios only (elsewhere it
    raises, which the runner records as coverage 0).  *joint_channel*
    overrides its :class:`~repro.core.jointchannel.JointChannelConfig`
    (default: the standard η support on this grid size).
    """
    from repro.core.jointchannel import JointChannelConfig, JointChannelLocalizer
    from repro.core.mcmc import MCMCConfig, MCMCLocalizer

    grid_cfg = GridBPConfig(grid_size=grid_size, max_iterations=max_iterations)
    nbp_cfg = NBPConfig(n_particles=nbp_particles, n_iterations=5)
    mcmc_cfg = MCMCConfig(
        n_samples=mcmc_samples,
        burn_in=max(mcmc_samples // 2, 10),
        step_scale=0.25,
    )
    joint_cfg = (
        joint_channel
        if joint_channel is not None
        else JointChannelConfig(
            grid=GridBPConfig(grid_size=grid_size, max_iterations=max_iterations)
        )
    )
    all_methods: dict[str, MethodFactory] = {
        "bn-pk": lambda prior: GridBPLocalizer(prior=prior, config=grid_cfg),
        "bn": lambda prior: GridBPLocalizer(prior=None, config=grid_cfg),
        "bn-pk-joint": lambda prior: JointChannelLocalizer(
            prior=prior, config=joint_cfg
        ),
        "nbp-pk": lambda prior: NBPLocalizer(prior=prior, config=nbp_cfg),
        "nbp": lambda prior: NBPLocalizer(prior=None, config=nbp_cfg),
        "mcmc-pk": lambda prior: MCMCLocalizer(prior=prior, config=mcmc_cfg),
        "mcmc": lambda prior: MCMCLocalizer(prior=None, config=mcmc_cfg),
        "centroid": lambda prior: CentroidLocalizer(),
        "w-centroid": lambda prior: WeightedCentroidLocalizer(),
        "dv-hop": lambda prior: DVHopLocalizer(),
        "mds-map": lambda prior: MDSMAPLocalizer(),
        "multilat": lambda prior: MultilaterationLocalizer(),
        "mle": lambda prior: MLELocalizer(),
    }
    if include is None:
        return all_methods
    unknown = set(include) - set(all_methods)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}")
    return {k: all_methods[k] for k in include}


@dataclass
class MethodResult:
    """Aggregate of one method over the trials of one scenario point."""

    method: str
    summaries: list[ErrorSummary] = field(default_factory=list)
    messages: list[int] = field(default_factory=list)
    runtimes: list[float] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        return float(np.nanmean([s.mean for s in self.summaries]))

    @property
    def mean_error_norm(self) -> float:
        return float(np.nanmean([s.mean_norm for s in self.summaries]))

    @property
    def rmse_norm(self) -> float:
        return float(np.nanmean([s.rmse_norm for s in self.summaries]))

    @property
    def coverage(self) -> float:
        return float(np.nanmean([s.coverage for s in self.summaries]))

    @property
    def mean_messages(self) -> float:
        return float(np.mean(self.messages)) if self.messages else 0.0

    @property
    def mean_runtime(self) -> float:
        return float(np.mean(self.runtimes)) if self.runtimes else 0.0


def _run_one_trial(
    config: ScenarioConfig,
    methods: Mapping[str, MethodFactory],
    trial_seed,
    tracer: NullTracer = NULL_TRACER,
) -> dict[str, tuple[ErrorSummary, int, float]]:
    """Evaluate every method on one scenario draw (shared by the serial
    and multiprocess paths)."""
    s_build, s_run = trial_seed.spawn(2)
    with tracer.timer("build_scenario"):
        network, measurements, prior = build_scenario(config, s_build)
    unknown = ~network.anchor_mask
    out: dict[str, tuple[ErrorSummary, int, float]] = {}
    for name, factory in methods.items():
        loc = factory(prior)
        t0 = time.perf_counter()
        try:
            with tracer.timer(name):
                result = loc.localize(measurements, np.random.default_rng(s_run))
        except ValueError:
            # Method inapplicable to this observation type (e.g. MLE on
            # range-free data): record nothing, visible as coverage 0.
            out[name] = (
                summarize_errors(
                    np.full(network.n_nodes, np.nan),
                    network.radio_range,
                    unknown,
                ),
                0,
                0.0,
            )
            continue
        elapsed = time.perf_counter() - t0
        errors = result.errors(network.positions)
        if tracer.enabled:
            tracer.count(f"trials[{name}]")
            tracer.count(f"messages[{name}]", result.messages_sent)
        out[name] = (
            summarize_errors(errors, network.radio_range, unknown),
            result.messages_sent,
            elapsed,
        )
    return out


def _run_trial_block(
    config: ScenarioConfig,
    methods: Mapping[str, MethodFactory],
    trial_seeds,
    tracer: NullTracer = NULL_TRACER,
) -> list[dict[str, tuple[ErrorSummary, int, float]]]:
    """Evaluate every method on a block of scenario draws, batching the
    grid-BP methods across the block.

    Seed discipline is exactly :func:`_run_one_trial`'s (one ``spawn(2)``
    per trial), so results are bit-identical to running the trials one by
    one — the batch only changes the execution strategy: compatible
    grid-BP trials run as stacked kernel passes via
    :func:`repro.core.bnloc.localize_batch`; other methods (and any trial
    a batch cannot serve) run per-trial.  Per-trial ``runtimes`` of a
    batched method are the block wall-clock divided evenly across its
    trials (total time stays meaningful, per-trial spread does not
    survive batching).
    """
    from repro.core.bnloc import localize_batch

    scenarios = []
    for ts in trial_seeds:
        s_build, s_run = ts.spawn(2)
        with tracer.timer("build_scenario"):
            network, measurements, prior = build_scenario(config, s_build)
        scenarios.append((network, measurements, prior, s_run))
    out: list[dict[str, tuple[ErrorSummary, int, float]]] = [
        {} for _ in scenarios
    ]
    for name, factory in methods.items():
        locs = [factory(prior) for (_n, _m, prior, _s) in scenarios]
        results = None
        elapsed = 0.0
        if len(locs) > 1 and all(isinstance(l, GridBPLocalizer) for l in locs):
            t0 = time.perf_counter()
            try:
                with tracer.timer(name):
                    results = localize_batch(
                        [
                            (loc, ms)
                            for loc, (_n, ms, _p, _s) in zip(locs, scenarios)
                        ]
                    )
            except ValueError:
                # Method inapplicable to (at least) one trial's observation
                # type: drop to the per-trial path below, which records the
                # NaN summary for exactly the failing trials.
                results = None
            else:
                elapsed = (time.perf_counter() - t0) / len(locs)
        if results is not None:
            for k, (result, (network, _m, _p, _s)) in enumerate(
                zip(results, scenarios)
            ):
                unknown = ~network.anchor_mask
                errors = result.errors(network.positions)
                if tracer.enabled:
                    tracer.count(f"trials[{name}]")
                    tracer.count(f"messages[{name}]", result.messages_sent)
                out[k][name] = (
                    summarize_errors(errors, network.radio_range, unknown),
                    result.messages_sent,
                    elapsed,
                )
            continue
        for k, (network, measurements, prior, s_run) in enumerate(scenarios):
            unknown = ~network.anchor_mask
            t0 = time.perf_counter()
            try:
                with tracer.timer(name):
                    result = locs[k].localize(
                        measurements, np.random.default_rng(s_run)
                    )
            except ValueError:
                out[k][name] = (
                    summarize_errors(
                        np.full(network.n_nodes, np.nan),
                        network.radio_range,
                        unknown,
                    ),
                    0,
                    0.0,
                )
                continue
            trial_elapsed = time.perf_counter() - t0
            errors = result.errors(network.positions)
            if tracer.enabled:
                tracer.count(f"trials[{name}]")
                tracer.count(f"messages[{name}]", result.messages_sent)
            out[k][name] = (
                summarize_errors(errors, network.radio_range, unknown),
                result.messages_sent,
                trial_elapsed,
            )
    return out


def _collect(
    per_trial: list[dict[str, tuple[ErrorSummary, int, float]]],
    names,
) -> dict[str, MethodResult]:
    out = {name: MethodResult(name) for name in names}
    for trial in per_trial:
        for name, (summary, messages, runtime) in trial.items():
            out[name].summaries.append(summary)
            out[name].messages.append(messages)
            out[name].runtimes.append(runtime)
    return out


def _json_safe(value):
    """Plain-Python view of sweep values / kwargs for ledger headers."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _evaluate_meta(config, names, n_trials, seed, extra) -> dict:
    meta = {
        "kind": "evaluate",
        "config": config.to_dict(),
        "methods": list(names),
        "n_trials": int(n_trials),
        "seed": seed_fingerprint(seed),
        "total_cells": int(n_trials),
    }
    if extra:
        meta.update(extra)
    return meta


def _replay_trial(ck, i: int, names) -> dict | None:
    """Decode trial *i* from the ledger, or ``None`` if it must run.

    A replayed record missing a requested method reruns the whole trial:
    every method draws from a fresh ``default_rng(s_run)``, so the rerun
    is still bit-identical for the methods that were present.
    """
    if ck is None:
        return None
    payload = ck.get(f"trial:{i}")
    if payload is None:
        return None
    trial = decode_value(payload["result"])
    if not set(names) <= set(trial):
        return None
    return {name: trial[name] for name in names}


def evaluate_methods(
    config: ScenarioConfig,
    methods: Mapping[str, MethodFactory],
    n_trials: int,
    seed: RNGLike = 0,
    tracer: NullTracer | None = None,
    checkpoint=None,
    checkpoint_meta: dict | None = None,
    batch_trials: int | None = None,
) -> dict[str, MethodResult]:
    """Run every method on *n_trials* independent scenario draws.

    An attached :class:`~repro.obs.Tracer` times the whole evaluation
    (``"evaluate"``) with per-method child timers, and counts trials and
    messages per method.

    ``batch_trials=<block size>`` runs trials in blocks, stacking the
    grid-BP methods across each block (:func:`_run_trial_block`) — same
    per-trial seed streams, bit-identical summaries and message counts,
    per-trial ``runtimes`` amortized over the block.  Checkpoint ledgers
    record per trial either way, so batched and unbatched runs resume
    each other bit-identically.

    With ``checkpoint=<ledger path>`` (or a :class:`~repro.ckpt.Checkpoint`
    / :class:`~repro.ckpt.CheckpointScope`), each finished trial is durably
    appended to a write-ahead ledger; restarting the identical call skips
    the recorded trials and produces bit-identical ``MethodResult``
    summaries and message counts (``runtimes`` are wall-clock and reflect
    the original runs).  The master seed must be reproducible (int or
    ``SeedSequence``).  *checkpoint_meta* adds extra keys to a fresh
    ledger header (e.g. method kwargs for ``repro resume``).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if batch_trials is not None and batch_trials < 1:
        raise ValueError(f"batch_trials must be >= 1, got {batch_trials}")
    tracer = tracer if tracer is not None else NULL_TRACER
    names = list(methods)
    ck = None
    owned = False
    if checkpoint is not None:
        ck, owned = resolve_checkpoint(
            checkpoint,
            lambda: _evaluate_meta(config, names, n_trials, seed, checkpoint_meta),
        )
    trap = trap_signals() if ck is not None else contextlib.nullcontext()
    try:
        with tracer.timer("evaluate"), trap:
            seeds_list = list(spawn_seeds(seed, n_trials))
            per_trial: list = [None] * n_trials
            pending: list[int] = []
            for i in range(n_trials):
                per_trial[i] = _replay_trial(ck, i, names)
                if per_trial[i] is None:
                    pending.append(i)
            if batch_trials is None or batch_trials == 1:
                for i in pending:
                    trial = _run_one_trial(config, methods, seeds_list[i], tracer)
                    if ck is not None:
                        ck.record(f"trial:{i}", {"result": encode_value(trial)})
                    per_trial[i] = trial
            else:
                for b0 in range(0, len(pending), batch_trials):
                    block = pending[b0 : b0 + batch_trials]
                    trials = _run_trial_block(
                        config, methods, [seeds_list[i] for i in block], tracer
                    )
                    for i, trial in zip(block, trials):
                        if ck is not None:
                            ck.record(f"trial:{i}", {"result": encode_value(trial)})
                        per_trial[i] = trial
    finally:
        if ck is not None:
            ck.emit_counters(tracer)
            if owned:
                ck.close()
    return _collect(per_trial, methods)


@dataclass
class SweepResult:
    """A one-dimensional parameter sweep: x values × methods."""

    x_name: str
    x_values: list
    points: list[dict[str, MethodResult]]

    def series(self, stat: str = "mean_error_norm") -> dict[str, list[float]]:
        """Per-method curves of the given :class:`MethodResult` property."""
        methods = list(self.points[0].keys())
        return {
            m: [getattr(pt[m], stat) for pt in self.points] for m in methods
        }

    def best_method_at(self, i: int, stat: str = "mean_error_norm") -> str:
        pt = self.points[i]
        return min(pt, key=lambda m: getattr(pt[m], stat))


def _sweep_meta(base, param, values, names, n_trials, seed, extra) -> dict:
    meta = {
        "kind": "sweep",
        "config": base.to_dict(),
        "param": param,
        "values": _json_safe(list(values)),
        "methods": list(names),
        "n_trials": int(n_trials),
        "seed": seed_fingerprint(seed),
        "total_cells": int(len(values) * n_trials),
    }
    if extra:
        meta.update(extra)
    return meta


def run_sweep(
    base: ScenarioConfig,
    param: str,
    values: Sequence,
    methods: Mapping[str, MethodFactory],
    n_trials: int,
    seed: RNGLike = 0,
    checkpoint=None,
    checkpoint_meta: dict | None = None,
    batch_trials: int | None = None,
) -> SweepResult:
    """Sweep one :class:`ScenarioConfig` field across *values*.

    Each parameter point gets an independent spawned seed block, so the
    curve is stable under adding/removing points.  *batch_trials* is
    forwarded to :func:`evaluate_methods` (trial batching within each
    parameter point; bit-identical, checkpoint-compatible).

    With ``checkpoint=<ledger path>``, the sweep owns one write-ahead
    ledger and hands every parameter point a key-scoped view
    (``pt0:trial:0``, …), so a killed sweep resumes mid-curve: finished
    (point, trial) cells replay from the ledger, the rest run on their
    original spawned seed blocks, and the resulting :class:`SweepResult`
    is bit-identical to an uninterrupted run (wall-clock ``runtimes``
    excepted).  Resuming a finished ledger re-runs nothing.
    """
    names = list(methods)
    ck = None
    owned = False
    if checkpoint is not None:
        ck, owned = resolve_checkpoint(
            checkpoint,
            lambda: _sweep_meta(
                base, param, values, names, n_trials, seed, checkpoint_meta
            ),
        )
    blocks = spawn_seeds(seed, len(values))
    points = []
    trap = trap_signals() if ck is not None else contextlib.nullcontext()
    try:
        with trap:
            for j, (value, block) in enumerate(zip(values, blocks)):
                cfg = base.replace(**{param: value})
                points.append(
                    evaluate_methods(
                        cfg,
                        methods,
                        n_trials,
                        block,
                        checkpoint=None if ck is None else ck.scoped(f"pt{j}"),
                        batch_trials=batch_trials,
                    )
                )
    finally:
        if ck is not None and owned:
            ck.close()
    return SweepResult(param, list(values), points)
