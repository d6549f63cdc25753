"""Command-line interface.

Runs complete localization experiments without writing Python::

    python -m repro info
    python -m repro run   --nodes 100 --anchor-ratio 0.1 --trials 5 \
                          --methods bn-pk,bn,dv-hop
    python -m repro sweep --param anchor_ratio --values 0.05,0.1,0.2 \
                          --methods bn-pk,bn --trials 3
    python -m repro trace --nodes 60 --method grid-bp --seed 0
    python -m repro faults --nodes 60 --loss-rates 0,0.2,0.5
    python -m repro audit --corpus smoke
    python -m repro sweep --param noise_ratio --values 0.05,0.1,0.2 \
                          --methods bn-pk --trials 3 --checkpoint run.jsonl
    python -m repro resume run.jsonl
    python -m repro demo

Output is the same plain-text tables the benchmark suite produces.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments import (
    ScenarioConfig,
    evaluate_methods,
    methods_table,
    run_sweep,
    standard_methods,
    sweep_table,
)

__all__ = ["main", "build_parser"]

_SWEEPABLE = {
    "n_nodes": int,
    "anchor_ratio": float,
    "radio_range": float,
    "noise_ratio": float,
    "nlos_fraction": float,
    "pk_error": float,
}


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=100, help="total node count")
    p.add_argument(
        "--anchor-ratio", type=float, default=0.1, help="fraction of anchors"
    )
    p.add_argument("--radio-range", type=float, default=0.2, help="radio range")
    p.add_argument(
        "--noise", type=float, default=0.1, help="ranging noise as sigma/range"
    )
    p.add_argument(
        "--deployment",
        choices=["uniform", "grid", "cshape", "clusters"],
        default="uniform",
    )
    p.add_argument("--radio", choices=["disk", "qudg", "lognormal"], default="disk")
    p.add_argument(
        "--ranging",
        choices=["gaussian", "proportional", "rssi", "toa", "none"],
        default="gaussian",
    )
    p.add_argument(
        "--pk-error",
        type=float,
        default=0.1,
        help="std of the pre-knowledge deployment record (0 disables)",
    )
    p.add_argument("--nlos-fraction", type=float, default=0.0)
    p.add_argument(
        "--path-loss-exponent",
        type=float,
        default=None,
        metavar="ETA",
        help="true path-loss exponent of the RSSI channel (rssi ranging "
        "only; enables the explicit channel model)",
    )
    p.add_argument(
        "--assumed-exponent",
        type=float,
        default=None,
        metavar="ETA0",
        help="exponent the receiver inverts RSSI with; differing from "
        "--path-loss-exponent models a miscalibrated deployment",
    )
    p.add_argument(
        "--channel-joint",
        action="store_true",
        help="add the bn-pk-joint method (joint position + latent "
        "LOS/NLOS + path-loss-exponent inference) to the lineup",
    )
    p.add_argument(
        "--bearing-sigma",
        type=float,
        default=0.0,
        help="AoA bearing noise in radians (0 disables AoA)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--grid-size", type=int, default=20, help="BN grid resolution")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=5, help="Monte-Carlo trials")
    p.add_argument(
        "--methods",
        default="bn-pk,bn,centroid,dv-hop,mds-map",
        help="comma-separated method names (see `info`)",
    )
    p.add_argument(
        "--batch-trials",
        type=int,
        default=None,
        metavar="N",
        help="trial block size: trials run in blocks of N (default 1), "
        "each grid-BP method solving its block as one batch "
        "(bit-identical for every N, checkpoint-compatible)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="LEDGER",
        help="durable write-ahead ledger: every finished trial is fsync'd "
        "to this file, and rerunning (or `repro resume LEDGER`) continues "
        "a killed run bit-identically instead of starting over",
    )


def _channel_from_args(args: argparse.Namespace):
    true_eta = getattr(args, "path_loss_exponent", None)
    assumed = getattr(args, "assumed_exponent", None)
    if true_eta is None and assumed is None:
        return None
    if args.ranging != "rssi":
        raise SystemExit(
            "error: --path-loss-exponent/--assumed-exponent need "
            "--ranging rssi"
        )
    from repro.experiments.config import ChannelConfig

    if true_eta is None:
        true_eta = ChannelConfig.path_loss_exponent
    return ChannelConfig(path_loss_exponent=true_eta, assumed_exponent=assumed)


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        n_nodes=args.nodes,
        anchor_ratio=args.anchor_ratio,
        radio_range=args.radio_range,
        deployment=args.deployment,
        radio=args.radio,
        ranging=args.ranging,
        noise_ratio=args.noise,
        nlos_fraction=args.nlos_fraction,
        bearing_sigma=args.bearing_sigma if args.bearing_sigma > 0 else None,
        pk_error=args.pk_error if args.pk_error > 0 else None,
        channel=_channel_from_args(args),
    )


def _methods_from_args(args: argparse.Namespace) -> dict:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    if getattr(args, "channel_joint", False) and "bn-pk-joint" not in names:
        names.append("bn-pk-joint")
    if not names:
        raise SystemExit("error: --methods must name at least one method")
    try:
        return standard_methods(grid_size=args.grid_size, include=names)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _checkpoint_meta(args: argparse.Namespace) -> dict | None:
    """Extra ledger-header keys that let `repro resume` rebuild the run."""
    if not getattr(args, "checkpoint", None):
        return None
    return {"method_kwargs": {"grid_size": args.grid_size}}


def _reraise_unless_checkpoint_error(exc: Exception) -> None:
    """Turn unusable-ledger errors into clean CLI exits; re-raise the rest."""
    from repro.ckpt import CheckpointMismatch, LedgerError

    if isinstance(exc, (CheckpointMismatch, LedgerError)):
        raise SystemExit(f"error: {exc}") from exc
    raise exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cooperative WSN localization with pre-knowledge "
        "(Bayesian networks) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="version, methods, scenario knobs")
    p_info.set_defaults(func=cmd_info)

    p_run = sub.add_parser("run", help="evaluate methods at one operating point")
    _add_scenario_args(p_run)
    _add_run_args(p_run)
    p_run.add_argument(
        "--map",
        action="store_true",
        help="also print an ASCII map of the first trial's network and "
        "the first method's estimates",
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario parameter")
    _add_scenario_args(p_sweep)
    _add_run_args(p_sweep)
    p_sweep.add_argument(
        "--param", required=True, choices=sorted(_SWEEPABLE), help="swept field"
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated values for --param"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="run one traced solver trial; print its convergence trace",
    )
    _add_scenario_args(p_trace)
    p_trace.add_argument(
        "--method",
        choices=["grid-bp", "nbp", "mcmc"],
        default="grid-bp",
        help="traced solver (the scenario's pre-knowledge prior is used)",
    )
    p_trace.add_argument(
        "--iterations", type=int, default=15, help="max BP iterations"
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace JSON instead of the table",
    )
    p_trace.add_argument(
        "--output", default=None, help="also write the trace JSON to this path"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_faults = sub.add_parser(
        "faults",
        help="robustness sweep: localization error vs message-loss rate",
    )
    _add_scenario_args(p_faults)
    p_faults.add_argument(
        "--loss-rates",
        default="0,0.2,0.5,0.8",
        help="comma-separated message-loss probabilities in [0, 1]",
    )
    p_faults.add_argument("--trials", type=int, default=3, help="Monte-Carlo trials")
    p_faults.add_argument(
        "--methods",
        default="bn-pk,centroid,dv-hop",
        help="bn-pk (distributed BP under message loss) and/or baselines "
        "(centroid, w-centroid, dv-hop, mds-map — run on the equivalent "
        "link-loss degradation)",
    )
    p_faults.add_argument(
        "--iterations", type=int, default=12, help="max BP rounds per trial"
    )
    p_faults.set_defaults(func=cmd_faults)

    p_audit = sub.add_parser(
        "audit",
        help="cross-solver differential audit over a seeded scenario corpus",
    )
    p_audit.add_argument(
        "--corpus",
        choices=["smoke", "full"],
        default="smoke",
        help="scenario corpus: 'smoke' is the fast tier-1 set",
    )
    p_audit.add_argument(
        "--slow",
        action="store_true",
        help="include slow cases (process-pool worker equivalence)",
    )
    p_audit.add_argument(
        "--manifest",
        default=None,
        help="write the corpus seed manifest JSON to this path and exit",
    )
    p_audit.set_defaults(func=cmd_audit)

    p_resume = sub.add_parser(
        "resume",
        help="report a checkpoint ledger's progress and continue the run",
    )
    p_resume.add_argument(
        "ledger", help="ledger file written by run/sweep --checkpoint"
    )
    p_resume.add_argument(
        "--status",
        action="store_true",
        help="only report progress; run nothing",
    )
    p_resume.set_defaults(func=cmd_resume)

    p_serve = sub.add_parser(
        "serve",
        help="run the localization service (JSON lines over TCP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8790, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="warm worker processes (0 = solve in-process)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission bound; requests beyond it are shed",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8, help="micro-batch size cap"
    )
    p_serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=10.0,
        help="how long to hold a partial batch for co-batchable arrivals",
    )
    p_serve.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="default per-request latency budget (BP stops cooperatively "
        "between rounds when it expires; partial answers come back "
        "flagged degraded)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_stream = sub.add_parser(
        "stream",
        help="track a fleet of mobile networks over a (hostile) event stream",
    )
    p_stream.add_argument(
        "--networks", type=int, default=20, help="concurrent mobile networks"
    )
    p_stream.add_argument("--nodes", type=int, default=16, help="nodes per network")
    p_stream.add_argument(
        "--anchor-ratio", type=float, default=0.3, help="anchor fraction"
    )
    p_stream.add_argument("--steps", type=int, default=8, help="tracking steps")
    p_stream.add_argument(
        "--radio-range", type=float, default=0.35, help="radio range"
    )
    p_stream.add_argument(
        "--noise", type=float, default=0.02, help="ranging noise sigma"
    )
    p_stream.add_argument(
        "--step-sigma", type=float, default=0.025, help="per-step motion sigma"
    )
    p_stream.add_argument("--seed", type=int, default=0, help="fleet seed")
    p_stream.add_argument(
        "--workers",
        type=int,
        default=0,
        help="warm worker processes (0 = solve in-process)",
    )
    p_stream.add_argument(
        "--grid", type=int, default=16, help="grid resolution per axis"
    )
    p_stream.add_argument(
        "--late",
        type=float,
        default=0.0,
        help="fraction of epochs delivered late/out-of-order",
    )
    p_stream.add_argument(
        "--duplicates", type=float, default=0.0, help="fraction of epochs echoed"
    )
    p_stream.add_argument(
        "--drops", type=float, default=0.0, help="fraction of epochs dropped"
    )
    p_stream.add_argument(
        "--faulted",
        type=int,
        default=0,
        help="networks degraded by a measurement fault plan",
    )
    p_stream.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write-ahead ledger; `repro resume` continues a killed stream",
    )
    p_stream.set_defaults(func=cmd_stream)

    p_demo = sub.add_parser("demo", help="small quick demonstration run")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — Lo, Wu & Chung (ICPP 2007) reproduction")
    print("\nmethods:")
    for name in standard_methods():
        print(f"  {name}")
    print("\nsweepable parameters:", ", ".join(sorted(_SWEEPABLE)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario_from_args(args)
    methods = _methods_from_args(args)
    if getattr(args, "map", False):
        from repro.experiments import build_scenario
        from repro.utils.rng import spawn_seeds
        from repro.viz import render_network

        trial_seed = spawn_seeds(args.seed, 1)[0]
        s_build, s_run = trial_seed.spawn(2)
        network, measurements, prior = build_scenario(cfg, s_build)
        first = next(iter(methods.values()))(prior)
        import numpy as np

        result = first.localize(measurements, np.random.default_rng(s_run))
        print(render_network(network, result))
        print()
    try:
        results = evaluate_methods(
            cfg,
            methods,
            n_trials=args.trials,
            seed=args.seed,
            checkpoint=args.checkpoint,
            checkpoint_meta=_checkpoint_meta(args),
            batch_trials=args.batch_trials,
        )
    except Exception as exc:
        _reraise_unless_checkpoint_error(exc)
    print(
        methods_table(
            results,
            title=(
                f"{cfg.n_nodes} nodes, {cfg.anchor_ratio:.0%} anchors, "
                f"r={cfg.radio_range}, sigma={cfg.noise_ratio}r, "
                f"{args.trials} trials (seed {args.seed})"
            ),
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _scenario_from_args(args)
    methods = _methods_from_args(args)
    cast = _SWEEPABLE[args.param]
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: bad --values: {exc}")
    if not values:
        raise SystemExit("error: --values must contain at least one value")
    if args.param == "pk_error":
        values = [v if v > 0 else None for v in values]
    try:
        sweep = run_sweep(
            cfg,
            args.param,
            values,
            methods,
            n_trials=args.trials,
            seed=args.seed,
            checkpoint=args.checkpoint,
            checkpoint_meta=_checkpoint_meta(args),
            batch_trials=args.batch_trials,
        )
    except Exception as exc:
        _reraise_unless_checkpoint_error(exc)
    print(
        sweep_table(
            sweep,
            title=f"mean error / r vs {args.param} "
            f"({args.trials} trials, seed {args.seed})",
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.core import GridBPConfig, GridBPLocalizer, NBPConfig, NBPLocalizer
    from repro.experiments import build_scenario
    from repro.obs import Tracer, format_trace_table, trace_summary
    from repro.utils.rng import spawn_seeds

    cfg = _scenario_from_args(args)
    trial_seed = spawn_seeds(args.seed, 1)[0]
    s_build, s_run = trial_seed.spawn(2)
    network, measurements, prior = build_scenario(cfg, s_build)

    tracer = Tracer()
    try:
        if args.method == "grid-bp":
            loc = GridBPLocalizer(
                prior=prior,
                config=GridBPConfig(
                    grid_size=args.grid_size, max_iterations=args.iterations
                ),
                tracer=tracer,
            )
        elif args.method == "mcmc":
            from repro.core import MCMCConfig, MCMCLocalizer

            loc = MCMCLocalizer(
                prior=prior,
                config=MCMCConfig(step_scale=0.25),
                tracer=tracer,
            )
        else:
            loc = NBPLocalizer(
                prior=prior,
                config=NBPConfig(n_iterations=min(args.iterations, 10)),
                tracer=tracer,
            )
        result = loc.localize(measurements, np.random.default_rng(s_run))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    trace = result.telemetry

    if args.output:
        from repro.io import save_trace_json

        try:
            save_trace_json(trace, args.output)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.output}: {exc}")
    if args.json:
        print(json.dumps(trace, sort_keys=True, indent=2))
        return 0
    errors = result.errors(network.positions)[~network.anchor_mask]
    print(format_trace_table(trace))
    print()
    print(trace_summary(trace))
    print(
        f"\nfinal mean error / r = "
        f"{float(np.nanmean(errors)) / network.radio_range:.4f} "
        f"(seed {args.seed}, 1 trial)"
    )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.sweep import robustness_table, run_robustness_sweep

    cfg = _scenario_from_args(args)
    try:
        rates = [float(v) for v in args.loss_rates.split(",") if v.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: bad --loss-rates: {exc}")
    if not rates:
        raise SystemExit("error: --loss-rates must contain at least one rate")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise SystemExit("error: --methods must name at least one method")
    try:
        points = run_robustness_sweep(
            cfg,
            rates,
            methods=methods,
            n_trials=args.trials,
            seed=args.seed,
            grid_size=args.grid_size,
            max_iterations=args.iterations,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(
        robustness_table(
            points,
            title=(
                f"median error / r vs message loss — {cfg.n_nodes} nodes, "
                f"{cfg.anchor_ratio:.0%} anchors, {args.trials} trials "
                f"(seed {args.seed})"
            ),
        )
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import make_corpus, run_corpus, save_manifest, summarize

    if args.manifest:
        try:
            save_manifest(make_corpus(args.corpus), args.corpus, args.manifest)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {args.manifest}: {exc}")
        print(f"wrote {args.corpus} corpus manifest to {args.manifest}")
        return 0
    reports = run_corpus(args.corpus, include_slow=args.slow)
    print(summarize(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.ckpt import LedgerError, format_progress, ledger_progress

    try:
        progress = ledger_progress(args.ledger)
    except LedgerError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_progress(progress))
    if args.status:
        return 0

    meta = progress.meta or {}
    kind = meta.get("kind")
    if kind == "stream":
        return _resume_stream(args, meta)
    if kind not in ("evaluate", "sweep"):
        raise SystemExit(
            f"error: cannot resume a {kind!r} ledger from the CLI — only "
            "'evaluate', 'sweep', and 'stream' runs started with "
            "--checkpoint are reconstructable here (resume API runs via "
            "their entry points)"
        )
    seed_fp = meta.get("seed") or {}
    if seed_fp.get("type") != "int":
        raise SystemExit(
            "error: the ledger's master seed is not a plain integer; resume "
            "it from Python with the original SeedSequence"
        )
    seed = int(seed_fp["value"])
    try:
        cfg = ScenarioConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: ledger config cannot be reconstructed: {exc}")
    method_kwargs = dict(meta.get("method_kwargs") or {})
    # Ledgers written while a `--backend` option existed carry the
    # chosen kernel here.  The kernels were bit-identical, so dropping
    # the key keeps the resume exact.
    method_kwargs.pop("backend", None)
    try:
        methods = standard_methods(include=meta.get("methods"), **method_kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(
            f"error: ledger methods cannot be reconstructed: {exc} (only "
            "standard_methods lineups started from this CLI are supported)"
        )
    n_trials = int(meta.get("n_trials") or 0)
    if n_trials < 1:
        raise SystemExit("error: ledger header has no usable trial count")

    print()
    try:
        if kind == "sweep":
            sweep = run_sweep(
                cfg,
                meta["param"],
                meta["values"],
                methods,
                n_trials=n_trials,
                seed=seed,
                checkpoint=args.ledger,
            )
            print(
                sweep_table(
                    sweep,
                    title=f"resumed sweep of {meta['param']} "
                    f"({n_trials} trials, seed {seed})",
                )
            )
        else:
            results = evaluate_methods(
                cfg,
                methods,
                n_trials=n_trials,
                seed=seed,
                checkpoint=args.ledger,
            )
            print(
                methods_table(
                    results,
                    title=f"resumed evaluation ({n_trials} trials, seed {seed})",
                )
            )
    except Exception as exc:
        _reraise_unless_checkpoint_error(exc)
    return 0


def _resume_stream(args: argparse.Namespace, meta: dict) -> int:
    """Reconstruct a killed stream run from its ledger header and
    continue it: finished epochs replay, the rest solve live —
    bit-identical to a run that never died."""
    from repro.stream import (
        FleetConfig,
        StreamConfig,
        StreamDisruption,
        run_stream,
    )

    config = meta.get("config") or {}
    try:
        fleet = FleetConfig.from_dict(config["fleet"])
        stream = StreamConfig.from_dict(config["stream"])
        disruption = (
            StreamDisruption.from_dict(config["disruption"])
            if config.get("disruption") is not None
            else None
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"error: stream ledger cannot be reconstructed: {exc}")
    print()
    try:
        result = run_stream(fleet, stream, disruption, checkpoint=args.ledger)
    except Exception as exc:
        _reraise_unless_checkpoint_error(exc)
        return 1
    _print_stream_summary(
        result,
        f"resumed stream: {fleet.n_networks} networks × "
        f"{fleet.n_steps + 1} steps (seed {fleet.seed})",
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import LocalizationServer, LocalizationService, ServeConfig

    config = ServeConfig(
        n_workers=args.workers,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1e3,
        default_deadline_s=args.deadline_s,
    )

    async def _serve() -> None:
        server = LocalizationServer(
            LocalizationService(config), host=args.host, port=args.port
        )
        host, port = await server.start()
        workers = "in-process" if args.workers == 0 else f"{args.workers} workers"
        print(f"localization service on {host}:{port} ({workers})")
        print(
            'protocol: one JSON object per line, e.g. '
            '{"op": "health"} or {"op": "localize", "scenario": '
            '{"n_nodes": 25}, "seed": 1}'
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _print_stream_summary(result, title: str) -> None:
    counters = result.metrics.get("counters", {})
    staleness = result.metrics.get("staleness_ms", {})
    print(title)
    print(f"  networks tracked: {len(result.networks)}")
    lost = result.lost_networks
    print(f"  lost networks: {len(lost)}" + (f" {lost}" if lost else ""))
    for name in (
        "ingested",
        "out_of_order",
        "duplicates",
        "stale_discarded",
        "solved",
        "replayed",
        "coasted",
        "shed",
        "failed",
        "guard_trips",
        "cold_resolves",
    ):
        if counters.get(name):
            print(f"  {name}: {counters[name]}")
    if result.executor.get("replacements"):
        print(f"  worker_replacements: {result.executor['replacements']}")
    ups = result.metrics.get("updates_per_sec")
    if ups:
        print(f"  updates/sec: {ups:.1f}")
    if staleness.get("n"):
        print(
            f"  staleness ms: p50 {staleness['p50']:.1f}  "
            f"p99 {staleness['p99']:.1f}"
        )
    degraded_networks = sum(
        1
        for tr in result.networks.values()
        if tr.extras.get("degraded") is not None
        and bool(tr.extras["degraded"].any())
    )
    print(f"  networks with degraded steps: {degraded_networks}")


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan
    from repro.stream import (
        FleetConfig,
        StreamConfig,
        StreamDisruption,
        run_stream,
    )

    plan = None
    faulted: tuple[int, ...] = ()
    if args.faulted > 0:
        plan = FaultPlan(
            anchor_failure_rate=0.5,
            link_loss_rate=0.3,
            outlier_fraction=0.3,
            outlier_bias_ratio=1.5,
            seed=args.seed,
        )
        faulted = tuple(range(min(args.faulted, args.networks)))
    fleet = FleetConfig(
        n_networks=args.networks,
        n_nodes=args.nodes,
        anchor_ratio=args.anchor_ratio,
        n_steps=args.steps,
        radio_range=args.radio_range,
        noise_sigma=args.noise,
        step_sigma=args.step_sigma,
        seed=args.seed,
        fault_plan=plan,
        faulted_networks=faulted,
    )
    stream = StreamConfig(grid_size=args.grid, n_workers=args.workers)
    disruption = None
    if args.late or args.duplicates or args.drops:
        disruption = StreamDisruption(
            late_rate=args.late,
            duplicate_rate=args.duplicates,
            drop_rate=args.drops,
            seed=args.seed,
        )
    try:
        result = run_stream(
            fleet, stream, disruption, checkpoint=args.checkpoint
        )
    except Exception as exc:
        _reraise_unless_checkpoint_error(exc)
        return 1
    _print_stream_summary(
        result,
        f"streamed {args.networks} networks × {args.steps + 1} steps "
        f"(seed {args.seed})",
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    cfg = ScenarioConfig(n_nodes=60, anchor_ratio=0.12, radio_range=0.25)
    methods = standard_methods(
        grid_size=16, max_iterations=10, include=["bn-pk", "bn", "dv-hop"]
    )
    results = evaluate_methods(cfg, methods, n_trials=2, seed=0)
    print(methods_table(results, title="demo: 60 nodes, 12% anchors, 2 trials"))
    print(
        "\nbn-pk = Bayesian network with pre-knowledge (the paper's method);"
        "\nsee `python -m repro run --help` for the full knob set."
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
