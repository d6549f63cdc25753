"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same op list untraced and then traced, and reports
the per-layer metrics.  The inputs come from ``--seed`` alone, and the op
count from ``--seconds`` alone, so equal arguments mean equal inputs.
Every time is host-adjusted: a fixed probe kernel (``hostprobe.py``)
runs at a fixed cadence of ops, outside the measured window, and each
latency and window is rescaled piecewise by ``reference_ms / probe time``
from the probe runs on either side of it (``arith.HostScale``).  Raw
values are printed beside the adjusted ones.  The process is pinned to
one CPU; a workload's worker process gets another, and the probe then
runs on the worker's CPU, where most of the work is done.

The report lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check fails and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
sys.path[:0] = [p for p in (str(BENCH), str(SRC)) if p not in sys.path]

for _var in THREAD_VARS:  # before numpy loads; every child inherits it
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from arith import (  # noqa: E402
    HostScale,
    adjust_time,
    failed_ratio,
    highest_resolved_percentile,
    peak_rss_mb,
    tail_beyond,
)

WORKLOADS = {
    "solve-large": "solve_large",
    "serve-closed": "serve_closed",
    "stream-fleet": "stream_fleet",
}
SETUP_PROBES = 5
#: set-ups per --trace 0 run: this process's own plus fresh interpreters
SETUP_SAMPLES = 5
SUM_TOLERANCE = 0.05


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="time set-up alone and print it as JSON (used for setup_s samples)",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _pin() -> tuple[int, int]:
    """Pin this process to one CPU; set-up children inherit it.
    Returns that CPU and a spare one for a worker process (the same CPU
    when there is no other)."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return cpu, min(cpus)


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _setup_sample(args) -> tuple[float, float]:
    """(raw set-up seconds, probe ms) from a fresh interpreter."""
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    # A session of its own, so that on a timeout the interpreter is killed
    # together with every process it started.
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{stderr}")
    sample = json.loads(stdout.strip().splitlines()[-1])
    return sample["setup_raw_s"], sample["probe_ms"]


def _stop_children() -> None:
    """Stop and wait for every process this run started.

    Worker processes are stopped by their pools; any still running are
    killed here.  The spawn start method also launches a resource-tracker
    process that would otherwise outlive this one, so it is stopped and
    waited for too."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=5.0)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _host(p, reference_ms: float, cpus: tuple[int, ...]) -> dict:
    import scipy

    return {
        "host_probe_ms": p.probe_median_ms,
        "host_probe_mean_ms": p.probe_ms,
        "probe_samples": p.n_probes,
        "reference_ms": reference_ms,
        "probe_over_reference": p.probe_median_ms / reference_ms,
        "nproc": os.cpu_count(),
        "pinned_cpus": list(cpus),
        "probed_cpu": cpus[-1],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _checks(p, ceiling: float) -> list[tuple[str, bool]]:
    error_r = statistics.fmean(p.errors_r) if p.errors_r else math.inf
    return [
        (f"lost ops = {p.lost}", p.lost == 0),
        (f"ops without a full ok answer = {p.failed}", p.failed == 0),
        (f"non-finite or out-of-field estimates = {p.bad_estimates}", p.bad_estimates == 0),
        (f"error_r {error_r:.4f} < ceiling {ceiling}", error_r < ceiling),
        (f"answered ops with a latency = {len(p.latencies_s)}", len(p.latencies_s) > 0),
    ]


def _end_to_end(p, scale, setups, rss_mb: float, ref: float) -> tuple[dict, dict, list[str]]:
    """Adjusted metric values, their raw counterparts, and report lines."""
    lat_raw = [x * 1e3 for x in p.latencies_s]
    lat_ms = [scale.interval(a, b) * 1e3 for a, b in p.spans]
    n = len(lat_ms)
    completed = p.ops - p.failed
    setup_adj = [adjust_time(s, pm, ref) for s, pm in setups]
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "throughput_per_s": completed / p.window_s,
        "latency_p50_ms": float(np.percentile(lat_raw, 50)),
        "latency_p90_ms": float(np.percentile(lat_raw, 90)),
    }
    adjusted = {
        "setup_s": statistics.median(setup_adj),
        "throughput_per_s": completed / sum(scale.interval(a, b) for a, b in p.windows),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "error_r": statistics.fmean(p.errors_r),
        "peak_rss_mb": rss_mb,
    }
    resolved = highest_resolved_percentile(n)
    tail = tail_beyond(lat_ms, 90)
    lines = [
        f"setup_s: {adjusted['setup_s']:.4f} s adjusted (raw median {raw['setup_s']:.4f} s; "
        f"samples raw {[round(s, 4) for s, _ in setups]}, "
        f"probe ms {[round(pm, 3) for _, pm in setups]})",
        f"throughput_per_s: {adjusted['throughput_per_s']:.4f} 1/s adjusted "
        f"(raw {raw['throughput_per_s']:.4f}; {completed} ok ops in {p.window_s:.3f} s window)",
        f"latency_p50_ms: {adjusted['latency_p50_ms']:.3f} ms adjusted "
        f"(raw {raw['latency_p50_ms']:.3f}; {n} samples)",
        f"latency_p90_ms: {adjusted['latency_p90_ms']:.3f} ms adjusted "
        f"(raw {raw['latency_p90_ms']:.3f}; {tail} of {n} samples beyond it; "
        + (
            f"highest percentile with >=10 beyond: p{resolved:.1f})"
            if resolved is not None and resolved >= 90
            else "under-sampled: fewer than 10 samples beyond p90)"
        ),
        f"error_r: {adjusted['error_r']:.5f} r (mean over {len(p.errors_r)} unknown nodes)",
        f"failed_ratio: {failed_ratio(p.failed, p.ops):.4f} "
        f"({p.failed} of {p.ops} ops without a full ok answer)",
        f"peak_rss_mb: {rss_mb:.1f} MB (this process + largest worker)",
    ]
    return adjusted, raw, lines


def _per_layer(out, scale, names_units, ref: float) -> tuple[dict, list[str]]:
    """Host-adjusted per-layer values (bypassed layers read 0) and report.

    Layer times are rescaled by the traced pass's mean probe; the tracing
    overhead compares the two passes' piecewise-rescaled windows."""
    untraced, traced = out["passes"]["untraced"], out["passes"]["traced"]
    layers = traced.layers
    values = dict(layers["metrics"])
    traced_s = sum(scale.interval(a, b) for a, b in traced.windows)
    untraced_s = sum(scale.interval(a, b) for a, b in untraced.windows)
    values["obs.trace_overhead_ratio"] = traced_s / untraced_s - 1.0
    bypassed = [name for name in names_units if name not in values]
    adjusted = {}
    for name, unit in names_units.items():
        v = values.get(name, 0)
        if unit == "ms":
            v = adjust_time(v, traced.probe_ms, ref)
        adjusted[name] = v
    lines = []
    for name, unit in names_units.items():
        if name in bypassed:
            continue
        note = f" (raw {values[name]:.4f})" if unit == "ms" else ""
        lines.append(f"  {name}: {adjusted[name]:.4f} {unit}{note}")
    if bypassed:
        lines.append(f"  bypassed by this workload (reported as 0): {', '.join(bypassed)}")
    for what, base in layers["bases"].items():
        lines.append(f"  base [{what}]: {base}")
    breakdown = layers["breakdown_s"]
    total = sum(breakdown.values())
    wall = traced.window_s
    lines.append(f"  layer breakdown of the {wall:.3f} s traced window (raw s):")
    for name, secs in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name}: {secs:.4f} s ({secs / wall:.1%})")
    dominant = max(breakdown, key=breakdown.get)
    lines.append(f"  dominant layer: {dominant} ({breakdown[dominant] / wall:.1%} of wall)")
    gap = abs(wall - total) / wall
    if layers["sum_check"]:
        verdict = "PASS" if gap <= SUM_TOLERANCE else "FAIL"
        lines.append(
            f"  sum check: layers sum to {total:.4f} s vs wall {wall:.4f} s, "
            f"gap {gap:.2%} (<= {SUM_TOLERANCE:.0%}: {verdict})"
        )
    else:
        lines.append("  sum check: not applicable (breakdown closes on residual layers)")
    lines.append(
        f"  obs.trace_overhead_ratio: {values['obs.trace_overhead_ratio']:+.4f} "
        f"(adjusted windows: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s; "
        f"raw {traced.window_s:.3f} s and {untraced.window_s:.3f} s)"
    )
    return adjusted, lines


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    cpu, spare = _pin()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    from hostprobe import HostProbe

    import_s = time.perf_counter() - _T0
    t0 = time.perf_counter()
    workload = module.Workload(args.seed, args.seconds, warmup_only=args.setup_only)
    gen_s = time.perf_counter() - t0
    worker_cpu = getattr(module.Workload, "spawns_worker", False) and spare != cpu
    probe = HostProbe((spare,) if worker_cpu else ())
    cpus = (cpu, spare) if worker_cpu else (cpu,)
    out = workload.run(probe, trace=bool(args.trace), setup_only=args.setup_only)
    setup_raw = import_s + out["ready_s"]
    if args.setup_only:
        probe.run(SETUP_PROBES)
        print(json.dumps({"setup_raw_s": setup_raw, "probe_ms": probe.mean_ms()}))
        return 0
    rss_mb = peak_rss_mb()  # every worker has exited; no other child yet

    bench = _load_json(ROOT / "BENCHMARK.json")
    config = _load_json(BENCH / "config.json")
    ref = float(config["probe"]["reference_ms"])
    scale = HostScale(probe.marks, ref)
    ceiling = float(config["workloads"][args.workload]["error_r_ceiling"])
    passes = out["passes"]
    untraced = passes["untraced"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    host = _host(untraced, ref, cpus)
    print(
        f"host: nproc={host['nproc']} pinned to cpus {list(cpus)} (this process, "
        f"then its worker; probe on cpu {cpus[-1]}), threads=1 "
        f"({', '.join(THREAD_VARS)}) python={host['python']} "
        f"numpy={host['numpy']} scipy={host['scipy']}"
    )
    print(
        f"host_probe_ms: {untraced.probe_median_ms:.4f} (median of {untraced.n_probes}, "
        f"mean {untraced.probe_ms:.4f}; reference {ref} ms; "
        f"probe/reference {host['probe_over_reference']:.4f})"
    )
    print(f"inputs: generated in {gen_s:.3f} s (not part of setup_s)")

    checks = []
    for name, p in passes.items():
        checks += [(f"{name}: {text}", ok) for text, ok in _checks(p, ceiling)]
    attempted = sum(p.ops for p in passes.values())
    failed = sum(p.failed for p in passes.values())
    detail = {"workload": args.workload, "seed": args.seed, "host": host}

    if args.trace:
        names_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, lines = _per_layer(out, scale, names_units, ref)
        units = names_units
        print("per-layer metrics (traced pass):")
        detail["traced_probe_ms"] = passes["traced"].probe_ms
    else:
        setups = [(setup_raw, untraced.probe_ms)]
        setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        values, raw, lines = _end_to_end(untraced, scale, setups, rss_mb, ref)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        detail["raw"] = raw
        detail["setup_samples"] = setups
        print("end-to-end metrics:")
    for line in lines:
        print(line if line.startswith("  ") else f"  {line}")
    for text, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {text}")
    detail["notes"] = {name: p.notes for name, p in passes.items()}
    detail["run_wall_s"] = time.perf_counter() - _T0
    print("detail: " + json.dumps(detail, default=str))

    finite = all(math.isfinite(float(v)) for v in values.values())
    correct = finite and all(ok for _, ok in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
