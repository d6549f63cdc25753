"""Cross-solver differential testing over the audit corpus.

Every :class:`DiffCase` names two runners (or one, for invariant-only
cases) and the *equivalence tier* the pair must satisfy on each corpus
scenario:

``bit``
    Byte-identical outputs — estimates, masks, beliefs, iteration count,
    and the message/byte ledger.  Holds for pairs that execute the same
    arithmetic in a different organization: centralized vs distributed
    (fault-free), the solver vs its reference path
    (:class:`ReferenceGridBP`), a stacked batch vs sequential solves,
    shared-cache warm vs cold, worker counts 1 vs N.
``statistical``
    Same accuracy within a tolerance band, full coverage on both sides —
    for pairs that approximate the same posterior differently (multi-res
    or NBP vs single-grid BP).
``exact``
    The solver's beliefs against the exact marginals of the problem it
    built (:func:`exact_marginals`, one ``np.einsum`` contraction per
    node).  Sum-product BP is exact on trees, so on a forest the beliefs
    must match within the case tolerance; on a loopy graph the max-abs
    and KL marginal errors are recorded as tracked numbers and only have
    to be finite.
``invariant``
    No cross-solver claim (faulted runs): only the runtime invariant set
    of :mod:`repro.audit.invariants` must hold.

Regardless of tier, every :class:`~repro.core.result.LocalizationResult` a
runner produces is additionally passed through the invariant bundle, so a
"bit-equal but both broken" pair still fails.

:func:`run_corpus` executes the case matrix over a corpus and returns one
:class:`DiffReport` per (case, scenario); :func:`summarize` renders the
table the ``repro audit`` CLI prints.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.audit.corpus import ScenarioSpec, make_corpus
from repro.audit.invariants import (
    AuditViolation,
    audit_localization_result,
    check_delay_conservation,
    check_round_accounting,
)
from repro.core.bnloc import GridBPConfig, GridBPLocalizer
from repro.core.result import LocalizationResult
from repro.kernels import BPProblem, get_backend

__all__ = [
    "ReferenceGridBP",
    "ScenarioContext",
    "DiffCase",
    "DiffReport",
    "EXACT_MAX_INTERMEDIATE",
    "default_cases",
    "exact_marginals",
    "is_forest",
    "run_case",
    "run_corpus",
    "summarize",
]

TIERS = ("bit", "statistical", "exact", "invariant")


class ScenarioContext:
    """One built corpus scenario, shared by every case that runs on it."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.network, self.measurements, self.prior = spec.build()

    @property
    def radio_range(self) -> float:
        return self.network.radio_range


@dataclass(frozen=True)
class DiffCase:
    """One solver pair (or single solver) and its declared equivalence tier.

    ``run_ref`` / ``run_alt`` map a :class:`ScenarioContext` to a payload —
    a :class:`LocalizationResult`, a ``(result, round_stats)`` tuple,
    (for executor cases) a plain nested list, or (the ``exact`` tier's
    ``run_alt``) an ``(exact marginals, is forest)`` pair.  ``applies`` gates the case
    per scenario (e.g. NBP needs ranging); ``slow`` marks cases excluded
    from the default lane (process-spawning pairs).
    """

    name: str
    tier: str
    run_ref: Callable[[ScenarioContext], object]
    run_alt: Callable[[ScenarioContext], object] | None = None
    tol: float = 0.35
    applies: Callable[[ScenarioSpec], bool] = lambda spec: True
    slow: bool = False

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {self.tier!r}")
        if self.tier != "invariant" and self.run_alt is None:
            raise ValueError(f"case {self.name!r}: tier {self.tier!r} needs run_alt")


@dataclass
class DiffReport:
    """Outcome of one case on one scenario."""

    case: str
    scenario_id: str
    tier: str
    passed: bool
    detail: dict = field(default_factory=dict)
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "ok" if self.passed else "FAIL"


# --------------------------------------------------------------------- #
# payload plumbing
# --------------------------------------------------------------------- #
def _result_of(payload):
    """The LocalizationResult inside a payload, or None."""
    if isinstance(payload, LocalizationResult):
        return payload
    if (
        isinstance(payload, tuple)
        and payload
        and isinstance(payload[0], LocalizationResult)
    ):
        return payload[0]
    return None


def _payload_invariants(payload, ctx: ScenarioContext) -> list[AuditViolation]:
    result = _result_of(payload)
    if result is None:
        return []
    ms = ctx.measurements
    out = audit_localization_result(
        result, ms.width, ms.height, anchor_mask=ms.anchor_mask
    )
    fault_log = (
        result.extras.get("fault_log") if isinstance(result.extras, dict) else None
    )
    if fault_log and fault_log.get("messages"):
        out += check_delay_conservation(fault_log["messages"]["counters"])
    if isinstance(payload, tuple) and len(payload) == 2:
        from repro.core.bnloc import _ANCHOR_BROADCAST_BYTES

        result, stats = payload
        anchor_broadcasts = result.messages_sent - sum(s.messages for s in stats)
        K = result.extras["grid"].n_cells if "grid" in result.extras else None
        if K is not None:
            out += check_round_accounting(
                result,
                stats,
                anchor_broadcasts,
                _ANCHOR_BROADCAST_BYTES,
                msg_bytes=K * 8,
            )
    return out


# --------------------------------------------------------------------- #
# tier comparisons
# --------------------------------------------------------------------- #
def _bit_equal_results(
    ref: LocalizationResult, alt: LocalizationResult
) -> tuple[bool, dict]:
    detail: dict = {}
    if not np.array_equal(ref.localized_mask, alt.localized_mask):
        detail["mismatch"] = "localized_mask"
        return False, detail
    m = ref.localized_mask
    if not np.array_equal(ref.estimates[m], alt.estimates[m]):
        detail["mismatch"] = "estimates"
        detail["max_deviation"] = float(
            np.abs(ref.estimates[m] - alt.estimates[m]).max()
        )
        return False, detail
    for fld in ("n_iterations", "converged", "messages_sent", "bytes_sent"):
        if getattr(ref, fld) != getattr(alt, fld):
            detail["mismatch"] = fld
            detail["ref"] = getattr(ref, fld)
            detail["alt"] = getattr(alt, fld)
            return False, detail
    b_ref = ref.extras.get("beliefs")
    b_alt = alt.extras.get("beliefs")
    if isinstance(b_ref, dict) and isinstance(b_alt, dict):
        if sorted(b_ref) != sorted(b_alt):
            detail["mismatch"] = "belief keys"
            return False, detail
        for u in b_ref:
            if not np.array_equal(b_ref[u], b_alt[u]):
                detail["mismatch"] = "beliefs"
                detail["node"] = int(u)
                detail["max_deviation"] = float(np.abs(b_ref[u] - b_alt[u]).max())
                return False, detail
    detail["max_deviation"] = 0.0
    return True, detail


def _compare_bit(ref, alt) -> tuple[bool, dict]:
    r_ref, r_alt = _result_of(ref), _result_of(alt)
    if r_ref is not None and r_alt is not None:
        return _bit_equal_results(r_ref, r_alt)
    # executor payloads: nested lists / arrays — exact equality
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(alt, dtype=np.float64)
    if a.shape != b.shape:
        return False, {"mismatch": "shape", "ref": str(a.shape), "alt": str(b.shape)}
    eq = np.array_equal(a, b, equal_nan=True)
    detail = {"max_deviation": 0.0 if eq else float(np.nanmax(np.abs(a - b)))}
    if not eq:
        detail["mismatch"] = "payload"
    return eq, detail


def _compare_statistical(
    ref, alt, ctx: ScenarioContext, tol: float
) -> tuple[bool, dict]:
    r_ref, r_alt = _result_of(ref), _result_of(alt)
    truth = ctx.network.positions
    unknown = ~ctx.network.anchor_mask
    r = ctx.radio_range

    def mean_err(res: LocalizationResult) -> float:
        with np.errstate(invalid="ignore"):
            return float(np.nanmean(res.errors(truth)[unknown])) / r

    def coverage(res: LocalizationResult) -> float:
        return float(res.localized_mask[unknown].mean())

    e_ref, e_alt = mean_err(r_ref), mean_err(r_alt)
    gap = abs(e_ref - e_alt)
    cov_gap = abs(coverage(r_ref) - coverage(r_alt))
    detail = {
        "ref_error": round(e_ref, 4),
        "alt_error": round(e_alt, 4),
        "error_gap": round(gap, 4),
        "coverage_gap": round(cov_gap, 4),
        "tol": tol,
    }
    passed = bool(np.isfinite(gap)) and gap <= tol and cov_gap <= 1e-12
    if not passed:
        detail["mismatch"] = "accuracy band" if cov_gap <= 1e-12 else "coverage"
    return passed, detail


def _compare_exact(ref, exact, tol: float) -> tuple[bool, dict]:
    from scipy.special import rel_entr

    result = _result_of(ref)
    marginals, forest = exact
    beliefs = np.stack(list(result.extras["beliefs"].values()))
    max_abs = float(np.abs(beliefs - marginals).max())
    # KL(exact ‖ BP), with BP beliefs floored at the smallest normal
    # double: a belief entry cut to 0 (at or below ~1e-250 of its row's
    # max) where the exact mass is tiny but positive would otherwise make
    # the KL infinite.
    floored = np.maximum(beliefs, np.finfo(float).tiny)
    max_kl = float(rel_entr(marginals, floored).sum(axis=1).max())
    detail = {
        "graph": "forest" if forest else "loopy",
        "max_abs": max_abs,
        "max_kl": max_kl,
        "tol": tol,
    }
    if forest:
        passed = bool(result.converged) and max_abs <= tol
        if not passed:
            detail["mismatch"] = "marginals" if result.converged else "converged"
    else:
        passed = bool(np.isfinite(max_abs) and np.isfinite(max_kl))
        if not passed:
            detail["mismatch"] = "non-finite error"
    return passed, detail


# --------------------------------------------------------------------- #
# exact marginals
# --------------------------------------------------------------------- #
#: Largest intermediate, in cells, :func:`exact_marginals` will contract.
EXACT_MAX_INTERMEDIATE = 2**24


def _largest_intermediate(subscripts, path, output, n_cells: int) -> int:
    """Cells of the largest index space a step of *path* spans.

    A step joins its operands over the union of their indices, so that
    union — not the smaller result the step keeps — sets its cost.  NumPy's
    greedy planner ends with one step over every operand it could not
    pair, which on a dense graph spans all of its variables at once.
    Replays NumPy's bookkeeping: each step pops its operands and appends
    its result at the end.
    """
    live = [set(s) for s in subscripts]
    largest = 0
    for step in path[1:]:
        merged = set().union(*(live.pop(k) for k in sorted(step, reverse=True)))
        live.append(merged & set(output).union(*live))
        largest = max(largest, n_cells ** len(merged))
    return largest


def exact_marginals(problem: BPProblem) -> np.ndarray:
    """Exact marginals ``(n_unknown, K)`` of a grid-BP problem.

    The joint is the product of the node factors ``exp(log_phi[i] - max)``
    and, per edge ``(i, j)``, the factor ``fwd[x_j, x_i]`` — the operator
    the kernels apply for the i→j message.  Each marginal is one
    ``np.einsum`` contraction of that product onto one node, on the path
    NumPy's greedy planner picks.  Every path is planned before anything
    is contracted: a problem whose largest planned intermediate exceeds
    :data:`EXACT_MAX_INTERMEDIATE` cells raises ``ValueError``.
    """
    from scipy import sparse

    n, K = problem.log_phi.shape
    operands: list = []
    for i, row in enumerate(problem.log_phi):
        operands += [np.exp(row - row.max()), [i]]
    for (i, j), (fwd, _bwd) in zip(problem.edges, problem.ops):
        f = fwd.toarray() if sparse.issparse(fwd) else np.asarray(fwd, dtype=float)
        operands += [f / f.max(), [j, i]]
    paths = []
    for v in range(n):
        path, _ = np.einsum_path(*operands, [v], optimize="greedy")
        cells = _largest_intermediate(operands[1::2], path, [v], K)
        if cells > EXACT_MAX_INTERMEDIATE:
            raise ValueError(
                f"exact marginal of unknown {v} needs a {cells}-cell "
                f"intermediate (limit {EXACT_MAX_INTERMEDIATE})"
            )
        paths.append(path)
    out = np.empty((n, K))
    for v, path in enumerate(paths):
        m = np.einsum(*operands, [v], optimize=path)
        out[v] = m / m.sum()
    return out


def is_forest(problem: BPProblem) -> bool:
    """Whether the unknown-unknown graph of *problem* has no cycle (where
    sum-product BP is exact)."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    n = problem.n_unknowns
    rows, cols = np.asarray(problem.edges, dtype=int).reshape(-1, 2).T
    graph = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_components, _ = connected_components(graph, directed=False)
    return len(problem.edges) == n - n_components


# --------------------------------------------------------------------- #
# the standard case matrix
# --------------------------------------------------------------------- #
class ReferenceGridBP(GridBPLocalizer):
    """:class:`~repro.core.bnloc.GridBPLocalizer` on its reference path.

    Node potentials come from ``_node_potentials_baseline`` (every anchor
    field recomputed per unknown, problem by problem, never through the
    block slabs or the hop BFS) and :meth:`localize` runs BP on the plain
    per-node loop (the ``reference`` kernel) whatever the schedule.
    Everything else — the preparation blocks and edge operators, the
    group solve, damped restarts, estimates, accounting, telemetry — is
    the solver's own code.  This is the bit-identity reference the
    ``solver-vs-reference`` case, the kernel tests and the E12 A/B
    baseline compare the solver against.  Inside ``localize_batch`` its
    pairs form node-potential blocks of their own (the solver class is
    part of a block's key) that still build baseline potentials, while BP
    stacks them on the kernel the schedule picks.
    """

    def _node_potential_block(self, grid, problems):
        return [
            self._node_potentials_baseline(ms, grid, prior, radio, unknowns)
            for ms, prior, radio, unknowns in problems
        ]

    def _kernel(self):
        return get_backend("reference")


def _audit_bp_config(**overrides) -> GridBPConfig:
    """The harness's compact solver settings (small grid, pinned rounds)."""
    base = dict(grid_size=10, max_iterations=6, tol=1e-9)
    base.update(overrides)
    return GridBPConfig(**base)


def _run_grid(ctx: ScenarioContext, **overrides) -> LocalizationResult:
    cfg = _audit_bp_config(**overrides)
    return GridBPLocalizer(prior=ctx.prior, config=cfg).localize(ctx.measurements)


def _run_reference(ctx: ScenarioContext, **overrides) -> LocalizationResult:
    cfg = _audit_bp_config(**overrides)
    return ReferenceGridBP(prior=ctx.prior, config=cfg).localize(ctx.measurements)


# The exact tier's BP settings: undamped rounds to a fixed point.  On a
# tree synchronous BP reaches it after diameter + 1 rounds, which the
# default 6 damped rounds do not.
_EXACT_BP = dict(damping=0.0, tol=1e-12, max_iterations=30)


def _exact_problem(ctx: ScenarioContext, **overrides) -> BPProblem:
    """The BP problem :func:`_run_grid` solves with the same *overrides*."""
    loc = GridBPLocalizer(prior=ctx.prior, config=_audit_bp_config(**overrides))
    return loc._prepare(ctx.measurements).problem


def _run_exact(ctx: ScenarioContext, **overrides) -> tuple[np.ndarray, bool]:
    """Exact marginals of :func:`_exact_problem` and whether its unknown
    graph is a forest."""
    problem = _exact_problem(ctx, **overrides)
    return exact_marginals(problem), is_forest(problem)


def _run_distributed(ctx: ScenarioContext, with_stats: bool = False, **overrides):
    from repro.parallel.messaging import DistributedBPSimulator

    cfg = _audit_bp_config(**overrides)
    sim = DistributedBPSimulator(
        prior=ctx.prior, config=cfg, faults=ctx.spec.faults
    )
    result, stats = sim.run(ctx.measurements)
    return (result, stats) if with_stats else result


def _run_grid_warm(ctx: ScenarioContext, **overrides) -> LocalizationResult:
    """Guaranteed-warm shared-cache run (prime once, then measure)."""
    _run_grid(ctx, shared_cache=True, **overrides)
    return _run_grid(ctx, shared_cache=True, **overrides)


def _flatten_results(results: Sequence[LocalizationResult]) -> list:
    """Nested-list view of a result batch for exact payload comparison."""
    rows = []
    for res in results:
        rows.append(
            [float(v) for v in res.estimates.ravel()]
            + [
                float(res.n_iterations),
                float(res.converged),
                float(res.messages_sent),
                float(res.bytes_sent),
            ]
        )
    return rows


def _run_localize_batch(ctx: ScenarioContext, batched: bool) -> list:
    """Batch-vs-sequential bit case: one stacked ``localize_batch`` call over
    T compatible trials must match T sequential ``localize`` calls."""
    from repro.core.bnloc import localize_batch

    cfg = _audit_bp_config()
    locs = [GridBPLocalizer(prior=ctx.prior, config=cfg) for _ in range(3)]
    if batched:
        results = localize_batch([(loc, ctx.measurements) for loc in locs])
    else:
        results = [loc.localize(ctx.measurements) for loc in locs]
    return _flatten_results(results)


def _run_multires(ctx: ScenarioContext) -> LocalizationResult:
    from repro.core.multires import MultiResolutionLocalizer

    return MultiResolutionLocalizer(
        prior=ctx.prior,
        levels=(8, 12),
        iterations_per_level=(6, 4),
        config=_audit_bp_config(grid_size=12),
    ).localize(ctx.measurements)


def _run_nbp(ctx: ScenarioContext) -> LocalizationResult:
    from repro.core.nbp import NBPConfig, NBPLocalizer

    return NBPLocalizer(
        prior=ctx.prior,
        config=NBPConfig(n_particles=150, n_iterations=4),
    ).localize(ctx.measurements, np.random.default_rng(ctx.spec.seed))


def _run_joint(ctx: ScenarioContext) -> LocalizationResult:
    """bn-pk-joint at the harness's compact settings.

    Compared statistically against the fixed-model grid run: on the
    corpus's RSSI scenario the joint method may pick a different (better
    calibrated) exponent, but must stay in the same accuracy band and
    keep full coverage.
    """
    from repro.core.jointchannel import JointChannelConfig, JointChannelLocalizer

    cfg = JointChannelConfig(
        grid=_audit_bp_config(),
        em_iterations=2,
    )
    return JointChannelLocalizer(prior=ctx.prior, config=cfg).localize(
        ctx.measurements
    )


def _run_mcmc(ctx: ScenarioContext) -> LocalizationResult:
    from repro.core.mcmc import MCMCConfig, MCMCLocalizer

    return MCMCLocalizer(
        prior=ctx.prior,
        config=MCMCConfig(
            n_chains=2, n_samples=100, burn_in=60, step_scale=0.25
        ),
    ).localize(ctx.measurements, np.random.default_rng(ctx.spec.seed))


def _executor_trial(spec: ScenarioSpec, seed: int) -> list:
    """Module-level (picklable) trial for the worker-count bit case."""
    ctx = ScenarioContext(spec)
    return _run_grid(ctx).estimates.tolist()


def _run_trials_with_workers(ctx: ScenarioContext, n_workers: int) -> list:
    from repro.parallel import run_trials

    return run_trials(
        functools.partial(_executor_trial, ctx.spec),
        n_trials=2,
        seed=ctx.spec.seed,
        n_workers=n_workers,
    )


def _flatten_evaluation(evaluation: dict) -> list:
    """Deterministic nested-list view of an ``evaluate_methods`` result.

    Summaries and message counts only — ``runtimes`` are wall-clock and
    can never be bit-stable across runs.
    """
    rows = []
    for name in sorted(evaluation):
        mr = evaluation[name]
        for summary, messages in zip(mr.summaries, mr.messages):
            rows.append(
                [float(v) for v in dataclasses.astuple(summary)]
                + [float(messages)]
            )
    return rows


def _run_ckpt_evaluation(
    ctx: ScenarioContext,
    interrupt: bool,
    batch_trials: int | None = None,
) -> list:
    """The checkpoint/resume bit case: an evaluation that is aborted after
    its first durable record and resumed from the ledger must match the
    uninterrupted evaluation exactly."""
    from repro.experiments.runner import evaluate_methods, standard_methods

    methods = standard_methods(
        grid_size=10, max_iterations=6, include=["bn-pk", "centroid"]
    )
    cfg = ctx.spec.config
    eval_kwargs = dict(
        n_trials=2, seed=ctx.spec.seed, batch_trials=batch_trials
    )
    if not interrupt:
        return _flatten_evaluation(evaluate_methods(cfg, methods, **eval_kwargs))
    import os
    import tempfile

    from repro.ckpt import Checkpoint, CheckpointAbort

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "ledger.jsonl")
        ck = Checkpoint(path, abort_after=1)
        try:
            evaluate_methods(cfg, methods, checkpoint=ck, **eval_kwargs)
            raise RuntimeError(
                "checkpoint abort hook never fired — the case is not "
                "exercising a resume"
            )
        except CheckpointAbort:
            pass
        finally:
            ck.close()
        return _flatten_evaluation(
            evaluate_methods(cfg, methods, checkpoint=path, **eval_kwargs)
        )


def default_cases() -> list[DiffCase]:
    """The standing case matrix (see module docstring for the tiers)."""
    fault_free = lambda spec: spec.faults is None
    faulted = lambda spec: spec.faults is not None
    ranged = lambda spec: spec.faults is None and spec.config.ranging != "none"
    rssi = lambda spec: spec.faults is None and spec.config.ranging == "rssi"
    # 8-node scenarios keep the exact oracle within its budget.
    tiny = lambda spec: spec.faults is None and spec.config.n_nodes <= 8
    return [
        DiffCase(
            "central-vs-distributed",
            "bit",
            run_ref=_run_grid,
            run_alt=_run_distributed,
            applies=fault_free,
        ),
        DiffCase(
            "solver-vs-reference",
            "bit",
            run_ref=_run_grid,
            run_alt=_run_reference,
            applies=fault_free,
        ),
        DiffCase(
            "cache-warm-vs-cold",
            "bit",
            run_ref=functools.partial(_run_grid, shared_cache=False),
            run_alt=_run_grid_warm,
            applies=fault_free,
        ),
        DiffCase(
            "batched-batch-vs-sequential",
            "bit",
            run_ref=functools.partial(_run_localize_batch, batched=True),
            run_alt=functools.partial(_run_localize_batch, batched=False),
            applies=fault_free,
        ),
        DiffCase(
            "workers-1-vs-2",
            "bit",
            run_ref=functools.partial(_run_trials_with_workers, n_workers=1),
            run_alt=functools.partial(_run_trials_with_workers, n_workers=2),
            applies=fault_free,
            slow=True,
        ),
        DiffCase(
            "ckpt-resume-vs-uninterrupted",
            "bit",
            run_ref=functools.partial(_run_ckpt_evaluation, interrupt=False),
            run_alt=functools.partial(_run_ckpt_evaluation, interrupt=True),
            applies=fault_free,
        ),
        DiffCase(
            "ckpt-resume-vs-uninterrupted-batched",
            "bit",
            run_ref=functools.partial(
                _run_ckpt_evaluation, interrupt=False, batch_trials=2
            ),
            run_alt=functools.partial(
                _run_ckpt_evaluation, interrupt=True, batch_trials=2
            ),
            applies=fault_free,
        ),
        DiffCase(
            "multires-vs-grid",
            "statistical",
            run_ref=functools.partial(_run_grid, grid_size=12),
            run_alt=_run_multires,
            tol=0.35,
            applies=fault_free,
        ),
        DiffCase(
            "nbp-vs-grid",
            "statistical",
            run_ref=_run_grid,
            run_alt=_run_nbp,
            tol=0.75,
            applies=ranged,
        ),
        DiffCase(
            "mcmc-vs-grid",
            "statistical",
            run_ref=_run_grid,
            run_alt=_run_mcmc,
            tol=0.75,
            applies=fault_free,
        ),
        DiffCase(
            "joint-vs-fixed",
            "statistical",
            run_ref=_run_grid,
            run_alt=_run_joint,
            tol=0.35,
            applies=rssi,
        ),
        DiffCase(
            "grid-vs-exact",
            "exact",
            run_ref=functools.partial(_run_grid, **_EXACT_BP),
            run_alt=functools.partial(_run_exact, **_EXACT_BP),
            tol=1e-6,
            applies=tiny,
        ),
        DiffCase(
            "faulted-distributed-invariants",
            "invariant",
            run_ref=functools.partial(_run_distributed, with_stats=True),
            applies=faulted,
        ),
        DiffCase(
            "grid-invariants",
            "invariant",
            run_ref=_run_grid,
            applies=fault_free,
        ),
    ]


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def run_case(case: DiffCase, ctx: ScenarioContext) -> DiffReport:
    """Execute one case on one built scenario."""
    ref = case.run_ref(ctx)
    violations = _payload_invariants(ref, ctx)
    detail: dict = {}
    passed = True
    if case.tier == "invariant":
        passed = not violations
    else:
        alt = case.run_alt(ctx)
        violations += _payload_invariants(alt, ctx)
        if case.tier == "bit":
            passed, detail = _compare_bit(ref, alt)
        elif case.tier == "exact":
            passed, detail = _compare_exact(ref, alt, case.tol)
        else:
            passed, detail = _compare_statistical(ref, alt, ctx, case.tol)
        passed = passed and not violations
    return DiffReport(
        case=case.name,
        scenario_id=ctx.spec.scenario_id,
        tier=case.tier,
        passed=passed,
        detail=detail,
        violations=violations,
    )


def run_corpus(
    corpus: str | Sequence[ScenarioSpec] = "smoke",
    cases: Sequence[DiffCase] | None = None,
    include_slow: bool = False,
) -> list[DiffReport]:
    """Run the case matrix over a corpus (name or explicit spec list)."""
    specs = make_corpus(corpus) if isinstance(corpus, str) else list(corpus)
    if cases is None:
        cases = default_cases()
    cases = [c for c in cases if include_slow or not c.slow]
    reports: list[DiffReport] = []
    for spec in specs:
        ctx = ScenarioContext(spec)
        for case in cases:
            if not case.applies(spec):
                continue
            reports.append(run_case(case, ctx))
    return reports


def summarize(reports: Sequence[DiffReport]) -> str:
    """Plain-text table of the reports plus a per-tier pass count."""
    if not reports:
        return "no audit cases ran (empty corpus or nothing applied)"
    rows = []
    for r in reports:
        note = ""
        if r.detail.get("mismatch"):
            note = f"mismatch={r.detail['mismatch']}"
        elif r.tier == "statistical":
            note = f"gap={r.detail.get('error_gap')}"
        if r.tier == "exact":
            sep = "; " if note else ""
            note = (
                f"{note}{sep}{r.detail['graph']} "
                f"max_abs={r.detail['max_abs']:.1e} kl={r.detail['max_kl']:.1e}"
            )
        if r.violations:
            sep = "; " if note else ""
            note = f"{note}{sep}{len(r.violations)} invariant violation(s)"
        rows.append((r.case, r.scenario_id, r.tier, r.status, note))
    w0 = max(len(r[0]) for r in rows + [("case",)*1])
    w1 = max(len(r[1]) for r in rows)
    w1 = max(w1, len("scenario"))
    lines = [
        f"{'case':<{w0}}  {'scenario':<{w1}}  {'tier':<11}  {'status':<6}  note",
        "-" * (w0 + w1 + 35),
    ]
    for case, scenario, tier, status, note in rows:
        lines.append(f"{case:<{w0}}  {scenario:<{w1}}  {tier:<11}  {status:<6}  {note}")
    by_tier: dict[str, list[DiffReport]] = {}
    for r in reports:
        by_tier.setdefault(r.tier, []).append(r)
    lines.append("")
    for tier in TIERS:
        if tier in by_tier:
            ok = sum(r.passed for r in by_tier[tier])
            lines.append(f"{tier}: {ok}/{len(by_tier[tier])} passed")
    n_fail = sum(not r.passed for r in reports)
    lines.append(
        "all clear" if n_fail == 0 else f"{n_fail}/{len(reports)} case runs FAILED"
    )
    return "\n".join(lines)
