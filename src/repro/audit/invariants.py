"""Runtime invariant guards shared by every solver.

Each checker is a pure function mapping solver state to a list of
:class:`AuditViolation` — empty on healthy state.  Every solver runs its
checks (:func:`audit_localization_result` and friends) through the one
hook :func:`run_audit`, behind ``GridBPConfig(audit=...)`` or the
``REPRO_AUDIT`` environment toggle, so the default path pays exactly one
``None`` check per run.  Violations are reported through the solver's
:class:`~repro.obs.Tracer` (counter ``audit_violations`` +
per-violation annotations) and then either warned (``"warn"``) or
raised (``"raise"``) via :class:`AuditError`.

The invariants encode what *must* hold for any correct run, independent of
scenario or schedule:

* beliefs are finite, non-negative, and sum to 1;
* committed messages sit on or above the message floor;
* pairwise potentials claimed symmetric actually are;
* message/byte accounting is conserved between per-round stats and the
  result totals (and follows the shared anchor-broadcast convention);
* every estimate of a localized node is finite and inside the field;
* ``localized_mask`` is a superset of ``anchor_mask``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AuditError",
    "AuditViolation",
    "Auditor",
    "resolve_audit_mode",
    "run_audit",
    "check_belief_matrix",
    "check_belief_dict",
    "check_message_floor",
    "check_symmetric_ops",
    "check_result_geometry",
    "check_round_accounting",
    "check_delay_conservation",
    "audit_localization_result",
]

#: environment toggle: "" / "0" / "off" → disabled, "warn" → warn,
#: anything else ("1", "raise", …) → raise
_ENV_VAR = "REPRO_AUDIT"

_MODES = (None, "off", "warn", "raise")


class AuditError(AssertionError):
    """An invariant violation escalated by ``audit="raise"``."""

    def __init__(self, violations: list["AuditViolation"]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} audit violation(s):"]
        lines += [f"  - {v}" for v in self.violations]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant.

    ``name`` identifies the invariant (stable, test-friendly), ``message``
    is human-readable, ``context`` carries scalar diagnostics (offending
    node id, max deviation, …).
    """

    name: str
    message: str
    context: dict = field(default_factory=dict)

    def __str__(self) -> str:
        ctx = ""
        if self.context:
            ctx = " (" + ", ".join(f"{k}={v}" for k, v in sorted(self.context.items())) + ")"
        return f"[{self.name}] {self.message}{ctx}"


def resolve_audit_mode(config_mode: str | None = None) -> str | None:
    """Effective audit mode: the config field, else the env toggle.

    Returns ``"warn"``, ``"raise"``, or ``None`` (off).  A config value of
    ``"off"`` disables auditing even when the environment enables it.
    """
    if config_mode is not None:
        if config_mode not in _MODES:
            raise ValueError(
                f"audit must be one of {_MODES}, got {config_mode!r}"
            )
        return None if config_mode == "off" else config_mode
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env in ("", "0", "off", "false"):
        return None
    return "warn" if env == "warn" else "raise"


class Auditor:
    """Collects violations during one solver run and reports them once.

    Parameters
    ----------
    mode:
        ``"warn"`` or ``"raise"`` (construct only when auditing is on).
    tracer:
        The solver's tracer; violations increment the
        ``audit_violations`` counter so traced sweeps surface them.
    solver:
        Name prefixed to warning text.
    """

    def __init__(self, mode: str, tracer=None, solver: str = "") -> None:
        if mode not in ("warn", "raise"):
            raise ValueError(f"Auditor mode must be 'warn' or 'raise', got {mode!r}")
        self.mode = mode
        self.tracer = tracer
        self.solver = solver
        self.violations: list[AuditViolation] = []

    def extend(self, violations: list[AuditViolation]) -> None:
        self.violations.extend(violations)

    def finish(self) -> None:
        """Report everything collected; raises under ``"raise"`` mode."""
        if not self.violations:
            return
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.count("audit_violations", len(self.violations))
            self.tracer.annotate(
                "audit_first_violation", str(self.violations[0])
            )
        if self.mode == "raise":
            raise AuditError(self.violations)
        prefix = f"{self.solver}: " if self.solver else ""
        warnings.warn(
            f"{prefix}{AuditError(self.violations)}", RuntimeWarning, stacklevel=3
        )


def run_audit(config_mode: str | None, solver: str, tracer, checks) -> None:
    """A solver run's invariant guards: the one audit hook every solver
    calls after building its result.

    *checks* is a zero-argument callable returning the run's
    :class:`AuditViolation` list; it runs only when auditing is on
    (:func:`resolve_audit_mode` of *config_mode*), so the off path costs
    one config check plus one environment lookup.  Observation-only:
    never mutates the result.  Violations are reported by an
    :class:`Auditor` on *tracer* under *solver*'s name; a warning is
    attributed to the frame that called this function.
    """
    mode = resolve_audit_mode(config_mode)
    if mode is None:
        return
    auditor = Auditor(mode, tracer=tracer, solver=solver)
    auditor.extend(checks())
    auditor.finish()


# --------------------------------------------------------------------- #
# checkers
# --------------------------------------------------------------------- #
def check_belief_matrix(
    beliefs: np.ndarray, atol: float = 1e-8, what: str = "belief"
) -> list[AuditViolation]:
    """Rows must be finite, non-negative, and sum to 1 (within *atol*)."""
    out: list[AuditViolation] = []
    beliefs = np.asarray(beliefs, dtype=np.float64)
    if beliefs.ndim == 1:
        beliefs = beliefs[None, :]
    finite = np.isfinite(beliefs).all(axis=1)
    if not finite.all():
        rows = np.flatnonzero(~finite)
        out.append(
            AuditViolation(
                "belief-finite",
                f"{what} rows contain NaN/Inf",
                {"rows": int(rows[0]), "n_bad": int(len(rows))},
            )
        )
    neg = (beliefs < 0).any(axis=1) & finite
    if neg.any():
        rows = np.flatnonzero(neg)
        out.append(
            AuditViolation(
                "belief-nonnegative",
                f"{what} rows contain negative mass",
                {"rows": int(rows[0]), "n_bad": int(len(rows))},
            )
        )
    sums = beliefs[finite].sum(axis=1) if finite.any() else np.empty(0)
    if len(sums) and np.abs(sums - 1.0).max() > atol:
        dev = float(np.abs(sums - 1.0).max())
        out.append(
            AuditViolation(
                "belief-normalized",
                f"{what} rows deviate from unit mass",
                {"max_deviation": dev},
            )
        )
    return out


def check_belief_dict(
    beliefs: dict, atol: float = 1e-8, what: str = "belief"
) -> list[AuditViolation]:
    """Dict-of-vectors variant (solver ``extras['beliefs']`` payloads)."""
    if not beliefs:
        return []
    mat = np.stack([np.asarray(beliefs[k], dtype=np.float64) for k in sorted(beliefs)])
    return check_belief_matrix(mat, atol=atol, what=what)


def check_message_floor(
    messages, floor: float, what: str = "message"
) -> list[AuditViolation]:
    """Committed messages must sit on or above the solver's floor.

    Accepts an ``(n, K)`` array or an iterable of vectors.
    """
    if isinstance(messages, np.ndarray):
        stacked = messages
    else:
        vecs = [np.asarray(m, dtype=np.float64) for m in messages]
        if not vecs:
            return []
        stacked = np.stack(vecs)
    with np.errstate(invalid="ignore"):
        below = stacked < floor
    bad = ~np.isfinite(stacked)
    if bad.any():
        return [
            AuditViolation(
                "message-finite",
                f"{what}s contain NaN/Inf",
                {"n_bad": int(bad.sum())},
            )
        ]
    if below.any():
        return [
            AuditViolation(
                "message-floor",
                f"{what}s fall below the floor {floor:g}",
                {"min": float(stacked.min()), "n_below": int(below.sum())},
            )
        ]
    return []


def check_symmetric_ops(ops, edges=None) -> list[AuditViolation]:
    """Edge operators claimed symmetric must satisfy ``fwd == bwdᵀ``.

    *ops* is the solver's list of ``(fwd, bwd)`` pairs.  When fwd *is*
    bwd (the pure-ranging case) the operator itself must be symmetric;
    oriented pairs (bearings) must be exact transposes of each other.
    """
    from scipy import sparse

    out: list[AuditViolation] = []
    for e, (fwd, bwd) in enumerate(ops):
        if sparse.issparse(fwd):
            delta = (fwd - sparse.csr_matrix(bwd).T)
            dev = float(np.abs(delta.data).max()) if delta.nnz else 0.0
        else:
            dev = float(np.abs(np.asarray(fwd) - np.asarray(bwd).T).max())
        if dev > 0.0:
            ctx = {"edge_index": e, "max_deviation": dev}
            if edges is not None:
                ctx["edge"] = str(tuple(edges[e]))
            out.append(
                AuditViolation(
                    "potential-symmetric",
                    "edge operator pair is not a transpose pair",
                    ctx,
                )
            )
    return out


def check_result_geometry(
    result, width: float, height: float, anchor_mask: np.ndarray | None = None
) -> list[AuditViolation]:
    """Estimates of localized nodes must be finite and inside the field;
    ``localized_mask`` must cover every anchor."""
    out: list[AuditViolation] = []
    est = result.estimates
    mask = result.localized_mask
    loc = est[mask]
    if len(loc) and not np.isfinite(loc).all():
        out.append(
            AuditViolation(
                "estimate-finite",
                "localized nodes carry non-finite estimates",
                {"n_bad": int((~np.isfinite(loc).all(axis=1)).sum())},
            )
        )
    else:
        inside = (
            (loc[:, 0] >= 0.0)
            & (loc[:, 0] <= width)
            & (loc[:, 1] >= 0.0)
            & (loc[:, 1] <= height)
        ) if len(loc) else np.ones(0, dtype=bool)
        if len(loc) and not inside.all():
            worst = loc[~inside][0]
            out.append(
                AuditViolation(
                    "estimate-in-field",
                    f"estimates leave the [0, {width}] × [0, {height}] field",
                    {
                        "n_outside": int((~inside).sum()),
                        "example": f"({worst[0]:.4f}, {worst[1]:.4f})",
                    },
                )
            )
    if anchor_mask is not None:
        anchor_mask = np.asarray(anchor_mask, dtype=bool)
        missing = anchor_mask & ~mask
        if missing.any():
            out.append(
                AuditViolation(
                    "localized-superset-anchors",
                    "anchors missing from localized_mask",
                    {"n_missing": int(missing.sum())},
                )
            )
    return out


def check_round_accounting(
    result,
    round_stats,
    anchor_broadcasts: int,
    anchor_broadcast_bytes: int,
    msg_bytes: int,
) -> list[AuditViolation]:
    """Byte/message conservation between ``RoundStats`` and the result.

    The per-round ledger must internally follow the shared convention
    (``bytes == messages × msg_bytes``) and must sum — together with the
    anchor broadcasts — to exactly the totals the result reports.
    """
    out: list[AuditViolation] = []
    for s in round_stats:
        if s.bytes != s.messages * msg_bytes:
            out.append(
                AuditViolation(
                    "round-bytes-convention",
                    "round bytes disagree with messages × message size",
                    {"round": s.round_index, "messages": s.messages, "bytes": s.bytes},
                )
            )
    total_msgs = anchor_broadcasts + sum(s.messages for s in round_stats)
    total_bytes = anchor_broadcasts * anchor_broadcast_bytes + sum(
        s.bytes for s in round_stats
    )
    if result.messages_sent != total_msgs:
        out.append(
            AuditViolation(
                "accounting-messages-conserved",
                "result message total disagrees with the round ledger",
                {"result": int(result.messages_sent), "ledger": int(total_msgs)},
            )
        )
    if result.bytes_sent != total_bytes:
        out.append(
            AuditViolation(
                "accounting-bytes-conserved",
                "result byte total disagrees with the round ledger",
                {"result": int(result.bytes_sent), "ledger": int(total_bytes)},
            )
        )
    return out


def check_delay_conservation(counters: dict) -> list[AuditViolation]:
    """Every delayed message must be accounted for at end of run.

    The injector's ledger: ``messages_delayed`` enter the delay queue and
    leave it exactly one way — delivered late, expired against a downed
    receiver, or still in flight when the run ends
    (:meth:`~repro.faults.MessageFaultInjector.finalize`).  A gap means
    messages silently vanished from the accounting.
    """
    delayed = int(counters.get("messages_delayed", 0))
    late = int(counters.get("messages_arrived_late", 0))
    expired = int(counters.get("messages_delayed_expired", 0))
    in_flight = int(counters.get("messages_in_flight_at_end", 0))
    if delayed != late + expired + in_flight:
        return [
            AuditViolation(
                "delay-conservation",
                "delayed messages are not conserved "
                "(delayed != arrived_late + expired + in_flight_at_end)",
                {
                    "delayed": delayed,
                    "arrived_late": late,
                    "expired": expired,
                    "in_flight_at_end": in_flight,
                },
            )
        ]
    return []


def audit_localization_result(
    result, width: float, height: float, anchor_mask=None, belief_atol: float = 1e-8
) -> list[AuditViolation]:
    """The result-level invariant bundle every localizer can run as-is."""
    out = check_result_geometry(result, width, height, anchor_mask)
    beliefs = result.extras.get("beliefs") if isinstance(result.extras, dict) else None
    if isinstance(beliefs, dict):
        out += check_belief_dict(beliefs, atol=belief_atol)
    elif isinstance(beliefs, np.ndarray):
        out += check_belief_matrix(beliefs, atol=belief_atol)
    return out
