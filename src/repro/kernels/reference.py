"""The plain per-node grid-BP loop.

:func:`run_bp_baseline` is the readable definition of loopy BP over the
grid: every directed message gets its own mat-vec, and message logs are
recomputed where they are used.  It runs the serial (Gauss–Seidel) and
max-product schedules, and it is the bit-identity reference the batched
kernel (:mod:`repro.kernels.batched`) is gated against on the synchronous
schedule.

Every message site turns its max-shifted log weights into product weights
through :func:`_message_weights`, and every belief site turns a node's
max-shifted log belief into its unnormalized belief through
:func:`_belief_weights`: the plain loop here (sum- and max-product), both
paths of the batched kernel and the distributed agent of
:mod:`repro.parallel.messaging`.  Both apply one cut, :func:`_cut_exp`,
which zeroes every weight at or below ``exp(_MSG_LOG_CUTOFF)`` (about
1e-250), so neither message arithmetic nor any reader of a belief (the
estimate's moments, the stream prior's diffusion) enters the subnormal
range, where x86 floats run 100×+ slower.  A dropped message weight
carries ~238 orders of magnitude less mass than ``_MSG_FLOOR``; a dropped
belief entry is far below the ulp of every sum it would join, so
estimates do not move.  Because every site shares the one cut, the
bit-identity gates between sites hold by construction.

:class:`ReferenceBackend` wraps it behind the
:class:`~repro.kernels.base.KernelBackend` interface; its ``run_batch`` is
the default per-problem loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import BPOutcome, BPProblem, KernelBackend
from repro.kernels.cancel import deadline_stop
from repro.obs import NULL_TRACER, NullTracer

__all__ = [
    "run_bp_baseline",
    "ReferenceBackend",
    "_MSG_FLOOR",
    "_MSG_LOG_CUTOFF",
    "_belief_weights",
    "_max_product_matvec",
    "_message_weights",
]

_MSG_FLOOR = 1e-12  # keeps log-space products finite after truncation
# Message and belief weights at or below exp(_MSG_LOG_CUTOFF) ≈ 1e-250 are
# exactly 0.
_MSG_LOG_CUTOFF = float(np.log(1e-250))
_MSG_WEIGHT_CUTOFF = float(np.exp(_MSG_LOG_CUTOFF))


def _cut_exp(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(h)`` of max-shifted log weights *h*, cut to exactly 0 at and
    below ``exp(_MSG_LOG_CUTOFF)``.

    ``h`` is clamped at the cutoff before ``exp`` runs, so ``exp`` never
    sees an input whose result would be subnormal (or an underflow, which
    is just as slow); the clamped entries come out as
    ``_MSG_WEIGHT_CUTOFF`` and are then multiplied by 0.  Every kept
    weight is bit-equal to ``np.exp(h)``; NaN propagates (``np.maximum``
    keeps it and ``NaN * 0`` is NaN), so the non-finite repair still
    triggers.  *out* may alias *h*.
    """
    out = np.maximum(h, _MSG_LOG_CUTOFF, out=out)
    np.exp(out, out=out)
    np.multiply(out, out > _MSG_WEIGHT_CUTOFF, out=out)
    return out


def _message_weights(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Product weights of a message's max-shifted log weights *h*
    (:func:`_cut_exp`); every message site calls it."""
    return _cut_exp(h, out)


def _belief_weights(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized belief of a node's max-shifted log belief *h*
    (:func:`_cut_exp`); every belief site calls it.  Kept apart from
    :func:`_message_weights` so each function's calls count one kind of
    row."""
    return _cut_exp(h, out)


def _max_product_matvec(op, hvec: np.ndarray) -> np.ndarray:
    """``out[j] = max_k op[j, k] · h[k]`` — the max-product analogue of
    ``op @ h`` (same operator orientation as the sum-product message).

    Implicit sparse zeros contribute 0, which is the correct floor since
    potentials and h are non-negative.
    """
    from scipy import sparse

    if sparse.issparse(op):
        scaled = op.multiply(hvec[None, :]).tocsr()
        return np.asarray(scaled.max(axis=1).todense()).ravel()
    return (op * hvec[None, :]).max(axis=1)


def run_bp_baseline(
    log_phi: np.ndarray,
    edges: list[tuple[int, int]],
    ops: list[tuple],
    grid,
    cfg,
    tracer: NullTracer = NULL_TRACER,
) -> tuple[np.ndarray, int, bool, list[np.ndarray], dict]:
    """Loopy BP over unknown-unknown edges, one node at a time.

    *ops[e]* is the oriented operator pair ``(fwd, bwd)`` of edge *e*.
    ``cfg.schedule`` picks synchronous or serial (Gauss–Seidel) rounds and
    ``cfg.max_product`` swaps the sum-product mat-vec for a max-product
    one.  Returns normalized beliefs ``(n_unknown, K)``, iteration count,
    convergence flag, (if ``cfg.record_trace``) per-iteration beliefs,
    and a health dict with the residual history and the count of
    non-finite messages repaired to uniform (always 0 on numerically
    healthy runs — the repair triggers only off a single NaN/Inf float
    check per round).  An enabled *tracer* additionally receives one
    iteration record per round (message residual, beliefs-changed count,
    message/byte spend); tracing only reads the state, never alters it.
    """
    n_u, K = log_phi.shape
    # Directed message storage: for each undirected edge e=(i,j), slot
    # 2e is i->j and 2e+1 is j->i.
    n_dir = 2 * len(edges)
    messages = np.full((n_dir, K), 1.0 / K)
    in_slots: list[list[int]] = [[] for _ in range(n_u)]  # messages INTO node
    out_slots: list[list[tuple[int, int, int]]] = [
        [] for _ in range(n_u)
    ]  # (slot, edge_index, recipient)
    for e, (i, j) in enumerate(edges):
        in_slots[j].append(2 * e)
        in_slots[i].append(2 * e + 1)
        out_slots[i].append((2 * e, e, j))
        out_slots[j].append((2 * e + 1, e, i))

    def node_log_in(ui: int) -> np.ndarray:
        acc = log_phi[ui].copy()
        for s in in_slots[ui]:
            acc += np.log(messages[s])
        return acc

    def beliefs_from(msgs: np.ndarray) -> np.ndarray:
        out = np.empty((n_u, K))
        for ui in range(n_u):
            acc = log_phi[ui].copy()
            for s in in_slots[ui]:
                acc += np.log(msgs[s])
            acc -= acc.max()
            b = _belief_weights(acc, out=acc)
            out[ui] = b / b.sum()
        return out

    converged = False
    n_iter = 0
    trace: list[np.ndarray] = []
    health = {"residuals": [], "message_repairs": 0}
    if cfg.record_trace:
        # Iteration 0: unary-only beliefs (prior + anchor evidence,
        # before any cooperation) — the natural convergence baseline.
        trace.append(beliefs_from(messages))
    if not edges:
        return beliefs_from(messages), 0, True, trace, health

    prev_beliefs = beliefs_from(messages) if tracer.enabled else None
    round_msgs = 2 * len(edges)
    msgs_cum = 0
    serial = cfg.schedule == "serial"
    for n_iter in range(1, cfg.max_iterations + 1):
        # Cooperative cancellation: an expired ambient deadline stops the
        # loop between rounds (at least one round always runs); the
        # check is a thread-local read, free when no scope is active.
        if n_iter > 1 and deadline_stop(health):
            n_iter -= 1
            break
        # "sync" computes the whole round from the previous round's
        # messages; "serial" commits each node's messages immediately
        # so later nodes in the sweep see them.
        new_messages = messages if serial else np.empty_like(messages)
        old_messages = messages.copy() if serial else messages
        for ui in range(n_u):
            if not out_slots[ui]:
                continue
            # In serial mode `messages` aliases `new_messages`, so this
            # reads the freshest values (Gauss–Seidel); in sync mode it
            # reads the previous round.
            total = node_log_in(ui)
            for slot, e, _dst in out_slots[ui]:
                # Exclude the recipient's own message (slot^1 is the
                # reverse direction, which feeds INTO ui).
                back = slot ^ 1
                h = total - np.log(messages[back])
                h -= h.max()
                hvec = _message_weights(h, out=h)
                # slot parity picks the operator orientation: even
                # slots are i→j (fwd), odd are j→i (bwd).
                op = ops[e][slot & 1]
                if cfg.max_product:
                    msg = _max_product_matvec(op, hvec)
                else:
                    msg = op.dot(hvec)
                s = msg.sum()
                if s <= 0:
                    msg = np.full(K, 1.0 / K)
                else:
                    msg = msg / s
                if cfg.damping > 0:
                    prev = old_messages[slot] if serial else messages[slot]
                    msg = (1 - cfg.damping) * msg + cfg.damping * prev
                    msg = msg / msg.sum()
                np.maximum(msg, _MSG_FLOOR, out=msg)
                new_messages[slot] = msg
        max_delta = float(np.abs(new_messages - old_messages).max())
        if cfg.health_checks and not np.isfinite(max_delta):
            # A NaN/Inf somewhere in the round's messages (corrupted
            # potentials / degenerate inputs): repair the offending
            # rows to uniform so BP can keep going.  The trigger is a
            # single float check, so healthy rounds pay nothing.
            from repro.core.health import repair_nonfinite_messages

            health["message_repairs"] += repair_nonfinite_messages(new_messages)
            with np.errstate(invalid="ignore"):
                deltas = np.abs(new_messages - old_messages)
            max_delta = float(np.nanmax(np.where(np.isfinite(deltas), deltas, 1.0)))
        health["residuals"].append(max_delta)
        messages = new_messages
        if cfg.record_trace:
            trace.append(beliefs_from(messages))
        if tracer.enabled:
            new_beliefs = beliefs_from(messages)
            changed = int(
                np.count_nonzero(
                    np.abs(new_beliefs - prev_beliefs).max(axis=1) > cfg.tol
                )
            )
            prev_beliefs = new_beliefs
            msgs_cum += round_msgs
            tracer.iteration(
                residual=max_delta,
                beliefs_changed=changed,
                messages=round_msgs,
                messages_cum=msgs_cum,
                bytes_cum=msgs_cum * K * 8,
            )
        if max_delta < cfg.tol:
            converged = True
            break

    return beliefs_from(messages), n_iter, converged, trace, health


class ReferenceBackend(KernelBackend):
    """Per-problem execution on the plain loop: every problem runs its
    own :func:`run_bp_baseline`."""

    name = "reference"

    def run(self, problem: BPProblem, tracer: NullTracer = NULL_TRACER) -> BPOutcome:
        return BPOutcome(
            *run_bp_baseline(
                problem.log_phi,
                problem.edges,
                problem.ops,
                problem.grid,
                problem.cfg,
                tracer,
            )
        )
