"""Batched trial-axis grid-BP kernel.

A batch of *compatible* problems (same grid shape/extent, same ``K``,
equal config — different networks, priors, seeds) runs every synchronous
sum-product round as **one stacked tensor pass**: the trials' directed
message slots are concatenated into one ``(ΣT n_dir, K)`` block (a
block-diagonal union of independent graphs), so each round costs one set
of numpy kernel invocations for the whole batch instead of one per
trial.  All trials share whatever warm
:class:`~repro.core.potentials.PotentialCacheRegistry` kernels the
caller prepared — identical CSR objects across trials land in one
cross-trial mat-mat group.

Execution layout:

* the plan is built from **index arrays**, once per batch: the slots'
  endpoint maps and trial ids come from one ``(E, 2)`` edge array, and
  the operator groups from one ``np.unique`` over the slots' operator
  ids, numbered in first-appearance order (one ``issparse`` call per
  distinct operator); an active-set rebuild selects its slots with
  masks over that grouped order, and the first one fills the uniform
  start (``1/K`` and its ``log``) straight into the round buffers;
* the stacked slots are stored **operator-grouped** — every slot sharing
  one CSR kernel occupies a contiguous row block — so each round's
  mat-mat consumes and produces contiguous slabs with no per-round
  gather/scatter around the sparse products;
* all round state (message/log-message double buffers, the chunk
  scratch slabs, the product slabs, the degree-pass staging rows) is
  **preallocated once per active-set rebuild** and reused every round:
  the hot loop performs no large allocations, so neither the allocator
  nor first-touch page faults appear in steady state;
* consecutive operator groups are packed into **chunks** of at most
  ``_CHUNK_BYTES`` (a larger group is a chunk of its own), and each
  chunk's row-wise steps — gather ``h``, reverse subtraction, max-shift,
  weights, normalize/damp/floor, residual, ``log`` — run once on a slab
  that stays cache-resident; only the sparse product runs per group, on
  one shared pair of ``K × max_group_rows`` slabs.  (A group slab is
  just ~18 KB at K = 144, so per-group passes were per-call overhead;
  a whole-block pass falls out of cache at K = 576);
* message weights come from the shared cutoff function
  :func:`~repro.kernels.reference._message_weights`: weights at or below
  ~1e-250 are exactly 0, so neither ``exp`` nor the sparse product ever
  touches a subnormal float (with the pre-knowledge priors most cells sit
  hundreds to thousands of nats below a node's mode, and subnormal
  arithmetic, not the flop count, dominated the round); beliefs get the
  same cut through :func:`~repro.kernels.reference._belief_weights`, so
  no belief entry the estimate or a stream prior reads is subnormal;
* the sparse product calls scipy's own ``csr_matvecs`` kernel directly
  on the preallocated slabs (zero-filled output, C-contiguous
  multivector) — the exact computation ``op.dot`` performs after its
  internal copies, minus the copies.

Bit-identity with the plain per-node loop of
:mod:`repro.kernels.reference` (regression-gated by
``tests/test_kernels.py`` and the ``repro.audit`` bit-tier DiffCases)
rests on these facts:

* independent graphs never interact: stacking is block-diagonal, and
  every elementwise / row-wise step of a round touches each trial's rows
  exactly as the per-node loop would;
* per-node message-product accumulation replays the plain loop's exact
  fadd sequence — the degree-pass formulation adds each destination's
  incoming messages in ascending (original) slot order, one rank per
  pass, and rows within a pass are unique (distinct accumulators commute
  trivially);
* scipy's CSR mat-mat accumulates each column in the same index order as
  its mat-vec kernel, so cross-trial groups (including slots that are
  singletons within their own trial) are bit-identical to per-slot
  products; dense operators stay on per-slot gemv because BLAS gemm and
  gemv are *not* bit-identical;
* row-wise reductions and elementwise ufuncs are computed per
  C-contiguous row block, so splitting the stacked block into operator
  groups or chunks (whose boundaries fall on group boundaries, so each
  sparse product still sees exactly one group's rows), or permuting
  rows, changes nothing — each row's pairwise sum/max and each
  element's exp/log see identical inputs in identical order;
* ``max`` reductions are order-independent (NaN included — ``np.maximum``
  propagates NaN), so a trial's residual computed as a segment reduction
  over the permuted stacked block equals the per-trial global max;
* every message site — both paths here, the plain loop and the
  distributed agent — turns log weights into weights through the one
  elementwise cutoff function ``_message_weights`` (beliefs through
  ``_belief_weights``, the same cut), so each weight is the same float
  at every site.

Scope: the ``serial`` (Gauss–Seidel) schedule and max-product messaging
are inherently per-trial sequential, so they run on the plain loop
(:func:`~repro.kernels.kernel_for`) and :class:`BatchedBackend` refuses
them.  Per-trial convergence is preserved by masking: a trial that
converges (or hits ``max_iterations``) freezes — its slots drop out of
the active set and its messages never change again, exactly as if its
own loop had ended.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.kernels.base import (
    BPOutcome,
    BPProblem,
    IncompatibleBatchError,
    KernelBackend,
    compatibility_key,
)
from repro.kernels.cancel import deadline_stop
from repro.kernels.reference import _MSG_FLOOR, _belief_weights, _message_weights
from repro.obs import NULL_TRACER, NullTracer

__all__ = ["BatchedBackend"]


def _degree_passes(
    dst: np.ndarray, orig_slots: np.ndarray, pos: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decompose a scatter-add into rank-ordered gather-add passes.

    Pass *d* holds, for every destination with at least ``d+1`` incoming
    slots, its ``d``-th lowest **original** slot (``orig_slots`` carries
    the pre-permutation slot ids; ``pos`` the rows where those slots
    live now).  Executing the passes in order adds each destination's
    messages in ascending original-slot order — the exact fadd sequence
    of ``np.add.at(totals, dst, msgs)`` on the unpermuted block — while
    each individual pass is a plain vectorized gather-add (destination
    rows unique per pass).
    """
    if not len(orig_slots):
        return []
    order = np.lexsort((orig_slots, dst))
    sdst = dst[order]
    new_run = np.empty(len(sdst), dtype=bool)
    new_run[0] = True
    np.not_equal(sdst[1:], sdst[:-1], out=new_run[1:])
    run_id = np.cumsum(new_run) - 1
    run_starts = np.flatnonzero(new_run)
    ranks = np.arange(len(sdst)) - run_starts[run_id]
    passes = []
    for d in range(int(ranks.max()) + 1):
        sel = order[ranks == d]
        passes.append((dst[sel], pos[sel]))
    return passes


#: Byte budget of one round chunk's ``(rows, K)`` float64 slab, chosen by
#: a perfbench sweep over all three workloads (see ROADMAP).
_CHUNK_BYTES = 256 * 1024


def _pack_chunks(group_rows: list[int], row_bytes: int) -> list[tuple[int, int]]:
    """Consecutive operator groups packed into ``[lo, hi)`` chunks that
    fit ``_CHUNK_BYTES``; a group over budget is a chunk of its own."""
    starts, rows = [0], 0
    for g, m in enumerate(group_rows):
        if g > starts[-1] and (rows + m) * row_bytes > _CHUNK_BYTES:
            starts.append(g)
            rows = 0
        rows += m
    return list(zip(starts, starts[1:] + [len(group_rows)])) if group_rows else []


class BatchedBackend(KernelBackend):
    """Stacked trial-axis execution of compatible problem batches."""

    name = "batched"

    def run(self, problem: BPProblem, tracer: NullTracer = NULL_TRACER) -> BPOutcome:
        return self.run_batch([problem], tracer)[0]

    def run_batch(
        self, problems: Sequence[BPProblem], tracer: NullTracer = NULL_TRACER
    ) -> list[BPOutcome]:
        problems = list(problems)
        if not problems:
            return []
        keys = {compatibility_key(p) for p in problems}
        if len(keys) > 1:
            raise IncompatibleBatchError(
                f"cannot co-batch {len(problems)} problems spanning "
                f"{len(keys)} incompatible (grid, K, config) shapes; "
                "group them by repro.kernels.compatibility_key first"
            )
        cfg = problems[0].cfg
        if cfg.schedule == "serial" or cfg.max_product:
            raise ValueError(
                "the batched kernel runs synchronous sum-product only; "
                "serial and max-product problems run on the plain loop "
                "(repro.kernels.kernel_for picks the kernel)"
            )
        return _run_batch_sync(problems, cfg, tracer)


def _csr_matvecs_kernel():
    """scipy's raw CSR multivector product, or ``None`` if unavailable.

    ``op.dot(X)`` on a ``(K, m)`` multivector is exactly ``Y = zeros;
    csr_matvecs(..., X.ravel(), Y.ravel())`` plus scipy's internal
    copies; calling the kernel on preallocated slabs skips the copies
    without touching a single float of the computation.
    """
    try:
        from scipy.sparse import _sparsetools

        return _sparsetools.csr_matvecs
    except Exception:  # pragma: no cover - scipy internals moved
        return None


def _run_batch_sync(
    problems: list[BPProblem], cfg, tracer: NullTracer
) -> list[BPOutcome]:
    from scipy import sparse as _sparse

    csr_matvecs = _csr_matvecs_kernel()

    T = len(problems)
    K = problems[0].n_cells
    n_us = [p.n_unknowns for p in problems]
    n_edges = np.array([len(p.edges) for p in problems], dtype=np.intp)
    n_dirs = (2 * n_edges).tolist()
    node_off = np.concatenate(([0], np.cumsum(n_us))).astype(np.intp)
    n_nodes = int(node_off[-1])
    n_dir = int(2 * n_edges.sum())

    log_phi_all = (
        np.concatenate([p.log_phi for p in problems], axis=0)
        if n_nodes
        else np.empty((0, K))
    )

    # Global directed-slot endpoint maps from one (E, 2) edge array (node
    # indices offset per trial).  Edge e of the batch owns slots 2e (i→j)
    # and 2e+1 (j→i), so ``slot ^ 1`` addresses the reverse slot.
    edge_trial = np.repeat(np.arange(T, dtype=np.intp), n_edges)
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(p.edges for p in problems)),
        dtype=np.intp,
        count=n_dir,
    ).reshape(-1, 2)
    ends += node_off[edge_trial, None]
    src_of = ends.ravel()
    dst_of = ends[:, ::-1].ravel()
    slot_trial = np.repeat(edge_trial, 2)
    swap_of = np.arange(n_dir, dtype=np.intp) ^ 1

    # Cross-trial sparse mat-mat groups keyed by operator identity: the
    # shared potential cache hands identical CSR objects to every trial
    # with the same quantized distance, so groups span the whole batch.
    # Slots that are singletons within their own trial still join a
    # cross-trial group — CSR mat-mat columns are bit-identical to the
    # per-slot mat-vec.  Dense operators stay per-slot (gemv ≠ gemm).
    # One ``np.unique`` over the slots' operator ids gives the groups,
    # numbered in first-appearance order (each group's slots ascending);
    # ``issparse`` runs once per distinct operator.
    slot_ops = [op for p in problems for pair in p.ops for op in pair]
    _ids, first, inverse = np.unique(
        np.fromiter(map(id, slot_ops), dtype=np.uint64, count=n_dir),
        return_index=True,
        return_inverse=True,
    )
    appearance = np.argsort(first)
    group_of = np.empty(len(first), dtype=np.intp)
    group_of[appearance] = np.arange(len(first), dtype=np.intp)
    slot_group = group_of[inverse.reshape(-1)]
    group_ops = [slot_ops[s] for s in first[appearance].tolist()]
    group_sparse = np.array([_sparse.issparse(op) for op in group_ops], dtype=bool)
    sparse_slot = group_sparse[slot_group]
    grouped_slots = np.argsort(slot_group, kind="stable")
    grouped_slots = grouped_slots[sparse_slot[grouped_slots]]
    grouped_gid = slot_group[grouped_slots]
    dense_slots = np.flatnonzero(~sparse_slot)

    # Global-order state: the source of truth between rebuilds and for
    # the (tracing-only) whole-batch belief snapshots.  During rounds
    # the active slots live in the operator-grouped buffers below.  Every
    # trial with an edge is active at the first rebuild, which fills the
    # uniform start straight into those buffers; the global arrays are
    # written by ``sync_global`` before anything reads them.
    messages = np.empty((n_dir, K))
    log_messages = np.empty((n_dir, K))
    uniform = 1.0 / K
    log_uniform = np.log(uniform)  # the float np.log gives every entry

    n_iter = [0] * T
    converged = [nd == 0 for nd in n_dirs]  # edge-less trials are done
    healths = [{"residuals": [], "message_repairs": 0} for _ in range(T)]
    traces: list[list[np.ndarray]] = [[] for _ in range(T)]
    active = np.array([nd > 0 for nd in n_dirs], dtype=bool)

    # Whole-block degree passes for the belief snapshots: each node's
    # incoming log-messages in ascending slot order — the fadd sequence
    # of ``np.add.at(totals, dst_of, log_messages)`` — as plain
    # gather-adds.
    all_slots = np.arange(n_dir, dtype=np.intp)
    belief_passes = _degree_passes(dst_of, all_slots, all_slots)

    def stacked_beliefs() -> np.ndarray:
        # Per node: log_phi + incoming log-messages, row-wise max-shift /
        # exp / normalize — each row identical to the plain loop's
        # beliefs_from().
        totals_b = log_phi_all.copy()
        for rows, pos in belief_passes:
            totals_b[rows] += log_messages[pos]
        if not n_nodes:
            return totals_b
        totals_b -= totals_b.max(axis=1, keepdims=True)
        _belief_weights(totals_b, out=totals_b)
        totals_b /= totals_b.sum(axis=1, keepdims=True)
        return totals_b

    def trial_beliefs(B: np.ndarray, t: int) -> np.ndarray:
        return B[int(node_off[t]) : int(node_off[t + 1])].copy()

    emit_iterations = tracer.enabled and T == 1
    msgs_cum = 0
    trace_rounds = cfg.record_trace or emit_iterations

    # ---------------------------------------------------------------- #
    # Active-set execution plan, rebuilt whenever a trial freezes.  The
    # active slots are permuted into operator-grouped order and split into
    # chunks; every round buffer is preallocated here and reused.
    act_trials: list[int] = []
    act_slots = src_act = swap_pos = None
    passes: list = []
    chunk_plan: list = []  # (a, b, pair_local, [(op, lo, hi, x, y)])
    dense_plan: list = []  # (op, row): per-slot dense products
    by_trial_order = by_trial_starts = None
    Mcur = Mold = Lcur = Lold = None
    Hbuf = Sbuf = Tbuf = Pbuf = rowmax_buf = None
    totals = np.empty_like(log_phi_all)

    def rebuild(first: bool = False) -> None:
        nonlocal act_trials, act_slots, src_act, swap_pos, passes
        nonlocal chunk_plan, dense_plan, by_trial_order, by_trial_starts
        nonlocal Mcur, Mold, Lcur, Lold, Hbuf, Sbuf, Tbuf, Pbuf, rowmax_buf
        act_trials = [t for t in range(T) if active[t]]
        chunk_plan = []
        dense_plan = []
        if not act_trials:
            act_slots = np.empty(0, dtype=np.intp)
            return
        act_mask = active[slot_trial]
        # The active sparse slots, still grouped (groups in
        # first-appearance order), then the active dense slots.
        keep = act_mask[grouped_slots]
        sel = grouped_slots[keep]
        counts = np.bincount(grouped_gid[keep], minlength=len(group_ops))
        present = np.flatnonzero(counts)
        group_hi = np.cumsum(counts[present]).tolist()
        bounds = [
            (group_ops[g], lo, hi)
            for g, lo, hi in zip(present.tolist(), [0] + group_hi, group_hi)
        ]
        dense_sel = dense_slots[act_mask[dense_slots]]
        dense_lo = len(sel)
        act_slots = np.concatenate((sel, dense_sel))
        n_act = len(act_slots)
        pos_of = np.full(n_dir, -1, dtype=np.intp)
        pos_of[act_slots] = np.arange(n_act, dtype=np.intp)
        src_act = src_of[act_slots]
        # A slot's reverse lives in the same trial, so it is active
        # exactly when the slot is — the position map never misses.
        swap_pos = pos_of[swap_of[act_slots]]
        # Within a pass every destination appears once, so the adds
        # commute across rows — reordering entries by source position
        # turns the big Lcur gather into a near-sequential read (the
        # scatter back into the much smaller `totals` stays cheap).
        passes = []
        for rows, pos in _degree_passes(
            dst_of[act_slots], act_slots, np.arange(n_act, dtype=np.intp)
        ):
            order = np.argsort(pos, kind="stable")
            passes.append((rows[order], pos[order]))
        # Passes run one after another, so one pair of scratch slabs
        # sized to the longest pass (at most one row per node) serves
        # them all.
        max_pass = max((len(rows) for rows, _pos in passes), default=0)
        Tbuf = np.empty((max_pass, K))
        Pbuf = np.empty((max_pass, K))
        # Groups run one after another too: every group's transposed
        # multivector and product are views of one shared pair of slabs.
        max_m = max((b - a for _op, a, b in bounds), default=1)
        Xflat = np.empty(K * max_m)
        Yflat = np.empty(K * max_m)
        max_chunk = 1
        for lo, hi in _pack_chunks([b - a for _op, a, b in bounds], K * 8):
            a, b = bounds[lo][1], bounds[hi - 1][2]
            max_chunk = max(max_chunk, b - a)
            # Symmetric ranging kernels reuse one operator for both
            # directions of an edge, so a chunk usually holds whole
            # (fwd, bwd) slot pairs in adjacent positions.  When the
            # chunk's reverse map is exactly that local pair swap, the
            # round can read reverse messages through a strided view of
            # the chunk's own Lcur block instead of a gathered copy.
            pair_local = False
            if (b - a) % 2 == 0:
                expect = np.arange(a, b, dtype=np.intp)
                expect = expect.reshape(-1, 2)[:, ::-1].ravel()
                pair_local = bool(np.array_equal(swap_pos[a:b], expect))
            groups = [
                (op, ga - a, gb - a, Xflat[: K * (gb - ga)], Yflat[: K * (gb - ga)])
                for op, ga, gb in bounds[lo:hi]
            ]
            chunk_plan.append((a, b, pair_local, groups))
        dense_plan = [
            (slot_ops[s], dense_lo + k) for k, s in enumerate(dense_sel.tolist())
        ]
        # Per-trial residual segments: active rows sorted by trial (a
        # static permutation per rebuild) so a single max.reduceat
        # yields every trial's residual, in act_trials order.
        trial_idx = np.searchsorted(np.asarray(act_trials), slot_trial[act_slots])
        by_trial_order = np.argsort(trial_idx, kind="stable")
        sorted_tidx = trial_idx[by_trial_order]
        starts_mask = np.empty(n_act, dtype=bool)
        starts_mask[0] = True
        np.not_equal(sorted_tidx[1:], sorted_tidx[:-1], out=starts_mask[1:])
        by_trial_starts = np.flatnonzero(starts_mask)
        # Double-buffered message state in grouped order, seeded with the
        # uniform start or from the global arrays; plus reusable
        # per-round scratch slabs.
        if first:
            Mcur = np.full((n_act, K), uniform)
            Lcur = np.full((n_act, K), log_uniform)
        else:
            Mcur = messages[act_slots]
            Lcur = log_messages[act_slots]
        Mold = np.empty_like(Mcur)
        Lold = np.empty_like(Lcur)
        Hbuf = np.empty((max_chunk, K))
        Sbuf = np.empty((max_chunk, K))
        rowmax_buf = np.empty(n_act)

    def sync_global() -> None:
        messages[act_slots] = Mcur
        log_messages[act_slots] = Lcur

    rebuild(first=True)
    if trace_rounds and act_trials:
        sync_global()  # the uniform start, for the round-0 snapshots
    if cfg.record_trace:
        B0 = stacked_beliefs()
        for t in range(T):
            traces[t].append(trial_beliefs(B0, t))
    prev_beliefs = stacked_beliefs() if emit_iterations else None

    _deadline_probe: dict = {}
    while act_trials:
        # Cooperative cancellation: all trials in a batch share rounds,
        # so an expired ambient deadline stops every still-active trial
        # between rounds (each gets at least one round; the check is a
        # thread-local read, free when no deadline scope is active).
        if min(n_iter[t] for t in act_trials) >= 1 and deadline_stop(
            _deadline_probe
        ):
            sync_global()  # commit the completed rounds' messages
            for t in act_trials:
                healths[t]["deadline_stop"] = True
                active[t] = False
            break
        # One stacked synchronous round over every active trial.  New
        # messages are written into the "old" buffers, then the pairs
        # swap — the previous round's state stays intact for damping,
        # residuals, and the NaN-repair path.
        Mnew, Lnew = Mold, Lold
        np.copyto(totals, log_phi_all)
        for rows, pos in passes:
            Tb = Tbuf[: len(rows)]
            Pb = Pbuf[: len(rows)]
            np.take(Lcur, pos, axis=0, out=Pb)
            np.take(totals, rows, axis=0, out=Tb)
            Tb += Pb
            totals[rows] = Tb

        for a, b, pair_local, groups in chunk_plan:
            Hc = Hbuf[: b - a]
            Sc = Sbuf[: b - a]
            np.take(totals, src_act[a:b], axis=0, out=Hc)
            if pair_local:
                # Reverse messages are this block's rows pair-swapped:
                # subtract through the strided view, no gather.
                sw = Lcur[a:b].reshape(-1, 2, K)[:, ::-1, :]
                Hc3 = Hc.reshape(-1, 2, K)
                np.subtract(Hc3, sw, out=Hc3)
            else:
                np.take(Lcur, swap_pos[a:b], axis=0, out=Sc)
                np.subtract(Hc, Sc, out=Hc)
            Hc -= Hc.max(axis=1, keepdims=True)
            _message_weights(Hc, out=Hc)
            res = Mnew[a:b]
            for op, lo, hi, x, y in groups:
                if csr_matvecs is not None:
                    m = hi - lo
                    x.reshape(K, m)[...] = Hc[lo:hi].T
                    y.fill(0.0)
                    csr_matvecs(K, K, m, op.indptr, op.indices, op.data, x, y)
                    res[lo:hi] = y.reshape(K, m).T
                else:  # pragma: no cover - exercised only on exotic scipys
                    res[lo:hi] = op.dot(Hc[lo:hi].T).T
            # commit_rows, reference-exact, while the slab is cache-hot.
            prev = Mcur[a:b]
            sums = res.sum(axis=1)
            bad = sums <= 0
            if bad.any():
                res[bad] = 1.0 / K
                sums[bad] = 1.0
            res /= sums[:, None]
            if cfg.damping > 0:
                res *= 1 - cfg.damping
                np.multiply(prev, cfg.damping, out=Sc)
                res += Sc
                res /= res.sum(axis=1)[:, None]
            np.maximum(res, _MSG_FLOOR, out=res)
            np.subtract(res, prev, out=Sc)
            np.abs(Sc, out=Sc)
            rowmax_buf[a:b] = Sc.max(axis=1)
            np.log(res, out=Lnew[a:b])

        for op, r in dense_plan:
            h = totals[src_act[r]] - Lcur[swap_pos[r]]
            h -= h.max()
            hvec = _message_weights(h, out=h)
            res1 = op.dot(hvec)[None, :]
            prev1 = Mcur[r : r + 1]
            sums = res1.sum(axis=1)
            bad = sums <= 0
            if bad.any():
                res1[bad] = 1.0 / K
                sums[bad] = 1.0
            res1 /= sums[:, None]
            if cfg.damping > 0:
                res1 *= 1 - cfg.damping
                res1 += cfg.damping * prev1
                res1 /= res1.sum(axis=1)[:, None]
            np.maximum(res1, _MSG_FLOOR, out=res1)
            Mnew[r] = res1[0]
            rowmax_buf[r] = float(np.abs(res1 - prev1).max())
            Lnew[r] = np.log(res1[0])

        Mcur, Mold = Mnew, Mcur
        Lcur, Lold = Lnew, Lcur

        # Per-trial residuals: segment max over each trial's rows
        # (order-independent, NaN-propagating — equals the per-trial
        # global max).
        deltas = np.maximum.reduceat(rowmax_buf[by_trial_order], by_trial_starts)

        froze = False
        for ti, t in enumerate(act_trials):
            md = float(deltas[ti])
            if cfg.health_checks and not np.isfinite(md):
                # Same repair as the per-trial kernel, restricted to
                # this trial's rows (Mold still holds the pre-round
                # messages for the residual recompute).
                from repro.core.health import repair_nonfinite_messages

                seg_end = (
                    by_trial_starts[ti + 1]
                    if ti + 1 < len(by_trial_starts)
                    else len(by_trial_order)
                )
                rows = by_trial_order[by_trial_starts[ti] : seg_end]
                block = Mcur[rows]
                healths[t]["message_repairs"] += repair_nonfinite_messages(block)
                Mcur[rows] = block
                Lcur[rows] = np.log(block)
                with np.errstate(invalid="ignore"):
                    dd = np.abs(block - Mold[rows])
                md = float(np.nanmax(np.where(np.isfinite(dd), dd, 1.0)))
            healths[t]["residuals"].append(md)
            n_iter[t] += 1
            if md < cfg.tol:
                converged[t] = True
                active[t] = False
                froze = True
            elif n_iter[t] >= cfg.max_iterations:
                active[t] = False
                froze = True

        if trace_rounds or froze:
            sync_global()
        if cfg.record_trace:
            B = stacked_beliefs()
            for t in act_trials:
                traces[t].append(trial_beliefs(B, t))
        if emit_iterations:
            new_beliefs = stacked_beliefs()
            changed = int(
                np.count_nonzero(
                    np.abs(new_beliefs - prev_beliefs).max(axis=1) > cfg.tol
                )
            )
            prev_beliefs = new_beliefs
            round_msgs = n_dirs[0]
            msgs_cum += round_msgs
            tracer.iteration(
                residual=healths[0]["residuals"][-1],
                beliefs_changed=changed,
                messages=round_msgs,
                messages_cum=msgs_cum,
                bytes_cum=msgs_cum * K * 8,
            )
        if froze:
            rebuild()

    B = stacked_beliefs()
    return [
        BPOutcome(
            beliefs=trial_beliefs(B, t),
            n_iterations=n_iter[t],
            converged=bool(converged[t]),
            trace=traces[t],
            health=healths[t],
        )
        for t in range(T)
    ]
