"""The fault-tolerant streaming tracking runtime.

Measurement epochs for many concurrent mobile networks arrive as one
event stream; each network's belief updates incrementally — grid BP
warm-started from the previous step's motion-diffused posterior
(:class:`~repro.priors.GridBeliefPrior`) instead of a cold re-solve.
Robustness is the headline contract:

* **Hostile stream.**  Per-network watermarks with bounded reordering
  buffers absorb out-of-order and duplicate epochs; epochs arriving
  behind the watermark are discarded (counted), and a *gap* (dropped
  epoch) is eventually coasted over — the prior diffuses through the
  motion model and the step is flagged ``degraded`` — so one lost
  packet never stalls a network forever.
* **Warm-start divergence guard.**  A warm solve whose beliefs come
  back broken (:func:`repro.core.health.healthy_belief_rows` /
  fallback-flagged) or whose estimates jump implausibly far is treated
  as a poisoned-prior symptom: the epoch is re-solved cold (uniform
  prior, full iterations) and flagged ``degraded`` instead of letting
  garbage become the next step's pre-knowledge.
* **Per-network failure isolation.**  A solver error degrades one
  epoch of one network to health-fallback estimates; batch-mates and
  the rest of the fleet are untouched (``execute_batch`` isolates
  per-item failures, the pool executor survives worker death).
* **Bounded admission.**  When ingest outruns solve, a network's ready
  backlog beyond ``max_ready_burst`` is shed: oldest epochs coast
  (flagged) rather than queue without bound — staleness is bounded by
  construction.
* **Mid-flight resumability.**  With a checkpoint, every completed
  epoch (solved, coasted, shed, or failed) is a durable CRC-framed
  ledger record.  Re-running the same stream replays finished epochs
  bit-identically and continues live from the kill point — the event
  feed and every admission decision are deterministic, so a killed and
  resumed run is indistinguishable from an uninterrupted one.

Same-shape epochs across networks batch onto the batched grid-BP kernel
(``localize_batch`` groups by compatibility key), and the executor layer
(:mod:`repro.stream.pool`) shards batches across warm workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.ckpt import decode_value, encode_value, resolve_checkpoint, seed_fingerprint
from repro.core.bnloc import GridBPConfig
from repro.core.grid import Grid2D
from repro.core.health import fallback_position, healthy_belief_rows
from repro.mobility.tracking import TrackingResult
from repro.priors.belief import GridBeliefPrior
from repro.stream.events import Epoch, StreamDisruption
from repro.stream.metrics import StreamMetrics
from repro.stream.pool import InlineExecutor, PoolExecutor
from repro.stream.scenario import FleetConfig, fleet_events

__all__ = [
    "StreamConfig",
    "StreamResult",
    "StreamRuntime",
    "run_stream",
    "stream_meta",
]

STREAM_METHOD = "stream-grid-bp"


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming runtime (all resume-identity relevant)."""

    grid_size: int = 16
    warm_iterations: int = 4
    cold_iterations: int = 10
    motion_sigma: float = 0.03
    reorder_window: int = 16
    max_gap_events: int | None = None
    max_ready_burst: int = 4
    jump_guard_radii: float = 1.5
    batch_max: int = 32
    n_workers: int = 0
    worker_timeout_s: float = 120.0
    width: float = 1.0
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.warm_iterations < 1 or self.cold_iterations < 1:
            raise ValueError("iteration budgets must be >= 1")
        if self.motion_sigma <= 0:
            raise ValueError("motion_sigma must be positive")
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        if self.max_gap_events is not None and self.max_gap_events < 1:
            raise ValueError("max_gap_events must be >= 1 (or None for auto)")
        if self.max_ready_burst < 1:
            raise ValueError("max_ready_burst must be >= 1")
        if self.jump_guard_radii <= 0:
            raise ValueError("jump_guard_radii must be positive")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StreamConfig":
        return cls(**data)

    def resolved_gap(self, n_networks: int) -> int:
        """Auto gap budget: a dropped epoch shows up as a hole roughly
        ``n_networks`` events wide in a step-major feed, so wait ~3
        fleet-rounds before coasting over it."""
        if self.max_gap_events is not None:
            return self.max_gap_events
        return max(64, 3 * n_networks)


def _row_medians(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row of ``(B, n)`` *values*: ``np.median`` of its *counts* valid
    entries, bit-equal to it (the mean of the two middle values for an
    even count).  Invalid entries must be ``+inf`` so they sort last; a
    row with no valid entry gives ``+inf``."""
    s = np.sort(values, axis=1)
    rows = np.arange(len(s))
    m = counts // 2
    upper = s[rows, np.minimum(m, s.shape[1] - 1)]
    lower = s[rows, np.maximum(m - 1, 0)]
    return np.where(counts % 2 == 1, upper, (lower + upper) / 2)


class NetworkState:
    """Watermark, reorder buffer, and warm-start state of one network."""

    def __init__(self, network_id: int) -> None:
        self.network_id = network_id
        self.next_step = 0
        self.buffer: dict[int, Epoch] = {}
        self.arrival_t: dict[int, float] = {}
        self.prior: GridBeliefPrior | None = None
        self.last_estimates: np.ndarray | None = None
        self.last_solved_step: int | None = None
        self.last_progress_event = 0
        self.n_nodes: int | None = None
        self.anchor_mask: np.ndarray | None = None
        self.last_anchor_full: np.ndarray | None = None
        #: step -> {"kind", "degraded", "reason", "estimates", "localized"}
        self.steps: dict[int, dict] = {}


@dataclass
class StreamResult:
    """Everything a stream run produced."""

    networks: dict[int, TrackingResult]
    metrics: dict
    executor: dict = field(default_factory=dict)

    @property
    def lost_networks(self) -> list[int]:
        """Networks with no estimates at their final step (must be empty
        — the zero-lost contract)."""
        lost = []
        for nid, tr in sorted(self.networks.items()):
            if tr.estimates.size == 0 or not np.isfinite(tr.estimates[-1]).any():
                lost.append(nid)
        return lost


class StreamRuntime:
    """One streaming run over one event feed.  See the module docstring
    for the robustness contract; :func:`run_stream` is the assembled
    driver (scenario → disruption → executor → runtime → result)."""

    def __init__(
        self,
        config: StreamConfig | None = None,
        executor=None,
        checkpoint=None,
        metrics: StreamMetrics | None = None,
        expected_networks: int | None = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.executor = executor if executor is not None else InlineExecutor()
        self.checkpoint = checkpoint
        self.metrics = metrics if metrics is not None else StreamMetrics()
        self._grid = Grid2D(
            self.config.grid_size,
            self.config.grid_size,
            self.config.width,
            self.config.height,
        )
        # Same geometry, but nothing ever caches a (K, K) matrix on it:
        # the grid every wire prior carries (see _items).
        self._wire_grid = Grid2D(
            self.config.grid_size,
            self.config.grid_size,
            self.config.width,
            self.config.height,
        )
        self._warm_cfg = GridBPConfig(
            grid_size=self.config.grid_size,
            max_iterations=self.config.warm_iterations,
        )
        self._cold_cfg = GridBPConfig(
            grid_size=self.config.grid_size,
            max_iterations=self.config.cold_iterations,
        )
        self._states: dict[int, NetworkState] = {}
        # Networks that may hold buffered epochs: ingest adds a network
        # when it buffers an epoch; _should_drain drops the emptied ones.
        self._buffered: set[int] = set()
        self._events_ingested = 0
        self._default_n_nodes: int | None = None
        self._gap_budget = self.config.resolved_gap(
            expected_networks if expected_networks else 1
        )

    # ------------------------------------------------------------------ #
    # state plumbing
    # ------------------------------------------------------------------ #
    def _state(self, network_id: int) -> NetworkState:
        state = self._states.get(network_id)
        if state is None:
            state = NetworkState(network_id)
            self._states[network_id] = state
        return state

    def _diffuse(self, beliefs) -> GridBeliefPrior:
        return GridBeliefPrior(
            self._grid, beliefs, diffusion_sigma=self.config.motion_sigma
        )

    def _next_priors(self, payloads: list[dict]) -> list[GridBeliefPrior | None]:
        """The next priors of solved *payloads*, all built as one block
        (:meth:`GridBeliefPrior.stacked`), each byte-equal to
        :meth:`_diffuse` of its own beliefs; ``None`` where a payload
        carries no beliefs."""
        beliefs = [p.get("beliefs") or {} for p in payloads]
        built = iter(
            GridBeliefPrior.stacked(
                self._grid,
                [b for b in beliefs if b],
                diffusion_sigma=self.config.motion_sigma,
            )
        )
        return [next(built) if b else None for b in beliefs]

    def _coast_prior(self, state: NetworkState) -> None:
        """Advance the prior through the motion model with no evidence
        (its block goes straight back through the diffusion)."""
        if state.prior is not None:
            state.prior = self._diffuse(state.prior.weights)

    def _key(self, network_id: int, step: int) -> str:
        return f"{network_id}:{step}"

    # ------------------------------------------------------------------ #
    # ingest: watermark + reorder buffer
    # ------------------------------------------------------------------ #
    def ingest(self, epoch: Epoch) -> None:
        self._events_ingested += 1
        self.metrics.count("ingested")
        state = self._state(epoch.network_id)
        if epoch.step < state.next_step:
            done = state.steps.get(epoch.step)
            if done is not None and done["kind"] in ("coasted", "shed"):
                # The real epoch finally showed up — after we moved on.
                self.metrics.count("stale_discarded")
            else:
                self.metrics.count("duplicates")
            return
        if epoch.step in state.buffer:
            self.metrics.count("duplicates")
            return
        if epoch.step > state.next_step:
            self.metrics.count("out_of_order")
        state.buffer[epoch.step] = epoch
        state.arrival_t[epoch.step] = self.metrics.now()
        self._buffered.add(state.network_id)

    # ------------------------------------------------------------------ #
    # watermark advancement: gap coasting + staleness shedding
    # ------------------------------------------------------------------ #
    def _maybe_advance(self, state: NetworkState, force: bool) -> None:
        if state.buffer and state.next_step not in state.buffer:
            gap_age = self._events_ingested - state.last_progress_event
            overflow = len(state.buffer) >= self.config.reorder_window
            if force or overflow or gap_age > self._gap_budget:
                target = min(state.buffer)
                while state.next_step < target:
                    self._coast(state, "coasted")
        # Staleness shedding: a backlog longer than the burst budget
        # means ingest outran solve for this network — coast the oldest
        # ready epochs instead of queueing them without bound.
        run = 0
        while state.next_step + run in state.buffer:
            run += 1
        for _ in range(max(0, run - self.config.max_ready_burst)):
            state.buffer.pop(state.next_step)
            self._coast(state, "shed")

    def _coast(self, state: NetworkState, kind: str) -> None:
        step = state.next_step
        # A resumed run's ledger may hold this step as any kind, a solve
        # included; it lands as recorded.
        if self._replayed(state, step):
            return
        estimates, localized = self._coast_estimates(state)
        decoded = {
            "kind": kind,
            "degraded": True,
            "reason": kind,
            "estimates": estimates,
            "localized": localized,
        }
        self._settle(state, step, decoded)

    def _coast_estimates(self, state: NetworkState) -> tuple[np.ndarray, np.ndarray]:
        n = state.n_nodes if state.n_nodes is not None else self._default_n_nodes
        if n is None:
            raise ValueError(
                f"cannot coast network {state.network_id}: node count unknown "
                "(pass n_nodes to run())"
            )
        estimates = np.full((n, 2), np.nan)
        localized = np.zeros(n, dtype=bool)
        center = np.array([self.config.width / 2.0, self.config.height / 2.0])
        if state.anchor_mask is not None and state.last_anchor_full is not None:
            anchors = state.anchor_mask
            estimates[anchors] = state.last_anchor_full[anchors]
            localized[anchors] = True
            unknown_ids = np.flatnonzero(~anchors)
        else:
            unknown_ids = np.arange(n)
        localized[unknown_ids] = True
        # Nodes with a prior row: the prior mean, all rows in one pass.
        rows = (
            state.prior.row_index(unknown_ids)
            if state.prior is not None
            else np.full(len(unknown_ids), -1)
        )
        have = rows >= 0
        if have.any():
            estimates[unknown_ids[have]] = self._grid.moments(
                state.prior.block[rows[have]]
            )[0]
        last = state.last_estimates
        for node in unknown_ids[~have]:
            if last is not None and np.isfinite(last[node]).all():
                estimates[node] = last[node]
            else:
                estimates[node] = center
        return estimates, localized

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def _items(
        self, pairs: list[tuple[NetworkState, Epoch]], warm: bool = True
    ) -> list[dict]:
        """The solve items of *pairs*: warm (the network's prior, warm
        iterations) where *warm* and the network has a prior, else cold
        (no prior, cold iterations).

        The warm items' priors are pipe-light copies built as one block
        (:meth:`GridBeliefPrior.stacked` with no diffusion and no floor,
        byte-equal to a per-item build by its contract).  Their grid is
        the runtime's ``_wire_grid``, built once: same geometry as
        ``_grid`` but never asked for its ``(K, K)`` pairwise matrix, so
        no such matrix rides the pickle to a pool worker, and each item's
        prior pickles only its own row slice of the block.
        """
        priors = [state.prior if warm else None for state, _ in pairs]
        wires = iter(
            GridBeliefPrior.stacked(
                self._wire_grid,
                [p.weights for p in priors if p is not None],
                diffusion_sigma=0.0,
                floor=0.0,
            )
        )
        return [
            {
                "measurements": epoch.measurements,
                "prior": next(wires) if prior is not None else None,
                "config": self._warm_cfg if prior is not None else self._cold_cfg,
                "include_beliefs": True,
            }
            for (_, epoch), prior in zip(pairs, priors)
        ]

    def _verdicts(
        self, pairs: list[tuple[NetworkState, Epoch]], payloads: list[dict]
    ) -> list[str]:
        """Per payload: 'ok' | 'guard' (poisoned-prior symptom) | 'failed'.

        Each verdict reads only its own network's state.  A cold solve
        (no prior) is never guarded; a warm one trips the guard on a
        fallback-flagged node, on a broken belief row or on an
        implausible median jump.  Each check runs once over the batch:
        the belief-health check over the stacked belief rows of every
        warm, ok payload (:func:`healthy_belief_rows` is row-wise), the
        fallback check over their stacked fallback masks, each row mapped
        back to its item; and the jump check (:meth:`_jumped`).
        """
        guarded = [
            bool(payload.get("ok")) and state.prior is not None
            for (state, _), payload in zip(pairs, payloads)
        ]
        checked = [i for i, g in enumerate(guarded) if g]
        tripped = self._jumped(pairs, payloads, guarded)
        if checked:
            rows = [list((payloads[i].get("beliefs") or {}).values()) for i in checked]
            flat = [b for r in rows for b in r]
            if flat:
                owner = np.repeat(checked, [len(r) for r in rows])
                tripped[owner[~healthy_belief_rows(np.stack(flat))]] = True
            masks = [np.asarray(payloads[i]["fallback_mask"]) for i in checked]
            owner = np.repeat(checked, [len(m) for m in masks])
            tripped[owner[np.concatenate(masks).astype(bool, copy=False)]] = True
        return [
            "failed" if not payload.get("ok")
            # a cold solve (not guarded) has nothing to guard against
            else "guard" if trip
            else "ok"
            for payload, trip in zip(payloads, tripped)
        ]

    def _jumped(
        self,
        pairs: list[tuple[NetworkState, Epoch]],
        payloads: list[dict],
        guarded: list[bool],
    ) -> np.ndarray:
        """Per pair: whether a guarded item's median unknown moved
        implausibly far since its network's last solved step.

        One pass over the batch: the checked items' estimates and last
        estimates are scattered into ``(B, n_max, 2)`` pads, one norm
        gives every valid jump (the rest stay ``+inf``), and
        :func:`_row_medians` reads each row's median.  An item with no
        unknown finite in both estimates is never flagged.
        """
        checked = [
            i
            for i, ((state, _), g) in enumerate(zip(pairs, guarded))
            if g
            and state.last_estimates is not None
            and state.last_solved_step is not None
        ]
        flags = np.zeros(len(pairs), dtype=bool)
        if not checked:
            return flags
        states = [pairs[i][0] for i in checked]
        epochs = [pairs[i][1] for i in checked]
        masks = [e.measurements.anchor_mask for e in epochs]
        sizes = np.array([len(m) for m in masks])
        # pad row and column of every node of the checked items, in order
        pad_row = np.repeat(np.arange(len(checked)), sizes)
        pad_col = np.arange(len(pad_row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        est = np.zeros((len(checked), int(sizes.max()), 2))
        prev = np.zeros_like(est)
        unknown = np.zeros(est.shape[:2], dtype=bool)
        est[pad_row, pad_col] = np.concatenate([payloads[i]["estimates"] for i in checked])
        prev[pad_row, pad_col] = np.concatenate([s.last_estimates for s in states])
        unknown[pad_row, pad_col] = ~np.concatenate(masks)
        gap = np.maximum([e.step - s.last_solved_step for s, e in zip(states, epochs)], 1)
        ranges = np.array([e.measurements.radio_range for e in epochs])
        limit = self.config.jump_guard_radii * ranges * gap
        both = unknown & np.isfinite(est).all(axis=2) & np.isfinite(prev).all(axis=2)
        jumps = np.full(both.shape, np.inf)
        jumps[both] = np.linalg.norm(est[both] - prev[both], axis=1)
        counts = both.sum(axis=1)
        flags[checked] = (counts > 0) & (_row_medians(jumps, counts) > limit)
        return flags

    def _commit(
        self,
        state: NetworkState,
        epoch: Epoch,
        payload: dict,
        prior: GridBeliefPrior | None,
        degraded: bool,
        reason: str | None,
    ) -> None:
        beliefs = {int(k): np.asarray(v) for k, v in (payload.get("beliefs") or {}).items()}
        decoded = {
            "kind": "solved",
            "degraded": bool(degraded),
            "reason": reason,
            "estimates": np.asarray(payload["estimates"], dtype=np.float64),
            "localized": np.asarray(payload["localized_mask"], dtype=bool),
            "beliefs": beliefs,
        }
        self._settle(state, epoch.step, decoded, ms=epoch.measurements, prior=prior)

    def _commit_failed(
        self, state: NetworkState, epoch: Epoch, payload: dict
    ) -> None:
        ms = epoch.measurements
        n = ms.n_nodes
        estimates = np.full((n, 2), np.nan)
        localized = np.zeros(n, dtype=bool)
        estimates[ms.anchor_mask] = ms.anchor_positions_full[ms.anchor_mask]
        localized[ms.anchor_mask] = True
        for node in np.flatnonzero(~ms.anchor_mask):
            estimates[node] = fallback_position(
                ms, int(node), state.prior, self._grid
            )
            localized[node] = True
        decoded = {
            "kind": "failed",
            "degraded": True,
            "reason": payload.get("error", "solver error"),
            "estimates": estimates,
            "localized": localized,
        }
        self._settle(state, epoch.step, decoded, ms=ms)

    def _replayed(self, state: NetworkState, step: int, ms=None) -> bool:
        """Settle *step* from the ledger when a finished record of it is
        there (a resumed run); ``False`` means it must run live."""
        if self.checkpoint is None:
            return False
        record = self.checkpoint.get(self._key(state.network_id, step))
        if record is None:
            return False
        self._settle(state, step, decode_value(record), ms=ms, replayed=True)
        return True

    def _settle(
        self,
        state: NetworkState,
        step: int,
        decoded: dict,
        ms=None,
        prior: GridBeliefPrior | None = None,
        replayed: bool = False,
    ) -> None:
        """Land one epoch's outcome: the only place a step is finished.

        A live outcome goes to the ledger and is counted by its kind (a
        degraded solve also as ``degraded_steps``); a replayed one is
        counted as ``replayed`` only, so every cell is counted once.  A
        solved step with beliefs sets the next prior (*prior* when the
        batch already built it as a block, else diffused here); any other
        step coasts the prior.  *ms*, when given, is the epoch's
        measurements, whose shape later coasts use.
        """
        if replayed:
            self.metrics.count("replayed")
        elif self.checkpoint is not None:
            self.checkpoint.record(
                self._key(state.network_id, step), encode_value(decoded)
            )
        state.steps[step] = decoded
        state.next_step = step + 1
        state.last_progress_event = self._events_ingested
        arrived = state.arrival_t.pop(step, None)
        kind = decoded["kind"]
        beliefs = decoded.get("beliefs")
        if kind == "solved" and beliefs:
            state.prior = prior if prior is not None else self._diffuse(beliefs)
        else:
            self._coast_prior(state)
        if kind == "solved":
            state.last_estimates = np.asarray(decoded["estimates"])
            state.last_solved_step = step
        if not replayed:
            if kind == "solved" and arrived is not None:
                self.metrics.observe_staleness(self.metrics.now() - arrived)
            self.metrics.count(kind)
            if kind == "solved" and decoded["degraded"]:
                self.metrics.count("degraded_steps")
        if ms is not None:
            state.n_nodes = ms.n_nodes
            state.anchor_mask = np.asarray(ms.anchor_mask, dtype=bool)
            state.last_anchor_full = np.asarray(ms.anchor_positions_full)

    def _solve_batch(self, batch: list[tuple[NetworkState, Epoch]]) -> None:
        """Solve one batch of ready epochs and settle every one of them.

        Ledger-replayed epochs settle first.  The live rest goes to the
        executor in one call, its items built as a batch
        (:meth:`_items`: the warm priors' wire copies as one block).  The
        verdicts are taken as a batch too (:meth:`_verdicts`: one
        belief-health check over all warm payloads), then every accepted
        solve's next prior is built in one block (:meth:`_next_priors`).
        Guard trips get one cold re-solve call, settled the same way.
        """
        live = [
            (state, epoch)
            for state, epoch in batch
            if not self._replayed(state, epoch.step, epoch.measurements)
        ]
        if not live:
            return
        payloads = self.executor.solve(self._items(live))
        # Every verdict first, so the next priors of all accepted solves
        # build as one block.
        verdicts = self._verdicts(live, payloads)
        priors = iter(
            self._next_priors(
                [p for p, v in zip(payloads, verdicts) if v == "ok"]
            )
        )
        retry: list[tuple[NetworkState, Epoch]] = []
        for (state, epoch), payload, verdict in zip(live, payloads, verdicts):
            if verdict == "failed":
                self._commit_failed(state, epoch, payload)
            elif verdict == "guard":
                self.metrics.count("guard_trips")
                retry.append((state, epoch))
            else:
                self._commit(
                    state, epoch, payload, next(priors), degraded=False, reason=None
                )
        if not retry:
            return
        # Poisoned-prior fallback: cold re-solve at full iterations.
        self.metrics.count("cold_resolves", len(retry))
        cold_payloads = self.executor.solve(self._items(retry, warm=False))
        priors = iter(self._next_priors([p for p in cold_payloads if p.get("ok")]))
        for (state, epoch), payload in zip(retry, cold_payloads):
            if not payload.get("ok"):
                self._commit_failed(state, epoch, payload)
            else:
                self._commit(
                    state,
                    epoch,
                    payload,
                    next(priors),
                    degraded=True,
                    reason="warm-divergence",
                )

    # ------------------------------------------------------------------ #
    # drain loop
    # ------------------------------------------------------------------ #
    def _collect_ready(self, force: bool) -> list[tuple[NetworkState, Epoch]]:
        batch: list[tuple[NetworkState, Epoch]] = []
        for nid in sorted(self._states):
            state = self._states[nid]
            self._maybe_advance(state, force)
            if state.next_step in state.buffer:
                batch.append((state, state.buffer.pop(state.next_step)))
                if len(batch) >= self.config.batch_max:
                    break
        return batch

    def _drain_once(self, force: bool = False) -> bool:
        batch = self._collect_ready(force)
        if not batch:
            return False
        self._solve_batch(batch)
        return True

    def _drain(self, force: bool = False) -> None:
        while self._drain_once(force):
            pass

    def _should_drain(self) -> bool:
        """Whether a batch is worth draining now: a full batch's worth of
        networks (or the whole fleet) has its next step buffered, or a
        gapped network is overdue (its buffer fills the reorder window,
        or its gap outlived the gap budget).

        It visits only the networks with buffered epochs, not the whole
        fleet, pruning those whose buffers have emptied since.
        """
        ready = 0
        overdue = False
        target = min(self.config.batch_max, len(self._states))
        for nid in list(self._buffered):
            state = self._states[nid]
            if not state.buffer:
                self._buffered.discard(nid)
            elif state.next_step in state.buffer:
                ready += 1
                if ready >= target:
                    return True
            elif (
                self._events_ingested - state.last_progress_event > self._gap_budget
                or len(state.buffer) >= self.config.reorder_window
            ):
                overdue = True
        return overdue

    # ------------------------------------------------------------------ #
    def run(
        self,
        events,
        final_step: int | None = None,
        network_ids=None,
        n_nodes: int | None = None,
    ) -> StreamResult:
        """Consume *events*, flush, and assemble per-network results.

        ``network_ids`` pre-registers the fleet so a network whose every
        epoch was dropped still coasts to *final_step* (zero lost
        networks); ``n_nodes`` sizes those pure-coast estimates.
        """
        self.metrics.start()
        self._default_n_nodes = n_nodes
        if network_ids is not None:
            for nid in network_ids:
                self._state(int(nid))
        for epoch in events:
            self.ingest(epoch)
            if self._should_drain():
                self._drain_once()
        self._drain(force=True)
        if final_step is not None:
            for nid in sorted(self._states):
                state = self._states[nid]
                while state.next_step <= final_step:
                    self._coast(state, "coasted")
        self.metrics.finish()
        return self._result(final_step)

    # ------------------------------------------------------------------ #
    def _result(self, final_step: int | None) -> StreamResult:
        networks: dict[int, TrackingResult] = {}
        for nid in sorted(self._states):
            state = self._states[nid]
            if not state.steps:
                continue
            t_max = max(state.steps) if final_step is None else final_step
            n = state.n_nodes if state.n_nodes is not None else (
                self._default_n_nodes or 0
            )
            if n == 0:
                sizes = [rec["estimates"].shape[0] for rec in state.steps.values()]
                n = sizes[0] if sizes else 0
            estimates = np.full((t_max + 1, n, 2), np.nan)
            localized = np.zeros((t_max + 1, n), dtype=bool)
            degraded = np.zeros(t_max + 1, dtype=bool)
            reasons: list[str | None] = [None] * (t_max + 1)
            for step, rec in state.steps.items():
                if step > t_max:
                    continue
                estimates[step] = rec["estimates"]
                localized[step] = rec["localized"]
                degraded[step] = bool(rec["degraded"])
                reasons[step] = rec.get("reason")
            networks[nid] = TrackingResult(
                estimates,
                localized,
                STREAM_METHOD,
                extras={"degraded": degraded, "reasons": reasons},
            )
        return StreamResult(
            networks=networks,
            metrics=self.metrics.summary(),
            executor=self.executor.snapshot(),
        )


# ---------------------------------------------------------------------- #
# assembled driver
# ---------------------------------------------------------------------- #
def stream_meta(
    fleet: FleetConfig,
    stream: StreamConfig,
    disruption: StreamDisruption | None,
) -> dict:
    """Ledger-header identity of a stream run (what resume validates)."""
    return {
        "kind": "stream",
        "config": {
            "fleet": fleet.to_dict(),
            "stream": stream.to_dict(),
            "disruption": disruption.to_dict() if disruption is not None else None,
        },
        "seed": seed_fingerprint(fleet.seed),
        "total_cells": fleet.n_networks * (fleet.n_steps + 1),
    }


def run_stream(
    fleet: FleetConfig,
    stream: StreamConfig | None = None,
    disruption: StreamDisruption | None = None,
    checkpoint=None,
) -> StreamResult:
    """Generate the fleet's event feed, disrupt it, and run the runtime.

    Every piece is seeded, so the same arguments always produce the same
    feed — which is what lets ``checkpoint=`` resume a killed run
    bit-identically: replayed epochs come off the ledger, the rest solve
    on the identical warm-start state.
    """
    stream = stream if stream is not None else StreamConfig()
    events = fleet_events(fleet)
    if disruption is not None:
        events, _ = disruption.apply(events)
    ck, own_ck = (None, False)
    if checkpoint is not None:
        ck, own_ck = resolve_checkpoint(
            checkpoint, lambda: stream_meta(fleet, stream, disruption)
        )
    executor = (
        PoolExecutor(stream)
        if stream.n_workers > 0
        else InlineExecutor()
    )
    runtime = StreamRuntime(
        stream,
        executor=executor,
        checkpoint=ck,
        expected_networks=fleet.n_networks,
    )
    try:
        return runtime.run(
            events,
            final_step=fleet.n_steps,
            network_ids=range(fleet.n_networks),
            n_nodes=fleet.n_nodes,
        )
    finally:
        executor.close()
        if own_ck and ck is not None:
            ck.close()
