"""Checkpoint/resume runtime over the write-ahead ledger.

A :class:`Checkpoint` wraps one ledger file for one logical run: opening
it replays every durable trial record, recording appends (and fsyncs) a
new one, and the header's ``meta`` dict pins the run identity so a ledger
cannot silently be resumed against a different sweep.  Entry points
(``evaluate_methods``, ``run_sweep``) consult :meth:`Checkpoint.get` per
cell and skip the finished ones; the missing cells run on the same
deterministically derived child seeds they would have used in an
uninterrupted run, which is what makes a resumed run bit-identical to
one that never died.

:func:`trap_signals` converts ``SIGTERM`` (and optionally others) into
``KeyboardInterrupt`` inside a ``with`` block, so the normal
``try/finally`` unwinding flushes the ledger and tears worker pools down
cleanly when a scheduler or operator kills the run politely; ``kill -9``
needs no handler at all — that is what the per-record fsync is for.
"""

from __future__ import annotations

import json
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ckpt.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    LedgerWriter,
    read_ledger,
)

__all__ = [
    "Checkpoint",
    "CheckpointScope",
    "CheckpointAbort",
    "CheckpointMismatch",
    "seed_fingerprint",
    "resolve_checkpoint",
    "trap_signals",
    "LedgerProgress",
    "ledger_progress",
    "format_progress",
]

#: header-meta keys that must match between the ledger and a resuming
#: call — everything that changes which trials exist or what they compute
_CORE_META_KEYS = (
    "kind",
    "config",
    "methods",
    "n_trials",
    "seed",
    "param",
    "values",
)


class CheckpointAbort(RuntimeError):
    """Deterministic crash injection for tests: raised by
    :meth:`Checkpoint.record` once ``abort_after`` records have been
    durably appended, simulating a process death at an exact, replayable
    point in the run."""


class CheckpointMismatch(ValueError):
    """The ledger header belongs to a different run than the resuming
    call (different config, seed, methods, …)."""


def seed_fingerprint(seed) -> dict:
    """JSON-safe identity of a master seed, for the ledger header.

    Checkpointing requires a *reproducible* seed: resuming must re-derive
    the exact child-seed streams, so OS-entropy (``None``) and consumed
    ``Generator`` state are rejected up front rather than producing a
    ledger that can never match its run.
    """
    if isinstance(seed, (int, np.integer)):
        return {"type": "int", "value": int(seed)}
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {
            "type": "seedseq",
            "entropy": entropy,
            "spawn_key": [int(k) for k in seed.spawn_key],
            "children_spawned": int(seed.n_children_spawned),
        }
    raise ValueError(
        "checkpointing requires a reproducible master seed (an int or a "
        f"SeedSequence), got {type(seed).__name__}: a resumed run could "
        "not re-derive the same child-seed streams"
    )


def _normalize(value):
    """Canonical JSON view, so tuples/lists and int/float compare sanely."""
    return json.loads(json.dumps(value, sort_keys=True))


class Checkpoint:
    """One ledger-backed checkpoint for one logical run.

    Parameters
    ----------
    path:
        Ledger file (created on first open if missing).
    abort_after:
        Test hook — after this many successful :meth:`record` appends,
        raise :class:`CheckpointAbort`.  The appended records are already
        durable, so this simulates a crash at a deterministic point.
    """

    def __init__(self, path: str | Path, abort_after: int | None = None) -> None:
        self.path = Path(path)
        self._abort_after = abort_after
        self._writer: LedgerWriter | None = None
        self._done: dict[str, dict] = {}
        self._meta: dict | None = None
        self._opened = False
        self.n_replayed = 0
        self.n_recorded = 0
        self.n_corrupt = 0
        self.truncated_tail = False

    # ------------------------------------------------------------------ #
    @property
    def opened(self) -> bool:
        return self._opened

    def open(self, meta: dict) -> "Checkpoint":
        """Replay the ledger (validating its header against *meta*) or
        start a fresh one whose header pins *meta*.  Idempotent: a second
        open with matching meta is a no-op."""
        if self._opened:
            self._check_meta(meta)
            return self
        contents = read_ledger(self.path)
        if contents.header is not None:
            self._meta = contents.meta or {}
            self._check_meta(meta)
            self._done = contents.records
        self.n_corrupt = contents.n_corrupt
        self.truncated_tail = contents.truncated_tail
        self._writer = LedgerWriter(self.path)
        if contents.header is None:
            self._meta = _normalize(meta)
            self._writer.append(
                {
                    "kind": "header",
                    "schema": LEDGER_SCHEMA_VERSION,
                    "meta": self._meta,
                }
            )
        self._opened = True
        return self

    def _check_meta(self, meta: dict) -> None:
        ours = self._meta or {}
        theirs = _normalize(meta)
        for key in _CORE_META_KEYS:
            if _normalize(ours.get(key)) != _normalize(theirs.get(key)):
                raise CheckpointMismatch(
                    f"ledger {self.path} belongs to a different run: "
                    f"header {key}={ours.get(key)!r} but this call has "
                    f"{key}={theirs.get(key)!r}; point the checkpoint at "
                    "a fresh path or fix the arguments to match"
                )

    @property
    def meta(self) -> dict | None:
        return self._meta

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> dict | None:
        """Durable payload of a finished cell, or ``None`` (run it)."""
        payload = self._done.get(key)
        if payload is not None:
            self.n_replayed += 1
        return payload

    def record(self, key: str, payload: dict) -> None:
        """Durably append one finished cell (fsync'd before returning)."""
        if not self._opened or self._writer is None or self._writer.closed:
            raise ValueError(
                f"checkpoint {self.path} is not open for recording"
            )
        self._writer.append({"kind": "trial", "key": key, "payload": payload})
        self._done[key] = payload
        self.n_recorded += 1
        if self._abort_after is not None and self.n_recorded >= self._abort_after:
            raise CheckpointAbort(
                f"checkpoint test hook: aborting after {self.n_recorded} "
                f"record(s) appended to {self.path}"
            )

    def scoped(self, prefix: str) -> "CheckpointScope":
        """A key-prefixed view sharing this ledger (sweep points)."""
        return CheckpointScope(self, prefix)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._opened = False

    def emit_counters(self, tracer) -> None:
        """Mirror ledger activity into obs counters (``ckpt_*``)."""
        if tracer is None or not tracer.enabled:
            return
        if self.n_replayed:
            tracer.count("ckpt_trials_replayed", self.n_replayed)
        if self.n_recorded:
            tracer.count("ckpt_trials_recorded", self.n_recorded)
        if self.n_corrupt:
            tracer.count("ckpt_corrupt_records", self.n_corrupt)
        if self.truncated_tail:
            tracer.count("ckpt_truncated_tail")

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class CheckpointScope:
    """Prefix-scoped view of a :class:`Checkpoint` (shared writer).

    ``run_sweep`` owns the real checkpoint and hands each parameter
    point a scope, so every point's trials land in one ledger under
    distinct keys and the sweep header is validated exactly once.
    """

    def __init__(self, parent: Checkpoint, prefix: str) -> None:
        self.parent = parent
        self.prefix = prefix

    def get(self, key: str) -> dict | None:
        return self.parent.get(f"{self.prefix}:{key}")

    def record(self, key: str, payload: dict) -> None:
        self.parent.record(f"{self.prefix}:{key}", payload)

    def emit_counters(self, tracer) -> None:
        """No-op: the owning checkpoint reports once for the whole run."""


def resolve_checkpoint(checkpoint, make_meta) -> tuple[object, bool]:
    """Entry-point plumbing: turn a ``checkpoint=`` argument into an
    opened checkpoint-like object plus an ownership flag.

    * path → construct, open (validating/creating the header), own it;
    * :class:`Checkpoint` → open if needed, caller keeps ownership;
    * :class:`CheckpointScope` → already validated by its owner.

    *make_meta* is a zero-arg callable so header construction (which may
    reject irreproducible seeds) only happens when actually needed.
    """
    if isinstance(checkpoint, CheckpointScope):
        return checkpoint, False
    if isinstance(checkpoint, Checkpoint):
        checkpoint.open(make_meta())
        return checkpoint, False
    if isinstance(checkpoint, (str, Path)):
        ck = Checkpoint(checkpoint)
        ck.open(make_meta())
        return ck, True
    raise TypeError(
        "checkpoint must be a path, Checkpoint, or CheckpointScope, got "
        f"{type(checkpoint).__name__}"
    )


@contextmanager
def trap_signals(extra=(signal.SIGTERM,)):
    """Convert polite kill signals into ``KeyboardInterrupt`` so
    ``finally`` blocks run: the ledger closes flushed and worker pools
    are terminated/joined instead of orphaned.  Restores the previous
    handlers on **every** exit path — normal completion, exceptions
    raised mid-scope, even a trapped signal arriving during the restore
    itself — so a long-lived server embedding checkpointed runs cannot
    leak the trap handler past the scope.  Scopes nest (the inner scope
    restores the outer scope's handler).  A no-op outside the main
    thread, where Python forbids installing handlers.

    Restore details that matter for embedding:

    * the previous handler is captured with :func:`signal.getsignal`
      *before* installing the trap — ``signal.signal``'s return value is
      ``None`` for handlers not installed from Python, and passing that
      ``None`` back to ``signal.signal`` raises, which used to abort the
      restore loop and leak every remaining handler;
    * each restore is individually guarded, so one failing (or a trapped
      signal firing mid-restore) still restores the rest, and the first
      such exception is re-raised once restoration finished.
    """
    installed = []

    def _raise(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        for sig in extra:
            try:
                prev = signal.getsignal(sig)
                signal.signal(sig, _raise)
            except ValueError:
                continue  # not the main thread
            installed.append((sig, prev))
        yield
    finally:
        pending: BaseException | None = None
        for sig, prev in reversed(installed):
            if prev is None:
                # Installed by non-Python code — unrecoverable from here;
                # fall back to the default disposition rather than
                # leaving our raising trap behind.
                prev = signal.SIG_DFL
            try:
                signal.signal(sig, prev)
            except BaseException as exc:  # noqa: BLE001 - keep restoring
                if pending is None:
                    pending = exc
        if pending is not None:
            raise pending


# --------------------------------------------------------------------- #
# progress reporting (the `repro resume` CLI)
# --------------------------------------------------------------------- #
@dataclass
class LedgerProgress:
    """What a ledger says about its run, without re-running anything."""

    path: Path
    meta: dict | None
    n_done: int
    total_cells: int | None
    n_corrupt: int
    truncated_tail: bool

    @property
    def complete(self) -> bool:
        return self.total_cells is not None and self.n_done >= self.total_cells


def ledger_progress(path: str | Path) -> LedgerProgress:
    """Inspect a ledger: distinct finished cells vs the header's total.

    Raises :class:`LedgerError` for unusable files (unknown schema,
    headerless trial records); damaged individual records only lower
    ``n_done``.
    """
    path = Path(path)
    if not path.exists():
        raise LedgerError(f"ledger {path} does not exist")
    contents = read_ledger(path)
    meta = contents.meta
    total = None
    if meta is not None and isinstance(meta.get("total_cells"), int):
        total = meta["total_cells"]
    return LedgerProgress(
        path=path,
        meta=meta,
        n_done=len(contents.records),
        total_cells=total,
        n_corrupt=contents.n_corrupt,
        truncated_tail=contents.truncated_tail,
    )


def format_progress(progress: LedgerProgress) -> str:
    """Human-readable progress block for the CLI."""
    meta = progress.meta or {}
    lines = [f"ledger: {progress.path}"]
    kind = meta.get("kind")
    if kind:
        lines.append(f"run kind: {kind}")
    if meta.get("param") is not None:
        lines.append(
            f"sweep: {meta['param']} over {meta.get('values')}"
        )
    if meta.get("methods"):
        lines.append("methods: " + ", ".join(meta["methods"]))
    if meta.get("n_trials") is not None:
        lines.append(f"trials per point: {meta['n_trials']}")
    seed = meta.get("seed") or {}
    if seed.get("type") == "int":
        lines.append(f"master seed: {seed['value']}")
    if progress.total_cells is not None:
        pct = 100.0 * progress.n_done / max(progress.total_cells, 1)
        lines.append(
            f"progress: {progress.n_done}/{progress.total_cells} "
            f"cells done ({pct:.0f}%)"
        )
    else:
        lines.append(f"progress: {progress.n_done} cells done")
    if progress.n_corrupt:
        lines.append(
            f"warning: {progress.n_corrupt} corrupt record(s) quarantined"
        )
    if progress.truncated_tail:
        lines.append("warning: torn final record dropped (interrupted append)")
    lines.append(
        "status: complete — resuming re-runs nothing"
        if progress.complete
        else "status: incomplete — resume will run the remaining cells"
    )
    return "\n".join(lines)
