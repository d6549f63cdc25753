"""Durable checkpoint/resume runtime for sweeps and trial batches.

The experiment entry points (:func:`repro.experiments.evaluate_methods`,
:func:`repro.experiments.run_sweep`) accept ``checkpoint=<path>``: every
completed trial is appended to a CRC-framed, fsync'd JSONL write-ahead
ledger, and restarting the same call replays the ledger, skips finished
cells, and continues on the preserved child-seed streams — so a run
killed anywhere (``kill -9`` included) resumes bit-identical to one that
never died.  ``repro resume <ledger>`` reports progress and continues
CLI runs; the ``ckpt-resume-vs-uninterrupted`` case of
:mod:`repro.audit` asserts the bit tier.
"""

from repro.ckpt.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerContents,
    LedgerError,
    LedgerWriter,
    read_ledger,
)
from repro.ckpt.resume import (
    Checkpoint,
    CheckpointAbort,
    CheckpointMismatch,
    CheckpointScope,
    LedgerProgress,
    format_progress,
    ledger_progress,
    resolve_checkpoint,
    seed_fingerprint,
    trap_signals,
)
from repro.ckpt.snapshot import decode_value, encode_value

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LedgerContents",
    "LedgerError",
    "LedgerWriter",
    "read_ledger",
    "Checkpoint",
    "CheckpointAbort",
    "CheckpointMismatch",
    "CheckpointScope",
    "LedgerProgress",
    "format_progress",
    "ledger_progress",
    "resolve_checkpoint",
    "seed_fingerprint",
    "trap_signals",
    "encode_value",
    "decode_value",
]
