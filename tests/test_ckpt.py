"""Tests for the durable checkpoint/resume runtime (repro.ckpt).

Covers the write-ahead ledger framing and its corruption tolerance
(torn tail, bad CRC mid-file, unknown schema, empty/missing file), the
bit-exact payload codec, the :class:`~repro.ckpt.Checkpoint` runtime
(header pinning, abort hook, counters), and the resume guarantee of
every checkpointed entry point: an interrupted-then-resumed run is
bit-identical to one that never died.  The crash-recovery classes kill
real subprocesses (``SIGKILL`` mid-sweep, ``SIGTERM`` for the polite
path) and resume their ledgers in-process.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import (
    LEDGER_SCHEMA_VERSION,
    Checkpoint,
    CheckpointAbort,
    CheckpointMismatch,
    LedgerError,
    LedgerWriter,
    decode_value,
    encode_value,
    format_progress,
    ledger_progress,
    read_ledger,
    resolve_checkpoint,
    seed_fingerprint,
    trap_signals,
)
from repro.ckpt.ledger import frame_record, parse_line
from repro.experiments import ScenarioConfig
from repro.experiments.runner import (
    evaluate_methods,
    run_sweep,
    standard_methods,
)
from repro.metrics.error import ErrorSummary
from repro.obs import Tracer

pytestmark = pytest.mark.ckpt

_SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------- #
# ledger framing and recovery (satellite: corruption coverage)
# ---------------------------------------------------------------------- #
def _write_ledger(path, n_trials=3):
    """A well-formed ledger: header + *n_trials* trial records."""
    with LedgerWriter(path) as w:
        w.append(
            {
                "kind": "header",
                "schema": LEDGER_SCHEMA_VERSION,
                "meta": {"kind": "trials", "total_cells": n_trials},
            }
        )
        for i in range(n_trials):
            w.append({"kind": "trial", "key": f"trial:{i}", "payload": {"v": i}})


class TestLedgerFraming:
    def test_frame_parse_round_trip(self):
        body = {"kind": "trial", "key": "trial:0", "payload": {"x": 1.5}}
        line = frame_record(body)
        assert line.endswith("\n")
        assert parse_line(line[:-1]) == body

    def test_parse_rejects_damage(self):
        line = frame_record({"kind": "trial", "key": "k", "payload": {}})[:-1]
        head, payload = line.split(" ", 1)
        assert parse_line(payload) is None  # no CRC head
        assert parse_line("zzzzzzzz " + payload) is None  # non-hex CRC
        assert parse_line(head + " " + payload[:-2]) is None  # torn payload
        flipped = head + " " + payload.replace("trial", "Trial", 1)
        assert parse_line(flipped) is None  # CRC mismatch
        assert parse_line(frame_record({})[:-1]) == {}

    def test_writer_refuses_after_close(self, tmp_path):
        w = LedgerWriter(tmp_path / "l.jsonl")
        w.close()
        assert w.closed
        with pytest.raises(ValueError, match="closed"):
            w.append({"kind": "trial"})


class TestLedgerRecovery:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _write_ledger(path)
        contents = read_ledger(path)
        assert contents.header is not None
        assert contents.meta == {"kind": "trials", "total_cells": 3}
        assert contents.n_records == 3
        assert contents.n_corrupt == 0
        assert not contents.truncated_tail
        assert contents.records["trial:1"] == {"v": 1}

    def test_missing_and_empty_are_fresh(self, tmp_path):
        missing = read_ledger(tmp_path / "nope.jsonl")
        assert missing.header is None and missing.records == {}
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        contents = read_ledger(empty)
        assert contents.header is None and contents.n_records == 0

    def test_truncated_tail_dropped_with_warning(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _write_ledger(path)
        # simulate a crash mid-append: a torn, newline-less final record
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(frame_record({"kind": "trial", "key": "trial:3"})[:17])
        with pytest.warns(RuntimeWarning, match="torn final record"):
            contents = read_ledger(path)
        assert contents.truncated_tail
        assert contents.n_records == 3  # intact prefix fully preserved
        assert "trial:3" not in contents.records

    def test_bad_crc_mid_file_quarantined(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _write_ledger(path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:12] + "x" + lines[2][13:]  # flip a payload byte
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantining corrupt record"):
            contents = read_ledger(path)
        assert contents.n_corrupt == 1
        assert contents.n_records == 2
        assert "trial:1" not in contents.records  # the damaged one re-runs
        assert contents.records["trial:0"] == {"v": 0}
        assert contents.records["trial:2"] == {"v": 2}

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with LedgerWriter(path) as w:
            w.append({"kind": "header", "schema": 99, "meta": {}})
        with pytest.raises(LedgerError, match="unknown schema version 99"):
            read_ledger(path)

    def test_trial_before_header_raises(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with LedgerWriter(path) as w:
            w.append({"kind": "trial", "key": "trial:0", "payload": {}})
        with pytest.raises(LedgerError, match="precedes\n?.*header"):
            read_ledger(path)

    def test_keyless_trial_quarantined(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with LedgerWriter(path) as w:
            w.append({"kind": "header", "schema": LEDGER_SCHEMA_VERSION, "meta": {}})
            w.append({"kind": "trial", "payload": {"v": 0}})
        with pytest.warns(RuntimeWarning, match="keyless"):
            contents = read_ledger(path)
        assert contents.n_corrupt == 1 and contents.n_records == 0

    def test_duplicate_key_last_record_wins(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _write_ledger(path, n_trials=1)
        with LedgerWriter(path) as w:
            w.append({"kind": "trial", "key": "trial:0", "payload": {"v": 9}})
        contents = read_ledger(path)
        assert contents.records["trial:0"] == {"v": 9}


# ---------------------------------------------------------------------- #
# bit-exact payload codec
# ---------------------------------------------------------------------- #
class TestSnapshotCodec:
    def _round_trip(self, value):
        import json

        encoded = encode_value(value)
        # must survive the actual transport: canonical JSON text
        return decode_value(json.loads(json.dumps(encoded)))

    def test_scalars(self):
        for v in (None, True, 3, -7, 0.1, float("inf"), "s"):
            assert self._round_trip(v) == v or (v != v and self._round_trip(v) != v)
        nan = self._round_trip(float("nan"))
        assert isinstance(nan, float) and nan != nan

    def test_float_bits_exact(self):
        import struct

        for v in (0.1, 1e-308, np.nextafter(1.0, 2.0)):
            assert struct.pack("<d", self._round_trip(v)) == struct.pack("<d", v)

    def test_numpy_scalar_keeps_dtype(self):
        out = self._round_trip(np.float32(0.25))
        assert out.dtype == np.float32 and out == np.float32(0.25)
        assert self._round_trip(np.int64(-5)).dtype == np.int64

    def test_ndarray_byte_exact(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4))
        arr[0, 0] = np.nan
        out = self._round_trip(arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()  # NaN payloads included

    def test_ndarray_int_and_noncontiguous(self):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4)[:, ::2]
        out = self._round_trip(arr)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.int32

    def test_containers(self):
        value = {"a": (1, 2.5), "b": [{"c": None}], "d": {3: "x", (1, 2): "y"}}
        assert self._round_trip(value) == value

    def test_error_summary(self):
        s = ErrorSummary(**{
            f.name: float(i) for i, f in enumerate(dataclasses.fields(ErrorSummary))
        })
        out = self._round_trip(s)
        assert isinstance(out, ErrorSummary) and out == s

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown checkpoint payload tag"):
            decode_value({"__repro__": "mystery"})


# ---------------------------------------------------------------------- #
# checkpoint runtime
# ---------------------------------------------------------------------- #
class TestCheckpoint:
    _META = {"kind": "trials", "n_trials": 2, "seed": {"type": "int", "value": 7}}

    def test_fresh_open_record_replay(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with Checkpoint(path).open(self._META) as ck:
            assert ck.get("trial:0") is None
            ck.record("trial:0", {"result": 1})
            assert ck.n_recorded == 1
        with Checkpoint(path).open(self._META) as ck:
            assert ck.get("trial:0") == {"result": 1}
            assert ck.n_replayed == 1 and ck.n_recorded == 0

    def test_meta_mismatch_rejected(self, tmp_path):
        path = tmp_path / "l.jsonl"
        Checkpoint(path).open(self._META).close()
        with pytest.raises(CheckpointMismatch, match="different run"):
            Checkpoint(path).open({**self._META, "n_trials": 5})
        # non-core extras may differ freely
        Checkpoint(path).open({**self._META, "note": "extra"}).close()

    def test_abort_hook_leaves_durable_records(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ck = Checkpoint(path, abort_after=2).open(self._META)
        try:
            ck.record("trial:0", {"r": 0})
            with pytest.raises(CheckpointAbort):
                ck.record("trial:1", {"r": 1})
        finally:
            ck.close()
        contents = read_ledger(path)
        assert contents.n_records == 2  # both appended before the "crash"

    def test_record_after_close_raises(self, tmp_path):
        ck = Checkpoint(tmp_path / "l.jsonl").open(self._META)
        ck.close()
        with pytest.raises(ValueError, match="not open"):
            ck.record("trial:0", {})

    def test_scoped_keys(self, tmp_path):
        ck = Checkpoint(tmp_path / "l.jsonl").open(self._META)
        ck.scoped("pt1").record("trial:0", {"r": 1})
        assert ck.get("pt1:trial:0") == {"r": 1}
        assert ck.scoped("pt0").get("trial:0") is None
        ck.close()

    def test_emit_counters(self, tmp_path):
        path = tmp_path / "l.jsonl"
        _write_ledger(path, n_trials=1)
        with open(path, "a") as fh:
            fh.write("torn")
        tracer = Tracer()
        with pytest.warns(RuntimeWarning):
            ck = Checkpoint(path).open({"kind": "trials", "total_cells": 1})
        ck.get("trial:0")
        ck.record("trial:1", {})
        ck.close()
        ck.emit_counters(tracer)
        counters = tracer.snapshot(include_timings=False)["counters"]
        assert counters["ckpt_trials_replayed"] == 1
        assert counters["ckpt_trials_recorded"] == 1
        assert counters["ckpt_truncated_tail"] == 1

    def test_resolve_checkpoint_ownership(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ck, owned = resolve_checkpoint(str(path), lambda: self._META)
        assert owned and ck.opened
        ck.close()
        mine = Checkpoint(path)
        ck2, owned2 = resolve_checkpoint(mine, lambda: self._META)
        assert ck2 is mine and not owned2
        scope = mine.scoped("pt0")
        assert resolve_checkpoint(scope, lambda: self._META) == (scope, False)
        mine.close()
        with pytest.raises(TypeError, match="checkpoint must be"):
            resolve_checkpoint(42, lambda: self._META)


class TestSeedFingerprint:
    def test_int_and_seedseq(self):
        assert seed_fingerprint(7) == {"type": "int", "value": 7}
        assert seed_fingerprint(np.int64(7)) == {"type": "int", "value": 7}
        ss = np.random.SeedSequence(11)
        fp = seed_fingerprint(ss)
        assert fp["type"] == "seedseq" and fp["entropy"] == 11
        ss.spawn(3)
        assert seed_fingerprint(ss)["children_spawned"] == 3

    def test_irreproducible_seeds_rejected(self):
        with pytest.raises(ValueError, match="reproducible master seed"):
            seed_fingerprint(None)  # OS entropy
        with pytest.raises(ValueError, match="reproducible master seed"):
            seed_fingerprint(np.random.default_rng(0))  # consumed state


class TestTrapSignals:
    def test_sigterm_becomes_keyboard_interrupt(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt, match="terminated by signal"):
            with trap_signals():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # the handler fires before this elapses
                pytest.fail("signal was not delivered")
        assert signal.getsignal(signal.SIGTERM) is before  # restored

    def test_restores_on_normal_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with trap_signals():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_restores_on_exception_mid_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(RuntimeError, match="boom"):
            with trap_signals():
                raise RuntimeError("boom")
        assert signal.getsignal(signal.SIGTERM) is before

    def test_nested_scopes_restore_outer_handler(self):
        # Regression: the restore loop once passed ``signal.signal``'s
        # return value straight back, which leaked handlers whenever it
        # was None (non-Python handler) — and nesting amplified the leak.
        before = signal.getsignal(signal.SIGTERM)
        with trap_signals():
            outer = signal.getsignal(signal.SIGTERM)
            with trap_signals():
                inner = signal.getsignal(signal.SIGTERM)
                assert inner is not before
            # inner scope restores the *outer* scope's trap
            assert signal.getsignal(signal.SIGTERM) is outer
        assert signal.getsignal(signal.SIGTERM) is before

    def test_restores_multiple_signals_after_partial_use(self):
        sigs = (signal.SIGTERM, signal.SIGUSR1)
        before = {s: signal.getsignal(s) for s in sigs}
        with pytest.raises(KeyboardInterrupt):
            with trap_signals(extra=sigs):
                os.kill(os.getpid(), signal.SIGUSR1)
                time.sleep(5)
                pytest.fail("signal was not delivered")
        for s in sigs:
            assert signal.getsignal(s) is before[s]

    def test_none_previous_handler_falls_back_to_default(self, monkeypatch):
        # Simulate a handler installed by non-Python code: getsignal
        # returns None.  Restoration must not raise and must leave the
        # default disposition, not the raising trap.
        real_getsignal = signal.getsignal
        monkeypatch.setattr(
            signal,
            "getsignal",
            lambda s: None if s == signal.SIGUSR1 else real_getsignal(s),
        )
        with trap_signals(extra=(signal.SIGUSR1,)):
            pass
        monkeypatch.undo()
        assert signal.getsignal(signal.SIGUSR1) == signal.SIG_DFL
        signal.signal(signal.SIGUSR1, signal.SIG_DFL)


# ---------------------------------------------------------------------- #
# resume bit-identity: evaluate_methods / sweep
# ---------------------------------------------------------------------- #
_CFG = ScenarioConfig(n_nodes=16, anchor_ratio=0.25, radio_range=0.45)
_METHOD_KW = dict(grid_size=8, max_iterations=4, include=["bn-pk", "centroid"])


def _methods():
    return standard_methods(**_METHOD_KW)


def _flatten(evaluation):
    """Deterministic view of an evaluation: summaries and message counts
    in sorted method order; wall-clock runtimes excluded by design."""
    rows = {}
    for name in sorted(evaluation):
        mr = evaluation[name]
        rows[name] = [
            [float(v) for v in dataclasses.astuple(s)] for s in mr.summaries
        ] + [[float(m) for m in mr.messages]]
    return rows


class TestResumeEvaluate:
    def test_interrupt_resume_bit_identical(self, tmp_path):
        reference = evaluate_methods(_CFG, _methods(), 2, seed=3)
        path = tmp_path / "eval.jsonl"
        with pytest.raises(CheckpointAbort):
            evaluate_methods(
                _CFG, _methods(), 2, seed=3, checkpoint=Checkpoint(path, abort_after=1)
            )
        resumed = evaluate_methods(_CFG, _methods(), 2, seed=3, checkpoint=str(path))
        assert _flatten(resumed) == _flatten(reference)

    def test_finished_ledger_resume_is_noop(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        evaluate_methods(_CFG, _methods(), 2, seed=3, checkpoint=str(path))
        ck = Checkpoint(path)
        again = evaluate_methods(_CFG, _methods(), 2, seed=3, checkpoint=ck)
        assert ck.n_recorded == 0 and ck.n_replayed == 2
        assert read_ledger(path).n_records == 2  # nothing re-appended
        assert _flatten(again) == _flatten(evaluate_methods(_CFG, _methods(), 2, seed=3))
        ck.close()

    def test_resume_with_different_args_rejected(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        evaluate_methods(_CFG, _methods(), 2, seed=3, checkpoint=str(path))
        with pytest.raises(CheckpointMismatch):
            evaluate_methods(_CFG, _methods(), 3, seed=3, checkpoint=str(path))
        with pytest.raises(CheckpointMismatch):
            evaluate_methods(
                _CFG.replace(noise_ratio=0.3), _methods(), 2, seed=3, checkpoint=str(path)
            )


class TestResumeSweep:
    _VALUES = [0.05, 0.2]

    def _sweep(self, checkpoint=None):
        return run_sweep(
            _CFG, "noise_ratio", self._VALUES, _methods(), 2, seed=9,
            checkpoint=checkpoint,
        )

    def _flatten_sweep(self, sweep):
        return [_flatten(pt) for pt in sweep.points]

    def test_interrupt_resume_bit_identical(self, tmp_path):
        reference = self._sweep()
        path = tmp_path / "sweep.jsonl"
        # die after 2 of 4 cells — mid-curve, first point unfinished too
        with pytest.raises(CheckpointAbort):
            self._sweep(checkpoint=Checkpoint(path, abort_after=2))
        progress = ledger_progress(path)
        assert progress.n_done == 2 and progress.total_cells == 4
        assert not progress.complete
        assert "incomplete" in format_progress(progress)
        resumed = self._sweep(checkpoint=str(path))
        assert self._flatten_sweep(resumed) == self._flatten_sweep(reference)
        done = ledger_progress(path)
        assert done.complete and "re-runs nothing" in format_progress(done)

    def test_finished_ledger_resume_is_noop(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._sweep(checkpoint=str(path))
        ck = Checkpoint(path)
        again = self._sweep(checkpoint=ck)
        assert ck.n_recorded == 0 and ck.n_replayed == 4
        assert self._flatten_sweep(again) == self._flatten_sweep(self._sweep())
        ck.close()

    def test_mismatched_sweep_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._sweep(checkpoint=str(path))
        with pytest.raises(CheckpointMismatch, match="values"):
            run_sweep(
                _CFG, "noise_ratio", [0.05, 0.3], _methods(), 2, seed=9,
                checkpoint=str(path),
            )

    def test_progress_requires_existing_ledger(self, tmp_path):
        with pytest.raises(LedgerError, match="does not exist"):
            ledger_progress(tmp_path / "nope.jsonl")


# ---------------------------------------------------------------------- #
# crash recovery: real subprocesses, real signals
# ---------------------------------------------------------------------- #
_CRASH_SCRIPT = """\
import sys

from repro.experiments import ScenarioConfig
from repro.experiments.runner import run_sweep, standard_methods


def main():
    cfg = ScenarioConfig(n_nodes=16, anchor_ratio=0.25, radio_range=0.45)
    methods = standard_methods(
        grid_size=10, max_iterations=5, include=["bn-pk", "centroid"]
    )
    run_sweep(
        cfg, "noise_ratio", [0.05, 0.1, 0.2], methods,
        n_trials=3, seed=17, checkpoint=sys.argv[1],
    )


if __name__ == "__main__":
    main()
"""


@pytest.mark.slow
class TestCrashRecovery:
    """Kill a checkpointed sweep subprocess mid-run, resume its ledger
    in-process, and demand bit-identity with an uninterrupted run."""

    def _reference(self):
        cfg = ScenarioConfig(n_nodes=16, anchor_ratio=0.25, radio_range=0.45)
        methods = standard_methods(
            grid_size=10, max_iterations=5, include=["bn-pk", "centroid"]
        )
        return run_sweep(
            cfg, "noise_ratio", [0.05, 0.1, 0.2], methods, n_trials=3, seed=17
        )

    def _resume(self, ledger):
        cfg = ScenarioConfig(n_nodes=16, anchor_ratio=0.25, radio_range=0.45)
        methods = standard_methods(
            grid_size=10, max_iterations=5, include=["bn-pk", "centroid"]
        )
        return run_sweep(
            cfg, "noise_ratio", [0.05, 0.1, 0.2], methods,
            n_trials=3, seed=17, checkpoint=str(ledger),
        )

    def _spawn(self, tmp_path):
        # spawned multiprocessing workers cannot re-import <stdin>, and the
        # killed process must be a real interpreter: run a script file
        script = tmp_path / "sweep_forever.py"
        script.write_text(_CRASH_SCRIPT)
        ledger = tmp_path / "sweep.jsonl"
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(ledger)],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        return proc, ledger

    def _wait_for_records(self, proc, ledger, n_lines, timeout=90.0):
        """Poll until the ledger holds ≥ *n_lines* complete lines (header
        included) or the subprocess exits on its own."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if ledger.exists() and ledger.read_text().count("\n") >= n_lines:
                return True
            if proc.poll() is not None:
                return False
            time.sleep(0.005)
        pytest.fail("subprocess produced no durable records in time")

    @pytest.mark.parametrize("min_lines", [2, 5])
    def test_sigkill_mid_sweep_then_resume_bit_identical(self, tmp_path, min_lines):
        proc, ledger = self._spawn(tmp_path)
        mid_run = self._wait_for_records(proc, ledger, min_lines)
        killed = proc.poll() is None
        if killed:
            os.kill(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate(timeout=30)
        if not mid_run and proc.returncode != 0:
            pytest.fail(f"subprocess died on its own: {stderr.decode()!r}")
        if killed:
            assert proc.returncode == -signal.SIGKILL
        # the ledger survived the kill: valid header, durable records
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a torn tail is fine
            progress = ledger_progress(ledger)
        assert progress.meta["kind"] == "sweep"
        assert progress.n_done >= 1
        resumed = self._resume(ledger)
        reference = self._reference()
        assert [_flatten(pt) for pt in resumed.points] == [
            _flatten(pt) for pt in reference.points
        ]
        # and the ledger is now complete: a second resume re-runs nothing
        assert ledger_progress(ledger).complete

    def test_sigterm_flushes_and_exits_cleanly(self, tmp_path):
        proc, ledger = self._spawn(tmp_path)
        mid_run = self._wait_for_records(proc, ledger, 2)
        terminated = proc.poll() is None
        if terminated:
            os.kill(proc.pid, signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
        if not mid_run and proc.returncode != 0:
            pytest.fail(f"subprocess died on its own: {stderr.decode()!r}")
        if terminated:
            # trap_signals turned SIGTERM into KeyboardInterrupt: the
            # process unwound (nonzero exit), it was not hard-killed
            assert proc.returncode not in (0, -signal.SIGTERM)
            assert b"KeyboardInterrupt" in stderr
        progress = ledger_progress(ledger)
        assert progress.n_done >= 1
        resumed = self._resume(ledger)
        reference = self._reference()
        assert [_flatten(pt) for pt in resumed.points] == [
            _flatten(pt) for pt in reference.points
        ]
