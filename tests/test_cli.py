"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nodes == 100
        assert args.anchor_ratio == 0.1
        assert args.command == "run"

    def test_sweep_requires_param_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])
        args = build_parser().parse_args(
            ["sweep", "--param", "anchor_ratio", "--values", "0.1,0.2"]
        )
        assert args.param == "anchor_ratio"

    def test_sweep_rejects_unknown_param(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--param", "color", "--values", "1"]
            )


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "bn-pk" in out and "ICPP 2007" in out

    def test_run_small(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "40",
                "--trials", "1",
                "--methods", "bn,centroid",
                "--grid-size", "10",
                "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bn" in out and "centroid" in out and "mean/r" in out

    def test_run_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["run", "--methods", "oracle", "--trials", "1"])

    def test_run_empty_methods(self):
        with pytest.raises(SystemExit):
            main(["run", "--methods", ",", "--trials", "1"])

    def test_sweep_small(self, capsys):
        rc = main(
            [
                "sweep",
                "--param", "anchor_ratio",
                "--values", "0.15,0.3",
                "--nodes", "40",
                "--trials", "1",
                "--methods", "bn",
                "--grid-size", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "anchor_ratio" in out
        assert "0.150" in out and "0.300" in out

    def test_sweep_bad_values(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--param", "anchor_ratio",
                    "--values", "a,b",
                    "--methods", "bn",
                ]
            )

    def test_sweep_empty_values(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--param", "anchor_ratio",
                    "--values", ",",
                    "--methods", "bn",
                ]
            )

    def test_pk_error_zero_disables_prior(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "40",
                "--trials", "1",
                "--methods", "bn-pk",
                "--pk-error", "0",
                "--grid-size", "10",
            ]
        )
        assert rc == 0

    def test_nlos_option(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "40",
                "--trials", "1",
                "--methods", "bn",
                "--nlos-fraction", "0.3",
                "--grid-size", "10",
            ]
        )
        assert rc == 0

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.method == "grid-bp"
        assert args.iterations == 15
        assert args.json is False
        assert args.output is None

    def test_trace_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--method", "dv-hop"])

    _TRACE_ARGS = [
        "trace",
        "--nodes", "40",
        "--grid-size", "10",
        "--iterations", "4",
        "--seed", "2",
    ]

    def test_trace_table_output(self, capsys):
        assert main(self._TRACE_ARGS) == 0
        out = capsys.readouterr().out
        assert "trace: grid-bp" in out
        assert "residual" in out and "messages_cum" in out
        assert "counters:" in out and "timers:" in out
        assert "final mean error / r" in out

    def test_trace_json_output(self, capsys):
        assert main(self._TRACE_ARGS + ["--json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["meta"]["method"] == "grid-bp"
        assert len(trace["iterations"]) >= 1
        assert all(rec["residual"] >= 0 for rec in trace["iterations"])

    def test_trace_json_reproducible_across_invocations(self, capsys):
        main(self._TRACE_ARGS + ["--json"])
        first = json.loads(capsys.readouterr().out)
        main(self._TRACE_ARGS + ["--json"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timers"), second.pop("timers")  # wall clock differs
        assert first == second

    def test_trace_output_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(self._TRACE_ARGS + ["--output", str(path)]) == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["meta"]["method"] == "grid-bp"
        # table still printed alongside the file
        assert "trace: grid-bp" in capsys.readouterr().out

    def test_trace_nbp(self, capsys):
        rc = main(
            [
                "trace",
                "--nodes", "30",
                "--method", "nbp",
                "--iterations", "2",
                "--seed", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace: nbp" in out

    def test_trace_nbp_rejects_rangefree(self):
        # NBP needs distances; connectivity-only observations must exit
        # with the CLI's clean error, not a raw traceback
        with pytest.raises(SystemExit, match="error:"):
            main(
                [
                    "trace",
                    "--nodes", "30",
                    "--radio-range", "0.35",
                    "--method", "nbp",
                    "--ranging", "none",
                    "--iterations", "2",
                ]
            )

    @pytest.mark.stream
    def test_stream_small(self, capsys):
        rc = main(
            [
                "stream",
                "--networks", "3",
                "--nodes", "12",
                "--steps", "2",
                "--grid", "8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "networks tracked: 3" in out
        assert "lost networks: 0" in out
        assert "solved: 9" in out
        assert "staleness ms: p50" in out
        # an inline run has no workers to replace
        assert "worker_replacements" not in out

    def test_run_with_map(self, capsys):
        rc = main(
            [
                "run",
                "--nodes", "35",
                "--trials", "1",
                "--methods", "bn",
                "--grid-size", "10",
                "--map",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "A=anchor" in out
        assert "mean/r" in out


@pytest.mark.ckpt
class TestCheckpointResume:
    """``--checkpoint`` on run/sweep plus the ``resume`` subcommand."""

    _RUN = [
        "run",
        "--nodes", "40",
        "--radio-range", "0.35",
        "--trials", "2",
        "--methods", "bn,centroid",
        "--grid-size", "10",
        "--seed", "3",
    ]
    _SWEEP = [
        "sweep",
        "--param", "anchor_ratio",
        "--values", "0.15,0.3",
        "--nodes", "40",
        "--trials", "1",
        "--methods", "bn",
        "--grid-size", "10",
        "--seed", "2",
    ]

    @staticmethod
    def _data_rows(out):
        """Table rows (method/value rows), ignoring titles and rules."""
        return [
            line for line in out.splitlines()
            if line.strip().startswith(("bn", "centroid", "0."))
        ]

    def test_parser_accepts_checkpoint(self):
        args = build_parser().parse_args(["run", "--checkpoint", "l.jsonl"])
        assert args.checkpoint == "l.jsonl"
        assert build_parser().parse_args(["run"]).checkpoint is None
        args = build_parser().parse_args(["resume", "l.jsonl", "--status"])
        assert args.ledger == "l.jsonl" and args.status is True

    def test_run_checkpoint_status_and_noop_resume(self, tmp_path, capsys):
        ledger = tmp_path / "run.jsonl"
        assert main(self._RUN + ["--checkpoint", str(ledger)]) == 0
        original = capsys.readouterr().out
        assert ledger.exists()

        assert main(["resume", str(ledger), "--status"]) == 0
        status = capsys.readouterr().out
        assert "run kind: evaluate" in status
        assert "progress: 2/2 cells done (100%)" in status
        assert "resuming re-runs nothing" in status

        before = ledger.read_bytes()
        assert main(["resume", str(ledger)]) == 0
        resumed = capsys.readouterr().out
        assert ledger.read_bytes() == before  # zero trials re-recorded
        # replayed statistics (runtimes included — they come from the
        # ledger) render identically to the original run's table
        assert self._data_rows(resumed) == self._data_rows(original)

    def test_sweep_checkpoint_resume_continues(self, tmp_path, capsys):
        ledger = tmp_path / "sweep.jsonl"
        assert main(self._SWEEP + ["--checkpoint", str(ledger)]) == 0
        original = capsys.readouterr().out

        assert main(["resume", str(ledger), "--status"]) == 0
        status = capsys.readouterr().out
        assert "run kind: sweep" in status
        assert "sweep: anchor_ratio" in status
        assert "progress: 2/2 cells done (100%)" in status

        assert main(["resume", str(ledger)]) == 0
        resumed = capsys.readouterr().out
        assert self._data_rows(resumed) == self._data_rows(original)

    @pytest.mark.parametrize("argv", ["_RUN", "_SWEEP"], ids=["run", "sweep"])
    def test_resume_ledger_carrying_removed_backend_key(self, tmp_path, argv):
        # Runs started with the removed `--backend batched` option wrote it
        # into the header's method_kwargs.  Such a ledger still resumes,
        # and the trials it re-runs match the uninterrupted run bit for bit.
        from repro.ckpt import Checkpoint, decode_value, read_ledger

        full = tmp_path / "full.jsonl"
        assert main(getattr(self, argv) + ["--checkpoint", str(full)]) == 0
        done = read_ledger(full)
        meta = dict(done.meta)
        meta["method_kwargs"] = {**meta["method_kwargs"], "backend": "batched"}
        old = tmp_path / "old.jsonl"
        first = next(iter(done.records))
        ck = Checkpoint(old).open(meta)
        ck.record(first, done.records[first])
        ck.close()

        assert main(["resume", str(old)]) == 0
        resumed = read_ledger(old)
        assert resumed.meta["method_kwargs"]["backend"] == "batched"
        assert sorted(resumed.records) == sorted(done.records)

        def stats(payload):
            # (ErrorSummary, messages) per method; runtimes are wall-clock.
            trial = decode_value(payload["result"])
            return {name: (repr(v[0]), v[1]) for name, v in trial.items()}

        for key, payload in done.records.items():
            assert stats(resumed.records[key]) == stats(payload)

    def test_checkpoint_mismatch_is_clean_error(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        assert main(self._RUN + ["--checkpoint", str(ledger)]) == 0
        changed = [a if a != "2" else "3" for a in self._RUN]
        with pytest.raises(SystemExit, match="different run"):
            main(changed + ["--checkpoint", str(ledger)])

    def test_resume_missing_ledger_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["resume", str(tmp_path / "nope.jsonl")])

    def test_resume_rejects_foreign_ledger_kind(self, tmp_path):
        from repro.ckpt import Checkpoint

        ledger = tmp_path / "trials.jsonl"
        Checkpoint(ledger).open(
            {"kind": "trials", "n_trials": 2, "seed": {"type": "int", "value": 0}}
        ).close()
        with pytest.raises(SystemExit, match="cannot resume a 'trials' ledger"):
            main(["resume", str(ledger)])

    def test_resume_rejects_garbage_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("deadbeef {\"kind\":\"trial\"}\n")
        with pytest.warns(RuntimeWarning, match="quarantining"):
            with pytest.raises(SystemExit, match="error:"):
                main(["resume", str(bad)])
