"""Tests for repro.audit: invariant checkers, the differential harness,
the corpus manifest, and regression pins for the bugs the harness found.

Every equivalence tier gets (a) a passing case from the standing matrix
and (b) a deliberately broken fixture proving the harness detects the
breakage — a differential harness that cannot fail is not a harness.
"""

import dataclasses
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditError,
    Auditor,
    AuditViolation,
    DiffCase,
    ScenarioContext,
    audit_localization_result,
    check_belief_matrix,
    check_message_floor,
    check_result_geometry,
    check_round_accounting,
    check_symmetric_ops,
    exact_marginals,
    is_forest,
    load_manifest,
    make_corpus,
    manifest_dict,
    resolve_audit_mode,
    run_case,
    run_corpus,
    summarize,
)
from repro.audit.harness import (
    _EXACT_BP,
    EXACT_MAX_INTERMEDIATE,
    _exact_problem,
    _run_distributed,
    _run_grid,
    _run_nbp,
)
from repro.core.result import LocalizationResult
from repro.kernels import BPProblem

pytestmark = pytest.mark.audit

DATA = os.path.join(os.path.dirname(__file__), "data")


def _spec(scenario_id):
    specs = {s.scenario_id: s for s in make_corpus("smoke")}
    return specs[scenario_id]


@pytest.fixture(scope="module")
def ranging_ctx():
    return ScenarioContext(_spec("smoke-ranging-pk"))


# --------------------------------------------------------------------- #
# invariant checkers
# --------------------------------------------------------------------- #
class TestCheckers:
    def test_healthy_beliefs_pass(self):
        b = np.full((3, 4), 0.25)
        assert check_belief_matrix(b) == []

    def test_nan_negative_unnormalized_caught(self):
        b = np.full((3, 4), 0.25)
        b[0, 0] = np.nan
        b[1, 1] = -0.1
        b[2] = 0.3
        names = {v.name for v in check_belief_matrix(b)}
        assert names == {"belief-finite", "belief-nonnegative", "belief-normalized"}

    def test_message_floor(self):
        ok = [np.array([0.5, 0.5]), np.array([1e-12, 1.0])]
        assert check_message_floor(ok, 1e-12) == []
        bad = [np.array([1e-13, 1.0])]
        assert [v.name for v in check_message_floor(bad, 1e-12)] == ["message-floor"]
        nan = [np.array([np.nan, 1.0])]
        assert [v.name for v in check_message_floor(nan, 1e-12)] == ["message-finite"]

    def test_symmetric_ops(self):
        sym = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert check_symmetric_ops([(sym, sym)]) == []
        fwd = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert check_symmetric_ops([(fwd, fwd.T)]) == []
        bad = check_symmetric_ops([(fwd, fwd)])
        assert [v.name for v in bad] == ["potential-symmetric"]

    def test_result_geometry(self):
        est = np.array([[0.5, 0.5], [1.5, 0.5]])
        mask = np.array([True, True])
        res = LocalizationResult(est, mask, "t")
        names = [v.name for v in check_result_geometry(res, 1.0, 1.0)]
        assert names == ["estimate-in-field"]
        anchors = np.array([False, True])
        res2 = LocalizationResult(
            np.array([[0.5, 0.5], [0.6, 0.6]]), np.array([True, False]), "t"
        )
        names = [
            v.name for v in check_result_geometry(res2, 1.0, 1.0, anchor_mask=anchors)
        ]
        assert names == ["localized-superset-anchors"]

    def test_round_accounting(self, ranging_ctx):
        result, stats = _run_distributed(ranging_ctx, with_stats=True)
        K = result.extras["grid"].n_cells
        anchor_broadcasts = result.messages_sent - sum(s.messages for s in stats)
        from repro.core.bnloc import _ANCHOR_BROADCAST_BYTES

        assert (
            check_round_accounting(
                result, stats, anchor_broadcasts, _ANCHOR_BROADCAST_BYTES, K * 8
            )
            == []
        )
        # a leaked message must trip conservation
        result.messages_sent += 1
        bad = check_round_accounting(
            result, stats, anchor_broadcasts, _ANCHOR_BROADCAST_BYTES, K * 8
        )
        assert "accounting-messages-conserved" in [v.name for v in bad]

    def test_bundle_covers_beliefs(self, ranging_ctx):
        res = _run_grid(ranging_ctx)
        ms = ranging_ctx.measurements
        assert (
            audit_localization_result(
                res, ms.width, ms.height, anchor_mask=ms.anchor_mask
            )
            == []
        )
        u = next(iter(res.extras["beliefs"]))
        res.extras["beliefs"][u] = res.extras["beliefs"][u] * 2.0
        names = [
            v.name
            for v in audit_localization_result(
                res, ms.width, ms.height, anchor_mask=ms.anchor_mask
            )
        ]
        assert "belief-normalized" in names


class TestAuditorAndModes:
    def test_mode_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert resolve_audit_mode(None) is None
        assert resolve_audit_mode("off") is None
        assert resolve_audit_mode("warn") == "warn"
        assert resolve_audit_mode("raise") == "raise"
        monkeypatch.setenv("REPRO_AUDIT", "warn")
        assert resolve_audit_mode(None) == "warn"
        assert resolve_audit_mode("off") is None  # config wins
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert resolve_audit_mode(None) == "raise"
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert resolve_audit_mode(None) is None
        with pytest.raises(ValueError):
            resolve_audit_mode("loud")

    def test_warn_and_raise(self):
        v = AuditViolation("x", "boom", {"k": 1})
        a = Auditor("warn", solver="s")
        a.extend([v])
        with pytest.warns(RuntimeWarning, match="boom"):
            a.finish()
        b = Auditor("raise")
        b.extend([v])
        with pytest.raises(AuditError, match="boom"):
            b.finish()
        # clean finish is silent
        Auditor("raise").finish()

    def test_solver_raise_mode_clean_run(self, ranging_ctx):
        from repro.core.bnloc import GridBPConfig, GridBPLocalizer

        cfg = GridBPConfig(grid_size=8, max_iterations=4, audit="raise")
        res = GridBPLocalizer(prior=ranging_ctx.prior, config=cfg).localize(
            ranging_ctx.measurements
        )
        assert res.localized_mask.all()

    def test_env_toggle_reaches_solver(self, ranging_ctx, monkeypatch):
        from repro.core.bnloc import GridBPConfig, GridBPLocalizer

        monkeypatch.setenv("REPRO_AUDIT", "raise")
        cfg = GridBPConfig(grid_size=8, max_iterations=4)
        res = GridBPLocalizer(prior=ranging_ctx.prior, config=cfg).localize(
            ranging_ctx.measurements
        )
        assert res.localized_mask.all()

    def test_config_rejects_bad_mode(self):
        from repro.core.bnloc import GridBPConfig
        from repro.core.nbp import NBPConfig

        with pytest.raises(ValueError):
            GridBPConfig(audit="loud")
        with pytest.raises(ValueError):
            NBPConfig(audit="loud")


# --------------------------------------------------------------------- #
# corpus + manifest
# --------------------------------------------------------------------- #
class TestCorpus:
    def test_deterministic(self):
        a = make_corpus("smoke")
        b = make_corpus("smoke")
        assert [s.scenario_id for s in a] == [s.scenario_id for s in b]
        assert a == b

    def test_full_superset_of_smoke(self):
        smoke = {s.scenario_id for s in make_corpus("smoke")}
        full = {s.scenario_id for s in make_corpus("full")}
        assert smoke < full

    def test_unknown_corpus(self):
        with pytest.raises(ValueError):
            make_corpus("nightly")

    def test_manifest_roundtrip(self, tmp_path):
        from repro.audit import save_manifest

        corpus = make_corpus("smoke")
        path = tmp_path / "m.json"
        save_manifest(corpus, "smoke", path)
        assert load_manifest(path) == corpus

    def test_pinned_manifest_matches_code(self):
        """tests/data pin == what the code generates, so any corpus edit
        must consciously regenerate the replay file."""
        path = os.path.join(DATA, "audit_corpus_smoke.json")
        assert load_manifest(path) == make_corpus("smoke")
        with open(path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == json.loads(
            json.dumps(manifest_dict(make_corpus("smoke"), "smoke"))
        )

    def test_manifest_schema_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "scenarios": []}))
        with pytest.raises(ValueError, match="schema"):
            load_manifest(path)


# --------------------------------------------------------------------- #
# differential harness: each tier passes, and each tier detects breakage
# --------------------------------------------------------------------- #
def _broken_bit_runner(ctx):
    res = _run_grid(ctx)
    res.estimates = res.estimates.copy()
    u = int(np.flatnonzero(~ctx.measurements.anchor_mask)[0])
    res.estimates[u, 0] += 1e-9  # one ULP-scale nudge must be caught
    return res


def _broken_statistical_runner(ctx):
    res = _run_grid(ctx)
    res.estimates = res.estimates.copy()
    unknown = ~ctx.measurements.anchor_mask
    # shift every unknown estimate by 2 radio ranges: far outside any band
    res.estimates[unknown, 0] = np.clip(
        res.estimates[unknown, 0] + 2 * ctx.radio_range, 0, ctx.measurements.width
    )
    return res


def _broken_invariant_runner(ctx):
    res = _run_grid(ctx)
    res.estimates = res.estimates.copy()
    u = int(np.flatnonzero(~ctx.measurements.anchor_mask)[0])
    res.estimates[u] = (ctx.measurements.width + 0.5, -0.25)
    return res


class TestHarnessTiers:
    def test_bit_tier_passes(self, ranging_ctx):
        case = DiffCase(
            "central-vs-distributed", "bit", run_ref=_run_grid, run_alt=_run_distributed
        )
        report = run_case(case, ranging_ctx)
        assert report.passed and report.detail["max_deviation"] == 0.0

    def test_bit_tier_detects_single_ulp(self, ranging_ctx):
        case = DiffCase(
            "broken-bit", "bit", run_ref=_run_grid, run_alt=_broken_bit_runner
        )
        report = run_case(case, ranging_ctx)
        assert not report.passed
        assert report.detail["mismatch"] == "estimates"

    def test_statistical_tier_passes(self, ranging_ctx):
        case = DiffCase(
            "nbp-vs-grid", "statistical", run_ref=_run_grid, run_alt=_run_nbp, tol=0.75
        )
        assert run_case(case, ranging_ctx).passed

    def test_statistical_tier_detects_shift(self, ranging_ctx):
        case = DiffCase(
            "broken-stat",
            "statistical",
            run_ref=_run_grid,
            run_alt=_broken_statistical_runner,
            tol=0.75,
        )
        report = run_case(case, ranging_ctx)
        assert not report.passed
        assert report.detail["mismatch"] == "accuracy band"

    def test_invariant_tier_passes(self, ranging_ctx):
        case = DiffCase("grid-invariants", "invariant", run_ref=_run_grid)
        report = run_case(case, ranging_ctx)
        assert report.passed and not report.violations

    def test_invariant_tier_detects_out_of_field(self, ranging_ctx):
        case = DiffCase(
            "broken-invariant", "invariant", run_ref=_broken_invariant_runner
        )
        report = run_case(case, ranging_ctx)
        assert not report.passed
        assert "estimate-in-field" in [v.name for v in report.violations]

    def test_invariants_guard_every_tier(self, ranging_ctx):
        """A bit-equal pair that is *broken the same way* still fails."""
        case = DiffCase(
            "both-broken",
            "bit",
            run_ref=_broken_invariant_runner,
            run_alt=_broken_invariant_runner,
        )
        report = run_case(case, ranging_ctx)
        assert not report.passed and report.violations

    def test_case_validation(self):
        with pytest.raises(ValueError, match="tier"):
            DiffCase("x", "fuzzy", run_ref=_run_grid)
        with pytest.raises(ValueError, match="run_alt"):
            DiffCase("x", "bit", run_ref=_run_grid)


class TestRunCorpusSmoke:
    """The tier-1 smoke lane: the full standing matrix must be green."""

    @pytest.fixture(scope="class")
    def reports(self):
        return run_corpus("smoke")

    def test_all_clear(self, reports):
        failed = [r for r in reports if not r.passed]
        assert not failed, summarize(reports)

    def test_every_tier_exercised(self, reports):
        assert {r.tier for r in reports} == {"bit", "statistical", "exact", "invariant"}

    def test_summarize_renders(self, reports):
        text = summarize(reports)
        assert "all clear" in text and "bit:" in text and "exact:" in text
        exact_rows = [line for line in text.splitlines() if "grid-vs-exact" in line]
        assert exact_rows and all("max_abs=" in line for line in exact_rows)
        assert all(" kl=" in line for line in exact_rows)
        assert summarize([]).startswith("no audit cases ran")

    @pytest.mark.slow
    def test_worker_count_bit_identity(self):
        spec = _spec("smoke-ranging-pk")
        from repro.audit.harness import default_cases

        case = {c.name: c for c in default_cases()}["workers-1-vs-2"]
        assert run_case(case, ScenarioContext(spec)).passed


# --------------------------------------------------------------------- #
# regression pins for the bugs the harness surfaced
# --------------------------------------------------------------------- #
class TestHarnessBugRegressions:
    def test_rangefree_central_vs_distributed_bit_identical(self):
        """Pinned: smoke-rangefree once diverged at the last ulp because
        the centralized solver used a dense connectivity potential (BLAS
        gemv) while the distributed one used CSR matvec."""
        ctx = ScenarioContext(_spec("smoke-rangefree"))
        case = DiffCase(
            "central-vs-distributed", "bit", run_ref=_run_grid, run_alt=_run_distributed
        )
        report = run_case(case, ctx)
        assert report.passed, report.detail

    def test_nbp_estimates_stay_in_field(self):
        """Pinned: smoke-dense-anchors once produced NBP estimates outside
        the deployment field — unclipped proposals survived reweighting
        under the unbounded Gaussian pre-knowledge prior."""
        ctx = ScenarioContext(_spec("smoke-dense-anchors"))
        res = _run_nbp(ctx)
        ms = ctx.measurements
        assert check_result_geometry(res, ms.width, ms.height) == []
        est = res.estimates[res.localized_mask]
        assert (est[:, 0] >= 0).all() and (est[:, 0] <= ms.width).all()
        assert (est[:, 1] >= 0).all() and (est[:, 1] <= ms.height).all()


class TestDegenerateInbox:
    """SensorNodeAgent must survive an all--inf summed potential without
    emitting NaN messages or beliefs (the psi.dot(exp(h)) poison path)."""

    def _agent(self, K=4):
        from repro.parallel.messaging import SensorNodeAgent

        psi = np.full((K, K), 1.0 / K)
        agent = SensorNodeAgent(0, log_phi=np.full(K, -np.inf))
        agent.add_neighbor(1, psi, K)
        agent.reset_memory(K)
        return agent, K

    def test_outgoing_uniform_not_nan(self):
        agent, K = self._agent()
        out = agent.compute_outgoing(damping=0.0)
        np.testing.assert_allclose(out[1], np.full(K, 1.0 / K))
        assert np.isfinite(out[1]).all()

    def test_outgoing_with_damping(self):
        agent, K = self._agent()
        out = agent.compute_outgoing(damping=0.5)
        assert np.isfinite(out[1]).all()
        np.testing.assert_allclose(out[1].sum(), 1.0)

    def test_belief_uniform_not_nan(self):
        agent, K = self._agent()
        np.testing.assert_allclose(agent.belief(), np.full(K, 1.0 / K))

    def test_zeroed_inbox_message(self):
        # a fault-zeroed incoming message: log(0) = -inf enters `total`
        agent, K = self._agent()
        agent.log_phi = np.zeros(K)
        agent.inbox[1] = np.zeros(K)
        out = agent.compute_outgoing(damping=0.0)
        assert np.isfinite(out[1]).all()
        assert np.isfinite(agent.belief()).all()


class TestCLIAudit:
    def test_cli_smoke_green(self, capsys):
        from repro.cli import main

        assert main(["audit", "--corpus", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "all clear" in out

    def test_cli_manifest_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "manifest.json"
        assert main(["audit", "--manifest", str(path)]) == 0
        assert load_manifest(path) == make_corpus("smoke")


# --------------------------------------------------------------------- #
# checkpoint/resume lane (repro.ckpt × repro.audit)
# --------------------------------------------------------------------- #
class TestDelayConservation:
    def test_balanced_ledger_passes(self):
        from repro.audit import check_delay_conservation

        assert check_delay_conservation({}) == []
        assert (
            check_delay_conservation(
                {
                    "messages_delayed": 5,
                    "messages_arrived_late": 2,
                    "messages_delayed_expired": 1,
                    "messages_in_flight_at_end": 2,
                }
            )
            == []
        )

    def test_vanished_messages_flagged(self):
        from repro.audit import check_delay_conservation

        violations = check_delay_conservation(
            {"messages_delayed": 5, "messages_arrived_late": 2}
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.name == "delay-conservation"
        assert v.context["delayed"] == 5
        assert v.context["in_flight_at_end"] == 0


@pytest.mark.ckpt
class TestCkptDiffCase:
    """The resume guarantee is part of the standing audit matrix: an
    interrupted-then-resumed evaluation must match the uninterrupted one
    at the *bit* tier."""

    def _case(self):
        from repro.audit import default_cases

        cases = {c.name: c for c in default_cases()}
        assert "ckpt-resume-vs-uninterrupted" in cases
        return cases["ckpt-resume-vs-uninterrupted"]

    def test_registered_at_bit_tier_in_default_lane(self):
        case = self._case()
        assert case.tier == "bit"
        assert not getattr(case, "slow", False)

    def test_passes_on_smoke_scenario(self, ranging_ctx):
        report = run_case(self._case(), ranging_ctx)
        assert report.passed, report.detail


class TestSolverVsReferenceCase:
    """``solver-vs-reference`` pins ``GridBPLocalizer.localize`` (vectorized
    node potentials, the schedule's kernel) to its reference path
    (baseline node potentials, the plain per-node loop) at the bit tier."""

    def _case(self):
        from repro.audit import default_cases

        return {c.name: c for c in default_cases()}["solver-vs-reference"]

    def test_registered_at_bit_tier_in_default_lane(self):
        from repro.audit import default_cases

        case = self._case()
        assert case.tier == "bit" and not case.slow
        names = {c.name for c in default_cases()}
        assert not names & {
            "optimized-vs-reference",
            "batched-vs-reference",
            "batched-cache-warm-vs-cold",
        }

    def test_passes_on_smoke_scenario(self, ranging_ctx):
        report = run_case(self._case(), ranging_ctx)
        assert report.passed, report.detail

    def test_detects_kernel_drift(self, ranging_ctx, monkeypatch):
        from repro.kernels import get_backend

        kernel = get_backend("batched")
        original = kernel.run

        def drifting(problem, tracer=None):
            out = original(problem)
            out.beliefs[0] = np.nextafter(out.beliefs[0], 1.0)  # one ULP
            return out

        monkeypatch.setattr(kernel, "run", drifting)
        report = run_case(self._case(), ranging_ctx)
        assert not report.passed
        assert report.detail["mismatch"] in ("estimates", "beliefs")

    def test_detects_node_potential_drift(self, ranging_ctx, monkeypatch):
        from repro.core.bnloc import GridBPLocalizer

        original = GridBPLocalizer._node_potential_block

        def drifting(self, *args):
            log_phis = original(self, *args)
            log_phis[0][0] = np.nextafter(log_phis[0][0], -np.inf)
            return log_phis

        monkeypatch.setattr(GridBPLocalizer, "_node_potential_block", drifting)
        report = run_case(self._case(), ranging_ctx)
        assert not report.passed
        assert report.detail["mismatch"] in ("estimates", "beliefs")


# --------------------------------------------------------------------- #
# exact tier: the einsum oracle and the grid-vs-exact case
# --------------------------------------------------------------------- #
TREE_SPECS = ("smoke-tree-ranging", "smoke-tree-rangefree", "smoke-tree-bearings")
LOOP_SPEC = "smoke-loop-ranging"


def _toy_problem(log_phi, edges, ops):
    return BPProblem(np.asarray(log_phi, dtype=float), edges, ops, grid=None, cfg=None)


def _brute_force_marginals(problem):
    """Marginals by enumerating every joint state: node i contributes
    exp(log_phi[i, x_i]), edge (i, j) contributes fwd[x_j, x_i] — the
    operator the kernels apply to send the i→j message."""
    n, K = problem.log_phi.shape
    phi = np.exp(problem.log_phi)
    out = np.zeros((n, K))
    for x in itertools.product(range(K), repeat=n):
        w = np.prod([phi[i, x[i]] for i in range(n)])
        for (i, j), (fwd, _bwd) in zip(problem.edges, problem.ops):
            w *= fwd[x[j], x[i]]
        for i in range(n):
            out[i, x[i]] += w
    return out / out.sum(axis=1, keepdims=True)


def _exact_case():
    from repro.audit import default_cases

    return {c.name: c for c in default_cases()}["grid-vs-exact"]


class TestExactOracle:
    def test_chain(self):
        rng = np.random.default_rng(0)
        psi = rng.uniform(0.1, 1.0, (3, 3))
        psi = psi + psi.T
        p = _toy_problem(rng.normal(size=(4, 3)), [(0, 1), (1, 2), (2, 3)], [(psi, psi)] * 3)
        np.testing.assert_allclose(exact_marginals(p), _brute_force_marginals(p), atol=1e-14)
        assert is_forest(p)

    def test_triangle(self):
        rng = np.random.default_rng(1)
        ops = []
        for _ in range(3):
            psi = rng.uniform(0.1, 1.0, (4, 4))
            ops.append((psi + psi.T, psi + psi.T))
        p = _toy_problem(rng.normal(size=(3, 4)), [(0, 1), (1, 2), (0, 2)], ops)
        np.testing.assert_allclose(exact_marginals(p), _brute_force_marginals(p), atol=1e-14)
        assert not is_forest(p)

    def test_oriented_edge(self):
        """An asymmetric pair (fwd != bwd, as bearings build): the oracle
        follows the i→j orientation, and swapping the pair changes it."""
        rng = np.random.default_rng(2)
        fwd = rng.uniform(0.0, 1.0, (4, 4))
        log_phi = rng.normal(size=(2, 4))
        p = _toy_problem(log_phi, [(0, 1)], [(fwd, fwd.T)])
        np.testing.assert_allclose(exact_marginals(p), _brute_force_marginals(p), atol=1e-14)
        swapped = _toy_problem(log_phi, [(0, 1)], [(fwd.T, fwd)])
        assert np.abs(exact_marginals(swapped) - exact_marginals(p)).max() > 1e-2

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 4), label="unknowns")
        K = data.draw(st.integers(2, 4), label="cells")
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ops = []
        for _ in edges:
            fwd = rng.uniform(0.0, 1.0, (K, K))
            ops.append((fwd, fwd.T))
        p = _toy_problem(rng.normal(scale=3.0, size=(n, K)), edges, ops)
        np.testing.assert_allclose(exact_marginals(p), _brute_force_marginals(p), atol=1e-12)

    def test_over_budget_refused_before_contracting(self, monkeypatch):
        K = 100
        edges = list(itertools.combinations(range(5), 2))
        psi = np.ones((K, K))
        p = _toy_problem(np.zeros((5, K)), edges, [(psi, psi)] * len(edges))

        def contracted(*args, **kwargs):
            raise AssertionError("np.einsum ran on an over-budget problem")

        monkeypatch.setattr(np, "einsum", contracted)
        # The 5-clique's greedy plan ends in one step over all 5 nodes.
        assert K**5 > EXACT_MAX_INTERMEDIATE
        with pytest.raises(ValueError, match=f"{K**5}-cell intermediate"):
            exact_marginals(p)


class TestExactCorpus:
    @pytest.mark.parametrize("scenario_id", TREE_SPECS)
    def test_tree_specs_build_forests(self, scenario_id):
        problem = _exact_problem(ScenarioContext(_spec(scenario_id)), **_EXACT_BP)
        assert problem.edges and is_forest(problem)

    def test_loop_spec_has_one_cycle(self):
        problem = _exact_problem(ScenarioContext(_spec(LOOP_SPEC)), **_EXACT_BP)
        assert not is_forest(problem)
        assert len(problem.edges) == problem.n_unknowns  # connected + one cycle

    def test_case_applies_to_the_tiny_specs_only(self):
        case = _exact_case()
        assert case.tier == "exact" and not case.slow and case.tol == 1e-6
        applied = {s.scenario_id for s in make_corpus("smoke") if case.applies(s)}
        assert applied == {*TREE_SPECS, LOOP_SPEC}

    def test_loopy_errors_are_tracked(self):
        report = run_case(_exact_case(), ScenarioContext(_spec(LOOP_SPEC)))
        assert report.passed and report.detail["graph"] == "loopy"
        assert 0 < report.detail["max_abs"] < 1 and report.detail["max_kl"] > 0

    def test_detects_misoriented_messages(self, monkeypatch):
        """A kernel that applies each edge's operators the wrong way round
        still converges on the bearings tree, to the wrong marginals."""
        from repro.kernels import get_backend

        kernel = get_backend("batched")
        original = kernel.run

        def swapped(problem, tracer=None):
            ops = [(bwd, fwd) for fwd, bwd in problem.ops]
            return original(dataclasses.replace(problem, ops=ops))

        monkeypatch.setattr(kernel, "run", swapped)
        report = run_case(_exact_case(), ScenarioContext(_spec("smoke-tree-bearings")))
        assert not report.passed
        assert report.detail["mismatch"] == "marginals"
        assert report.detail["max_abs"] > 1e-2


@pytest.fixture
def no_message_floor(monkeypatch):
    """Every BP implementation with its 1e-12 message floor lowered to
    1e-300, so tree beliefs can match the exact marginals to rounding."""
    import repro.kernels.batched
    import repro.kernels.reference
    import repro.parallel.messaging

    for module in (repro.kernels.reference, repro.kernels.batched, repro.parallel.messaging):
        monkeypatch.setattr(module, "_MSG_FLOOR", 1e-300)


class TestFloorlessBPExactOnTrees:
    """Sum-product BP is exact on a tree; with the message floor out of the
    way the only gap left is rounding."""

    @pytest.fixture(scope="class", params=TREE_SPECS)
    def tree(self, request):
        ctx = ScenarioContext(_spec(request.param))
        problem = _exact_problem(ctx, **_EXACT_BP)
        return ctx, problem, exact_marginals(problem)

    @staticmethod
    def _solve(solver, ctx, problem):
        """``(beliefs, converged)`` of one BP implementation."""
        from repro.kernels import get_backend
        from repro.parallel.messaging import DistributedBPSimulator

        if solver == "distributed":
            sim = DistributedBPSimulator(prior=ctx.prior, config=problem.cfg)
            result, _ = sim.run(ctx.measurements)
            return np.stack(list(result.extras["beliefs"].values())), result.converged
        if solver == "serial-loop":
            cfg = dataclasses.replace(problem.cfg, schedule="serial")
            out = get_backend("reference").run(dataclasses.replace(problem, cfg=cfg))
        else:
            out = get_backend("batched").run(problem)
        return out.beliefs, out.converged

    @pytest.mark.parametrize("solver", ["sync-batched", "serial-loop", "distributed"])
    def test_matches_exact_marginals(self, tree, solver, no_message_floor):
        ctx, problem, exact = tree
        beliefs, converged = self._solve(solver, ctx, problem)
        assert converged
        assert np.abs(beliefs - exact).max() <= 1e-12
