"""Cross-solver correctness tooling: runtime invariants + differential audit.

Two halves, one discipline:

* :mod:`repro.audit.invariants` — composable invariant checkers (beliefs
  normalized/finite/non-negative, messages above the floor, symmetric
  potentials, conserved message/byte accounting, in-field estimates,
  ``localized_mask ⊇ anchor_mask``) that solvers run behind
  ``GridBPConfig(audit="warn"|"raise")`` or the ``REPRO_AUDIT`` env
  toggle, at zero cost when off.
* :mod:`repro.audit.harness` + :mod:`repro.audit.corpus` — a seeded
  scenario corpus and a differential runner that executes solver pairs
  and asserts the declared equivalence tier: ``bit`` (byte-identical),
  ``statistical`` (tolerance bands), ``exact`` (grid-BP beliefs against
  the exact marginals of small problems), or ``invariant`` (faulted
  runs).

Run it from the command line with ``python -m repro audit --corpus smoke``
or from pytest via the ``audit`` marker lane.
"""

from repro.audit.corpus import (
    CORPUS_NAMES,
    ScenarioSpec,
    load_manifest,
    make_corpus,
    manifest_dict,
    save_manifest,
)
from repro.audit.harness import (
    DiffCase,
    DiffReport,
    ReferenceGridBP,
    ScenarioContext,
    default_cases,
    exact_marginals,
    is_forest,
    run_case,
    run_corpus,
    summarize,
)
from repro.audit.invariants import (
    AuditError,
    AuditViolation,
    Auditor,
    audit_localization_result,
    check_belief_dict,
    check_belief_matrix,
    check_delay_conservation,
    check_message_floor,
    check_result_geometry,
    check_round_accounting,
    check_symmetric_ops,
    resolve_audit_mode,
)

__all__ = [
    "AuditError",
    "AuditViolation",
    "Auditor",
    "resolve_audit_mode",
    "audit_localization_result",
    "check_belief_matrix",
    "check_belief_dict",
    "check_delay_conservation",
    "check_message_floor",
    "check_symmetric_ops",
    "check_result_geometry",
    "check_round_accounting",
    "ScenarioSpec",
    "make_corpus",
    "CORPUS_NAMES",
    "save_manifest",
    "load_manifest",
    "manifest_dict",
    "ScenarioContext",
    "DiffCase",
    "DiffReport",
    "ReferenceGridBP",
    "default_cases",
    "exact_marginals",
    "is_forest",
    "run_case",
    "run_corpus",
    "summarize",
]
