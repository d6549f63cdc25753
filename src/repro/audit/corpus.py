"""Seeded scenario corpus for the differential audit harness.

A :class:`ScenarioSpec` is everything one differential case needs to
replay a run exactly: a :class:`~repro.experiments.ScenarioConfig`, the
trial seed, and an optional :class:`~repro.faults.FaultPlan`.  Corpora are
built deterministically by :func:`make_corpus` — the ``smoke`` corpus
spans densities × anchor ratios × priors × ranging/connectivity/bearings
× one fault plan while staying small enough for the tier-1 suite — and a
JSON manifest of every spec is checked into ``tests/data`` so any failure
replays bit-for-bit from the pinned file (:func:`save_manifest` /
:func:`load_manifest`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.experiments.config import ChannelConfig, ScenarioConfig
from repro.faults import FaultPlan

__all__ = [
    "ScenarioSpec",
    "make_corpus",
    "CORPUS_NAMES",
    "save_manifest",
    "load_manifest",
    "manifest_dict",
]

#: bumped when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1

CORPUS_NAMES = ("smoke", "full")


@dataclass(frozen=True)
class ScenarioSpec:
    """One replayable scenario of the audit corpus."""

    scenario_id: str
    config: ScenarioConfig
    seed: int
    faults: FaultPlan | None = None

    def build(self):
        """``(network, measurements, prior)`` — deterministic in the spec."""
        from repro.experiments import build_scenario

        return build_scenario(self.config, self.seed)

    def to_dict(self) -> dict:
        d = {
            "scenario_id": self.scenario_id,
            "seed": int(self.seed),
            "config": self.config.to_dict(),
        }
        if self.faults is not None:
            f = dataclasses.asdict(self.faults)
            f["node_outages"] = [dataclasses.asdict(o) for o in self.faults.node_outages]
            f["failed_anchors"] = list(f["failed_anchors"])
            d["faults"] = f
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        from repro.faults import NodeOutage

        faults = None
        if d.get("faults") is not None:
            f = dict(d["faults"])
            f["node_outages"] = tuple(NodeOutage(**o) for o in f["node_outages"])
            f["failed_anchors"] = tuple(f["failed_anchors"])
            faults = FaultPlan(**f)
        return cls(
            scenario_id=str(d["scenario_id"]),
            config=ScenarioConfig.from_dict(d["config"]),
            seed=int(d["seed"]),
            faults=faults,
        )


def _smoke_corpus() -> list[ScenarioSpec]:
    """Small, fast, but deliberately diverse: every measurement modality,
    dense and sparse connectivity, with/without pre-knowledge, one faulted
    plan.  Node counts stay small so the whole corpus runs in the tier-1
    suite."""
    base = ScenarioConfig(
        n_nodes=25,
        anchor_ratio=0.2,
        radio_range=0.35,
        noise_ratio=0.1,
        pk_error=0.1,
    )
    specs = [
        ScenarioSpec("smoke-ranging-pk", base, seed=101),
        ScenarioSpec(
            "smoke-ranging-nopk", base.replace(pk_error=None), seed=102
        ),
        ScenarioSpec(
            "smoke-dense-anchors",
            base.replace(n_nodes=36, anchor_ratio=0.3, radio_range=0.3),
            seed=103,
        ),
        ScenarioSpec(
            "smoke-rangefree",
            base.replace(ranging="none", radio_range=0.4),
            seed=104,
        ),
        ScenarioSpec(
            "smoke-bearings",
            base.replace(bearing_sigma=0.15, n_nodes=20, radio_range=0.4),
            seed=105,
        ),
        ScenarioSpec(
            "smoke-faulted",
            base,
            seed=106,
            faults=FaultPlan(seed=7, message_drop_rate=0.3),
        ),
        ScenarioSpec(
            "smoke-rssi-channel",
            base.replace(
                ranging="rssi",
                radio_range=0.4,
                channel=ChannelConfig(
                    path_loss_exponent=3.5,
                    assumed_exponent=3.0,
                    shadowing_db=2.0,
                ),
            ),
            seed=107,
        ),
    ]
    # Eight nodes, five unknowns: small enough for the exact tier.  The
    # unknown-unknown graph of the tree specs is one spanning tree and that
    # of the loop spec one cycle; each seed is the first from 108 up with
    # that shape (tree seeds taken in order), fixed before any case ran.
    tiny = base.replace(n_nodes=8, radio_range=0.45)
    specs += [
        ScenarioSpec("smoke-tree-ranging", tiny, seed=118),
        ScenarioSpec("smoke-tree-rangefree", tiny.replace(ranging="none"), seed=122),
        ScenarioSpec(
            "smoke-tree-bearings", tiny.replace(bearing_sigma=0.15), seed=141
        ),
        ScenarioSpec("smoke-loop-ranging", tiny, seed=108),
    ]
    return specs


def _full_corpus() -> list[ScenarioSpec]:
    """The nightly-lane grid: densities × anchor ratios × modalities ×
    priors, plus a richer fault mix.  Superset of the smoke corpus."""
    specs = list(_smoke_corpus())
    seed = 200
    base = ScenarioConfig(radio_range=0.3, noise_ratio=0.1)
    for n_nodes in (40, 70):
        for anchor_ratio in (0.1, 0.25):
            for ranging in ("gaussian", "none"):
                for pk_error in (None, 0.1):
                    seed += 1
                    specs.append(
                        ScenarioSpec(
                            f"full-n{n_nodes}-a{int(anchor_ratio * 100)}"
                            f"-{ranging}-{'pk' if pk_error else 'nopk'}",
                            base.replace(
                                n_nodes=n_nodes,
                                anchor_ratio=anchor_ratio,
                                ranging=ranging,
                                pk_error=pk_error,
                            ),
                            seed=seed,
                        )
                    )
    specs.append(
        ScenarioSpec(
            "full-corrupt",
            base.replace(n_nodes=40, anchor_ratio=0.2),
            seed=990,
            faults=FaultPlan(seed=11, message_corrupt_rate=0.2, corrupt_sigma=2.0),
        )
    )
    specs.append(
        ScenarioSpec(
            "full-crash-churn",
            base.replace(n_nodes=40, anchor_ratio=0.2),
            seed=991,
            faults=FaultPlan(seed=12, message_drop_rate=0.2, node_crash_rate=0.1),
        )
    )
    return specs


def make_corpus(name: str = "smoke") -> list[ScenarioSpec]:
    """Build the named corpus (deterministic: same name → same specs)."""
    if name == "smoke":
        return _smoke_corpus()
    if name == "full":
        return _full_corpus()
    raise ValueError(f"unknown corpus {name!r} (choose from {CORPUS_NAMES})")


# --------------------------------------------------------------------- #
# manifest round-trip
# --------------------------------------------------------------------- #
def manifest_dict(corpus: list[ScenarioSpec], name: str) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "corpus": name,
        "scenarios": [spec.to_dict() for spec in corpus],
    }


def save_manifest(corpus: list[ScenarioSpec], name: str, path) -> None:
    """Write the corpus as a pinned JSON manifest (sorted keys, stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_dict(corpus, name), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path) -> list[ScenarioSpec]:
    """Reconstruct the exact corpus pinned by :func:`save_manifest`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema {data.get('schema_version')!r} unsupported "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    return [ScenarioSpec.from_dict(d) for d in data["scenarios"]]
