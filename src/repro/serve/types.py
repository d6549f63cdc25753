"""Request/response model of the localization service.

A :class:`LocalizeRequest` carries one localization problem — either a
prebuilt :class:`~repro.measurement.MeasurementSet` (the normal service
path: measurements in, posterior out) or a
:class:`~repro.experiments.ScenarioConfig` plus seed (a server-side
synthetic build, used by demos) — together with the solver configuration
and an optional latency budget.

A :class:`LocalizeResponse` is *always* produced for an admitted request;
the service never loses one.  ``status`` tells the client what it got:

``ok``
    Full BP ran to its configured schedule; estimates and per-node
    uncertainty are the solver's real posterior outputs.
``degraded``
    The robustness envelope intervened — the deadline truncated BP
    between rounds (partial posterior), the per-shape circuit breaker
    was open, execution failed after retries, or the deadline expired
    before the solve could start (baseline fallback estimates with
    *widened* uncertainty).  ``reason`` says which; ``fallback_mask``
    marks nodes carrying fallback rather than posterior estimates.
``shed``
    Load shedding: the bounded admission queue was full (or the service
    is shutting down) and the request was rejected *before* admission.
    ``retry_after`` is the server's backoff hint in seconds.
``error``
    The request itself was invalid (malformed measurements, a prior that
    excludes every grid cell, …).  Retrying unchanged will fail again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bnloc import GridBPConfig
from repro.kernels import shape_key
from repro.utils.validation import check_positive

__all__ = [
    "LocalizeRequest",
    "LocalizeResponse",
    "request_batch_key",
    "widened_sigma",
]

#: response statuses, in decreasing order of answer quality
STATUSES = ("ok", "degraded", "shed", "error")


@dataclass
class LocalizeRequest:
    """One localization problem submitted to the service.

    Exactly one of *measurements* / *scenario* must be set.  *prior* is
    the pre-knowledge (``None`` = uniform); for scenario-form requests
    the server builds it from the scenario instead.  *deadline_s* is a
    relative latency budget measured from admission; ``None`` uses the
    service default (which may be unbounded).
    """

    measurements: object | None = None
    scenario: object | None = None
    seed: int = 0
    prior: object | None = None
    config: GridBPConfig = field(default_factory=GridBPConfig)
    deadline_s: float | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if (self.measurements is None) == (self.scenario is None):
            raise ValueError(
                "exactly one of measurements / scenario must be provided"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")

    @property
    def field_size(self) -> tuple[float, float]:
        if self.measurements is not None:
            return float(self.measurements.width), float(self.measurements.height)
        return 1.0, 1.0  # scenario builds live on the unit field


def request_batch_key(req: LocalizeRequest) -> tuple:
    """Micro-batch compatibility key of a request.

    Requests sharing this key prepare into kernel problems sharing
    :func:`repro.kernels.compatibility_key` — same grid shape/extent,
    same state count, equal config — so the service may run them as one
    stacked batch.  Computed without preparing anything: the key needs
    only the config and the field geometry, not a grid.
    """
    g = req.config.grid_size
    w, h = req.field_size
    return shape_key(
        g, g, check_positive(w, "width"), check_positive(h, "height"), g * g, req.config
    )


def widened_sigma(width: float, height: float) -> float:
    """Honest per-node uncertainty of a fallback (non-posterior) estimate.

    The RMS radius of a uniform distribution over the field — the spread
    a client should assume when the service could not run inference.
    Always at least as wide as any real posterior the same field could
    produce.
    """
    return float(np.sqrt((width**2 + height**2) / 12.0))


@dataclass
class LocalizeResponse:
    """What the service returns for one admitted (or shed) request."""

    request_id: str
    status: str
    reason: str | None = None
    estimates: np.ndarray | None = None
    localized_mask: np.ndarray | None = None
    fallback_mask: np.ndarray | None = None
    uncertainty: np.ndarray | None = None
    degraded: bool = False
    converged: bool = False
    n_iterations: int = 0
    batch_size: int = 0
    queue_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    retry_after: float | None = None
    error: str | None = None
    mean_error: float | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        self.degraded = self.degraded or self.status == "degraded"

    @property
    def answered(self) -> bool:
        """True when the response carries position estimates."""
        return self.estimates is not None

    def to_dict(self) -> dict:
        """JSON-safe wire form."""
        out = {
            "id": self.request_id,
            "status": self.status,
            "reason": self.reason,
            "degraded": bool(self.degraded),
            "converged": bool(self.converged),
            "n_iterations": int(self.n_iterations),
            "batch_size": int(self.batch_size),
            "queue_ms": round(self.queue_s * 1e3, 3),
            "solve_ms": round(self.solve_s * 1e3, 3),
            "total_ms": round(self.total_s * 1e3, 3),
        }
        if self.estimates is not None:
            out["estimates"] = np.where(
                np.isfinite(self.estimates), self.estimates, None
            ).tolist()
        if self.localized_mask is not None:
            out["localized_mask"] = self.localized_mask.astype(int).tolist()
        if self.fallback_mask is not None:
            out["fallback_mask"] = self.fallback_mask.astype(int).tolist()
        if self.uncertainty is not None:
            out["uncertainty"] = [
                None if not np.isfinite(u) else float(u) for u in self.uncertainty
            ]
        if self.retry_after is not None:
            out["retry_after"] = float(self.retry_after)
        if self.error is not None:
            out["error"] = self.error
        if self.mean_error is not None:
            out["mean_error"] = float(self.mean_error)
        return out
