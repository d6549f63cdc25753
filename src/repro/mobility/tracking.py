"""Sequential localization of mobile networks.

* :class:`SequentialGridTracker` — the Bayesian network tracker: each time
  step's posterior, diffused through a bounded-speed motion kernel, becomes
  the next step's *pre-knowledge prior*.  This is the temporal face of the
  paper's idea: yesterday's inference is today's pre-knowledge.
* :class:`MCLTracker` — Monte-Carlo Localization (Hu & Evans 2004), the
  classic range-free particle baseline: predict within max speed, filter by
  anchor-connectivity constraints, resample.

Both consume a trajectory ``(T+1, n, 2)`` from :mod:`repro.mobility.models`
plus the static scenario pieces (radio, ranging, anchors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.bnloc import GridBPConfig, GridBPLocalizer
from repro.core.grid import Grid2D
from repro.measurement.measurements import MeasurementSet, observe
from repro.measurement.ranging import RangingModel
from repro.network.radio import RadioModel
from repro.network.topology import WSNetwork
from repro.priors.base import PositionPrior
from repro.priors.belief import GridBeliefPrior
from repro.utils.rng import RNGLike, as_generator

__all__ = ["TrackingResult", "SequentialGridTracker", "MCLTracker"]


@dataclass
class TrackingResult:
    """Per-step estimates for a mobile network.

    Attributes
    ----------
    estimates:
        ``(T+1, n, 2)`` estimated positions (NaN where unlocalized).
    localized:
        ``(T+1, n)`` boolean mask.
    method:
        Tracker name.
    extras:
        Tracker-specific payloads.  :class:`MCLTracker` stores a
        ``(T+1, n)`` ``"degraded"`` mask: True where the constraint
        filter failed every resample round and the reported estimate
        came from an unfiltered fallback cloud (coverage metrics should
        exclude those steps).
    """

    estimates: np.ndarray
    localized: np.ndarray
    method: str
    extras: dict = field(default_factory=dict)

    def errors(self, trajectory: np.ndarray) -> np.ndarray:
        """``(T+1, n)`` per-step per-node errors (NaN where unlocalized)."""
        traj = np.asarray(trajectory, dtype=np.float64)
        if traj.shape != self.estimates.shape:
            raise ValueError("trajectory shape mismatch")
        err = np.linalg.norm(self.estimates - traj, axis=2)
        err[~self.localized] = np.nan
        return err

    def mean_error_per_step(self, trajectory: np.ndarray, unknown_mask: np.ndarray) -> np.ndarray:
        err = self.errors(trajectory)[:, unknown_mask]
        with np.errstate(invalid="ignore"):
            return np.nanmean(err, axis=1)


class SequentialGridTracker:
    """Grid Bayesian tracker: posterior → motion diffusion → next prior.

    :meth:`track` consumes a whole trajectory; :meth:`step` is the
    per-epoch warm-start entry point — one measurement epoch in, the
    localization result plus the motion-diffused prior for the *next*
    epoch out.  The streaming runtime (:mod:`repro.stream`) runs the
    same loop for a fleet but does not call :meth:`step`: it solves
    batches of epochs through :func:`repro.serve.execute_batch` and
    builds the next priors itself.  Both paths here share one long-lived
    :class:`~repro.core.bnloc.GridBPLocalizer` (so the shared potential
    cache stays warm across steps) and one cached diffusion kernel, and
    are bit-identical to rebuilding everything per step.

    Parameters
    ----------
    radio, ranging:
        Observation models applied at every step.
    motion_sigma:
        Std of the per-step displacement assumed by the motion kernel
        (the pre-knowledge about node dynamics).
    config:
        Grid BP settings reused each step.
    """

    def __init__(
        self,
        radio: RadioModel,
        ranging: RangingModel | None,
        motion_sigma: float = 0.05,
        config: GridBPConfig | None = None,
    ) -> None:
        if motion_sigma <= 0:
            raise ValueError("motion_sigma must be positive")
        self.radio = radio
        self.ranging = ranging
        self.motion_sigma = float(motion_sigma)
        self.config = config if config is not None else GridBPConfig(max_iterations=8)
        self._localizer = GridBPLocalizer(radio=self.radio, config=self.config)
        self._grid: Grid2D | None = None

    def grid_for(self, width: float, height: float) -> Grid2D:
        """The tracker's grid over a ``width × height`` field (reused
        across steps — identical geometry means identical cells)."""
        grid = self._grid
        if (
            grid is None
            or float(grid.width) != float(width)
            or float(grid.height) != float(height)
        ):
            grid = Grid2D(self.config.grid_size, self.config.grid_size, width, height)
            self._grid = grid
        return grid

    def diffuse(
        self, beliefs: Mapping[int, np.ndarray], width: float = 1.0, height: float = 1.0
    ) -> GridBeliefPrior:
        """Motion-diffuse per-node *beliefs* into the next step's prior."""
        return GridBeliefPrior(
            self.grid_for(width, height), beliefs, diffusion_sigma=self.motion_sigma
        )

    def step(
        self,
        measurements: MeasurementSet,
        prior: PositionPrior | None = None,
        rng: RNGLike = None,
    ):
        """Localize one measurement epoch warm-started from *prior*.

        Returns ``(result, next_prior)`` where *next_prior* is the
        posterior diffused through the motion kernel — ready to seed the
        following epoch.  ``prior=None`` is a cold start (uniform).  The
        solver instance (and with it the shared potential cache and the
        prepared-problem machinery) persists across calls, so repeated
        steps skip the per-step rebuild the original tracker paid; the
        results are bit-identical to constructing a fresh localizer per
        step (gated by ``tests/test_stream.py``).
        """
        loc = self._localizer
        loc.prior = prior
        try:
            result = loc.localize(measurements, rng)
        finally:
            loc.prior = None
        next_prior = self.diffuse(
            result.extras["beliefs"], measurements.width, measurements.height
        )
        return result, next_prior

    def track(
        self,
        trajectory: np.ndarray,
        anchor_mask: np.ndarray,
        width: float = 1.0,
        height: float = 1.0,
        rng: RNGLike = None,
    ) -> TrackingResult:
        traj = np.asarray(trajectory, dtype=np.float64)
        if traj.ndim != 3 or traj.shape[2] != 2:
            raise ValueError("trajectory must have shape (T+1, n, 2)")
        gen = as_generator(rng)
        anchor_mask = np.asarray(anchor_mask, dtype=bool)
        T1, n, _ = traj.shape

        estimates = np.full((T1, n, 2), np.nan)
        localized = np.zeros((T1, n), dtype=bool)
        prior: PositionPrior | None = None
        for t in range(T1):
            net = WSNetwork(
                positions=traj[t],
                anchor_mask=anchor_mask,
                adjacency=self.radio.adjacency(traj[t], gen),
                width=width,
                height=height,
                radio_range=self.radio.range_,
            )
            ms = observe(net, self.ranging, gen)
            res, prior = self.step(ms, prior, gen)
            estimates[t] = res.estimates
            localized[t] = res.localized_mask
        return TrackingResult(estimates, localized, "seq-grid-bp")


class MCLTracker:
    """Monte-Carlo Localization for mobile range-free networks.

    Per step and node: particles move by at most ``v_max`` (uniform in the
    disk), are filtered by the observed anchor constraints — within ``r``
    of every one-hop anchor, within ``2r`` of every two-hop anchor, outside
    ``r`` of every silent anchor (negative evidence, optional) — and are
    resampled until the cloud refills (bounded retries).

    Parameters
    ----------
    radio:
        Link model (its ``range_`` provides ``r``).
    v_max:
        Per-step maximum displacement assumed by prediction.
    n_particles:
        Cloud size per node.
    use_negative_evidence:
        Apply the silent-anchor exclusion constraint.
    max_resample_rounds:
        Prediction/filter retries per step before giving up and keeping
        the unfiltered predictions (rare, low-anchor corner case).
    """

    def __init__(
        self,
        radio: RadioModel,
        v_max: float = 0.08,
        n_particles: int = 100,
        use_negative_evidence: bool = True,
        max_resample_rounds: int = 20,
    ) -> None:
        if v_max <= 0:
            raise ValueError("v_max must be positive")
        if n_particles < 10:
            raise ValueError("n_particles must be >= 10")
        if max_resample_rounds < 1:
            raise ValueError("max_resample_rounds must be >= 1")
        self.radio = radio
        self.v_max = float(v_max)
        self.n_particles = int(n_particles)
        self.use_negative_evidence = bool(use_negative_evidence)
        self.max_resample_rounds = int(max_resample_rounds)

    # ------------------------------------------------------------------ #
    def _constraints_ok(
        self,
        pts: np.ndarray,
        one_hop: np.ndarray,
        two_hop: np.ndarray,
        silent: np.ndarray,
        r: float,
    ) -> np.ndarray:
        ok = np.ones(len(pts), dtype=bool)
        for a in one_hop:
            ok &= np.linalg.norm(pts - a, axis=1) <= r
        for a in two_hop:
            ok &= np.linalg.norm(pts - a, axis=1) <= 2 * r
        if self.use_negative_evidence:
            for a in silent:
                ok &= np.linalg.norm(pts - a, axis=1) > r
        return ok

    def track(
        self,
        trajectory: np.ndarray,
        anchor_mask: np.ndarray,
        width: float = 1.0,
        height: float = 1.0,
        rng: RNGLike = None,
    ) -> TrackingResult:
        traj = np.asarray(trajectory, dtype=np.float64)
        if traj.ndim != 3 or traj.shape[2] != 2:
            raise ValueError("trajectory must have shape (T+1, n, 2)")
        gen = as_generator(rng)
        anchor_mask = np.asarray(anchor_mask, dtype=bool)
        T1, n, _ = traj.shape
        r = self.radio.range_
        unknowns = np.flatnonzero(~anchor_mask)
        anchors = np.flatnonzero(anchor_mask)

        clouds = {
            int(u): np.column_stack(
                [
                    gen.uniform(0, width, size=self.n_particles),
                    gen.uniform(0, height, size=self.n_particles),
                ]
            )
            for u in unknowns
        }
        estimates = np.full((T1, n, 2), np.nan)
        localized = np.zeros((T1, n), dtype=bool)
        degraded = np.zeros((T1, n), dtype=bool)
        estimates[:, anchor_mask] = traj[:, anchor_mask]
        localized[:, anchor_mask] = True

        for t in range(T1):
            adj = self.radio.adjacency(traj[t], gen)
            for u in unknowns:
                u = int(u)
                heard = [a for a in anchors if adj[u, a]]
                two_hop = {
                    int(a)
                    for v in np.flatnonzero(adj[u])
                    if not anchor_mask[v]
                    for a in anchors
                    if adj[v, a] and not adj[u, a]
                }
                one_pos = traj[t][heard] if heard else np.zeros((0, 2))
                two_pos = (
                    traj[t][sorted(two_hop)] if two_hop else np.zeros((0, 2))
                )
                silent = [a for a in anchors if not adj[u, a]]
                sil_pos = traj[t][silent] if silent else np.zeros((0, 2))

                kept = np.zeros((0, 2))
                cloud = clouds[u]
                for _ in range(self.max_resample_rounds):
                    base = cloud[gen.integers(0, len(cloud), size=self.n_particles)]
                    if t > 0:
                        theta = gen.uniform(0, 2 * np.pi, size=self.n_particles)
                        rad = self.v_max * np.sqrt(
                            gen.uniform(0, 1, size=self.n_particles)
                        )
                        base = base + np.column_stack(
                            [rad * np.cos(theta), rad * np.sin(theta)]
                        )
                    np.clip(base[:, 0], 0, width, out=base[:, 0])
                    np.clip(base[:, 1], 0, height, out=base[:, 1])
                    ok = self._constraints_ok(base, one_pos, two_pos, sil_pos, r)
                    kept = np.concatenate([kept, base[ok]])
                    if len(kept) >= self.n_particles:
                        kept = kept[: self.n_particles]
                        break
                if len(kept) == 0:
                    # Constraints unsatisfiable from the current cloud
                    # (kidnapped-node case): re-seed from the constraint
                    # region around heard anchors, or keep predictions.
                    if len(one_pos):
                        center = one_pos.mean(axis=0)
                        kept = center + gen.uniform(
                            -r, r, size=(self.n_particles, 2)
                        )
                        # Re-seeded particles must stay in the deployment
                        # field, like the prediction path above — a node
                        # kidnapped near the boundary would otherwise get
                        # an out-of-field cloud (and estimate).
                        np.clip(kept[:, 0], 0, width, out=kept[:, 0])
                        np.clip(kept[:, 1], 0, height, out=kept[:, 1])
                        ok = self._constraints_ok(kept, one_pos, two_pos, sil_pos, r)
                        if ok.any():
                            kept = kept[ok]
                        else:
                            degraded[t, u] = True
                    else:
                        kept = cloud
                        degraded[t, u] = True
                if len(kept) < self.n_particles:
                    idx = gen.integers(0, len(kept), size=self.n_particles)
                    kept = kept[idx]
                clouds[u] = kept
                estimates[t, u] = kept.mean(axis=0)
                localized[t, u] = True
        result = TrackingResult(
            estimates, localized, "mcl", extras={"degraded": degraded}
        )
        self._maybe_audit(result, width, height)
        return result

    def _maybe_audit(
        self, result: TrackingResult, width: float, height: float
    ) -> None:
        # Env-toggle only (REPRO_AUDIT) — MCL has no config dataclass.
        from repro.audit.invariants import resolve_audit_mode

        mode = resolve_audit_mode(None)
        if mode is None:
            return
        from repro.audit.invariants import Auditor, AuditViolation

        auditor = Auditor(mode, solver=result.method)
        est = result.estimates[result.localized]
        if not np.isfinite(est).all():
            auditor.extend(
                [
                    AuditViolation(
                        "tracking-estimate-finite",
                        "localized tracking estimates contain non-finite values",
                        {},
                    )
                ]
            )
        elif len(est) and (
            (est[:, 0] < 0).any()
            or (est[:, 0] > width).any()
            or (est[:, 1] < 0).any()
            or (est[:, 1] > height).any()
        ):
            auditor.extend(
                [
                    AuditViolation(
                        "tracking-estimate-in-field",
                        "tracking estimates leave the deployment field",
                        {"width": width, "height": height},
                    )
                ]
            )
        auditor.finish()
