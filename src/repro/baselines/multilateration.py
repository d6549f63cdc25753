"""Least-squares (multi)lateration.

:func:`lateration` solves one node's position from reference points and
distance estimates — the linearized closed form followed by an optional
Levenberg–Marquardt refinement (:func:`scipy.optimize.least_squares`).

:class:`MultilaterationLocalizer` applies it network-wide, iteratively: a
node that hears ≥ 3 references (anchors, then already-solved neighbors
acting as pseudo-anchors) is solved and promoted, until a fixed point.
This is the classic "iterative multilateration" of Savvides et al., and it
exhibits the error *accumulation* over hops that motivates probabilistic
cooperation.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.utils.rng import RNGLike

__all__ = ["lateration", "MultilaterationLocalizer"]


def lateration(
    references: np.ndarray,
    distances: np.ndarray,
    weights: np.ndarray | None = None,
    refine: bool = True,
) -> np.ndarray:
    """Solve a single 2-D position from ≥ 3 reference/distance pairs.

    Parameters
    ----------
    references:
        ``(m, 2)`` known positions, m ≥ 3, not all collinear.
    distances:
        ``(m,)`` distance estimates to each reference.
    weights:
        Optional per-measurement weights (1/σ²-style).
    refine:
        Polish the linear solution with nonlinear least squares.

    Returns
    -------
    numpy.ndarray
        The ``(2,)`` estimate.

    Raises
    ------
    ValueError
        On malformed input or a degenerate (collinear) geometry.
    """
    refs = np.asarray(references, dtype=np.float64)
    d = np.asarray(distances, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[1] != 2 or len(refs) < 3:
        raise ValueError("need at least 3 references of shape (m, 2)")
    if d.shape != (len(refs),):
        raise ValueError("distances must match references")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite and non-negative")
    if weights is None:
        w = np.ones(len(refs))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(refs),) or np.any(w <= 0):
            raise ValueError("weights must be positive, matching references")

    # Linearize by subtracting the last reference's circle equation.
    xn, yn = refs[-1]
    dn = d[-1]
    A = 2.0 * (refs[:-1] - refs[-1])
    b = (
        d[-1] ** 2
        - d[:-1] ** 2
        + np.sum(refs[:-1] ** 2, axis=1)
        - (xn**2 + yn**2)
    )
    wa = w[:-1]
    Aw = A * wa[:, None]
    try:
        sol, *_ = np.linalg.lstsq(Aw, b * wa, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ValueError("lateration system is singular") from exc
    # Collinearity check: rank of the design matrix.
    if np.linalg.matrix_rank(A) < 2:
        raise ValueError("references are collinear; position is ambiguous")
    est = sol

    if refine:
        from scipy.optimize import least_squares

        def residuals(p):
            return (np.linalg.norm(refs - p, axis=1) - d) * np.sqrt(w)

        fit = least_squares(residuals, est, method="lm", max_nfev=100)
        est = fit.x
    return est


class MultilaterationLocalizer(Localizer):
    """Iterative weighted least-squares lateration.

    Parameters
    ----------
    min_references:
        References needed to solve a node (≥ 3 for 2-D).
    max_rounds:
        Promotion rounds (each round may turn solved nodes into
        pseudo-anchors for their neighbors).
    refine:
        Nonlinear polish per node (slower, more accurate).
    """

    name = "multilateration"

    def __init__(
        self,
        min_references: int = 3,
        max_rounds: int = 10,
        refine: bool = True,
    ) -> None:
        if min_references < 3:
            raise ValueError("min_references must be >= 3 in 2-D")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.min_references = int(min_references)
        self.max_rounds = int(max_rounds)
        self.refine = bool(refine)

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        if not ms.has_ranging:
            raise ValueError(
                "multilateration requires ranged measurements; use a "
                "range-free baseline (centroid, DV-Hop) otherwise"
            )
        estimates, mask = self._result_skeleton(ms)
        sigma = ms.ranging.sigma_at(
            np.where(np.isfinite(ms.observed_distances), ms.observed_distances, 1.0)
        )
        n_rounds = 0
        for n_rounds in range(1, self.max_rounds + 1):
            progressed = False
            for u in ms.unknown_ids:
                u = int(u)
                if mask[u]:
                    continue
                neigh = ms.neighbors(u)
                refs = [v for v in neigh if mask[v]]
                if len(refs) < self.min_references:
                    continue
                ref_pos = estimates[refs]
                dists = ms.observed_distances[u, refs]
                w = 1.0 / np.maximum(sigma[u, refs], 1e-9) ** 2
                try:
                    estimates[u] = lateration(ref_pos, dists, w, refine=self.refine)
                except ValueError:
                    continue  # degenerate geometry this round; retry later
                mask[u] = True
                progressed = True
            if not progressed:
                break
        return LocalizationResult(
            estimates, mask, self.name, n_iterations=n_rounds
        )
