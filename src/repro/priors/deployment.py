"""Concrete pre-knowledge priors.

* :class:`UniformPrior` — no pre-knowledge (the baseline the paper's method
  is compared against: same inference, uninformative prior).
* :class:`GaussianPrior` — all nodes near one known point.
* :class:`MixturePrior` — nodes near one of several known drop points.
* :class:`DeploymentPrior` — wraps any
  :class:`~repro.network.deployment.DeploymentModel`'s own density: the
  exactly-matched prior ("the operator knows the deployment process").
* :class:`PerNodePrior` — node-specific Gaussians around each node's
  intended position (e.g. planned grid placement) — the strongest form of
  pre-knowledge, and the one that can be deliberately *mis-specified* for
  the E8 prior-quality experiment.
* :class:`RegionPrior` — uniform over an arbitrary region mask (e.g. "nodes
  are somewhere in the C, not in the void").
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.network.deployment import DeploymentModel
from repro.priors.base import PositionPrior
from repro.utils.stablemath import logsumexp
from repro.utils.validation import check_positive

__all__ = [
    "UniformPrior",
    "GaussianPrior",
    "MixturePrior",
    "DeploymentPrior",
    "PerNodePrior",
    "RegionPrior",
]


class UniformPrior(PositionPrior):
    """Flat prior over the field — the "no pre-knowledge" reference."""

    def __init__(self, width: float = 1.0, height: float = 1.0) -> None:
        self.width = check_positive(width, "width")
        self.height = check_positive(height, "height")

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        inside = (
            (pts[:, 0] >= 0)
            & (pts[:, 0] <= self.width)
            & (pts[:, 1] >= 0)
            & (pts[:, 1] <= self.height)
        )
        return np.where(inside, 0.0, -np.inf)

    def grid_weight_rows(self, nodes, grid) -> np.ndarray:
        """Every node has the same row: build it once and repeat it."""
        if len(nodes) == 0:
            return np.empty((0, grid.n_cells))
        return np.tile(self.grid_weights(int(nodes[0]), grid), (len(nodes), 1))


class GaussianPrior(PositionPrior):
    """Isotropic Gaussian around a single known point (all nodes share it)."""

    def __init__(self, mean: np.ndarray, sigma: float) -> None:
        self.mean = np.asarray(mean, dtype=np.float64)
        if self.mean.shape != (2,):
            raise ValueError("mean must have shape (2,)")
        self.sigma = check_positive(sigma, "sigma")

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        d2 = ((pts - self.mean) ** 2).sum(axis=1)
        return -d2 / (2 * self.sigma**2)


class MixturePrior(PositionPrior):
    """Mixture of isotropic Gaussians around known drop points."""

    def __init__(
        self,
        centers: np.ndarray,
        sigma: float,
        weights: np.ndarray | None = None,
    ) -> None:
        self.centers = np.asarray(centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != 2 or not len(self.centers):
            raise ValueError("centers must have shape (k, 2) with k >= 1")
        self.sigma = check_positive(sigma, "sigma")
        if weights is None:
            weights = np.full(len(self.centers), 1.0 / len(self.centers))
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(self.centers),) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative, matching centers")
        self.weights = w / w.sum()

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        d2 = (
            (pts[:, None, 0] - self.centers[None, :, 0]) ** 2
            + (pts[:, None, 1] - self.centers[None, :, 1]) ** 2
        )
        z = np.log(self.weights)[None, :] - d2 / (2 * self.sigma**2)
        return logsumexp(z, axis=1)


class DeploymentPrior(PositionPrior):
    """The deployment model's own density as the prior (perfectly matched
    pre-knowledge: the operator knows how the network was deployed)."""

    def __init__(self, deployment: DeploymentModel) -> None:
        if not isinstance(deployment, DeploymentModel):
            raise TypeError("deployment must be a DeploymentModel")
        self.deployment = deployment

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        return self.deployment.log_density(points)


class PerNodePrior(PositionPrior):
    """Node-specific Gaussian pre-knowledge around intended positions.

    Parameters
    ----------
    intended:
        ``(n, 2)`` intended per-node positions (e.g. planned grid points),
        or a mapping ``{node: (x, y)}``.  Nodes without an entry fall back
        to *fallback* (default: improper flat prior).
    sigma:
        Trust in the pre-knowledge: small σ = confident operator.
    offset:
        Optional systematic error added to every intended position —
        the knob the E8 "wrong prior" experiment turns.
    """

    def __init__(
        self,
        intended: np.ndarray | Mapping[int, Sequence[float]],
        sigma: float,
        offset: Sequence[float] = (0.0, 0.0),
        fallback: PositionPrior | None = None,
    ) -> None:
        if isinstance(intended, Mapping):
            self._intended = {
                int(k): np.asarray(v, dtype=np.float64) for k, v in intended.items()
            }
        else:
            arr = np.asarray(intended, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("intended must have shape (n, 2)")
            self._intended = {i: arr[i] for i in range(len(arr))}
        for v in self._intended.values():
            if v.shape != (2,):
                raise ValueError("each intended position must have shape (2,)")
        self.sigma = check_positive(sigma, "sigma")
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.offset.shape != (2,):
            raise ValueError("offset must have shape (2,)")
        self.fallback = fallback

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        node = int(node)
        if node not in self._intended:
            if self.fallback is not None:
                return self.fallback.log_density(node, points)
            return np.zeros(len(pts))
        mean = self._intended[node] + self.offset
        d2 = ((pts - mean) ** 2).sum(axis=1)
        return -d2 / (2 * self.sigma**2)


class RegionPrior(PositionPrior):
    """Uniform over the region where ``contains(points)`` is True.

    *contains* is any vectorized predicate ``(m, 2) -> bool mask`` — e.g.
    :meth:`repro.network.deployment.CShapeDeployment.contains`.

    On a grid, the prior weight of a cell is the *fraction of the cell
    area* inside the region (estimated on a ``subsamples × subsamples``
    stencil), not a hard indicator at the cell center — otherwise cells
    straddling the region boundary would be wrongly zeroed and estimates
    near the boundary would be biased inward.
    """

    def __init__(
        self,
        contains: Callable[[np.ndarray], np.ndarray],
        subsamples: int = 3,
    ) -> None:
        if not callable(contains):
            raise TypeError("contains must be callable")
        if subsamples < 1:
            raise ValueError("subsamples must be >= 1")
        self.contains = contains
        self.subsamples = int(subsamples)

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        mask = np.asarray(self.contains(np.asarray(points, dtype=np.float64)))
        return np.where(mask, 0.0, -np.inf)

    def grid_weights(self, node: int, grid) -> np.ndarray:
        k = self.subsamples
        offs = (np.arange(k) + 0.5) / k - 0.5
        frac = np.zeros(grid.n_cells)
        for ox in offs:
            for oy in offs:
                pts = grid.centers + np.array(
                    [ox * grid.cell_width, oy * grid.cell_height]
                )
                frac += np.asarray(self.contains(pts), dtype=np.float64)
        total = frac.sum()
        if total <= 0:
            raise ValueError(
                f"prior for node {node} has zero mass on the whole grid"
            )
        return frac / total
