"""Prior interface.

A :class:`PositionPrior` gives, for any node id, an unnormalized
log-density over candidate positions.  Priors may be node-specific
(per-node intended drop points) or shared (a deployment density); the
interface takes the node id so both fit one API.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.rng import RNGLike, as_generator

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from repro.core.grid import Grid2D

__all__ = ["PositionPrior"]


class PositionPrior(ABC):
    """Unnormalized log-prior over 2-D positions, possibly per node."""

    @abstractmethod
    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        """Log prior density of *node* at ``(m, 2)`` points (unnormalized;
        ``-inf`` outside the support)."""

    def grid_weights(self, node: int, grid: "Grid2D") -> np.ndarray:
        """Normalized prior probabilities over the grid cells of *node*.

        Default implementation evaluates :meth:`log_density` at cell
        centers and normalizes with the log-sum-exp shift.
        """
        logd = self.log_density(node, grid.centers)
        finite = np.isfinite(logd)
        if not finite.any():
            raise ValueError(
                f"prior for node {node} has zero mass on the whole grid"
            )
        w = np.zeros(grid.n_cells)
        w[finite] = np.exp(logd[finite] - logd[finite].max())
        return w / w.sum()

    def grid_weight_rows(self, nodes, grid: "Grid2D") -> np.ndarray:
        """``(len(nodes), K)`` block of :meth:`grid_weights` rows, one per
        node of *nodes* in order.

        Default implementation calls :meth:`grid_weights` per node;
        priors that already hold their rows as a block override it with
        one gather.
        """
        out = np.empty((len(nodes), grid.n_cells))
        for i, node in enumerate(nodes):
            out[i] = self.grid_weights(int(node), grid)
        return out

    def sample(self, node: int, n: int, grid: "Grid2D", rng: RNGLike = None) -> np.ndarray:
        """Draw *n* positions approximately from the prior.

        Default: sample grid cells by prior weight, then jitter uniformly
        within the cell — adequate for initializing particle methods.
        """
        gen = as_generator(rng)
        w = self.grid_weights(node, grid)
        cells = gen.choice(grid.n_cells, size=int(n), p=w)
        pts = grid.centers[cells].copy()
        pts[:, 0] += gen.uniform(-0.5, 0.5, size=n) * grid.cell_width
        pts[:, 1] += gen.uniform(-0.5, 0.5, size=n) * grid.cell_height
        return pts
