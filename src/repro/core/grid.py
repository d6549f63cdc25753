"""2-D grid discretization of the deployment field.

The Bayesian-network localizer models each unknown node's position as a
categorical variable over the cells of a regular grid; :class:`Grid2D`
owns the cell geometry and the (cached) pairwise cell-center distance
matrix that every pairwise potential is built from.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["Grid2D"]


class Grid2D:
    """Regular ``nx × ny`` grid over ``[0, width] × [0, height]``.

    Cells are indexed in row-major order: cell ``k`` has column
    ``k % nx`` and row ``k // nx``; its center is ``centers[k]``.
    """

    def __init__(
        self, nx: int, ny: int | None = None, width: float = 1.0, height: float = 1.0
    ) -> None:
        if ny is None:
            ny = nx
        if nx < 2 or ny < 2:
            raise ValueError("grid needs at least 2 cells per axis")
        self.nx = int(nx)
        self.ny = int(ny)
        self.width = check_positive(width, "width")
        self.height = check_positive(height, "height")
        xs = (np.arange(self.nx) + 0.5) * self.width / self.nx
        ys = (np.arange(self.ny) + 0.5) * self.height / self.ny
        gx, gy = np.meshgrid(xs, ys)
        #: ``(K, 2)`` cell-center coordinates, row-major.
        self.centers = np.ascontiguousarray(
            np.column_stack([gx.ravel(), gy.ravel()])
        )
        self.xs = xs
        self.ys = ys
        self._pairwise: np.ndarray | None = None
        self._bearings: np.ndarray | None = None

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        return self.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.height / self.ny

    @property
    def cell_diagonal(self) -> float:
        """The quantization scale: a position is known to ± half a diagonal."""
        return float(np.hypot(self.cell_width, self.cell_height))

    def pairwise_center_distances(self) -> np.ndarray:
        """``(K, K)`` distances between all cell centers (cached).

        For a 20×20 grid this is a 400×400 array (1.3 MB); computed once
        and shared by every pairwise potential.
        """
        if self._pairwise is None:
            c = self.centers
            diff = c[:, None, :] - c[None, :, :]
            self._pairwise = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return self._pairwise

    def use_shared_pairwise(self, matrix: np.ndarray) -> None:
        """Install a precomputed center-distance matrix (cache adoption).

        Lets a cross-trial cache (``repro.core.potentials.shared_registry``)
        hand an identical grid the ``(K, K)`` matrix it already built,
        instead of recomputing it.  The matrix must match this grid's cell
        count; geometric equality is the caller's contract.
        """
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.shape != (self.n_cells, self.n_cells):
            raise ValueError(
                f"pairwise matrix must be ({self.n_cells}, {self.n_cells}), "
                f"got {mat.shape}"
            )
        self._pairwise = mat

    def pairwise_center_bearings(self) -> np.ndarray:
        """``(K, K)`` bearings (radians, atan2 convention) between cell
        centers: entry ``[k, l]`` is the direction *from* cell k *to* cell
        l.  Cached; the diagonal is 0 by convention.  Used by
        angle-of-arrival potentials.
        """
        if self._bearings is None:
            c = self.centers
            dx = c[None, :, 0] - c[:, None, 0]
            dy = c[None, :, 1] - c[:, None, 1]
            self._bearings = np.arctan2(dy, dx)
        return self._bearings

    def bearings_to_point(self, point: np.ndarray) -> np.ndarray:
        """``(K,)`` bearings from every cell center to *point*."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (2,):
            raise ValueError("point must have shape (2,)")
        diff = p - self.centers
        return np.arctan2(diff[:, 1], diff[:, 0])

    def distances_to_point(self, point: np.ndarray) -> np.ndarray:
        """``(K,)`` distances from every cell center to *point*."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (2,):
            raise ValueError("point must have shape (2,)")
        diff = self.centers - p
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Row-major cell index of each ``(m, 2)`` point (clipped to field)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        col = np.clip(
            (pts[:, 0] / self.cell_width).astype(int), 0, self.nx - 1
        )
        row = np.clip(
            (pts[:, 1] / self.cell_height).astype(int), 0, self.ny - 1
        )
        return row * self.nx + col

    def moments(self, beliefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means ``(R, 2)`` and covariances ``(R, 2, 2)`` of a ``(R, K)``
        block of belief rows (each row need not be normalized).

        The one implementation of the moment math: :meth:`expectation`
        and :meth:`covariance` are its one-row cases, and each row of a
        block is bit-identical to them.
        """
        w = np.asarray(beliefs, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != self.n_cells:
            raise ValueError(
                f"beliefs must have shape (R, {self.n_cells}), got {w.shape}"
            )
        total = w.sum(axis=1)[:, None]
        if (total <= 0).any():
            raise ValueError("weights must have positive mass")
        means = (w[:, :, None] * self.centers).sum(axis=1) / total
        d = self.centers - means[:, None, :]
        return means, np.einsum("rk,rki,rkj->rij", w / total, d, d)

    def expectation(self, weights: np.ndarray) -> np.ndarray:
        """Mean position under a normalized belief vector (MMSE estimate)."""
        return self.moments(self._one_row(weights))[0][0]

    def covariance(self, weights: np.ndarray) -> np.ndarray:
        """2×2 covariance of the belief (posterior spread / uncertainty)."""
        return self.moments(self._one_row(weights))[1][0]

    def _one_row(self, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n_cells,):
            raise ValueError(
                f"weights must have shape ({self.n_cells},), got {w.shape}"
            )
        return w[None, :]

    def map_estimate(self, weights: np.ndarray) -> np.ndarray:
        """Cell center of the largest belief entry (MAP estimate)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n_cells,):
            raise ValueError("weights shape mismatch")
        return self.centers[int(np.argmax(w))].copy()
