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


def _cell_order_sum(terms: np.ndarray) -> np.ndarray:
    """Column totals of a C-contiguous ``(K, R)`` block, each summed in
    row order k = 0, 1, … (see :meth:`Grid2D.moments`)."""
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


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
        block is bit-identical to them, whatever the block's size.

        Sum order is part of the contract (the golden traces pin it):
        every weighted sum adds its terms in cell order k = 0, 1, …, one
        running total per row, with each covariance term formed as
        ``(w_k d_ki) d_kj``.  The terms are laid out as a C-contiguous
        ``(K, R)`` block and reduced over axis 0, which adds cell k's
        R-vector into the totals in that order.  A lone row (R == 1)
        would be reduced pairwise, so it takes the last entry of a
        running ``accumulate`` instead.  ``w @ centers``, ``sum(axis=1)``
        over the ``(R, K)`` block and a two-operand ``einsum`` over a
        contiguous k axis (``"rk,rk->r"``) all add in other orders, so
        none of them is bit-equal.
        """
        w = np.asarray(beliefs, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != self.n_cells:
            raise ValueError(
                f"beliefs must have shape (R, {self.n_cells}), got {w.shape}"
            )
        total = w.sum(axis=1)
        if (total <= 0).any():
            raise ValueError("weights must have positive mass")
        wt = np.ascontiguousarray(w.T)
        cx = self.centers[:, 0:1]
        cy = self.centers[:, 1:2]
        means = np.empty((len(w), 2))
        means[:, 0] = _cell_order_sum(wt * cx) / total
        means[:, 1] = _cell_order_sum(wt * cy) / total
        wn = wt / total
        dx = cx - means[:, 0]
        dy = cy - means[:, 1]
        wx = wn * dx
        wy = wn * dy
        cov = np.empty((len(w), 2, 2))
        cov[:, 0, 0] = _cell_order_sum(wx * dx)
        cov[:, 0, 1] = _cell_order_sum(wx * dy)
        cov[:, 1, 0] = _cell_order_sum(wy * dx)
        cov[:, 1, 1] = _cell_order_sum(wy * dy)
        return means, cov

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
