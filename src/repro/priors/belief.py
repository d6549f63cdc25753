"""Beliefs as priors: closing the Bayesian loop.

A :class:`GridBeliefPrior` wraps per-node belief vectors over a source
grid so they can serve as the *prior* of a subsequent inference — the
mechanism behind sequential tracking (yesterday's posterior → today's
prior) and coarse-to-fine multi-resolution solving (coarse posterior →
fine prior).  Evaluation on a different grid resolution works by
nearest-cell lookup on the source grid, optionally smoothed by a Gaussian
diffusion kernel (used by the tracker as its motion model).

Layout: the prior holds its beliefs as one C-contiguous ``(N, K)``
weight block, one row per node that has a belief, plus a node → row
index.  Validation, normalization and the floor run as row-wise passes
over the whole block; :attr:`GridBeliefPrior.weights` is a read-only
``{node: row view}`` mapping over it, and
:meth:`GridBeliefPrior.grid_weight_rows` hands a solver all its rows in
one gather.  A row-wise ``sum`` over a C-contiguous block adds each
row's K entries in one fixed order (numpy's pairwise sum along the
contiguous axis), the same whatever the number of rows, N == 1
included; with row-wise divisions and elementwise floors that makes a
block prior bit-identical to one built vector by vector, and makes
:meth:`GridBeliefPrior.stacked` — many networks' beliefs built as one
block, each network's prior its row slice — bit-identical to each
network's own build.  The diffusion is the exception: the block product
``(kernel @ W.T).T`` sums in a different order than the matvec
``kernel @ w`` (differences up to ~5e-14 at K = 144), so it stays one
matvec per row, all of them run by one ``np.matmul(kernel, W[:, :,
None])`` call (numpy runs a stacked matrix-vector product as one gemv per
row).  The cached kernels are read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.priors.base import PositionPrior
from repro.utils.stablemath import safe_log

if TYPE_CHECKING:
    from repro.core.grid import Grid2D

__all__ = ["GridBeliefPrior", "diffusion_kernel"]

#: process-level cache of diffusion kernels, keyed on grid geometry and
#: sigma.  A kernel is a pure function of the key, so a cached kernel is
#: bit-identical to a freshly built one; bounded LRU like the potential
#: registry.  Sequential trackers and the streaming runtime rebuild a
#: GridBeliefPrior every step — without this the (K, K) kernel was
#: reconstructed each time.
_KERNEL_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_KERNEL_CACHE_MAX = 8


def diffusion_kernel(grid: "Grid2D", sigma: float) -> np.ndarray:
    """The column-normalized Gaussian motion kernel over *grid* (cached).

    ``kernel[:, j]`` is the distribution of next-step cells for mass
    currently in cell *j*: an isotropic Gaussian of scale *sigma*,
    truncated at ``4 sigma`` and renormalized, so diffusion conserves
    probability mass even at the field boundary (mass near an edge piles
    up against it instead of leaking out).
    """
    if sigma <= 0:
        raise ValueError("diffusion kernel requires sigma > 0")
    key = (grid.nx, grid.ny, float(grid.width), float(grid.height), float(sigma))
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        _KERNEL_CACHE.move_to_end(key)
        return kernel
    D = grid.pairwise_center_distances()
    kernel = np.exp(-(D**2) / (2 * sigma**2))
    kernel[D > 4 * sigma] = 0.0
    kernel /= kernel.sum(axis=0)[None, :]
    # shared by every later prior on this grid: an in-place edit would
    # silently corrupt all of them
    kernel.flags.writeable = False
    _KERNEL_CACHE[key] = kernel
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.popitem(last=False)
    return kernel


class _Rows(Mapping):
    """Read-only ``{node: row view}`` mapping over a prior's block."""

    __slots__ = ("block", "index")

    def __init__(self, block: np.ndarray, index: dict[int, int]) -> None:
        self.block = block
        self.index = index

    def __getitem__(self, node) -> np.ndarray:
        return self.block[self.index[int(node)]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


class _Parts:
    """Several belief mappings read as one block, row after row: the
    constructor input behind :meth:`GridBeliefPrior.stacked`."""

    __slots__ = ("parts", "indexes")

    def __init__(self, parts: Sequence[Mapping]) -> None:
        self.parts = list(parts)
        #: node → row within its own part, one dict per part (another
        #: prior's rows keep that prior's index)
        self.indexes = [
            b.index if isinstance(b, _Rows) else _node_index(b) for b in self.parts
        ]

    def __iter__(self):
        """The node id of every row, in block order."""
        return (node for index in self.indexes for node in index)


def _node_index(beliefs: Mapping) -> dict[int, int]:
    index = {int(node): i for i, node in enumerate(beliefs)}
    if len(index) != len(beliefs):
        raise ValueError("belief node ids must be distinct integers")
    return index


def _stack(
    beliefs, n_cells: int
) -> tuple[dict[int, int], np.ndarray, Iterable[int]]:
    """Node → row index, the ``(N, K)`` float64 block of *beliefs* and
    the row nodes (iterable, in row order; for error messages).

    A :class:`_Parts` input stacks all its parts into one block; its
    index is empty (the parts keep their own, see
    :meth:`GridBeliefPrior.stacked`).
    """
    if isinstance(beliefs, _Rows) and beliefs.block.shape[1] == n_cells:
        # another prior's rows: already a block
        return beliefs.index, beliefs.block, beliefs.index
    if isinstance(beliefs, _Parts):
        index, nodes = {}, beliefs
        if all(
            isinstance(b, _Rows) and b.block.shape[1] == n_cells
            for b in beliefs.parts
        ):
            # other priors' rows: already blocks
            return index, np.concatenate([b.block for b in beliefs.parts]), nodes
        vectors = [v for b in beliefs.parts for v in b.values()]
    else:
        index = nodes = _node_index(beliefs)
        vectors = list(beliefs.values())
    if not vectors:
        return index, np.empty((0, n_cells)), nodes
    try:
        block = np.array(vectors, dtype=np.float64)
    except ValueError:  # ragged rows; named below
        block = None
    if block is None or block.shape != (len(vectors), n_cells):
        for node, b in zip(nodes, vectors):
            if np.shape(b) != (n_cells,):
                raise ValueError(
                    f"belief for node {node} has shape {np.shape(b)}, "
                    f"expected ({n_cells},)"
                )
    return index, block, nodes


class GridBeliefPrior(PositionPrior):
    """Per-node priors given by belief vectors over a source grid.

    The beliefs live in one read-only ``(N, K)`` block (:attr:`block`),
    row ``index[node]`` for each node; :attr:`weights` views it as
    ``{node: (K,) row}``.  Each row is the node's belief normalized,
    optionally diffused (one ``kernel @ w`` matvec per row, all in one
    ``np.matmul`` call, see the module docstring) and re-normalized, then
    mixed with the floor.

    Parameters
    ----------
    grid:
        The grid the belief vectors are defined on.
    beliefs:
        ``{node_id: (K,) probability vector}`` (or another prior's
        :attr:`weights`); nodes without an entry get a flat prior.  Every
        vector must be finite and non-negative with positive mass
        (:func:`repro.core.health.healthy_belief_rows`); otherwise a
        ``ValueError`` names the first node whose vector is not.
    diffusion_sigma:
        If positive, each belief is pre-convolved with an isotropic
        Gaussian of this σ (a bounded-displacement motion model, or a
        smoother for cross-resolution transfer).
    floor:
        Probability floor mixed in (relative to uniform) so the prior
        never hard-zeroes a cell that measurements might support — this
        keeps a wrong earlier belief recoverable.
    """

    def __init__(
        self,
        grid: "Grid2D",
        beliefs: Mapping[int, np.ndarray],
        diffusion_sigma: float = 0.0,
        floor: float = 1e-6,
    ) -> None:
        # imported here: repro.core imports this module at package init
        from repro.core.health import healthy_belief_rows

        if diffusion_sigma < 0:
            raise ValueError("diffusion_sigma must be non-negative")
        if not (0 <= floor < 1):
            raise ValueError("floor must lie in [0, 1)")
        self.grid = grid
        self.diffusion_sigma = float(diffusion_sigma)
        self.floor = float(floor)
        index, w, nodes = _stack(beliefs, grid.n_cells)
        healthy = healthy_belief_rows(w)
        if not healthy.all():
            node = list(nodes)[np.flatnonzero(~healthy)[0]]
            raise ValueError(
                f"belief for node {node} is not a probability vector "
                "(needs finite, non-negative entries with positive mass)"
            )
        w = w / w.sum(axis=1, keepdims=True)
        if self.diffusion_sigma > 0:
            kernel = diffusion_kernel(grid, self.diffusion_sigma)
            diffused = np.empty_like(w)
            # one call over the stacked (N, K, 1) columns: numpy runs it as
            # the kernel @ w gemv of every row, so it is bit-equal to them
            np.matmul(kernel, w[:, :, None], out=diffused[:, :, None])
            w = diffused
            w /= w.sum(axis=1, keepdims=True)
        if self.floor > 0:
            w *= 1 - self.floor
            w += self.floor * (1.0 / grid.n_cells)
        w.flags.writeable = False
        #: ``(N, K)`` weight block, one read-only row per node with a belief
        self.block = w
        #: node → row of :attr:`block`
        self.index = index

    @classmethod
    def stacked(
        cls,
        grid: "Grid2D",
        beliefs: Sequence[Mapping[int, np.ndarray]],
        diffusion_sigma: float = 0.0,
        floor: float = 1e-6,
    ) -> list["GridBeliefPrior"]:
        """One prior per mapping of *beliefs*, built as one block.

        All rows go through a single constructor call: one health check,
        one normalization, one ``np.matmul`` running the per-row diffusion
        matvecs, one re-normalization and one floor over the whole
        ``(N, K)`` block.  Prior ``j`` then holds the row slice of
        ``beliefs[j]``; every step is row-wise, so it is byte-equal to
        ``cls(grid, beliefs[j], diffusion_sigma, floor)`` built alone.  A
        vector that is not a probability vector raises the constructor's
        ``ValueError`` naming its node.
        """
        parts = _Parts(beliefs)
        if not parts.parts:
            return []
        whole = cls(grid, parts, diffusion_sigma, floor)
        out = []
        stop = 0
        for index in parts.indexes:
            start, stop = stop, stop + len(index)
            part = object.__new__(type(whole))
            part.__dict__.update(
                whole.__dict__, block=whole.block[start:stop], index=index
            )
            out.append(part)
        return out

    @property
    def weights(self) -> Mapping[int, np.ndarray]:
        """Read-only ``{node: (K,) row view of block}`` mapping."""
        return _Rows(self.block, self.index)

    def row_index(self, nodes) -> np.ndarray:
        """Row of :attr:`block` for each of *nodes* (``-1``: no belief)."""
        get = self.index.get
        return np.fromiter(
            (get(int(u), -1) for u in nodes), dtype=np.intp, count=len(nodes)
        )

    def _same_grid(self, grid: "Grid2D") -> bool:
        """Whether *grid* has this prior's cells: equal shape and field
        extent, so a block row is already *grid*'s weight vector."""
        g = self.grid
        return (grid.nx, grid.ny, grid.width, grid.height) == (
            g.nx, g.ny, g.width, g.height
        )

    def log_density(self, node: int, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        row = self.index.get(int(node))
        if row is None:
            return np.zeros(len(pts))
        cells = self.grid.cell_of(pts)
        return safe_log(self.block[row][cells])

    def grid_weights(self, node: int, grid: "Grid2D") -> np.ndarray:
        row = self.index.get(int(node))
        if row is None:
            return np.full(grid.n_cells, 1.0 / grid.n_cells)
        w = self.block[row]
        if self._same_grid(grid):
            return w
        # Cross-resolution transfer: evaluate at the target cell centers.
        out = w[self.grid.cell_of(grid.centers)]
        total = out.sum()
        if total <= 0:  # pragma: no cover - floor prevents this
            return np.full(grid.n_cells, 1.0 / grid.n_cells)
        return out / total

    def grid_weight_rows(self, nodes, grid: "Grid2D") -> np.ndarray:
        """All of *nodes*' rows in one gather from :attr:`block` (uniform
        rows for nodes without a belief); cross-resolution grids take the
        per-node :meth:`grid_weights` path."""
        if not self._same_grid(grid):
            return super().grid_weight_rows(nodes, grid)
        rows = self.row_index(nodes)
        have = rows >= 0
        if have.all():
            return self.block[rows]
        out = np.full((len(rows), grid.n_cells), 1.0 / grid.n_cells)
        out[have] = self.block[rows[have]]
        return out
