"""The :class:`WSNetwork` structure: positions, anchors, connectivity.

``WSNetwork`` is the single object every localizer consumes.  It stores the
*true* positions (ground truth for evaluation), which nodes are anchors
(known positions), and the boolean adjacency produced by a radio model.
Hop-count computations use a BFS over the sparse adjacency (scipy), shared
by DV-Hop and by multi-hop anchor priors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positions

__all__ = ["WSNetwork"]


@dataclass
class WSNetwork:
    """A snapshot of a deployed sensor network.

    Attributes
    ----------
    positions:
        ``(n, 2)`` true node coordinates (evaluation ground truth; the
        localizers only see anchor rows).
    anchor_mask:
        Boolean length-*n* mask; ``True`` entries are anchors whose position
        is known to the algorithms.
    adjacency:
        ``(n, n)`` symmetric boolean connectivity matrix.
    width, height:
        Field dimensions (the prior support).
    radio_range:
        Nominal communication range of the radio model that produced
        ``adjacency`` (used to build ranging potentials and to normalize
        error metrics).
    """

    positions: np.ndarray
    anchor_mask: np.ndarray
    adjacency: np.ndarray
    width: float = 1.0
    height: float = 1.0
    radio_range: float = 0.2
    _hops: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.positions = check_positions(self.positions)
        n = len(self.positions)
        self.anchor_mask = np.asarray(self.anchor_mask, dtype=bool)
        if self.anchor_mask.shape != (n,):
            raise ValueError(
                f"anchor_mask must have shape ({n},), got {self.anchor_mask.shape}"
            )
        adj = np.asarray(self.adjacency)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must have shape ({n}, {n})")
        adj = adj.astype(bool)
        if adj.diagonal().any():
            raise ValueError("adjacency must have a zero diagonal")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        self.adjacency = adj
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        if self.radio_range <= 0:
            raise ValueError("radio_range must be positive")

    # ------------------------------------------------------------------ #
    # basic views
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @property
    def n_anchors(self) -> int:
        return int(self.anchor_mask.sum())

    @property
    def anchor_ids(self) -> np.ndarray:
        return np.flatnonzero(self.anchor_mask)

    @property
    def unknown_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.anchor_mask)

    @property
    def anchor_positions(self) -> np.ndarray:
        return self.positions[self.anchor_mask]

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of nodes directly connected to node *i*."""
        return np.flatnonzero(self.adjacency[i])

    def degree(self) -> np.ndarray:
        """Per-node degree vector."""
        return self.adjacency.sum(axis=1)

    def mean_degree(self) -> float:
        """Average connectivity — the standard density summary in WSN papers."""
        return float(self.degree().mean())

    # ------------------------------------------------------------------ #
    # graph algorithms
    # ------------------------------------------------------------------ #
    def hop_counts(self) -> np.ndarray:
        """All-pairs hop-count matrix (``inf`` for disconnected pairs).

        Cached after the first call; the adjacency is immutable by
        convention once the network is built.
        """
        if self._hops is None:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            graph = csr_matrix(self.adjacency.astype(np.int8))
            self._hops = shortest_path(
                graph, method="D", unweighted=True, directed=False
            )
        return self._hops

    def hops_to_anchors(self) -> np.ndarray:
        """``(n, n_anchors)`` hop distances from every node to each anchor."""
        return self.hop_counts()[:, self.anchor_mask]

    def is_connected(self) -> bool:
        """True if the connectivity graph is a single component."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        n_comp, _ = connected_components(
            csr_matrix(self.adjacency.astype(np.int8)), directed=False
        )
        return bool(n_comp == 1)

    def largest_component_mask(self) -> np.ndarray:
        """Mask of nodes in the largest connected component."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        n_comp, labels = connected_components(
            csr_matrix(self.adjacency.astype(np.int8)), directed=False
        )
        if n_comp == 1:
            return np.ones(self.n_nodes, dtype=bool)
        counts = np.bincount(labels)
        return labels == counts.argmax()

    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of unordered connected pairs (i < j)."""
        iu, ju = np.nonzero(np.triu(self.adjacency, k=1))
        return np.column_stack([iu, ju])

    def localizable_mask(self) -> np.ndarray:
        """Unknown nodes connected (multi-hop) to at least one anchor."""
        hops = self.hops_to_anchors()
        reachable = np.isfinite(hops).any(axis=1)
        return reachable & ~self.anchor_mask

    def subnetwork(self, mask: np.ndarray) -> "WSNetwork":
        """Restrict the network to the nodes selected by a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_nodes,):
            raise ValueError("mask shape mismatch")
        idx = np.flatnonzero(mask)
        return WSNetwork(
            positions=self.positions[idx].copy(),
            anchor_mask=self.anchor_mask[idx].copy(),
            adjacency=self.adjacency[np.ix_(idx, idx)].copy(),
            width=self.width,
            height=self.height,
            radio_range=self.radio_range,
        )
