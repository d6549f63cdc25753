"""Centroid-family range-free baselines (Bulusu, Heidemann & Estrin 2000).

A node estimates its position as the (possibly weighted) centroid of the
anchors it can hear.  To extend coverage beyond one hop, anchors are used
at their hop distance with rapidly decaying weight — the common "multi-hop
centroid" variant; nodes with no reachable anchor stay unlocalized.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.utils.rng import RNGLike

__all__ = ["CentroidLocalizer", "WeightedCentroidLocalizer"]


def _hops_to_anchors(ms: MeasurementSet) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    graph = csr_matrix(ms.adjacency.astype(np.int8))
    hops = shortest_path(graph, method="D", unweighted=True, directed=False)
    return hops[:, ms.anchor_mask]


class CentroidLocalizer(Localizer):
    """Unweighted centroid of one-hop anchors (multi-hop fallback).

    Parameters
    ----------
    max_hops:
        Anchors up to this hop distance participate; one-hop anchors are
        always preferred when available (the classic scheme).
    """

    name = "centroid"

    def __init__(self, max_hops: int = 3) -> None:
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self.max_hops = int(max_hops)

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        estimates, mask = self._result_skeleton(ms)
        hops = _hops_to_anchors(ms)
        apos = ms.anchor_positions
        for u in ms.unknown_ids:
            u = int(u)
            h = hops[u]
            # Prefer the nearest hop ring that contains anchors.
            for ring in range(1, self.max_hops + 1):
                sel = h <= ring
                if sel.any():
                    estimates[u] = apos[sel].mean(axis=0)
                    mask[u] = True
                    break
        return LocalizationResult(estimates, mask, self.name)


class WeightedCentroidLocalizer(Localizer):
    """Centroid weighted by proximity.

    With ranging, weights are ``1 / (d_obs + ε)``; range-free, weights are
    ``1 / hops``.  Anchors within *max_hops* participate (measured
    distances only exist for one-hop anchors, so farther anchors fall back
    to hop-count weights).
    """

    name = "weighted-centroid"

    def __init__(self, max_hops: int = 3, epsilon: float = 1e-3) -> None:
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.max_hops = int(max_hops)
        self.epsilon = float(epsilon)

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        estimates, mask = self._result_skeleton(ms)
        hops = _hops_to_anchors(ms)
        apos = ms.anchor_positions
        anchor_ids = ms.anchor_ids
        for u in ms.unknown_ids:
            u = int(u)
            h = hops[u]
            sel = np.isfinite(h) & (h <= self.max_hops) & (h >= 1)
            if not sel.any():
                continue
            w = np.empty(sel.sum())
            pos = apos[sel]
            for k, ai in enumerate(np.flatnonzero(sel)):
                a = int(anchor_ids[ai])
                if ms.has_ranging and ms.adjacency[u, a]:
                    w[k] = 1.0 / (ms.observed_distances[u, a] + self.epsilon)
                else:
                    w[k] = 1.0 / h[ai]
            estimates[u] = (w[:, None] * pos).sum(axis=0) / w.sum()
            mask[u] = True
        return LocalizationResult(estimates, mask, self.name)
