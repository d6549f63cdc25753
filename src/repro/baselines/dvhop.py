"""DV-Hop localization (Niculescu & Nath, 2001/2003).

Three phases, exactly as published:

1. every node learns its hop count to every anchor (distance-vector flood);
2. each anchor computes an *average hop size* from its true distances to
   the other anchors divided by their hop counts; a node adopts the hop
   size of its nearest anchor;
3. each node converts hop counts to distance estimates and laterates.

DV-Hop is the canonical range-free multi-hop baseline; it degrades badly
on concave (C-shaped) deployments because shortest paths detour around
voids — the E9 experiment.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.multilateration import lateration
from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.utils.geometry import pairwise_distances
from repro.utils.rng import RNGLike

__all__ = ["DVHopLocalizer"]


class DVHopLocalizer(Localizer):
    """Range-free DV-Hop with least-squares lateration.

    Parameters
    ----------
    min_anchors:
        Anchors needed to laterate a node (≥ 3).
    refine:
        Nonlinear polish of the lateration solution.
    """

    name = "dv-hop"

    def __init__(self, min_anchors: int = 3, refine: bool = True) -> None:
        if min_anchors < 3:
            raise ValueError("min_anchors must be >= 3 in 2-D")
        self.min_anchors = int(min_anchors)
        self.refine = bool(refine)

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        estimates, mask = self._result_skeleton(ms)

        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        graph = csr_matrix(ms.adjacency.astype(np.int8))
        hops = shortest_path(graph, method="D", unweighted=True, directed=False)
        anchor_ids = ms.anchor_ids
        hop_to_anchor = hops[:, anchor_ids]  # (n, m)

        # Phase 2: per-anchor average hop size from anchor-anchor geometry.
        apos = ms.anchor_positions
        true_aa = pairwise_distances(apos)
        hop_aa = hop_to_anchor[anchor_ids]  # (m, m)
        m = len(anchor_ids)
        hop_size = np.zeros(m)
        for ai in range(m):
            others = np.arange(m) != ai
            usable = others & np.isfinite(hop_aa[ai]) & (hop_aa[ai] > 0)
            if usable.any():
                hop_size[ai] = true_aa[ai, usable].sum() / hop_aa[ai, usable].sum()
            else:
                hop_size[ai] = ms.radio_range  # isolated anchor: fall back
        if m < 2:
            raise ValueError("DV-Hop needs at least 2 anchors to calibrate hop size")

        # Phase 3: distances from hop counts (using the nearest anchor's hop
        # size, as in the original protocol) and lateration.
        for u in ms.unknown_ids:
            u = int(u)
            h = hop_to_anchor[u]
            reachable = np.isfinite(h) & (h > 0)
            if reachable.sum() < self.min_anchors:
                continue
            nearest = int(np.argmin(np.where(reachable, h, np.inf)))
            size = hop_size[nearest]
            dists = h[reachable] * size
            refs = apos[reachable]
            # Closer anchors give relatively better hop-distance estimates.
            w = 1.0 / np.maximum(h[reachable], 1.0)
            try:
                estimates[u] = lateration(refs, dists, w, refine=self.refine)
            except ValueError:
                continue
            mask[u] = True
        return LocalizationResult(estimates, mask, self.name)
