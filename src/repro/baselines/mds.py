"""MDS-MAP localization (Shang, Ruml, Zhang & Fromherz, 2003).

1. Build the all-pairs shortest-path distance matrix over the connectivity
   graph (edge weights = observed ranges when available, else the nominal
   radio range).
2. Classical (Torgerson) multidimensional scaling of the squared-distance
   matrix → a relative 2-D map.
3. Align the relative map onto the anchors with a similarity Procrustes
   transform (rotation/reflection + scale + translation).

Like DV-Hop, MDS-MAP relies on shortest paths approximating Euclidean
distances, so concave topologies (E9) distort the relative map globally.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import LocalizationResult, Localizer
from repro.measurement.measurements import MeasurementSet
from repro.utils.rng import RNGLike

__all__ = ["MDSMAPLocalizer", "classical_mds", "procrustes_align"]


def classical_mds(dist: np.ndarray, dim: int = 2) -> np.ndarray:
    """Torgerson classical MDS: coordinates from a distance matrix.

    Double-centers the squared distances and takes the top-*dim*
    eigenvectors of the Gram matrix.  Eigenvalues are clipped at zero
    (shortest-path matrices are not exactly Euclidean).
    """
    D = np.asarray(dist, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("dist must be square")
    if not np.all(np.isfinite(D)):
        raise ValueError("dist must be finite (restrict to one component)")
    n = len(D)
    if n <= dim:
        raise ValueError(f"need more than {dim} points")
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * J @ (D**2) @ J
    vals, vecs = np.linalg.eigh(B)
    top = np.argsort(vals)[::-1][:dim]
    lam = np.clip(vals[top], 0.0, None)
    return vecs[:, top] * np.sqrt(lam)[None, :]


def procrustes_align(
    source: np.ndarray, target: np.ndarray, allow_scale: bool = True
) -> tuple[np.ndarray, float, np.ndarray]:
    """Similarity transform mapping *source* points onto *target*.

    Returns ``(R, s, t)`` with ``aligned = s · source @ R + t`` minimizing
    the squared alignment error (orthogonal Procrustes; reflections are
    allowed, as a relative MDS map has arbitrary chirality).
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 2:
        raise ValueError("source and target must be equal-shape (m, d)")
    if len(src) < 3:
        raise ValueError("need at least 3 correspondence points")
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    A = (src - mu_s).T @ (tgt - mu_t)
    U, S, Vt = np.linalg.svd(A)
    R = U @ Vt
    if allow_scale:
        denom = ((src - mu_s) ** 2).sum()
        if denom <= 0:
            raise ValueError("degenerate source configuration")
        s = S.sum() / denom
    else:
        s = 1.0
    t = mu_t - s * mu_s @ R
    return R, float(s), t


class MDSMAPLocalizer(Localizer):
    """Centralized MDS-MAP with anchor-based Procrustes alignment.

    Nodes outside the anchors' connected component (or in components with
    fewer than 3 anchors) remain unlocalized.
    """

    name = "mds-map"

    def localize(
        self, measurements: MeasurementSet, rng: RNGLike = None
    ) -> LocalizationResult:
        ms = measurements
        estimates, mask = self._result_skeleton(ms)

        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, shortest_path

        weights = np.where(
            ms.adjacency,
            ms.observed_distances if ms.has_ranging else ms.radio_range,
            0.0,
        )
        np.nan_to_num(weights, copy=False, nan=ms.radio_range)
        weights = weights * ms.adjacency  # zero means "no edge" for csgraph
        graph = csr_matrix(weights)
        n_comp, labels = connected_components(
            csr_matrix(ms.adjacency.astype(np.int8)), directed=False
        )
        spd = shortest_path(graph, method="D", directed=False)

        for comp in range(n_comp):
            nodes = np.flatnonzero(labels == comp)
            anchors_here = [int(v) for v in nodes if ms.anchor_mask[v]]
            if len(nodes) < 3 or len(anchors_here) < 3:
                continue
            sub = spd[np.ix_(nodes, nodes)]
            try:
                rel = classical_mds(sub, dim=2)
            except ValueError:
                continue
            local_idx = {int(v): k for k, v in enumerate(nodes)}
            src = rel[[local_idx[a] for a in anchors_here]]
            tgt = ms.anchor_positions_full[anchors_here]
            try:
                R, s, t = procrustes_align(src, tgt)
            except ValueError:
                continue
            aligned = s * rel @ R + t
            for v in nodes:
                v = int(v)
                if not ms.anchor_mask[v]:
                    estimates[v] = aligned[local_idx[v]]
                    mask[v] = True
        return LocalizationResult(estimates, mask, self.name)
