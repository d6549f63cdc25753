"""Radio propagation / link models.

A radio model decides which node pairs can communicate ("hear" each other)
given true positions.  Three standard models from the WSN literature:

* :class:`UnitDiskRadio` — deterministic disk of radius *r*.
* :class:`QuasiUnitDiskRadio` — links certain below ``alpha·r``, impossible
  beyond ``r``, random in between (models antenna irregularity).
* :class:`LogNormalShadowingRadio` — connectivity follows received power
  under the log-distance path-loss model with log-normal shadowing; the
  same shadowing draw drives RSSI ranging, so connectivity and range noise
  are consistent.

All models produce a symmetric boolean adjacency matrix and (optionally)
expose per-link detection probabilities ``p_detect(d)``, which the Bayesian
localizer uses for *negative evidence*: not hearing a node is itself
information about distance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.geometry import pairwise_distances
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "RadioModel",
    "UnitDiskRadio",
    "QuasiUnitDiskRadio",
    "LogNormalShadowingRadio",
    "IrregularRadio",
]


def _symmetrize_upper(mat: np.ndarray) -> np.ndarray:
    """Mirror the strict upper triangle onto the lower; zero the diagonal."""
    out = np.triu(mat, k=1)
    return out | out.T


class RadioModel(ABC):
    """Base class for link models with a nominal range ``range_``."""

    def __init__(self, range_: float) -> None:
        self.range_ = check_positive(range_, "range_")

    @abstractmethod
    def p_detect(self, distances: np.ndarray) -> np.ndarray:
        """Probability that a link exists at each given distance.

        Must be elementwise in *distances* (no reduction over the array):
        pairwise kernels evaluate it once per distinct cell distance.
        """

    def adjacency(
        self, positions: np.ndarray, rng: RNGLike = None
    ) -> np.ndarray:
        """Symmetric boolean adjacency matrix for ``(n, 2)`` positions."""
        dist = pairwise_distances(positions)
        return self.adjacency_from_distances(dist, rng)

    def adjacency_from_distances(
        self, dist: np.ndarray, rng: RNGLike = None
    ) -> np.ndarray:
        """Adjacency from a precomputed symmetric distance matrix."""
        dist = np.asarray(dist, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("dist must be a square matrix")
        gen = as_generator(rng)
        p = self.p_detect(dist)
        # One uniform draw per unordered pair keeps links symmetric.
        u = gen.uniform(size=dist.shape)
        u = np.triu(u, k=1)
        u = u + u.T
        link = u < p
        return _symmetrize_upper(link)


class UnitDiskRadio(RadioModel):
    """Deterministic disk model: connected iff ``d <= r``."""

    def p_detect(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=np.float64)
        return (d <= self.range_).astype(np.float64)


class QuasiUnitDiskRadio(RadioModel):
    """Quasi unit-disk graph (QUDG).

    Links are certain for ``d <= alpha*r``, impossible for ``d > r``, and
    exist with probability linearly falling from 1 to 0 in between.
    """

    def __init__(self, range_: float, alpha: float = 0.75) -> None:
        super().__init__(range_)
        self.alpha = check_probability(alpha, "alpha")

    def p_detect(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=np.float64)
        r_in = self.alpha * self.range_
        span = max(self.range_ - r_in, 1e-12)
        p = np.clip((self.range_ - d) / span, 0.0, 1.0)
        p[d <= r_in] = 1.0
        p[d > self.range_] = 0.0
        return p


class LogNormalShadowingRadio(RadioModel):
    """Log-distance path loss with log-normal shadowing.

    Received power at distance *d* (dB, relative to power at ``d0``):

    ``P(d) = P0 - 10·η·log10(d/d0) + X``,  ``X ~ N(0, σ_dB²)``.

    A link exists when ``P(d)`` exceeds the receiver sensitivity threshold.
    The threshold is calibrated so that the *median* connectivity distance
    equals ``range_`` — i.e. ``p_detect(range_) = 0.5`` — which keeps the
    nominal range comparable across radio models.

    Parameters
    ----------
    range_:
        Median connectivity distance.
    path_loss_exponent:
        η, typically 2 (free space) to 4 (indoor obstructed).
    shadowing_db:
        σ of the shadowing term in dB; 0 degenerates to a unit disk.
    d0:
        Reference distance for the path-loss law.
    """

    def __init__(
        self,
        range_: float,
        path_loss_exponent: float = 3.0,
        shadowing_db: float = 4.0,
        d0: float = 0.01,
    ) -> None:
        super().__init__(range_)
        self.path_loss_exponent = check_positive(
            path_loss_exponent, "path_loss_exponent"
        )
        if shadowing_db < 0:
            raise ValueError("shadowing_db must be non-negative")
        self.shadowing_db = float(shadowing_db)
        self.d0 = check_positive(d0, "d0")

    def mean_power_db(self, distances: np.ndarray) -> np.ndarray:
        """Mean received power (dB, relative) at given distances."""
        d = np.maximum(np.asarray(distances, dtype=np.float64), self.d0)
        return -10.0 * self.path_loss_exponent * np.log10(d / self.d0)

    @property
    def threshold_db(self) -> float:
        """Sensitivity threshold making ``p_detect(range_) = 0.5``."""
        return float(self.mean_power_db(np.array(self.range_)))

    def p_detect(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=np.float64)
        mean = self.mean_power_db(d)
        if self.shadowing_db == 0.0:
            return (mean >= self.threshold_db).astype(np.float64)
        from scipy.stats import norm

        return norm.sf((self.threshold_db - mean) / self.shadowing_db)

    def sample_power_db(
        self, distances: np.ndarray, rng: RNGLike = None
    ) -> np.ndarray:
        """Draw shadowed received powers (symmetric over unordered pairs)."""
        gen = as_generator(rng)
        d = np.asarray(distances, dtype=np.float64)
        mean = self.mean_power_db(d)
        if d.ndim == 2:
            x = gen.normal(0.0, self.shadowing_db or 0.0, size=d.shape)
            x = np.triu(x, k=1)
            x = x + x.T
        else:
            x = gen.normal(0.0, self.shadowing_db or 0.0, size=d.shape)
        return mean + x

    def adjacency_from_powers(self, power_db: np.ndarray) -> np.ndarray:
        """Adjacency implied by sampled received powers."""
        link = np.asarray(power_db, dtype=np.float64) >= self.threshold_db
        return _symmetrize_upper(link)


class IrregularRadio(RadioModel):
    """Direction-dependent range (the DOI model of He et al. / Zhou et al.).

    Each node's effective range varies smoothly with bearing:

    ``r_i(θ) = r · (1 + DOI · f_i(θ))``,

    where ``f_i`` is a smooth zero-mean random function of the bearing
    (a low-order random Fourier series, continuous at θ = 2π) drawn
    independently per node per :meth:`adjacency` call, and *doi* scales
    the irregularity (0 = perfect disk).  A link exists iff **both**
    directed receptions succeed: ``d ≤ min(r_i(θ_ij), r_j(θ_ji))``,
    keeping the adjacency symmetric the way real MAC layers require
    bidirectional links.

    For inference, :meth:`p_detect` returns the disk *approximation*
    marginalized over the irregularity — the localizer does not know each
    node's actual pattern, only its statistics, which is exactly the
    model-mismatch situation DOI experiments probe.
    """

    def __init__(self, range_: float, doi: float = 0.2, n_harmonics: int = 4) -> None:
        super().__init__(range_)
        if not (0.0 <= doi < 1.0):
            raise ValueError(f"doi must lie in [0, 1), got {doi}")
        if n_harmonics < 1:
            raise ValueError("n_harmonics must be >= 1")
        self.doi = float(doi)
        self.n_harmonics = int(n_harmonics)

    def _pattern(self, gen: np.random.Generator, n: int, theta: np.ndarray) -> np.ndarray:
        """Per-node smooth bearing perturbations f_i(θ) in [-1, 1]."""
        # Random Fourier series per node, normalized to unit max amplitude.
        k = np.arange(1, self.n_harmonics + 1)
        a = gen.normal(size=(n, self.n_harmonics))
        b = gen.normal(size=(n, self.n_harmonics))
        norm = np.sqrt((a**2 + b**2).sum(axis=1, keepdims=True))
        norm = np.maximum(norm, 1e-12)
        a, b = a / norm, b / norm
        # theta has shape (n, n): bearing from node i to node j.
        f = np.zeros_like(theta)
        for h in range(self.n_harmonics):
            f += (
                a[:, h][:, None] * np.cos(k[h] * theta)
                + b[:, h][:, None] * np.sin(k[h] * theta)
            )
        return np.clip(f, -1.0, 1.0)

    def p_detect(self, distances: np.ndarray) -> np.ndarray:
        # Marginal detection probability over the (unknown) pattern: the
        # perturbed range is r·(1 + DOI·f) with f roughly uniform-ish in
        # [-1, 1]; approximate with a linear ramp between the extremes.
        d = np.asarray(distances, dtype=np.float64)
        r_lo = self.range_ * (1.0 - self.doi)
        r_hi = self.range_ * (1.0 + self.doi)
        if self.doi == 0.0:
            return (d <= self.range_).astype(np.float64)
        p = np.clip((r_hi - d) / (r_hi - r_lo), 0.0, 1.0)
        return p

    def adjacency(self, positions: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        gen = as_generator(rng)
        n = len(pts)
        diff = pts[None, :, :] - pts[:, None, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        theta = np.arctan2(diff[..., 1], diff[..., 0])  # bearing i -> j
        f = self._pattern(gen, n, theta)
        range_out = self.range_ * (1.0 + self.doi * f)  # r_i(θ_ij)
        link_dir = dist <= range_out
        link = link_dir & link_dir.T  # bidirectional requirement
        np.fill_diagonal(link, False)
        return link

    def adjacency_from_distances(self, dist: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        raise NotImplementedError(
            "IrregularRadio needs positions (bearings), not just distances; "
            "call adjacency(positions) instead"
        )
