"""Ranging (distance-observation) models.

Each model maps a matrix of *true* pairwise distances to *observed* noisy
distances for the connected pairs, and — crucially for Bayesian inference —
exposes the likelihood ``p(observed | true)`` so the localizer's pairwise
potentials match the generative noise exactly (or deliberately mismatch, for
robustness experiments).

Observed matrices are kept symmetric: one noise draw per unordered pair,
mirroring the common protocol of averaging the two directed measurements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.measurement.rssi import PathLossModel
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "RangingModel",
    "GaussianRanging",
    "ProportionalGaussianRanging",
    "TOARanging",
    "RSSIRanging",
    "ConnectivityOnly",
]


def _symmetric_noise(
    gen: np.random.Generator, shape: tuple[int, ...], scale: float | np.ndarray
) -> np.ndarray:
    """Gaussian noise, symmetric across the diagonal for square inputs."""
    noise = gen.normal(0.0, 1.0, size=shape) * scale
    if len(shape) == 2 and shape[0] == shape[1]:
        noise = np.triu(noise, k=1)
        noise = noise + noise.T
    return noise


class RangingModel(ABC):
    """Base class for pairwise distance observation models."""

    #: whether the model produces a numeric distance (False = binary only)
    provides_distance: bool = True

    @abstractmethod
    def observe(
        self, true_distances: np.ndarray, rng: RNGLike = None
    ) -> np.ndarray:
        """Sample observed distances for every entry of *true_distances*.

        Callers mask out non-links afterwards; sampling the full matrix
        keeps the code vectorized and the per-pair draws symmetric.
        """

    @abstractmethod
    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        """``log p(observed | true = candidate_distances)``, broadcast.

        *observed* is scalar or broadcastable against *candidate_distances*.
        Must be elementwise in the candidate distances (no reduction over
        the array): pairwise kernels evaluate it once per distinct cell
        distance and gather the result over all cell pairs.

        Returns a new array of the broadcast shape that callers may write
        into (:func:`repro.core.potentials.ranging_potential_rows` does;
        it copies a result that is read-only, a view or of another shape
        first), never a cached array the model reuses.
        """

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        """Effective ranging σ at the given distances (for CRLB/weighting)."""
        raise NotImplementedError


class GaussianRanging(RangingModel):
    """Additive Gaussian noise with constant σ: ``d_obs = d + N(0, σ²)``.

    Observations are clipped at 0 for sampling; the likelihood ignores the
    clipping (negligible mass for σ ≪ d, the regime papers evaluate).
    """

    def __init__(self, sigma: float) -> None:
        self.sigma = check_positive(sigma, "sigma")

    def observe(self, true_distances: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        gen = as_generator(rng)
        d = np.asarray(true_distances, dtype=np.float64)
        obs = d + _symmetric_noise(gen, d.shape, self.sigma)
        return np.maximum(obs, 0.0)

    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        obs = np.asarray(observed, dtype=np.float64)
        cand = np.asarray(candidate_distances, dtype=np.float64)
        z = (obs - cand) / self.sigma
        return -0.5 * z * z - np.log(self.sigma) - 0.5 * np.log(2 * np.pi)

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        return np.full_like(
            np.asarray(distances, dtype=np.float64), self.sigma
        )


class ProportionalGaussianRanging(RangingModel):
    """Gaussian noise whose σ grows with distance: ``σ(d) = ratio·d + floor``.

    The standard "noise = x % of range" parameterization used when papers
    sweep ranging error (our reconstructed E3 axis).
    """

    def __init__(self, ratio: float, floor: float = 1e-4) -> None:
        self.ratio = check_nonnegative(ratio, "ratio")
        self.floor = check_positive(floor, "floor")

    def observe(self, true_distances: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        gen = as_generator(rng)
        d = np.asarray(true_distances, dtype=np.float64)
        sigma = self.ratio * d + self.floor
        obs = d + _symmetric_noise(gen, d.shape, sigma)
        return np.maximum(obs, 0.0)

    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        obs = np.asarray(observed, dtype=np.float64)
        cand = np.maximum(np.asarray(candidate_distances, dtype=np.float64), 0.0)
        sigma = self.ratio * cand + self.floor
        z = (obs - cand) / sigma
        return -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2 * np.pi)

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        d = np.asarray(distances, dtype=np.float64)
        return self.ratio * d + self.floor


class TOARanging(RangingModel):
    """Time-of-arrival ranging: Gaussian timing jitter plus a positive
    processing-delay bias (exponential), the classic TOA error structure.

    ``d_obs = d + c·(t_jitter + t_delay)``, ``t_jitter ~ N(0, σ_t²)``,
    ``t_delay ~ Exp(λ)``.  The likelihood used for inference is the
    Gaussian-plus-mean-bias approximation (exact convolution is an
    exponentially-modified Gaussian; the approximation keeps potentials
    cheap and is standard practice).
    """

    def __init__(
        self,
        sigma_time: float,
        mean_delay: float = 0.0,
        speed: float = 1.0,
    ) -> None:
        self.sigma_time = check_positive(sigma_time, "sigma_time")
        self.mean_delay = check_nonnegative(mean_delay, "mean_delay")
        self.speed = check_positive(speed, "speed")

    @property
    def sigma_dist(self) -> float:
        return self.sigma_time * self.speed

    @property
    def bias_dist(self) -> float:
        return self.mean_delay * self.speed

    def observe(self, true_distances: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        gen = as_generator(rng)
        d = np.asarray(true_distances, dtype=np.float64)
        jitter = _symmetric_noise(gen, d.shape, self.sigma_dist)
        if self.bias_dist > 0:
            delay = gen.exponential(self.bias_dist, size=d.shape)
            if d.ndim == 2 and d.shape[0] == d.shape[1]:
                delay = np.triu(delay, k=1)
                delay = delay + delay.T
        else:
            delay = 0.0
        return np.maximum(d + jitter + delay, 0.0)

    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        obs = np.asarray(observed, dtype=np.float64)
        cand = np.asarray(candidate_distances, dtype=np.float64)
        # Gaussian approximation: mean shifted by the expected delay, variance
        # inflated by the delay variance (Exp(λ): var = mean²).
        sigma2 = self.sigma_dist**2 + self.bias_dist**2
        sigma = np.sqrt(sigma2)
        z = (obs - cand - self.bias_dist) / sigma
        return -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2 * np.pi)

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        sigma = np.sqrt(self.sigma_dist**2 + self.bias_dist**2)
        return np.full_like(np.asarray(distances, dtype=np.float64), sigma)


class RSSIRanging(RangingModel):
    """RSSI-derived ranging: log-normal multiplicative distance error.

    Sampling goes through the physical chain (distance → shadowed RSSI →
    inverted distance); the likelihood is the exact log-normal implied by
    the path-loss model, evaluated in log-distance space.
    """

    def __init__(self, path_loss: PathLossModel | None = None) -> None:
        self.path_loss = path_loss if path_loss is not None else PathLossModel()
        if self.path_loss.shadowing_db <= 0:
            raise ValueError(
                "RSSIRanging needs shadowing_db > 0 (otherwise ranging is exact)"
            )

    @property
    def log_sigma(self) -> float:
        """σ of ``log(d_obs) - log(d)``."""
        return self.path_loss.range_error_factor_sigma()

    def observe(self, true_distances: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        gen = as_generator(rng)
        d = np.maximum(
            np.asarray(true_distances, dtype=np.float64), self.path_loss.d0
        )
        log_noise = _symmetric_noise(gen, d.shape, self.log_sigma)
        return d * np.exp(log_noise)

    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        obs = np.maximum(
            np.asarray(observed, dtype=np.float64), self.path_loss.d0
        )
        cand = np.maximum(
            np.asarray(candidate_distances, dtype=np.float64), self.path_loss.d0
        )
        z = (np.log(obs) - np.log(cand)) / self.log_sigma
        # density of d_obs (log-normal): includes the 1/obs Jacobian, a
        # constant w.r.t. the candidate so harmless but kept for exactness.
        return (
            -0.5 * z * z
            - np.log(self.log_sigma)
            - 0.5 * np.log(2 * np.pi)
            - np.log(obs)
        )

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        # First-order delta method: sd(d_obs) ≈ d · σ_log.
        d = np.asarray(distances, dtype=np.float64)
        return d * self.log_sigma


class ConnectivityOnly(RangingModel):
    """Range-free observation: only the link bit is available.

    ``observe`` returns the true distances untouched (callers never use
    them); the likelihood is flat, so all distance information must come
    from connectivity potentials and priors.  This is the model behind
    range-free methods (Centroid, DV-Hop) and the connectivity-only variant
    of the Bayesian localizer.
    """

    provides_distance = False

    def observe(self, true_distances: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        return np.asarray(true_distances, dtype=np.float64).copy()

    def log_likelihood(
        self, observed: np.ndarray, candidate_distances: np.ndarray
    ) -> np.ndarray:
        cand = np.asarray(candidate_distances, dtype=np.float64)
        return np.zeros(np.broadcast_shapes(np.shape(observed), cand.shape))

    def sigma_at(self, distances: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(distances, dtype=np.float64), np.inf)
