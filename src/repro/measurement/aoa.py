"""Angle-of-arrival (AoA) bearing measurements.

With an antenna array (and a compass for absolute orientation), a node can
measure the *bearing* of an incoming signal.  Bearings are complementary
to ranges: a single anchor bearing constrains the node to a ray instead of
an annulus, and two anchor bearings triangulate outright.

The noise model is the standard von Mises distribution on angles:

``p(θ_obs | θ) = exp(κ·cos(θ_obs − θ)) / (2π·I₀(κ))``

parameterizable either by the concentration κ or by an approximate
standard deviation in radians (``κ ≈ 1/σ²`` for small σ).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["BearingModel", "wrap_angle", "true_bearings"]


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into ``(-π, π]``."""
    t = np.asarray(theta, dtype=np.float64)
    return np.arctan2(np.sin(t), np.cos(t))


def true_bearings(positions: np.ndarray) -> np.ndarray:
    """``(n, n)`` matrix of bearings from node i to node j (radians)."""
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    return np.arctan2(dy, dx)


class BearingModel:
    """Von Mises bearing noise.

    Parameters
    ----------
    sigma_rad:
        Approximate angular standard deviation (radians); converted to a
        von Mises concentration ``κ = 1/σ²``.  Typical array hardware:
        0.05–0.3 rad.
    """

    def __init__(self, sigma_rad: float) -> None:
        self.sigma_rad = check_positive(sigma_rad, "sigma_rad")
        self.kappa = 1.0 / self.sigma_rad**2

    def observe(self, bearings: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        """Sample noisy bearings (independent per *directed* pair —
        each endpoint measures with its own hardware)."""
        gen = as_generator(rng)
        b = np.asarray(bearings, dtype=np.float64)
        noise = gen.vonmises(0.0, self.kappa, size=b.shape)
        return wrap_angle(b + noise)

    def log_likelihood(
        self, observed: float | np.ndarray, candidate_bearings: np.ndarray
    ) -> np.ndarray:
        """``log p(observed | true = candidate)`` for wrapped angles."""
        delta = np.asarray(observed, dtype=np.float64) - np.asarray(
            candidate_bearings, dtype=np.float64
        )
        from scipy.special import i0e

        # log I0(κ) computed stably via the exponentially-scaled i0e
        log_i0 = np.log(i0e(self.kappa)) + self.kappa
        return self.kappa * np.cos(delta) - np.log(2 * np.pi) - log_i0
