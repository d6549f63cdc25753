"""Belief-health guards and fallback position estimates.

Under fault injection (corrupted messages, dead anchors, outlier ranges)
a message-passing solver can produce numerically broken beliefs: NaN/Inf
entries, zero total mass, or residuals that grow instead of shrink.  The
helpers here let every solver detect that cheaply, attempt a damped
restart, and — for nodes whose belief is beyond repair — fall back to a
baseline-style estimate (anchor centroid, then the prior mean, then the
field center) instead of emitting NaN or aborting the run.

All checks are *observation only* on healthy inputs: they allocate no
randomness and change nothing unless a belief is actually broken, so
fault-free runs remain bit-identical (asserted by the golden-trace
tests).
"""

from __future__ import annotations

import numpy as np

from repro.measurement.measurements import MeasurementSet

__all__ = [
    "healthy_belief_rows",
    "repair_nonfinite_messages",
    "residuals_diverging",
    "fallback_position",
]

#: a belief more concentrated than this on a single state is considered
#: degenerate only if it is *exactly* a delta with no supporting evidence —
#: we deliberately do NOT flag confident-but-finite beliefs, which are the
#: normal end state of converged BP.
_DIVERGENCE_GROWTH = 100.0
_DIVERGENCE_FLOOR = 1e-3


def healthy_belief_rows(beliefs: np.ndarray) -> np.ndarray:
    """Per-row health mask of a ``(n, K)`` belief matrix.

    A belief row is healthy when every entry is finite and non-negative
    and the row carries positive total mass.
    """
    finite = np.isfinite(beliefs).all(axis=1)
    # a non-finite row is already unhealthy; its NaN/inf sum is ignored
    with np.errstate(invalid="ignore"):
        return finite & (beliefs >= 0).all(axis=1) & (beliefs.sum(axis=1) > 0)


def repair_nonfinite_messages(messages: np.ndarray) -> int:
    """Replace non-finite message rows with uniform in place.

    Returns the number of rows repaired (0 on healthy input, in which
    case the array is untouched).
    """
    finite = np.isfinite(messages).all(axis=1)
    n_bad = int(len(finite) - finite.sum())
    if n_bad:
        K = messages.shape[1]
        messages[~finite] = 1.0 / K
    return n_bad


def residuals_diverging(residuals: list[float]) -> bool:
    """Conservative divergence test on a message-residual history.

    True only when the residual grew on each of the last three steps AND
    the final residual sits two orders of magnitude above the best seen
    (and above an absolute floor).  Healthy damped loopy BP — including
    runs that merely plateau above tolerance — never trips this.
    """
    if len(residuals) < 4:
        return False
    tail = residuals[-4:]
    if not all(b > a for a, b in zip(tail, tail[1:])):
        return False
    best = min(residuals)
    last = residuals[-1]
    if not np.isfinite(last):
        return True
    return last > _DIVERGENCE_FLOOR and last > _DIVERGENCE_GROWTH * max(best, 1e-300)


def fallback_position(
    ms: MeasurementSet,
    node: int,
    prior=None,
    grid=None,
) -> np.ndarray:
    """Baseline-style estimate for a node whose belief broke down.

    Preference order: centroid of the anchors the node hears (the classic
    range-free estimate), then the prior mean on *grid*, then the field
    center — always finite, never raises.
    """
    node = int(node)
    heard = [
        int(a) for a in ms.anchor_ids if ms.adjacency[node, a]
    ]
    if heard:
        return ms.anchor_positions_full[heard].mean(axis=0)
    if prior is not None and grid is not None:
        try:
            w = prior.grid_weights(node, grid)
            return w @ grid.centers
        except Exception:
            pass
    return np.array([ms.width / 2.0, ms.height / 2.0])
