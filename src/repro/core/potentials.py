"""Grid potentials: likelihood tables over cells and cell pairs.

These functions turn measurement models into the unary vectors and pairwise
matrices that the grid Bayesian network multiplies together:

* anchor observations → unary ``(K,)`` vectors,
* inter-unknown ranging → pairwise ``(K, K)`` matrices,
* absence of a link to an anchor → *negative evidence* unary vectors.

Pairwise matrices dominate cost and memory, so
:class:`RangingPotentialCache` quantizes the observed distance and stores
truncated sparse kernels: edges with (nearly) the same observed distance
share one matrix.  For a 20×20 grid, a typical cache holds a few dozen
sparse 400×400 kernels instead of one dense matrix per edge.  A kernel
depends on a cell pair only through its centre distance, so each one is
evaluated once per distinct distance (a few hundred on a 24×24 grid, not
K²) and gathered into the sparse matrix; this relies on ranging and radio
models being elementwise in the candidate distances.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy import sparse

from repro.core.grid import Grid2D
from repro.measurement.ranging import RangingModel
from repro.network.radio import RadioModel

__all__ = [
    "pairwise_ranging_potential",
    "ranging_potential_from_distances",
    "ranging_potential_rows",
    "connectivity_potential",
    "anchor_ranging_potential",
    "anchor_connectivity_potential",
    "negative_anchor_potential",
    "pairwise_bearing_potential",
    "anchor_bearing_potential",
    "anchor_bearing_rows",
    "floored_loglik",
    "expected_anchor_loglik",
    "expected_pairwise_loglik",
    "RangingPotentialCache",
    "PotentialCacheRegistry",
    "shared_registry",
]


def _normalize_matrix(
    values: np.ndarray, axis: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """*values* over their peak (per row along *axis*, if given), written
    into *out* when given (which may be *values* itself)."""
    peak = values.max(axis=axis, keepdims=True)
    if (peak <= 0).any():
        raise ValueError(
            "potential has zero mass everywhere — measurement inconsistent "
            "with the grid (observed distance far outside the field?)"
        )
    return np.divide(values, peak, out=out)


# 3-point Gauss–Hermite quadrature for N(0, 1): nodes ±√3 and 0.
_GH_NODES = np.array([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
_GH_WEIGHTS = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])


def _blurred_likelihood(
    distances: np.ndarray,
    observed_distance: float,
    ranging: RangingModel,
    blur_sigma: float,
) -> np.ndarray:
    """``E_ε[p(d_obs | d + ε)]`` with ε ~ N(0, blur_sigma²).

    Positions are only known to within a grid cell, so the distance
    between two cell *centers* differs from the true inter-node distance
    by a quantization error.  Marginalizing the likelihood over that error
    (3-point Gauss–Hermite) prevents aliasing when the ranging noise is
    narrower than a cell.  ``blur_sigma=0`` is the plain likelihood.

    All quadrature components share ONE log-offset (the global maximum):
    normalizing each component by its own peak would rescale the mixture
    terms relative to each other and distort the quadrature weights.
    """
    if blur_sigma <= 0:
        ll = ranging.log_likelihood(float(observed_distance), distances)
        return np.exp(ll - ll.max())
    lls = [
        ranging.log_likelihood(
            float(observed_distance),
            np.maximum(distances + node * blur_sigma, 0.0),
        )
        for node in _GH_NODES
    ]
    offset = max(ll.max() for ll in lls)
    vals = 0.0
    for weight, ll in zip(_GH_WEIGHTS, lls):
        vals = vals + weight * np.exp(ll - offset)
    return vals


def ranging_potential_from_distances(
    distances: np.ndarray,
    observed_distance: float,
    ranging: RangingModel,
    radio: RadioModel | None = None,
    blur_sigma: float = 0.0,
) -> np.ndarray:
    """Ranging potential over precomputed candidate *distances*.

    The shared kernel behind :func:`pairwise_ranging_potential` (pairwise
    ``(K, K)`` cell distances) and :func:`anchor_ranging_potential` (unary
    ``(K,)`` distances to an anchor).
    """
    vals = _blurred_likelihood(distances, observed_distance, ranging, blur_sigma)
    if radio is not None:
        pd = radio.p_detect(distances)
        masked = vals * pd
        if masked.max() <= 0:
            # The observed distance is inconsistent with being in radio
            # range (a gross outlier, e.g. severe NLOS): discard the range
            # and keep the link evidence rather than zeroing the factor.
            masked = pd
        vals = masked
    return _normalize_matrix(vals)


def ranging_potential_rows(
    distances: np.ndarray,
    observed: np.ndarray,
    ranging: RangingModel,
    blur_sigma: float = 0.0,
    p_detect: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`ranging_potential_from_distances` for a ``(L, K)`` slab of
    links: *observed* is ``(L, 1)`` and *p_detect*, if given, the radio's
    ``(L, K)`` detection rows.  Each row is bit-identical to the one-link
    potential, at one ``log_likelihood`` call per Gauss–Hermite node for
    the whole slab; a row's quadrature components share that row's peak
    as their log-offset, as in :func:`_blurred_likelihood`.

    Every step after the ``log_likelihood`` calls runs in place on the
    arrays those calls return (each a new array, as
    :meth:`RangingModel.log_likelihood` promises; one that is read-only,
    a view or not ``(L, K)`` is copied first), doing the one-link
    potential's operations in its order: the first quadrature term
    stands for ``0.0 + term``, which is the same float for the
    non-negative terms ``exp`` gives.
    """

    def log_likelihood(candidates):
        ll = ranging.log_likelihood(observed, candidates)
        if ll.shape == distances.shape and ll.flags.owndata and ll.flags.writeable:
            return ll
        return np.array(np.broadcast_to(ll, distances.shape))

    if blur_sigma <= 0:
        vals = log_likelihood(distances)
        vals -= vals.max(axis=1, keepdims=True)
        np.exp(vals, out=vals)
    else:
        shifted = np.empty_like(distances)
        lls = []
        for node in _GH_NODES:
            np.add(distances, node * blur_sigma, out=shifted)
            np.maximum(shifted, 0.0, out=shifted)
            lls.append(log_likelihood(shifted))
        # builtin max() over the component peaks, NaN handling included
        offset = lls[0].max(axis=1)
        for ll in lls[1:]:
            peak = ll.max(axis=1)
            offset = np.where(peak > offset, peak, offset)
        offset = offset[:, None]
        vals = None
        for weight, ll in zip(_GH_WEIGHTS, lls):
            ll -= offset
            np.exp(ll, out=ll)
            ll *= weight
            if vals is None:
                vals = ll
            else:
                vals += ll
    if p_detect is not None:
        vals *= p_detect
        dead = vals.max(axis=1) <= 0  # gross outliers: keep the link evidence
        vals[dead] = p_detect[dead]
    return _normalize_matrix(vals, axis=1, out=vals)


def pairwise_ranging_potential(
    cell_distances: np.ndarray,
    observed_distance: float,
    ranging: RangingModel,
    radio: RadioModel | None = None,
    blur_sigma: float = 0.0,
) -> np.ndarray:
    """Dense ``(K, K)`` potential ``p(d_obs, link | x_i, x_j)``.

    Scaled so the maximum entry is 1 (BP renormalizes messages anyway).
    If *radio* is given, the link-detection probability multiplies in —
    observing the link is itself evidence the pair is within range.
    *blur_sigma* marginalizes the grid-quantization error (see
    :func:`_blurred_likelihood`).
    """
    return ranging_potential_from_distances(
        cell_distances, observed_distance, ranging, radio, blur_sigma
    )


def connectivity_potential(
    cell_distances: np.ndarray, radio: RadioModel
) -> np.ndarray:
    """Range-free pairwise potential: ``p(link | x_i, x_j)`` (max-scaled)."""
    return _normalize_matrix(radio.p_detect(cell_distances))


def anchor_ranging_potential(
    grid: Grid2D,
    anchor_position: np.ndarray,
    observed_distance: float,
    ranging: RangingModel,
    radio: RadioModel | None = None,
    blur_sigma: float = 0.0,
) -> np.ndarray:
    """Unary ``(K,)`` potential from a ranged anchor observation."""
    return ranging_potential_from_distances(
        grid.distances_to_point(anchor_position),
        observed_distance,
        ranging,
        radio,
        blur_sigma,
    )


def anchor_connectivity_potential(
    grid: Grid2D, anchor_position: np.ndarray, radio: RadioModel
) -> np.ndarray:
    """Unary potential from merely *hearing* an anchor (range-free)."""
    return _normalize_matrix(radio.p_detect(grid.distances_to_point(anchor_position)))


def negative_anchor_potential(
    grid: Grid2D, anchor_position: np.ndarray, radio: RadioModel
) -> np.ndarray:
    """Unary potential from *not* hearing an anchor: ``1 - p_detect``.

    The "negative evidence" component of pre-knowledge exploitation: a
    silent anchor pushes the belief out of its coverage disk.  Returned
    un-rescaled (values already in [0, 1]); may be all-zero-free but can
    zero out the entire grid only if the anchor covers the whole field,
    which callers should treat as model misspecification.
    """
    vals = 1.0 - radio.p_detect(grid.distances_to_point(anchor_position))
    if vals.max() <= 0:
        raise ValueError(
            "negative evidence eliminated every cell — anchor's radio "
            "range covers the entire grid"
        )
    return vals


#: Floor for per-cell log-likelihoods inside belief expectations: the log
#: of the smallest positive normal double.  Expectations weight cells by
#: belief mass, and ``0 · (-inf)`` would poison the sum with NaN; flooring
#: keeps impossible cells maximally penalized but finite.
_EXPECTED_LL_FLOOR = -745.0


def floored_loglik(
    ranging: RangingModel, observed, distances: np.ndarray
) -> np.ndarray:
    """``log p(observed | distances)`` floored at ``_EXPECTED_LL_FLOOR``.

    *observed* may be a scalar or any array broadcastable against
    *distances* (hypothesis scoring evaluates all links of one model in a
    single broadcast call).  NaN/±inf are mapped to the floor, so the
    result is safe inside belief-weighted expectations.
    """
    with np.errstate(all="ignore"):
        ll = ranging.log_likelihood(observed, distances)
    return np.maximum(
        np.nan_to_num(ll, nan=_EXPECTED_LL_FLOOR, neginf=_EXPECTED_LL_FLOOR),
        _EXPECTED_LL_FLOOR,
    )


def expected_anchor_loglik(
    ranging: RangingModel,
    observed_distance: float,
    distances: np.ndarray,
    belief: np.ndarray,
) -> float:
    """``E_b[log p(d_obs | d(x, anchor))]`` over a unary ``(K,)`` belief.

    The anchor-link term of the expected data log-likelihood used to score
    channel-parameter hypotheses (joint η estimation): each hypothesis is
    ranked by how well it explains the observations *under its own
    posterior beliefs*.  Log-likelihoods are floored (see
    ``_EXPECTED_LL_FLOOR``) so zero-belief × impossible-cell never NaNs.
    """
    ll = floored_loglik(ranging, observed_distance, distances)
    return float(np.asarray(belief, dtype=np.float64) @ ll)


def expected_pairwise_loglik(
    ranging: RangingModel,
    observed_distance: float,
    cell_distances: np.ndarray,
    belief_i: np.ndarray,
    belief_j: np.ndarray,
) -> float:
    """``E_{b_i, b_j}[log p(d_obs | d(x_i, x_j))]`` over a ``(K, K)`` field.

    The inter-unknown-link term of the expected data log-likelihood:
    ``b_iᵀ · L · b_j`` with ``L`` the floored log-likelihood evaluated on
    the pairwise cell-center distances (mean-field factorization of the
    pair belief, consistent with BP's per-node marginals).
    """
    ll = floored_loglik(ranging, observed_distance, cell_distances)
    bi = np.asarray(belief_i, dtype=np.float64)
    bj = np.asarray(belief_j, dtype=np.float64)
    return float(bi @ ll @ bj)


def pairwise_bearing_potential(
    grid: Grid2D,
    observed_ij: float,
    observed_ji: float,
    bearing_model,
) -> np.ndarray:
    """Oriented ``(K, K)`` AoA potential over cell pairs ``[x_i, x_j]``.

    *observed_ij* is the bearing node *i* measured toward *j*;
    *observed_ji* the reverse measurement.  Either may be NaN (missing).
    Note the result is **asymmetric** — the bearing from x_i to x_j is the
    reverse bearing ± π — so callers must transpose for the reverse
    message direction.
    """
    B = grid.pairwise_center_bearings()
    ll = np.zeros_like(B)
    any_obs = False
    if np.isfinite(observed_ij):
        ll = ll + bearing_model.log_likelihood(float(observed_ij), B)
        any_obs = True
    if np.isfinite(observed_ji):
        # bearing from x_j to x_i over the same [x_i, x_j] axes is B.T
        ll = ll + bearing_model.log_likelihood(float(observed_ji), B.T)
        any_obs = True
    if not any_obs:
        raise ValueError("both bearing observations are missing")
    return _normalize_matrix(np.exp(ll - ll.max()))


def anchor_bearing_potential(
    grid: Grid2D,
    anchor_position: np.ndarray,
    observed_from_node: float,
    observed_from_anchor: float,
    bearing_model,
) -> np.ndarray:
    """Unary ``(K,)`` AoA potential from a node–anchor link.

    *observed_from_node*: bearing the node measured toward the anchor;
    *observed_from_anchor*: bearing the anchor measured toward the node
    (each may be NaN).  A single anchor bearing confines the node to a
    ray — far stronger than the annulus a range gives.
    """
    to_anchor = grid.bearings_to_point(anchor_position)
    ll = np.zeros(grid.n_cells)
    any_obs = False
    if np.isfinite(observed_from_node):
        ll = ll + bearing_model.log_likelihood(float(observed_from_node), to_anchor)
        any_obs = True
    if np.isfinite(observed_from_anchor):
        from_anchor = np.arctan2(np.sin(to_anchor + np.pi), np.cos(to_anchor + np.pi))
        ll = ll + bearing_model.log_likelihood(
            float(observed_from_anchor), from_anchor
        )
        any_obs = True
    if not any_obs:
        raise ValueError("both bearing observations are missing")
    return _normalize_matrix(np.exp(ll - ll.max()))


def anchor_bearing_rows(
    to_anchor: np.ndarray,
    observed_from_node: np.ndarray,
    observed_from_anchor: np.ndarray,
    bearing_model,
) -> np.ndarray:
    """:func:`anchor_bearing_potential` for a ``(L, K)`` slab of links'
    cell-to-anchor bearings and ``(L, 1)`` observation columns (NaN =
    missing); each row is bit-identical to the one-link potential.
    """
    has_node = np.isfinite(observed_from_node)
    has_anchor = np.isfinite(observed_from_anchor)
    if not (has_node | has_anchor).all():
        raise ValueError("both bearing observations are missing")
    from_anchor = np.arctan2(np.sin(to_anchor + np.pi), np.cos(to_anchor + np.pi))
    # a missing side adds 0.0, which leaves every (never -0.0) sum as is
    ll = 0.0 + np.where(
        has_node, bearing_model.log_likelihood(observed_from_node, to_anchor), 0.0
    )
    ll = ll + np.where(
        has_anchor, bearing_model.log_likelihood(observed_from_anchor, from_anchor), 0.0
    )
    return _normalize_matrix(np.exp(ll - ll.max(axis=1, keepdims=True)), axis=1)


class RangingPotentialCache:
    """Shared, truncated, sparse pairwise ranging potentials.

    The first miss splits the grid's ``(K, K)`` centre distances into
    distance classes (``np.unique``: sorted distinct values plus a compact
    unsigned class index, kept for the cache's lifetime).  Every miss then
    evaluates :func:`pairwise_ranging_potential` on the distinct distances
    only and gathers the truncated values through the class index, giving
    the same CSR arrays as ``csr_matrix`` of the truncated dense
    potential, bit for bit: each step is elementwise in the distance, and
    the global maxima it takes are the same over the distinct values.

    Parameters
    ----------
    grid:
        The discretization (provides the ``(K, K)`` center distances).
    ranging:
        Likelihood model for observed distances.
    radio:
        Optional link model folded into the potential.
    quantum:
        Observed distances are rounded to multiples of *quantum* so edges
        share kernels.  Default: an eighth of a grid cell — well below the
        quantization noise the grid itself introduces.
    truncate:
        Entries below ``truncate × max`` are dropped to sparsify.  5e-4
        keeps >99.9 % of each row's mass for Gaussian-like kernels.
    blur_sigma:
        Grid-quantization marginalization passed through to
        :func:`pairwise_ranging_potential`.
    """

    def __init__(
        self,
        grid: Grid2D,
        ranging: RangingModel,
        radio: RadioModel | None = None,
        quantum: float | None = None,
        truncate: float = 5e-4,
        blur_sigma: float = 0.0,
    ) -> None:
        if not (0 <= truncate < 1):
            raise ValueError("truncate must lie in [0, 1)")
        self.grid = grid
        self.ranging = ranging
        self.radio = radio
        if quantum is None:
            quantum = min(grid.cell_width, grid.cell_height) / 8.0
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        if blur_sigma < 0:
            raise ValueError("blur_sigma must be non-negative")
        self.quantum = float(quantum)
        self.truncate = float(truncate)
        self.blur_sigma = float(blur_sigma)
        self._cache: dict[int, sparse.csr_matrix] = {}
        #: (distinct cell-centre distances, (K, K) class index), on first miss
        self._classes: tuple[np.ndarray, np.ndarray] | None = None

    def _keys(self, observed_distances) -> np.ndarray:
        """Quantization key of every observed distance, in input order:
        ``round(d / quantum)`` (round half to even, as Python's ``round``),
        held as integral floats so no distance can overflow an integer
        type.  Raises ``ValueError`` naming the first distance that is not
        finite and non-negative."""
        d = np.asarray(observed_distances, dtype=np.float64)
        bad = ~(np.isfinite(d) & (d >= 0))
        if bad.any():
            raise ValueError(
                "observed distance must be finite and >= 0, "
                f"got {d[np.argmax(bad)]}"
            )
        return np.rint(d / self.quantum)

    def get(self, observed_distance: float) -> sparse.csr_matrix:
        """Sparse ``(K, K)`` potential for an observed distance.

        The kernel is symmetric (it depends only on inter-cell distance),
        so callers can use it for either message direction.
        """
        return self.get_many([observed_distance])[0]

    def get_many(self, observed_distances) -> list[sparse.csr_matrix]:
        """:meth:`get` of every observed distance, in input order: one
        quantization pass, one lookup (or build) per distinct key, and the
        same CSR object for every distance of a key."""
        keys, inverse = np.unique(self._keys(observed_distances), return_inverse=True)
        mats = [self._lookup(int(key)) for key in keys]
        return [mats[k] for k in inverse.tolist()]

    def _lookup(self, key: int) -> sparse.csr_matrix:
        """The kernel of quantization key *key*, built on first use."""
        mat = self._cache.get(key)
        if mat is None:
            if self._classes is None:
                values, inverse = np.unique(
                    self.grid.pairwise_center_distances(), return_inverse=True
                )
                inverse = inverse.astype(np.min_scalar_type(values.size - 1))
                self._classes = (values, inverse.reshape(self.grid.n_cells, -1))
            values, inverse = self._classes
            vals = pairwise_ranging_potential(
                values, key * self.quantum, self.ranging, self.radio,
                blur_sigma=self.blur_sigma,
            )
            vals[vals < self.truncate] = 0.0
            # csr_matrix(vals[inverse]) without the dense (K, K) float pass
            keep = (vals != 0.0)[inverse]
            indptr = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
            flat = np.flatnonzero(keep)
            mat = sparse.csr_matrix(
                (vals[inverse.ravel()[flat]], flat % len(keep), indptr),
                shape=keep.shape,
            )
            self._cache[key] = mat
        return mat

    @property
    def n_cached(self) -> int:
        return len(self._cache)

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the cached sparse kernels and the
        distance-class table."""
        classes = sum(a.nbytes for a in self._classes or ())
        return classes + sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in self._cache.values()
        )


def _fingerprint(obj) -> tuple | None:
    """Hashable identity of a model object, from its scalar attributes.

    Two instances fingerprint equal iff they are the same class with the
    same scalar (and recursively fingerprintable) attributes — exactly the
    condition under which they produce identical potentials.  Returns
    ``None`` for objects that carry non-scalar state (arrays, callables),
    which the registry treats as uncacheable rather than guessing.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return ("scalar", obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is None:
        return None
    items = []
    for name in sorted(attrs):
        value = attrs[name]
        if isinstance(value, (bool, int, float, str, type(None))):
            items.append((name, value))
        else:
            nested = _fingerprint(value)
            if nested is None:
                return None
            items.append((name, nested))
    return (type(obj).__module__, type(obj).__qualname__, tuple(items))


class PotentialCacheRegistry:
    """Process-level store of potential caches shared across solver runs.

    Monte-Carlo sweeps (:func:`repro.parallel.run_trials`) run hundreds
    of trials over the *same* grid
    geometry, ranging model, and radio — yet each
    :class:`~repro.core.bnloc.GridBPLocalizer` call used to rebuild its
    :class:`RangingPotentialCache` (and the grid's ``(K, K)`` center
    distance matrix) from scratch.  This registry keys those artifacts on
    ``(grid geometry, ranging model, radio model, blur_sigma)`` so every
    trial after the first inside a worker process reuses the warm kernels.

    Correctness: a cache entry is reused only when the fingerprint of all
    four key components matches exactly, and the cached objects are pure
    functions of that key — so a warm run is bit-identical to a cold one
    (asserted by ``tests/test_perf_cache.py``).  Models whose state cannot
    be fingerprinted (non-scalar attributes) bypass the registry and get a
    private cache, never a wrong one.

    The registry is bounded: at most *max_entries* ranging caches (and as
    many distance matrices) are kept, evicted least-recently-used.  Hits,
    misses, and resident bytes are available via :meth:`stats` and are
    surfaced as tracer counters/gauges (``cache_hits``, ``cache_misses``,
    ``cache_bytes``) by the call sites.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._ranging: "OrderedDict[tuple, RangingPotentialCache]" = OrderedDict()
        self._pairwise: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _grid_key(grid: Grid2D) -> tuple:
        return (grid.nx, grid.ny, float(grid.width), float(grid.height))

    def pairwise_distances(self, grid: Grid2D) -> np.ndarray:
        """Shared ``(K, K)`` cell-center distance matrix for *grid*.

        Also installs the matrix into *grid*'s own cache slot, so
        subsequent ``grid.pairwise_center_distances()`` calls hit it.
        """
        key = self._grid_key(grid)
        mat = self._pairwise.get(key)
        if mat is None:
            mat = grid.pairwise_center_distances()
            self._pairwise[key] = mat
            while len(self._pairwise) > self.max_entries:
                self._pairwise.popitem(last=False)
        else:
            self._pairwise.move_to_end(key)
            grid.use_shared_pairwise(mat)
        return mat

    def ranging_cache(
        self,
        grid: Grid2D,
        ranging: RangingModel,
        radio: RadioModel | None,
        blur_sigma: float,
    ) -> RangingPotentialCache:
        """A (possibly warm) :class:`RangingPotentialCache` for the key.

        On a fingerprint match the previously built cache — including all
        its quantized sparse kernels — is returned; otherwise a fresh one
        is built, registered (when fingerprintable), and returned.
        """
        rkey = _fingerprint(ranging)
        dkey = _fingerprint(radio)
        if rkey is None or (radio is not None and dkey is None):
            self.misses += 1
            return RangingPotentialCache(
                grid, ranging, radio, blur_sigma=blur_sigma
            )
        key = (self._grid_key(grid), rkey, dkey, float(blur_sigma))
        cache = self._ranging.get(key)
        if cache is not None:
            self.hits += 1
            self._ranging.move_to_end(key)
            self.pairwise_distances(grid)  # install into the caller's grid
            return cache
        self.misses += 1
        self.pairwise_distances(grid)  # share the distance matrix too
        cache = RangingPotentialCache(grid, ranging, radio, blur_sigma=blur_sigma)
        self._ranging[key] = cache
        while len(self._ranging) > self.max_entries:
            self._ranging.popitem(last=False)
        return cache

    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._ranging.values()) + sum(
            m.nbytes for m in self._pairwise.values()
        )

    def stats(self) -> dict:
        """JSON-safe snapshot: hits, misses, entry counts, resident bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "ranging_entries": len(self._ranging),
            "pairwise_entries": len(self._pairwise),
            "bytes": self.nbytes,
        }

    def clear(self) -> None:
        self._ranging.clear()
        self._pairwise.clear()
        self.hits = 0
        self.misses = 0


#: process-level singleton; worker processes each grow their own copy
_SHARED_REGISTRY = PotentialCacheRegistry()


def shared_registry() -> PotentialCacheRegistry:
    """The process-level :class:`PotentialCacheRegistry` singleton."""
    return _SHARED_REGISTRY
