"""The two grid-BP kernels and the rule that picks between them.

A *kernel* owns the inner message-passing loop of
:class:`~repro.core.bnloc.GridBPLocalizer`: it receives a fully prepared
:class:`BPProblem` (log node potentials, edge list, oriented operator
pairs, grid, config) and returns a :class:`BPOutcome` (beliefs, iteration
count, convergence flag, optional trace, health record).  Everything
*around* the loop — potentials, estimates, communication accounting,
health restarts — stays in the solver.

The config's schedule picks the kernel (:func:`kernel_for`); no option
selects it:

``batched``
    The trial-axis kernel (:mod:`repro.kernels.batched`), which runs every
    synchronous sum-product solve.  A batch of same-shape problems runs
    each BP round as one stacked tensor pass; a single solve is a batch
    of one.
``reference``
    The plain per-node loop (:mod:`repro.kernels.reference`), which runs
    the serial (Gauss–Seidel) and max-product schedules.  It is also the
    readable definition of grid BP and the bit-identity reference for the
    batched kernel (the kernel equivalence suite and the ``repro.audit``
    bit-tier DiffCases are the gate).

Batch compatibility
-------------------
Problems co-batch only when their grids have identical shape and extent,
their state count ``K`` matches, and their configs are equal: equal
:func:`shape_key`.  :func:`repro.core.bnloc.localize_batch` groups its
pairs by one such key each (mixed shapes are *split into separate
groups*, never silently co-batched); handing an incompatible list
straight to :meth:`KernelBackend.run_batch` raises
:class:`IncompatibleBatchError`.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.bnloc import GridBPConfig
    from repro.core.grid import Grid2D

__all__ = [
    "BPProblem",
    "BPOutcome",
    "KernelBackend",
    "IncompatibleBatchError",
    "compatibility_key",
    "shape_key",
    "get_backend",
    "kernel_for",
]


class IncompatibleBatchError(ValueError):
    """A problem batch mixes incompatible shapes/configs.

    Raised by :meth:`KernelBackend.run_batch` implementations that
    require a homogeneous batch.  Callers group problems by
    :func:`compatibility_key` (or, before preparing, :func:`shape_key`)
    first.
    """


@dataclass
class BPProblem:
    """One prepared grid-BP inference problem (inputs of the BP loop).

    ``log_phi`` is ``(n_unknown, K)``; ``edges`` lists unknown-index
    pairs; ``ops[e]`` is the oriented operator pair ``(fwd, bwd)`` of
    edge *e* (slot ``2e`` uses ``fwd``, ``2e+1`` uses ``bwd``).
    """

    log_phi: np.ndarray
    edges: list[tuple[int, int]]
    ops: list[tuple]
    grid: "Grid2D"
    cfg: "GridBPConfig"

    @property
    def n_unknowns(self) -> int:
        return int(self.log_phi.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.log_phi.shape[1])


@dataclass
class BPOutcome:
    """What a kernel returns for one problem: the tuple
    :func:`~repro.kernels.reference.run_bp_baseline` returns, named."""

    beliefs: np.ndarray
    n_iterations: int
    converged: bool
    trace: list[np.ndarray]
    health: dict


def shape_key(
    nx: int, ny: int, width: float, height: float, n_cells: int, cfg: "GridBPConfig"
) -> tuple:
    """Batch-compatibility key from a grid's shape and extent and a config
    alone, before any problem is prepared, so a caller holding only those
    (a serve request, :func:`repro.core.bnloc.localize_batch`'s grouping)
    needs no :class:`~repro.core.grid.Grid2D`.  Pairs sharing this key
    prepare into problems sharing :func:`compatibility_key` (the tuples
    are constructed identically)."""
    return (
        int(nx),
        int(ny),
        float(width),
        float(height),
        int(n_cells),
        # every GridBPConfig field is a scalar, so this shallow tuple
        # equals dataclasses.astuple(cfg) without its per-field deepcopy
        _field_values(type(cfg))(cfg),
    )


@functools.cache
def _field_values(cls) -> operator.attrgetter:
    """Getter of a config class's field values, in field order, read from
    ``dataclasses.fields`` once per class.  (With more than one field an
    ``attrgetter`` returns a tuple; ``GridBPConfig`` has many.)"""
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))


def compatibility_key(problem: BPProblem) -> tuple:
    """Hashable batch-compatibility key of a problem.

    Problems sharing a key may run as one stacked batch: same grid shape
    and extent (hence same ``K`` and identical cell geometry) and equal
    config (schedule, damping, tolerances, …).  Different seeds /
    networks / priors are exactly what the batch axis is for.
    """
    grid = problem.grid
    return shape_key(
        grid.nx, grid.ny, grid.width, grid.height, problem.n_cells, problem.cfg
    )


class KernelBackend:
    """Interface both grid-BP kernels implement.

    ``run`` solves one problem; ``run_batch`` solves a *compatible* batch
    (one :func:`compatibility_key`) and returns outcomes in input order.
    The default ``run_batch`` is a per-problem loop.
    """

    name: str = "abstract"

    def run(self, problem: BPProblem, tracer: NullTracer = NULL_TRACER) -> BPOutcome:
        raise NotImplementedError

    def run_batch(
        self, problems: Sequence[BPProblem], tracer: NullTracer = NULL_TRACER
    ) -> list[BPOutcome]:
        return [self.run(p, tracer) for p in problems]


_KERNELS: dict[str, KernelBackend] = {}


def get_backend(name: str) -> KernelBackend:
    """The kernel instance named ``"reference"`` or ``"batched"``.

    Each name maps to one process-wide instance, so callers that wrap its
    ``run`` / ``run_batch`` (timing harnesses, tests) see every solve:
    the solver looks the instance up at call time.
    """
    if not _KERNELS:
        # Imported lazily so repro.kernels.base stays import-cycle free
        # and scipy is only pulled in when a kernel actually runs.
        from repro.kernels.batched import BatchedBackend
        from repro.kernels.reference import ReferenceBackend

        _KERNELS["reference"] = ReferenceBackend()
        _KERNELS["batched"] = BatchedBackend()
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {sorted(_KERNELS)}"
        ) from None


def kernel_for(cfg: "GridBPConfig") -> KernelBackend:
    """The kernel that runs *cfg*'s schedule: the plain per-node loop for
    the serial and max-product schedules, the batched kernel for
    synchronous sum-product."""
    if cfg.schedule == "serial" or cfg.max_product:
        return get_backend("reference")
    return get_backend("batched")
