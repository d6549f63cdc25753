"""Grid-BP kernels: the plain per-node loop and the batched trial-axis kernel."""

from repro.kernels.base import (
    BPOutcome,
    BPProblem,
    IncompatibleBatchError,
    KernelBackend,
    compatibility_key,
    get_backend,
    kernel_for,
    shape_key,
)
from repro.kernels.cancel import (
    Deadline,
    active_deadline,
    deadline_scope,
    deadline_stop,
)

__all__ = [
    "BPProblem",
    "BPOutcome",
    "KernelBackend",
    "IncompatibleBatchError",
    "compatibility_key",
    "shape_key",
    "get_backend",
    "kernel_for",
    "Deadline",
    "deadline_scope",
    "active_deadline",
    "deadline_stop",
]
