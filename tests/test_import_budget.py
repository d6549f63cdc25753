"""Import budget of the grid-BP, serve and stream paths.

These paths need only numpy and ``scipy.sparse``.  The heavier scipy
modules (``scipy.optimize`` for refinement and the MLE/multilateration
baselines, ``scipy.special`` for the AoA normaliser, ``scipy.sparse.csgraph``
for hop counts, and what they pull in) are imported where they are
called.  A fresh interpreter that imports the package and runs a solve, a
stream and a serve batch item must never load them: a module-level import
of one of them would put its cost back on every process's cold start.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

_SRC = Path(__file__).resolve().parent.parent / "src"

#: modules no grid-BP, serve or stream process may load
_FORBIDDEN = (
    "scipy.optimize",
    "scipy.special",
    "scipy.stats",
    "scipy.sparse.csgraph",
    "scipy.linalg",
)


def _loaded_forbidden(body: str) -> list[str]:
    """Run *body* in a fresh interpreter; the forbidden modules it loaded."""
    script = textwrap.dedent(body) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {_FORBIDDEN!r} if m in sys.modules]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_heavy_scipy():
    assert _loaded_forbidden(
        "import repro, repro.stream, repro.serve.workers, repro.experiments\n"
    ) == []


def test_solve_stream_and_serve_item_load_no_heavy_scipy():
    assert _loaded_forbidden(
        """
        from repro.core.bnloc import GridBPConfig, GridBPLocalizer
        from repro.serve.workers import execute_batch
        from repro.stream import FleetConfig, StreamConfig, fleet_events, run_stream

        fleet = FleetConfig(
            n_networks=2, n_nodes=10, anchor_ratio=0.3, n_steps=2,
            radio_range=0.45, noise_sigma=0.02, seed=3,
        )
        ms = fleet_events(fleet)[0].measurements
        cfg = GridBPConfig(grid_size=8, max_iterations=4)
        assert GridBPLocalizer(config=cfg).localize(ms).localized_mask.any()
        result = run_stream(fleet, StreamConfig(grid_size=8, n_workers=0))
        assert result.lost_networks == []
        (payload,) = execute_batch([{"measurements": ms, "config": cfg}])
        assert payload["ok"]
        """
    ) == []
