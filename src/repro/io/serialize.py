"""Saving and loading networks and localization results.

Two formats:

* JSON — human-readable, good for small fixtures and cross-tool exchange.
* NPZ — compact binary for large Monte-Carlo batches.

Only the *data* is serialized (positions, masks, adjacency, estimates);
model objects (radios, ranging, priors) are reconstructed from experiment
configs, which are plain dataclasses the caller owns.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.result import LocalizationResult
from repro.network.topology import WSNetwork

__all__ = [
    "atomic_write_text",
    "network_to_dict",
    "network_from_dict",
    "measurements_to_dict",
    "measurements_from_dict",
    "save_network_json",
    "load_network_json",
    "save_network_npz",
    "load_network_npz",
    "result_to_dict",
    "save_result_json",
    "save_trace_json",
    "load_trace_json",
]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Crash-safe replacement for ``Path.write_text``.

    Writes to ``<name>.tmp`` in the same directory, flushes and fsyncs,
    then ``os.replace``s over the target — so a reader never observes a
    torn file: either the old content or the complete new content exists,
    even if the process dies mid-write (the write-ahead ledger of
    :mod:`repro.ckpt` relies on the same discipline for its appends).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def network_to_dict(network: WSNetwork) -> dict:
    """JSON-safe dict representation of a network snapshot."""
    return {
        "positions": network.positions.tolist(),
        "anchor_mask": network.anchor_mask.astype(int).tolist(),
        # adjacency as an edge list — much smaller than the dense matrix
        "edges": network.edges().tolist(),
        "width": network.width,
        "height": network.height,
        "radio_range": network.radio_range,
    }


def network_from_dict(data: dict) -> WSNetwork:
    """Inverse of :func:`network_to_dict`."""
    try:
        positions = np.asarray(data["positions"], dtype=np.float64)
        anchor_mask = np.asarray(data["anchor_mask"], dtype=bool)
        edges = np.asarray(data["edges"], dtype=int)
    except KeyError as exc:
        raise ValueError(f"network dict missing key {exc}") from exc
    n = len(positions)
    adjacency = np.zeros((n, n), dtype=bool)
    if len(edges):
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        adjacency[edges[:, 0], edges[:, 1]] = True
        adjacency[edges[:, 1], edges[:, 0]] = True
    return WSNetwork(
        positions=positions,
        anchor_mask=anchor_mask,
        adjacency=adjacency,
        width=float(data.get("width", 1.0)),
        height=float(data.get("height", 1.0)),
        radio_range=float(data.get("radio_range", 0.2)),
    )


def save_network_json(network: WSNetwork, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(network_to_dict(network)))


def load_network_json(path: str | Path) -> WSNetwork:
    return network_from_dict(json.loads(Path(path).read_text()))


def save_network_npz(network: WSNetwork, path: str | Path) -> None:
    np.savez_compressed(
        Path(path),
        positions=network.positions,
        anchor_mask=network.anchor_mask,
        adjacency=np.packbits(network.adjacency, axis=None),
        n_nodes=np.array(network.n_nodes),
        scalars=np.array([network.width, network.height, network.radio_range]),
    )


def load_network_npz(path: str | Path) -> WSNetwork:
    with np.load(Path(path)) as data:
        n = int(data["n_nodes"])
        adjacency = (
            np.unpackbits(data["adjacency"], count=n * n)
            .reshape(n, n)
            .astype(bool)
        )
        width, height, radio_range = data["scalars"]
        return WSNetwork(
            positions=data["positions"],
            anchor_mask=data["anchor_mask"].astype(bool),
            adjacency=adjacency,
            width=float(width),
            height=float(height),
            radio_range=float(radio_range),
        )


def _path_loss_to_dict(path_loss) -> dict:
    return {
        "tx_power_dbm": float(path_loss.tx_power_dbm),
        "path_loss_exponent": float(path_loss.path_loss_exponent),
        "shadowing_db": float(path_loss.shadowing_db),
        "d0": float(path_loss.d0),
    }


def _path_loss_from_dict(data: dict):
    from repro.measurement.rssi import PathLossModel

    return PathLossModel(
        tx_power_dbm=float(data["tx_power_dbm"]),
        path_loss_exponent=float(data["path_loss_exponent"]),
        shadowing_db=float(data["shadowing_db"]),
        d0=float(data["d0"]),
    )


def _ranging_to_dict(ranging) -> dict:
    """Tagged wire form of a parameter-closed ranging model.

    Every model the scenario configs can build is covered: constant-σ
    Gaussian, proportional Gaussian, connectivity-only, TOA, RSSI
    path-loss, the channel-aware RSSI (explicit inversion exponent), and
    the NLOS wrappers (contamination, robust mixture, latent-indicator
    mixture) — the wrappers recurse into their base model, so the full
    composition round-trips.  Anything else raises: requests using an
    unsupported model must go through in-process submission, where the
    model object itself travels.
    """
    from repro.measurement.channel import ChannelRSSIRanging, LatentNLOSRanging
    from repro.measurement.nlos import NLOSRanging, RobustRanging
    from repro.measurement.ranging import (
        ConnectivityOnly,
        GaussianRanging,
        ProportionalGaussianRanging,
        RSSIRanging,
        TOARanging,
    )

    if isinstance(ranging, GaussianRanging):
        return {"type": "gaussian", "sigma": float(ranging.sigma)}
    if isinstance(ranging, ProportionalGaussianRanging):
        return {
            "type": "proportional",
            "ratio": float(ranging.ratio),
            "floor": float(ranging.floor),
        }
    if isinstance(ranging, ConnectivityOnly):
        return {"type": "none"}
    if isinstance(ranging, TOARanging):
        return {
            "type": "toa",
            "sigma_time": float(ranging.sigma_time),
            "mean_delay": float(ranging.mean_delay),
            "speed": float(ranging.speed),
        }
    # order matters: the channel model subclasses nothing, but the NLOS
    # family is a hierarchy (LatentNLOSRanging < RobustRanging,
    # NLOSRanging separate) — match the most derived tag first
    if isinstance(ranging, ChannelRSSIRanging):
        return {
            "type": "channel-rssi",
            "path_loss": _path_loss_to_dict(ranging.path_loss),
            "inversion_exponent": float(ranging.inversion_exponent),
        }
    if isinstance(ranging, RSSIRanging):
        return {"type": "rssi", "path_loss": _path_loss_to_dict(ranging.path_loss)}
    if isinstance(ranging, (NLOSRanging, RobustRanging)):
        tag = {
            LatentNLOSRanging: "latent-nlos",
            RobustRanging: "robust",
            NLOSRanging: "nlos",
        }[type(ranging)]
        return {
            "type": tag,
            "base": _ranging_to_dict(ranging.base),
            "nlos_fraction": float(ranging.nlos_fraction),
            "bias_mean": float(ranging.bias_mean),
        }
    raise ValueError(
        f"ranging model {type(ranging).__name__} has no wire form; "
        "supported: gaussian, proportional, none, toa, rssi, channel-rssi, "
        "nlos, robust, latent-nlos (submit in-process for other models)"
    )


def _ranging_from_dict(data: dict):
    from repro.measurement.channel import ChannelRSSIRanging, LatentNLOSRanging
    from repro.measurement.nlos import NLOSRanging, RobustRanging
    from repro.measurement.ranging import (
        ConnectivityOnly,
        GaussianRanging,
        ProportionalGaussianRanging,
        RSSIRanging,
        TOARanging,
    )

    kind = data.get("type")
    if kind == "gaussian":
        return GaussianRanging(float(data["sigma"]))
    if kind == "proportional":
        return ProportionalGaussianRanging(
            float(data["ratio"]), floor=float(data.get("floor", 1e-4))
        )
    if kind == "none":
        return ConnectivityOnly()
    if kind == "toa":
        return TOARanging(
            float(data["sigma_time"]),
            mean_delay=float(data.get("mean_delay", 0.0)),
            speed=float(data.get("speed", 1.0)),
        )
    if kind == "rssi":
        return RSSIRanging(_path_loss_from_dict(data["path_loss"]))
    if kind == "channel-rssi":
        return ChannelRSSIRanging(
            _path_loss_from_dict(data["path_loss"]),
            inversion_exponent=float(data["inversion_exponent"]),
        )
    if kind in ("nlos", "robust", "latent-nlos"):
        cls = {
            "nlos": NLOSRanging,
            "robust": RobustRanging,
            "latent-nlos": LatentNLOSRanging,
        }[kind]
        return cls(
            _ranging_from_dict(data["base"]),
            nlos_fraction=float(data["nlos_fraction"]),
            bias_mean=float(data["bias_mean"]),
        )
    raise ValueError(f"unknown ranging wire type {kind!r}")


def measurements_to_dict(ms) -> dict:
    """JSON-safe wire form of a :class:`~repro.measurement.MeasurementSet`.

    The observable slice only — anchors, links, observed distances, the
    (simple) ranging model, and the field constants.  Distances are
    shipped as a link-indexed list (NaN off-link entries are implicit), so
    the payload grows with edges, not ``n²``.  Bearing measurements have
    no wire form yet and raise.
    """
    if ms.observed_bearings is not None:
        raise ValueError("bearing measurements have no wire form yet")
    edges = ms.edges().tolist()
    distances = None
    if ms.has_ranging:
        distances = [float(ms.observed_distances[i, j]) for i, j in edges]
    anchors = [int(a) for a in ms.anchor_ids]
    return {
        "n_nodes": int(ms.n_nodes),
        "anchors": anchors,
        "anchor_positions": ms.anchor_positions_full[anchors].tolist(),
        "edges": edges,
        "distances": distances,
        "ranging": _ranging_to_dict(ms.ranging),
        "radio_range": float(ms.radio_range),
        "width": float(ms.width),
        "height": float(ms.height),
    }


def measurements_from_dict(data: dict):
    """Inverse of :func:`measurements_to_dict`."""
    from repro.measurement.measurements import MeasurementSet

    try:
        n = int(data["n_nodes"])
        anchors = list(data["anchors"])
        anchor_positions = np.asarray(data["anchor_positions"], dtype=np.float64)
        edges = np.asarray(data["edges"], dtype=int)
    except KeyError as exc:
        raise ValueError(f"measurements dict missing key {exc}") from exc
    if len(anchors) != len(anchor_positions):
        raise ValueError("anchors and anchor_positions length mismatch")
    anchor_mask = np.zeros(n, dtype=bool)
    full = np.full((n, 2), np.nan)
    for a, pos in zip(anchors, anchor_positions):
        a = int(a)
        if not (0 <= a < n):
            raise ValueError(f"anchor id {a} out of range")
        anchor_mask[a] = True
        full[a] = pos
    adjacency = np.zeros((n, n), dtype=bool)
    observed = np.full((n, n), np.nan)
    if len(edges):
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        adjacency[edges[:, 0], edges[:, 1]] = True
        adjacency[edges[:, 1], edges[:, 0]] = True
    distances = data.get("distances")
    if distances is not None:
        if len(distances) != len(edges):
            raise ValueError("distances must align with edges")
        for (i, j), d in zip(edges, distances):
            observed[i, j] = observed[j, i] = float(d)
    return MeasurementSet(
        anchor_mask=anchor_mask,
        anchor_positions_full=full,
        adjacency=adjacency,
        observed_distances=observed,
        ranging=_ranging_from_dict(data["ranging"]),
        radio_range=float(data["radio_range"]),
        width=float(data.get("width", 1.0)),
        height=float(data.get("height", 1.0)),
    )


def result_to_dict(result: LocalizationResult) -> dict:
    """JSON-safe summary of a localization result (no bulky extras).

    Includes the instrumentation export under ``"telemetry"`` when the
    solver ran with a :class:`~repro.obs.Tracer` attached.
    """
    out = {
        "method": result.method,
        "estimates": np.where(
            np.isfinite(result.estimates), result.estimates, None
        ).tolist(),
        "localized_mask": result.localized_mask.astype(int).tolist(),
        "n_iterations": result.n_iterations,
        "converged": result.converged,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
    }
    if result.telemetry is not None:
        out["telemetry"] = result.telemetry
    return out


def save_result_json(result: LocalizationResult, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(result_to_dict(result)))


def save_trace_json(trace: dict, path: str | Path) -> None:
    """Write a :meth:`~repro.obs.Tracer.snapshot` dict to *path*.

    Keys are sorted and floats round-trip exactly (``repr``-based JSON),
    so traces written with the same seed are byte-identical files.
    """
    if not isinstance(trace, dict):
        raise TypeError(
            "trace must be a Tracer.snapshot() dict "
            f"(got {type(trace).__name__}; a NullTracer exports None)"
        )
    atomic_write_text(path, json.dumps(trace, sort_keys=True, indent=2) + "\n")


def load_trace_json(path: str | Path) -> dict:
    """Inverse of :func:`save_trace_json`."""
    trace = json.loads(Path(path).read_text())
    if not isinstance(trace, dict):
        raise ValueError(f"{path} does not contain a trace object")
    return trace
