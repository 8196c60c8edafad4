"""Workload signatures: the serving plan cache's one reuse rule.

The scheduler's decisions (tiling ``alpha``, the ``Ps x Pv`` grid, the
balance mapping) depend on coarse workload shape — vertex/edge counts and
the degree profile — not on the exact edge list.  Two windows whose shapes
agree to within a quantization bucket can therefore share one cached
:class:`~repro.serving.plan_manager.WindowPlan`.  This module defines

* :class:`WindowProfile` — the measured shape of one window's snapshot;
* :class:`WorkloadSignature` — its quantized, hashable cache key
  (log-bucketed counts + degree-skew bucket + the DGNN spec).

Two profiles with one signature differ by at most a factor of
``2 ** (1 / WorkloadSignature.RESOLUTION)`` (about 19%) on every axis, so
that factor is the cache's whole reuse tolerance: a window whose shape
moves further lands in another bucket and gets a fresh plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.plan import DGNNSpec
from ..graphs.snapshot import GraphSnapshot

__all__ = ["WindowProfile", "WorkloadSignature"]


@dataclass(frozen=True)
class WindowProfile:
    """Coarse shape of one window's snapshot, as seen by the scheduler."""

    num_vertices: int
    num_edges: int
    #: max in-degree over mean in-degree — the skew the balance stage
    #: (Algorithm 2) exists to absorb; 1.0 for regular or empty graphs
    degree_skew: float

    @classmethod
    def from_snapshot(cls, snapshot: GraphSnapshot) -> "WindowProfile":
        """Measure ``snapshot``'s profile."""
        degrees = snapshot.in_degree()
        if snapshot.num_edges == 0 or snapshot.num_vertices == 0:
            skew = 1.0
        else:
            skew = float(degrees.max()) / (snapshot.num_edges / snapshot.num_vertices)
        return cls(
            num_vertices=snapshot.num_vertices,
            num_edges=snapshot.num_edges,
            degree_skew=skew,
        )


def _log_bucket(value: float, resolution: int) -> int:
    """Quantize ``value`` onto a log2 grid with ``resolution`` steps/octave."""
    if value <= 0:
        return -1
    return round(math.log2(value) * resolution)


@dataclass(frozen=True)
class WorkloadSignature:
    """Quantized plan-cache key: workloads mapping to the same signature
    are similar enough for the scheduler to make the same decisions."""

    spec: DGNNSpec
    vertex_bucket: int
    edge_bucket: int
    skew_bucket: int

    #: log2 sub-steps per octave — values sharing a bucket are within a
    #: factor of ``2 ** (1 / RESOLUTION)`` (~19% at 4) of each other
    RESOLUTION = 4

    @classmethod
    def from_profile(
        cls, profile: WindowProfile, spec: DGNNSpec
    ) -> "WorkloadSignature":
        """Quantize ``profile`` under ``spec``."""
        return cls(
            spec=spec,
            vertex_bucket=_log_bucket(profile.num_vertices, cls.RESOLUTION),
            edge_bucket=_log_bucket(profile.num_edges, cls.RESOLUTION),
            skew_bucket=_log_bucket(profile.degree_skew, cls.RESOLUTION),
        )
