"""Workload signatures and drift detection for the serving plan cache.

The scheduler's decisions (tiling ``alpha``, the ``Ps x Pv`` grid, the
balance mapping) depend on coarse workload shape — vertex/edge counts and
the degree profile — not on the exact edge list.  Two windows whose shapes
agree to within a quantization bucket can therefore share one cached
:class:`~repro.serving.plan_manager.WindowPlan`.  This module defines

* :class:`WindowProfile` — the measured shape of one window's snapshot;
* :class:`WorkloadSignature` — its quantized, hashable cache key
  (log-bucketed counts + degree-skew bucket + the DGNN spec);
* :class:`DriftDetector` — fires when a window's profile has moved too far
  from the profile its cached plan was computed for (DGC-style workload
  drift across time chunks), forcing a re-plan even on a signature hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.plan import DGNNSpec
from ..graphs.snapshot import GraphSnapshot

__all__ = ["WindowProfile", "WorkloadSignature", "DriftDetector"]


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

    #: log2 sub-steps per octave — 4 means counts within ~19% of each
    #: other usually share a bucket
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


@dataclass(frozen=True)
class DriftDetector:
    """Decides when a cached plan's workload assumptions have expired.

    ``threshold`` bounds the tolerated *relative* change in edge count and
    degree skew between the profile a plan was computed for and the window
    now being served.  Quantized signatures alone would let a workload
    creep arbitrarily far through a sequence of same-bucket steps while
    its plan entry keeps being refreshed; the detector compares against
    the plan's own reference profile, so accumulated drift fires it.
    """

    threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"drift threshold must be positive, got {self.threshold}")

    @staticmethod
    def _relative_change(reference: float, current: float) -> float:
        if reference == current:
            return 0.0
        return abs(current - reference) / max(abs(reference), 1.0)

    def drift(self, reference: WindowProfile, current: WindowProfile) -> float:
        """The drift measure: worst relative change over the tracked axes."""
        return max(
            self._relative_change(reference.num_edges, current.num_edges),
            self._relative_change(reference.num_vertices, current.num_vertices),
            self._relative_change(reference.degree_skew, current.degree_skew),
        )

    def fires(self, reference: WindowProfile, current: WindowProfile) -> bool:
        """Whether ``current`` has drifted beyond the threshold."""
        return self.drift(reference, current) > self.threshold
