"""Exact redundancy measurement across snapshot transitions.

The analytic models (Eqs. 13-16) use the *average* dissimilarity ``Dis``;
the simulator and the Fig. 10 model-vs-actual comparison need the exact
per-transition numbers: how many vertices changed, how far the change
propagates per GCN layer, and how much work/traffic reuse eliminates.  This
module measures those quantities directly from the graph — the software
equivalent of the accelerator's Redundant-Free Unit (§6, step 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graphs.dynamic import DynamicGraph
from ..graphs.partition import VertexPartition

__all__ = ["TransitionRedundancy", "RedundancyAnalysis"]


@dataclass(frozen=True)
class TransitionRedundancy:
    """Invalidation footprint of one snapshot transition.

    ``affected_per_layer[l]`` holds the vertex ids whose layer-``l+1``
    output must be recomputed at snapshot ``timestamp``.
    """

    timestamp: int
    num_vertices: int
    changed: np.ndarray
    affected_per_layer: List[np.ndarray]

    @property
    def dissimilarity(self) -> float:
        """Changed-vertex fraction (the measured ``Dis_t``)."""
        if self.num_vertices == 0:
            return 0.0
        return len(self.changed) / self.num_vertices

    def affected_fraction(self, layer: int) -> float:
        """Fraction of rows recomputed at ``layer`` (0-indexed)."""
        if self.num_vertices == 0:
            return 0.0
        return len(self.affected_per_layer[layer]) / self.num_vertices

    def reusable_rows(self, layer: int) -> int:
        """Rows of ``layer`` whose previous-snapshot value is reused."""
        return self.num_vertices - len(self.affected_per_layer[layer])


class RedundancyAnalysis:
    """Per-transition redundancy footprints for a whole dynamic graph."""

    def __init__(self, transitions: List[TransitionRedundancy], gnn_layers: int):
        self.transitions = transitions
        self.gnn_layers = gnn_layers

    @classmethod
    def analyze(cls, graph: DynamicGraph, gnn_layers: int) -> "RedundancyAnalysis":
        """Measure every transition of ``graph`` for an ``gnn_layers``-layer GNN.

        Snapshot 0 counts as fully changed (cold start), matching the
        incremental engine.
        """
        transitions = []
        for t, snapshot in enumerate(graph):
            changed = graph.changed_vertices(t)
            if t == 0:
                affected = [
                    np.arange(snapshot.num_vertices, dtype=np.int64)
                ] * gnn_layers
            else:
                # Layer l+1 reads the (l+1)-hop neighbourhood: one walk
                # records every layer's set.
                affected = snapshot.k_hop_walk(changed, gnn_layers)[1:]
            transitions.append(
                TransitionRedundancy(
                    timestamp=t,
                    num_vertices=snapshot.num_vertices,
                    changed=changed,
                    affected_per_layer=affected,
                )
            )
        return cls(transitions, gnn_layers)

    def __len__(self) -> int:
        return len(self.transitions)

    def __getitem__(self, t: int) -> TransitionRedundancy:
        return self.transitions[t]

    def avg_affected_fraction(self, layer: int, skip_first: bool = True) -> float:
        """Mean recomputed-row fraction at ``layer`` over transitions."""
        relevant = self.transitions[1:] if skip_first else self.transitions
        if not relevant:
            return 0.0
        return float(np.mean([t.affected_fraction(layer) for t in relevant]))

    def per_tile_affected(
        self, partition: VertexPartition, timestamp: int
    ) -> np.ndarray:
        """Final-layer affected-vertex count per vertex group at ``timestamp``.

        Drives the simulator's per-tile incremental GNN work: an unbalanced
        spread of affected vertices is exactly the synchronization problem
        the balance optimization targets.
        """
        affected = self.transitions[timestamp].affected_per_layer[-1]
        counts = np.zeros(partition.num_parts, dtype=np.int64)
        if len(affected):
            groups = partition.assignment[affected]
            counts += np.bincount(groups, minlength=partition.num_parts)
        return counts
