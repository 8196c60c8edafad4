"""Exact redundancy-free (incremental) DGNN inference.

The paper's key algorithmic observation (§3.1): 86.7%–95.9% of vertices are
unchanged between consecutive snapshots, so their GNN outputs can be
*reused* instead of recomputed.  This engine implements that reuse exactly:

* at snapshot ``t`` it identifies the changed-vertex seeds (structure or
  feature changes),
* propagates the invalidation one hop per GCN layer (a layer-``l`` output
  depends on the ``l``-hop in-neighbourhood),
* recomputes only the invalidated rows of each layer, reusing the remaining
  rows from snapshot ``t-1``.

The result is bit-identical to a full recompute (property-tested in
``tests/test_incremental.py``), while the recorded
:class:`IncrementalStats` quantify how much work reuse saved — the numbers
feeding the DiTile-Alg operation model.

The RNN kernel is always advanced for every vertex: an LSTM's state evolves
even under constant input, so exact cross-snapshot reuse of hidden state is
impossible (see DESIGN.md §2).  The accelerator-side *accounting* of the
paper's "selective RNN processing" lives in
:mod:`repro.baselines.algorithms`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..graphs.dynamic import DynamicGraph
from .dgnn import DGNNModel, DGNNOutputs

__all__ = ["IncrementalStats", "IncrementalDGNN"]


@dataclass
class IncrementalStats:
    """Work accounting of one incremental run.

    ``recomputed_rows[t][l]`` is the number of layer-``l`` rows recomputed
    at snapshot ``t``; ``total_rows`` is ``V`` (rows a full recompute would
    touch per layer).
    """

    total_rows: int
    recomputed_rows: List[List[int]] = field(default_factory=list)
    changed_seeds: List[int] = field(default_factory=list)

    def reuse_fraction(self) -> float:
        """Fraction of layer-rows *not* recomputed over the whole run."""
        total = sum(len(per_layer) for per_layer in self.recomputed_rows)
        if total == 0 or self.total_rows == 0:
            return 0.0
        recomputed = sum(sum(per_layer) for per_layer in self.recomputed_rows)
        return 1.0 - recomputed / (total * self.total_rows)


class IncrementalDGNN:
    """Redundancy-free DGNN inference engine.

    Wraps a :class:`DGNNModel`; :meth:`run` matches
    :meth:`DGNNModel.run` exactly while recomputing only invalidated rows.
    """

    def __init__(self, model: DGNNModel):
        self.model = model
        self.stats: Optional[IncrementalStats] = None

    def run(
        self,
        graph: DynamicGraph,
        features: Optional[Sequence[np.ndarray]] = None,
    ) -> DGNNOutputs:
        """Incremental inference over every snapshot of ``graph``."""
        vertex_counts = {s.num_vertices for s in graph}
        if len(vertex_counts) != 1:
            raise ValueError("incremental engine requires a shared vertex count")
        num_vertices = vertex_counts.pop()
        gnn = self.model.gnn
        rnn = self.model.rnn
        stats = IncrementalStats(total_rows=num_vertices)

        layer_outputs: List[np.ndarray] = []  # layer l output at previous t
        state = rnn.initial_state(num_vertices)
        embeddings: List[np.ndarray] = []
        hidden: List[np.ndarray] = []

        for t, snapshot in enumerate(graph):
            x = self.model._snapshot_features(graph, features, t)
            if t == 0:
                layer_outputs = gnn.forward_all_layers(snapshot, x)
                stats.changed_seeds.append(num_vertices)
                stats.recomputed_rows.append([num_vertices] * gnn.num_layers)
            else:
                seeds = graph.changed_vertices(t)
                stats.changed_seeds.append(len(seeds))
                per_layer_counts = []
                # Rows of layer l whose value may differ from t-1: the
                # seeds plus everything within l+1 out-hops (degree
                # renormalization makes even feature-unchanged seeds
                # perturb their out-neighbours).
                walk = snapshot.k_hop_walk(seeds, gnn.num_layers)
                prev_input = x
                for l, layer in enumerate(gnn.layers):
                    affected = walk[l + 1]
                    per_layer_counts.append(len(affected))
                    if len(affected):
                        updated = layer.forward_rows(snapshot, prev_input, affected)
                        new_output = layer_outputs[l].copy()
                        new_output[affected] = updated
                    else:
                        new_output = layer_outputs[l].copy()
                    prev_input = new_output
                    layer_outputs[l] = new_output
                stats.recomputed_rows.append(per_layer_counts)
            z = layer_outputs[-1]
            state = rnn.step(z, state)
            embeddings.append(z.copy())
            hidden.append(state.hidden.copy())

        self.stats = stats
        return DGNNOutputs(embeddings, hidden)
