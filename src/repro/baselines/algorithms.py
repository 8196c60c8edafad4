"""The four DGNN execution algorithms compared in the paper (§7.1-§7.3).

* **Re-Alg** (ReaDy, DGNN-Booster): "fully recomputes all graph data
  whenever edges or vertices change over time."
* **Race-Alg** (RACE): "a redundancy-aware incremental algorithm, which
  eliminates overlapping graph components ... between snapshots", reusing
  identical output *and* intermediate features — but paying a premium for
  expensive deletion operations.
* **Mega-Alg** (MEGA): "transforms costly deletion operations into addition
  operations" via the mutually-inclusive core, "but does not address
  redundancies related to intermediate features": an invalidated vertex
  recomputes its whole layer chain over its full receptive field.
* **DiTile-Alg**: per-layer incremental reuse + the deletion-to-addition
  transform + selective RNN processing of "a limited set of output
  features" (§7.2).

**Invalidation expansion.**  A change at a vertex invalidates the layer-l
outputs of vertices up to ``l`` hops downstream, so the fraction of
invalidated rows grows with depth.  The models capture this with
``f_l = min(Dis * expansion_rate**l, 1)``: ``Dis`` is the measured
changed-vertex fraction and ``expansion_rate`` the effective per-hop growth
(real updates are spatially clustered, so growth is far below the average
degree; the default is calibrated against the paper's Fig. 7 ratios and
recorded in EXPERIMENTS.md).

Each builder converts a dynamic graph + model spec + placement into the
per-snapshot monitored event counts (:class:`repro.accel.metrics.CostSummary`)
the simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..accel.dram import DRAMTraffic
from ..accel.metrics import CostSummary, SnapshotCosts
from ..accel.noc import NoCTraffic
from ..core.plan import DGNNSpec
from ..graphs.dynamic import DynamicGraph
from ..models.workload import gcn_ops, rnn_ops

__all__ = [
    "ALGORITHMS",
    "AlgorithmParams",
    "Placement",
    "SnapshotQuantities",
    "measure_quantities",
    "layer_fractions",
    "rnn_fraction",
    "build_costs",
]

ALGORITHMS = ("re", "race", "mega", "ditile")

_BYTES = 4  # FP32
_EDGE_BYTES = 8


@dataclass(frozen=True)
class AlgorithmParams:
    """Calibration constants of the cost models (see DESIGN.md §6).

    ``expansion_rate`` — per-hop growth of the invalidated-vertex set;
    ``race_deletion_penalty`` — extra recompute share RACE pays per
    deletion-affected change; ``mega_chain_factor`` — Mega-Alg's overhead
    for recomputing full layer chains without intermediate reuse.
    """

    expansion_rate: float = 1.75
    race_deletion_penalty: float = 1.6
    mega_chain_factor: float = 1.4
    onchip_bytes: float = 4 * 1024 * 1024  # residency capacity for spills
    naive_tiling: bool = True  # baselines refetch boundaries naively
    dis_floor: float = 0.01  # minimum processed fraction per snapshot
    # Transport granularity: row fetches quantize to DRAM burst lines and
    # on-chip packets carry one header flit.  The analytic planning models
    # (Eqs. 6-16) ignore both — the gap is what Fig. 10 measures.  Set to
    # None / 0 to reproduce the idealized analytic accounting.
    dram_line_bytes: Optional[int] = 64
    noc_flit_bytes: Optional[int] = 64
    noc_header_flits: int = 1
    # Staging-capacity contention between concurrent snapshot groups:
    # 0 = fully hidden by double buffering (default), 1 = linear division.
    group_capacity_sharing: float = 0.0

    def row_dram_bytes(self, rows: float, width_elems: float) -> float:
        """DRAM bytes to move ``rows`` feature rows of ``width_elems``."""
        raw = width_elems * _BYTES
        if not self.dram_line_bytes:
            return rows * raw
        lines = -(-raw // self.dram_line_bytes)
        return rows * lines * self.dram_line_bytes

    def row_noc_bytes(self, rows: float, width_elems: float) -> float:
        """NoC bytes to move ``rows`` feature rows of ``width_elems``."""
        raw = width_elems * _BYTES
        if not self.noc_flit_bytes:
            return rows * raw
        flits = -(-raw // self.noc_flit_bytes) + self.noc_header_flits
        return rows * flits * self.noc_flit_bytes


@dataclass(frozen=True)
class Placement:
    """How an accelerator spreads the workload over its tile array."""

    snapshot_groups: int
    vertex_groups: int
    load_utilization: float = 1.0
    reuse_capable: bool = False  # ships reused intermediates between tiles
    reconfigurable: bool = False  # pays per-phase reconfiguration events
    engine_split: bool = False  # RACE-style separate GNN/RNN engines
    # In-network partial aggregation: the column rings reduce partial sums
    # so a tile ships at most one row per (vertex, remote tile) pair
    # instead of one per edge (DiTile's RDTA, §6.1.1).
    partial_aggregation: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_groups < 1 or self.vertex_groups < 1:
            raise ValueError("placement group counts must be >= 1")
        if not 0 < self.load_utilization <= 1:
            raise ValueError("load_utilization must be in (0, 1]")


@dataclass(frozen=True)
class SnapshotQuantities:
    """Measured per-snapshot quantities the cost formulas consume."""

    timestamp: int
    vertices: int
    edges: int
    dissimilarity: float  # changed-vertex fraction (1.0 at t=0)
    added_edges: int
    removed_edges: int

    @property
    def delta_edges(self) -> int:
        """Edge insertions plus deletions since the previous snapshot."""
        return self.added_edges + self.removed_edges

    @property
    def deletion_share(self) -> float:
        """Deletions as a fraction of all edge changes."""
        if self.delta_edges == 0:
            return 0.0
        return self.removed_edges / self.delta_edges


def measure_quantities(graph: DynamicGraph) -> List[SnapshotQuantities]:
    """Extract the per-snapshot quantities from a dynamic graph.

    Delta sizes and dissimilarity both come from the graph's memoized
    transition delta (:meth:`~repro.graphs.dynamic.DynamicGraph.transition_delta`),
    so a graph that was handed its deltas is measured in O(delta).
    """
    quantities = []
    for t, snapshot in enumerate(graph):
        if t == 0:
            added, removed, dis = snapshot.num_edges, 0, 1.0
        else:
            delta = graph.transition_delta(t)
            added, removed = delta.num_added, delta.num_removed
            dis = graph.dissimilarity(t)
        quantities.append(
            SnapshotQuantities(
                timestamp=t,
                vertices=snapshot.num_vertices,
                edges=snapshot.num_edges,
                dissimilarity=dis,
                added_edges=added,
                removed_edges=removed,
            )
        )
    return quantities


# ---------------------------------------------------------------------------
# Work fractions
# ---------------------------------------------------------------------------
def layer_fractions(
    algorithm: str,
    q: SnapshotQuantities,
    num_layers: int,
    params: AlgorithmParams,
) -> List[float]:
    """Per-GCN-layer fraction of a full pass the algorithm executes.

    Index ``l`` is the fraction of layer ``l+1`` rows recomputed at
    snapshot ``q``.
    """
    if q.timestamp == 0 or algorithm == "re":
        return [1.0] * num_layers
    dis = max(q.dissimilarity, params.dis_floor)
    base = [
        min(dis * params.expansion_rate ** (l + 1), 1.0) for l in range(num_layers)
    ]
    if algorithm == "ditile":
        return base
    if algorithm == "race":
        # Deletion handling inflates every layer's recompute share.
        penalty = 1.0 + params.race_deletion_penalty * q.deletion_share
        return [min(f * penalty, 1.0) for f in base]
    if algorithm == "mega":
        # No intermediate reuse: every invalidated chain recomputes all
        # layers over its full receptive field.
        deepest = min(base[-1] * params.mega_chain_factor, 1.0)
        return [deepest] * num_layers
    raise ValueError(f"unknown algorithm {algorithm!r}")


def rnn_fraction(
    algorithm: str, q: SnapshotQuantities, num_layers: int, params: AlgorithmParams
) -> float:
    """Fraction of vertices whose RNN step the algorithm executes.

    Re-Alg steps every vertex.  The incremental designs step only vertices
    whose GNN output changed (the final-layer invalidated fraction) —
    RACE's and MEGA's identical-output reuse and DiTile's selective RNN
    processing are the same mechanism with different invalidation sets.
    """
    fractions = layer_fractions(algorithm, q, num_layers, params)
    return fractions[-1]


def gnn_macs_for(
    algorithm: str,
    q: SnapshotQuantities,
    full_aggregation: float,
    full_combination: float,
    num_layers: int,
    params: AlgorithmParams,
) -> tuple:
    """(aggregation, combination) MACs at snapshot ``q``.

    The full per-layer costs are approximated as evenly split across
    layers, which is exact for the paper's equal-width 2-layer GCN.
    """
    fractions = layer_fractions(algorithm, q, num_layers, params)
    mean_fraction = sum(fractions) / num_layers
    return full_aggregation * mean_fraction, full_combination * mean_fraction


def rnn_macs_for(
    algorithm: str, q: SnapshotQuantities, spec: DGNNSpec, params: AlgorithmParams
) -> float:
    """RNN MACs at snapshot ``q`` under the algorithm's reuse policy."""
    full = rnn_ops(
        q.vertices, spec.embedding_dim, spec.rnn_hidden_dim, spec.rnn_matmuls
    ).total
    fraction = rnn_fraction(algorithm, q, spec.num_gnn_layers, params)
    return float(full) * fraction


# ---------------------------------------------------------------------------
# Memory traffic
# ---------------------------------------------------------------------------
def _spill_bytes(resident_bytes: float, capacity: float) -> float:
    """Bytes written+read back when a working set exceeds on-chip capacity."""
    overflow = max(resident_bytes - capacity, 0.0)
    return 2.0 * overflow


def _boundary_refetch_rows(q: SnapshotQuantities, alpha: int) -> float:
    """Cross-subgraph neighbour refetch, in feature rows.

    Eq. 6 charges one row per boundary edge; a real gather deduplicates
    repeated neighbours within a subgraph, so the measured traffic uses the
    expected number of *distinct* external sources per subgraph (a
    balls-in-bins estimate), summed over the ``alpha`` subgraphs.
    """
    if q.vertices == 0 or alpha <= 1:
        return 0.0
    import math

    sv = q.vertices / alpha
    external = q.vertices - sv
    boundary_edges = (q.edges / alpha) * external / q.vertices
    if external <= 0 or boundary_edges <= 0:
        return 0.0
    distinct = external * (1.0 - math.exp(-boundary_edges / external))
    return alpha * distinct


def _naive_alpha(q: SnapshotQuantities, spec: DGNNSpec, capacity: float) -> int:
    """Capacity-only tiling: the smallest split that fits, ignoring traffic."""
    working = q.vertices * (spec.feature_dim + spec.embedding_dim) * _BYTES
    working += q.edges * _EDGE_BYTES
    return max(int(-(-working // max(capacity, 1.0))), 1)


def dram_traffic_for(
    algorithm: str,
    q: SnapshotQuantities,
    spec: DGNNSpec,
    params: AlgorithmParams,
    tiling_alpha: int = 1,
    placement: Optional[Placement] = None,
) -> DRAMTraffic:
    """Off-chip traffic at snapshot ``q``.

    Incremental algorithms read only invalidated features and the edge
    delta, but their scattered accesses are charged at random-access
    efficiency by the DRAM model.  Snapshot-parallel placements keep one
    snapshot's state resident *per snapshot group*, so their aggregate
    resident set grows with ``snapshot_groups`` and spills once it exceeds
    the distributed buffer — the §3.1.1 storage cost of temporal
    parallelism.
    """
    v, e = q.vertices, q.edges
    f, z, h = spec.feature_dim, spec.embedding_dim, spec.rnn_hidden_dim
    traffic = DRAMTraffic()
    # Snapshot-parallel placements split the distributed buffer among
    # their concurrent snapshot groups (§3.1.1's storage cost of temporal
    # parallelism): each group tiles against its share.
    capacity = params.onchip_bytes
    if (
        placement is not None
        and placement.snapshot_groups > 1
        and params.group_capacity_sharing > 0.0
    ):
        # Optional: concurrent snapshot groups contend for staging space
        # (§3.1.1's storage cost of temporal parallelism).  Off by default
        # because double-buffered pipelining largely hides it; exposed for
        # sensitivity studies.
        divisor = 1.0 + params.group_capacity_sharing * (
            placement.snapshot_groups - 1
        )
        capacity = params.onchip_bytes / divisor
    if algorithm == "re" or q.timestamp == 0:
        traffic.streaming_read += params.row_dram_bytes(v, f) + e * _EDGE_BYTES
        traffic.streaming_write += params.row_dram_bytes(v, z + h)
        alpha = (
            _naive_alpha(q, spec, capacity)
            if params.naive_tiling and algorithm != "ditile"
            else max(tiling_alpha, _naive_alpha(q, spec, capacity))
        )
        traffic.random_read += params.row_dram_bytes(
            _boundary_refetch_rows(q, alpha), f
        )
        intermediates = v * sum(spec.gcn_dims[1:-1]) * _BYTES
        traffic.random_read += _spill_bytes(intermediates, capacity)
        return traffic

    # Incremental algorithms (t >= 1): touch only invalidated state.
    layers = layer_fractions(algorithm, q, spec.num_gnn_layers, params)
    read_fraction = layers[0]  # input features of layer-1 invalidated rows
    out_fraction = layers[-1]
    # Delta updates read both the previous and the new values of the
    # invalidated rows (subtract-old / add-new aggregation).
    traffic.random_read += params.row_dram_bytes(2.0 * read_fraction * v, f)
    traffic.streaming_read += q.delta_edges * _EDGE_BYTES
    traffic.random_write += params.row_dram_bytes(out_fraction * v, z)
    # Persist the updated reuse caches: intermediate-layer rows and the
    # advanced hidden states of processed vertices.
    intermediate_widths = spec.gcn_dims[1:-1]
    for frac, width in zip(layers[:-1], intermediate_widths):
        traffic.random_write += params.row_dram_bytes(frac * v, width)
    traffic.random_write += params.row_dram_bytes(out_fraction * v, h)
    if algorithm == "race":
        # Redundancy search compares full adjacency structures between
        # snapshots, and the reuse cache spills past on-chip capacity.
        traffic.streaming_read += e * _EDGE_BYTES
        cache_bytes = (1.0 - q.dissimilarity) * v * z * _BYTES
        traffic.random_read += max(cache_bytes - params.onchip_bytes, 0.0)
    if algorithm == "mega":
        # No intermediate reuse: affected chains re-read the input features
        # of their full receptive fields.
        traffic.random_read += params.row_dram_bytes(
            (out_fraction - read_fraction) * v, f
        )
    alpha = (
        max(tiling_alpha, _naive_alpha(q, spec, capacity))
        if algorithm == "ditile"
        else _naive_alpha(q, spec, capacity)
    )
    traffic.random_read += params.row_dram_bytes(
        _boundary_refetch_rows(q, alpha) * out_fraction, f
    )
    # Hidden state residency: spill only what exceeds on-chip capacity.
    traffic.streaming_write += _spill_bytes(v * h * _BYTES, capacity) / 2.0
    return traffic


# ---------------------------------------------------------------------------
# On-chip traffic
# ---------------------------------------------------------------------------
def noc_traffic_for(
    algorithm: str,
    q: SnapshotQuantities,
    spec: DGNNSpec,
    params: AlgorithmParams,
    placement: Placement,
    num_snapshots: int,
) -> NoCTraffic:
    """Inter-tile traffic at snapshot ``q`` under ``placement``.

    Temporal traffic appears at snapshot-group boundaries; spatial traffic
    follows the cross-partition edge fraction ``1 - 1/vertex_groups``
    scaled by the executed aggregation fraction; reuse traffic ships
    reusable embeddings across group boundaries for reuse-capable designs.
    """
    v = q.vertices
    z, h = spec.embedding_dim, spec.rnn_hidden_dim
    traffic = NoCTraffic()

    groups = placement.snapshot_groups
    group_size = max(-(-num_snapshots // groups), 1)
    at_boundary = q.timestamp > 0 and q.timestamp % group_size == 0
    if at_boundary:
        traffic.temporal_bytes += params.row_noc_bytes(v, h)
        if placement.reuse_capable:
            traffic.reuse_bytes += params.row_noc_bytes(
                (1.0 - q.dissimilarity) * v, z
            )

    if placement.vertex_groups > 1:
        cut_fraction = 1.0 - 1.0 / placement.vertex_groups
        fractions = layer_fractions(algorithm, q, spec.num_gnn_layers, params)
        for frac, width in zip(fractions, spec.gcn_dims[:-1]):
            edge_rows = frac * q.edges * cut_fraction
            if placement.partial_aggregation:
                partial_rows = frac * v * (placement.vertex_groups - 1)
                edge_rows = min(edge_rows, partial_rows)
            traffic.spatial_bytes += params.row_noc_bytes(edge_rows, width)
    return traffic


# ---------------------------------------------------------------------------
# Top-level builder
# ---------------------------------------------------------------------------
def build_costs(
    graph: DynamicGraph,
    spec: DGNNSpec,
    algorithm: str,
    placement: Placement,
    params: AlgorithmParams = AlgorithmParams(),
    tiling_alpha: int = 1,
    quantities: Optional[List[SnapshotQuantities]] = None,
    warm_start: bool = False,
) -> CostSummary:
    """Monitored event counts for one algorithm on one workload.

    ``warm_start`` models steady-state streaming inference: the engine
    already holds the state of the snapshot preceding ``graph[0]``, so the
    first snapshot is processed incrementally (at the run's average
    dissimilarity) instead of as a cold start.  Re-Alg is unaffected — it
    recomputes everything regardless.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    quantities = quantities if quantities is not None else measure_quantities(graph)
    if warm_start and len(quantities) > 1:
        tail = quantities[1:]
        first = quantities[0]
        quantities = [
            SnapshotQuantities(
                timestamp=1,  # nonzero: take the incremental path
                vertices=first.vertices,
                edges=first.edges,
                dissimilarity=float(
                    sum(q.dissimilarity for q in tail) / len(tail)
                ),
                added_edges=int(sum(q.added_edges for q in tail) / len(tail)),
                removed_edges=int(
                    sum(q.removed_edges for q in tail) / len(tail)
                ),
            ),
            *tail,
        ]
    snapshots: List[SnapshotCosts] = []
    for q, snapshot in zip(quantities, graph):
        full = gcn_ops(snapshot, spec.gcn_dims)
        agg, comb = gnn_macs_for(
            algorithm,
            q,
            full.aggregation,
            full.combination,
            spec.num_gnn_layers,
            params,
        )
        rnn = rnn_macs_for(algorithm, q, spec, params)
        noc = noc_traffic_for(algorithm, q, spec, params, placement, len(graph))
        dram = dram_traffic_for(
            algorithm, q, spec, params, tiling_alpha, placement=placement
        )
        sync_events = 1.0 if noc.temporal_bytes > 0 else 0.0
        config_events = 0.0
        if placement.reconfigurable and (q.timestamp == 0 or noc.temporal_bytes > 0):
            config_events = 1.0
        snapshots.append(
            SnapshotCosts(
                timestamp=q.timestamp,
                gnn_aggregation_macs=agg,
                gnn_combination_macs=comb,
                rnn_macs=rnn,
                dram=dram,
                noc=noc,
                config_events=config_events,
                sync_events=sync_events,
            )
        )
    utilization = placement.load_utilization
    if placement.engine_split:
        gnn_total = sum(s.gnn_macs for s in snapshots)
        rnn_total = sum(s.rnn_macs for s in snapshots)
        peak_bound = 2.0 * max(gnn_total, rnn_total)
        if peak_bound > 0:
            utilization *= (gnn_total + rnn_total) / peak_bound
    return CostSummary(
        algorithm=algorithm, snapshots=snapshots, load_utilization=utilization
    )
