"""Phase-level accelerator simulator (paper §7.1).

Timing follows the paper's composition rule: "the overall execution time is
determined by overlapping the off-chip communication time with the on-chip
execution time, while accounting for system configuration overheads and
control signal delays.  The on-chip execution time is further refined by
overlapping the on-chip communication latency with the computation
latency."

Per snapshot the simulator therefore computes

``on_chip = max(compute, noc_transfer)``
``snapshot = max(on_chip, dram_transfer) + overheads``

where ``compute`` is the balanced per-tile MAC time divided by the measured
load utilization (an imbalanced mapping waits for its slowest tile), and
the overheads cover synchronization and reconfiguration events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from ..obs import span as obs_span
from .config import HardwareConfig
from .dram import DRAMModel
from .energy import EnergyBreakdown, EnergyModel, EnergyParams
from .metrics import (
    CostSummary,
    CycleBreakdown,
    DegradedModeReport,
    SimulationResult,
    SnapshotCosts,
)
from .noc import NoCModel
from .pe import KernelEfficiency
from .tile import TileModel, TileWork

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from ..resilience.faults import FaultModel

__all__ = ["SimulatorParams", "AcceleratorSimulator"]


@dataclass(frozen=True)
class SimulatorParams:
    """Secondary timing/energy constants."""

    efficiency: KernelEfficiency = KernelEfficiency()
    pipeline_overlap: float = 0.85
    sync_latency_cycles: float = 60.0  # one inter-tile barrier
    config_latency_cycles: float = 50.0  # one NoC/tile reconfiguration
    # Fraction of the shorter phase that fails to hide behind the longer
    # one when overlapping communication with computation (dependency
    # stalls, buffer turnaround).
    overlap_residual: float = 0.2
    sram_bytes_per_mac: float = 0.25  # post-reuse operand traffic
    # Operand bytes hauled through the interconnect per MAC: zero for
    # designs whose PEs read from local buffers (DiTile, ReaDy, MEGA),
    # positive for crossbar-fed PEs (RACE) that stream operands through
    # the exchange.
    operand_noc_bytes_per_mac: float = 0.0


class AcceleratorSimulator:
    """Executes a :class:`CostSummary` on a :class:`HardwareConfig`."""

    def __init__(
        self,
        hardware: HardwareConfig,
        params: SimulatorParams = SimulatorParams(),
        name: Optional[str] = None,
        energy_params: Optional[EnergyParams] = None,
        faults: Optional["FaultModel"] = None,
    ):
        self.hardware = hardware
        self.params = params
        self.name = name or f"accel-{hardware.noc.topology}"
        self.tile_model = TileModel(
            hardware.tile, params.efficiency, params.pipeline_overlap
        )
        # A clean fault model is dropped so the fault-free path is
        # bit-identical to an unfaulted simulator.
        self.faults = (
            faults if faults is not None and not faults.is_clean else None
        )
        self.noc_model = NoCModel(hardware, faults=self.faults)
        self.dram_model = DRAMModel(hardware.dram)
        self.energy_model = EnergyModel(
            energy_params if energy_params is not None else EnergyParams()
        )
        if self.faults is not None:
            # Validates at least one survivor (raises otherwise) and
            # fixes the compute-remap denominator for this run.
            self._live_tiles = self.faults.live_tiles(hardware)
            self._clean_noc: Optional[NoCModel] = NoCModel(hardware)
        else:
            self._live_tiles = hardware.total_tiles
            self._clean_noc = None

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _compute_cycles(
        self, snapshot: SnapshotCosts, utilization: float, tiles: int
    ) -> float:
        """Balanced per-tile compute time, stretched by load imbalance.

        Under a fault model the failed tiles' compute share is remapped
        onto the ``tiles`` survivors, so per-tile work grows by
        ``total_tiles / live_tiles`` (fault-free the two are equal)."""
        work = TileWork(
            gnn_aggregation_macs=snapshot.gnn_aggregation_macs / tiles,
            gnn_combination_macs=snapshot.gnn_combination_macs / tiles,
            rnn_macs=snapshot.rnn_macs / tiles,
        )
        ideal = self.tile_model.total_cycles(work)
        return ideal / max(utilization, 1e-9)

    def _trace_kernels(self, snapshot: SnapshotCosts) -> None:
        """Per-kernel child spans of ``compute`` (traced runs only).

        ``tile_cycles`` is each kernel's un-overlapped per-tile time; the
        parent ``compute`` span's ``cycles`` counter is the authoritative
        (overlapped, imbalance-stretched) figure that reconciles with
        :class:`SimulationResult` totals.
        """
        per_pe = self.hardware.total_tiles * self.tile_model.config.num_pes
        pe = self.tile_model.pe_model
        with obs_span("aggregation") as sp:
            sp.add("macs", snapshot.gnn_aggregation_macs)
            sp.add("tile_cycles", pe.sparse_cycles(snapshot.gnn_aggregation_macs / per_pe))
        with obs_span("combination") as sp:
            sp.add("macs", snapshot.gnn_combination_macs)
            sp.add("tile_cycles", pe.dense_cycles(snapshot.gnn_combination_macs / per_pe))
        with obs_span("rnn") as sp:
            sp.add("macs", snapshot.rnn_macs)
            sp.add("tile_cycles", pe.dense_cycles(snapshot.rnn_macs / per_pe))

    def _compose(
        self,
        snapshot: SnapshotCosts,
        utilization: float,
        noc_model: NoCModel,
        tiles: int,
    ) -> CycleBreakdown:
        """One snapshot's cycles under the composition rule (module docstring).

        The run prices each snapshot on its own (possibly degraded) NoC
        model and live tiles; the degraded-mode baseline prices it on the
        fault-free NoC model and every tile.
        """
        compute = self._compute_cycles(snapshot, utilization, tiles)
        on_chip_comm = noc_model.transfer_cycles(snapshot.noc)
        off_chip = self.dram_model.transfer_cycles(snapshot.dram)
        overhead = (
            snapshot.sync_events * self.params.sync_latency_cycles
            + snapshot.config_events * self.params.config_latency_cycles
        )
        residual = self.params.overlap_residual
        on_chip_exec = max(compute, on_chip_comm) + residual * min(
            compute, on_chip_comm
        )
        total = (
            max(on_chip_exec, off_chip)
            + residual * min(on_chip_exec, off_chip)
            + overhead
        )
        return CycleBreakdown(
            compute=compute,
            on_chip=on_chip_comm,
            off_chip=off_chip,
            overhead=overhead,
            total=total,
        )

    def _trace_breakdown(
        self, snapshot: SnapshotCosts, breakdown: CycleBreakdown
    ) -> None:
        """Per-phase child spans of ``snapshot`` (traced runs only).

        Their ``cycles`` counters sum to the :class:`SimulationResult`
        breakdown; the phase arithmetic itself runs in :meth:`_compose`,
        so the snapshot span holds its time.
        """
        with obs_span("compute") as sp:
            sp.add("cycles", breakdown.compute)
            self._trace_kernels(snapshot)
        with obs_span("noc") as sp:
            sp.add("cycles", breakdown.on_chip)
            sp.add("temporal_bytes", snapshot.noc.temporal_bytes)
            sp.add("spatial_bytes", snapshot.noc.spatial_bytes)
            sp.add("reuse_bytes", snapshot.noc.reuse_bytes)
            sp.add("byte_hops", self.noc_model.byte_hops(snapshot.noc))
        with obs_span("dram") as sp:
            sp.add("cycles", breakdown.off_chip)
            sp.add("bytes", snapshot.dram.total_bytes)
            sp.add(
                "streaming_bytes",
                snapshot.dram.streaming_read + snapshot.dram.streaming_write,
            )
            sp.add(
                "random_bytes",
                snapshot.dram.random_read + snapshot.dram.random_write,
            )
        with obs_span("overhead") as sp:
            sp.add("cycles", breakdown.overhead)
            sp.add("sync_events", snapshot.sync_events)
            sp.add("config_events", snapshot.config_events)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, costs: CostSummary) -> SimulationResult:
        """Simulate one full DGNN execution."""
        with obs_span(
            "simulate",
            accelerator=self.name,
            algorithm=costs.algorithm,
            snapshots=len(costs.snapshots),
        ) as sim_sp:
            return self._run(costs, sim_sp)

    def _run(self, costs: CostSummary, sim_sp) -> SimulationResult:
        total = CycleBreakdown()
        per_snapshot = []
        noc_byte_hops = 0.0
        config_events = 0.0
        baseline_cycles = 0.0
        reroute_penalty: Dict[str, float] = {}
        for snapshot in costs.snapshots:
            with obs_span("snapshot", index=snapshot.timestamp) as snap_sp:
                breakdown = self._compose(
                    snapshot,
                    costs.load_utilization,
                    self.noc_model,
                    self._live_tiles,
                )
                if snap_sp.enabled:
                    snap_sp.add("cycles", breakdown.total)
                    self._trace_breakdown(snapshot, breakdown)
            per_snapshot.append(breakdown.total)
            total.compute += breakdown.compute
            total.on_chip += breakdown.on_chip
            total.off_chip += breakdown.off_chip
            total.overhead += breakdown.overhead
            total.total += breakdown.total
            noc_byte_hops += self.noc_model.byte_hops(snapshot.noc)
            config_events += snapshot.config_events
            if self.faults is not None:
                assert self._clean_noc is not None
                baseline_cycles += self._compose(
                    snapshot,
                    costs.load_utilization,
                    self._clean_noc,
                    self.hardware.total_tiles,
                ).total
                degraded_cls = self.noc_model.per_class_cycles(snapshot.noc)
                clean_cls = self._clean_noc.per_class_cycles(snapshot.noc)
                for name, cycles in degraded_cls.items():
                    penalty = max(cycles - clean_cls[name], 0.0)
                    reroute_penalty[name] = (
                        reroute_penalty.get(name, 0.0) + penalty
                    )

        energy = self._energy(costs, noc_byte_hops, config_events)
        # PE utilization (Fig. 11a): fraction of execution time the PE
        # arrays spend on perfectly-balanced useful compute — imbalance,
        # synchronization, and communication stalls all erode it.
        ideal_compute = total.compute * costs.load_utilization
        utilization = ideal_compute / total.total if total.total > 0 else 0.0
        if sim_sp.enabled:
            sim_sp.add("cycles", total.total)
            sim_sp.add("total_macs", costs.total_macs)
            sim_sp.add("dram_bytes", costs.dram_bytes)
            sim_sp.add("noc_bytes", costs.noc_bytes)
            sim_sp.add("noc_byte_hops", noc_byte_hops)
            sim_sp.set_attr("pe_utilization", utilization)
        degraded: Optional[DegradedModeReport] = None
        if self.faults is not None:
            fault_counts = self.faults.counts()
            degraded = DegradedModeReport(
                failed_tiles=fault_counts["failed_tiles"],
                failed_links=fault_counts["failed_links"],
                failed_relinks=fault_counts["failed_relinks"],
                live_tiles=self._live_tiles,
                compute_stretch=self.hardware.total_tiles / self._live_tiles,
                reroute_penalty_cycles=reroute_penalty,
                baseline_cycles=baseline_cycles,
                degraded_cycles=total.total,
            )
            if sim_sp.enabled:
                sim_sp.add("degraded_cycles", total.total)
                sim_sp.add("baseline_cycles", baseline_cycles)
        return SimulationResult(
            accelerator=self.name,
            algorithm=costs.algorithm,
            cycles=total,
            energy=energy,
            total_macs=costs.total_macs,
            dram_bytes=costs.dram_bytes,
            noc_bytes=costs.noc_bytes,
            noc_byte_hops=noc_byte_hops,
            pe_utilization=utilization,
            frequency_hz=self.hardware.frequency_hz,
            per_snapshot_cycles=per_snapshot,
            degraded=degraded,
        )

    def _energy(
        self, costs: CostSummary, noc_byte_hops: float, config_events: float
    ) -> EnergyBreakdown:
        local_buffer = self.hardware.tile.pe.local_buffer_bytes
        operand_byte_hops = (
            costs.total_macs * self.params.operand_noc_bytes_per_mac
        )
        return self.energy_model.breakdown(
            macs=costs.total_macs,
            sram_bytes=costs.total_macs * self.params.sram_bytes_per_mac,
            sram_capacity_bytes=local_buffer,
            noc_byte_hops=noc_byte_hops + operand_byte_hops,
            dram_bytes=costs.dram_bytes,
            config_events=config_events,
        )
