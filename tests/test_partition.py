"""Unit tests for repro.graphs.partition."""

import numpy as np
import pytest

from repro.graphs.partition import (
    VertexPartition,
    contiguous_vertex_partition,
    edge_cut,
    partition_loads,
    round_robin_partition,
    snapshot_assignment,
)
from repro.graphs.snapshot import GraphSnapshot


class TestVertexPartition:
    def test_members_and_sizes(self):
        partition = VertexPartition(2, np.array([0, 1, 0, 1, 0]))
        np.testing.assert_array_equal(partition.members(0), [0, 2, 4])
        np.testing.assert_array_equal(partition.sizes(), [3, 2])
        assert partition.num_vertices == 5

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError):
            VertexPartition(2, np.array([0, 2]))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            VertexPartition(0, np.array([], dtype=np.int64))


class TestContiguousPartition:
    def test_even_split(self):
        partition = contiguous_vertex_partition(10, 2)
        np.testing.assert_array_equal(partition.sizes(), [5, 5])
        np.testing.assert_array_equal(partition.members(0), np.arange(5))

    def test_uneven_split_balanced(self):
        partition = contiguous_vertex_partition(10, 3)
        sizes = partition.sizes()
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_more_parts_than_vertices(self):
        partition = contiguous_vertex_partition(2, 4)
        assert partition.sizes().sum() == 2
        # Deterministic tie-breaking: vertex i owns part i, the tail
        # parts are empty.
        np.testing.assert_array_equal(partition.assignment, [0, 1])
        np.testing.assert_array_equal(partition.sizes(), [1, 1, 0, 0])


class TestRoundRobinPartition:
    def test_deals_serpentine(self):
        order = np.array([3, 1, 0, 2])  # descending workload order
        partition = round_robin_partition(order, 2, 4)
        # Round 1 deals 3 -> part 0, 1 -> part 1; round 2 reverses:
        # 0 -> part 1, 2 -> part 0.
        assert partition.assignment[3] == 0
        assert partition.assignment[1] == 1
        assert partition.assignment[0] == 1
        assert partition.assignment[2] == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            round_robin_partition(np.array([0, 0, 1]), 2, 3)

    def test_balances_sorted_loads(self, rng):
        loads = rng.pareto(1.5, size=200) + 1.0
        order = np.argsort(-loads)
        partition = round_robin_partition(order, 4, 200)
        grouped = partition_loads(loads, partition)
        naive = partition_loads(loads, contiguous_vertex_partition(200, 4))
        assert grouped.max() / grouped.mean() <= naive.max() / naive.mean() + 1e-9


class TestSnapshotAssignment:
    def test_consecutive_groups(self):
        groups = snapshot_assignment(8, 4)
        assert len(groups) == 4
        np.testing.assert_array_equal(groups[0], [0, 1])
        np.testing.assert_array_equal(groups[3], [6, 7])

    def test_uneven_groups_cover_all(self):
        groups = snapshot_assignment(7, 3)
        combined = np.concatenate(groups)
        np.testing.assert_array_equal(combined, np.arange(7))

    def test_rejects_nonpositive_groups(self):
        with pytest.raises(ValueError):
            snapshot_assignment(4, 0)


class TestEdgeCut:
    def test_cut_counts_cross_edges(self):
        snapshot = GraphSnapshot.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        partition = VertexPartition(2, np.array([0, 0, 1, 1]))
        assert edge_cut(snapshot, partition) == 1  # only 1 -> 2 crosses

    def test_single_part_has_no_cut(self):
        snapshot = GraphSnapshot.from_edges(4, [(0, 1), (1, 2)])
        partition = VertexPartition(1, np.zeros(4, dtype=np.int64))
        assert edge_cut(snapshot, partition) == 0

    def test_rejects_undersized_partition(self):
        snapshot = GraphSnapshot.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            edge_cut(snapshot, VertexPartition(2, np.array([0, 1])))


class TestPartitionLoads:
    def test_sums_by_part(self):
        partition = VertexPartition(2, np.array([0, 1, 0]))
        loads = partition_loads(np.array([1.0, 2.0, 3.0]), partition)
        np.testing.assert_array_equal(loads, [4.0, 2.0])

    def test_rejects_length_mismatch(self):
        partition = VertexPartition(2, np.array([0, 1]))
        with pytest.raises(ValueError):
            partition_loads(np.array([1.0]), partition)
