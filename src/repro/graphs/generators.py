"""Synthetic dynamic-graph generators.

Real-world dynamic graphs have two properties every model in the paper
depends on: (1) a skewed (power-law) degree distribution, which drives the
workload-balance problem (§5), and (2) strong temporal similarity — only
4.1%–13.3% of vertices change between consecutive snapshots (§7.7, citing
RACE) — which drives the redundancy-free machinery (§3.1, §4.2).

This module synthesizes discrete-time dynamic graphs with both properties
under explicit control: a configuration-model power-law snapshot generator
plus an evolution step that perturbs a target fraction of vertex rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dynamic import DynamicGraph
from .snapshot import GraphSnapshot, sorted_unique

__all__ = [
    "powerlaw_snapshot",
    "evolve_snapshot",
    "generate_dynamic_graph",
    "random_features",
]

_DEFAULT_SKEW = 1.0


def _vertex_weights(num_vertices: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like sampling weights, shuffled so hot vertices have random ids."""
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    rng.shuffle(weights)
    return weights / weights.sum()


def _sample_edges(
    num_vertices: int,
    num_edges: int,
    weights: np.ndarray,
    rng: np.random.Generator,
    forbidden: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sample ``num_edges`` distinct non-self-loop edge keys ``dst*N + src``.

    ``forbidden`` is an optional sorted key array the samples must avoid.
    Destination endpoints follow the skewed weight distribution (hub
    vertices accumulate in-degree); sources are drawn uniformly.
    """
    max_possible = num_vertices * (num_vertices - 1)
    if num_edges > max_possible:
        raise ValueError(
            f"cannot place {num_edges} distinct edges on {num_vertices} vertices"
        )
    collected = np.empty(0, dtype=np.int64)
    # Oversample to absorb duplicate/self-loop/forbidden rejections.
    while len(collected) < num_edges:
        need = num_edges - len(collected)
        batch = max(int(need * 1.5) + 16, 64)
        dst = rng.choice(num_vertices, size=batch, p=weights)
        src = rng.integers(0, num_vertices, size=batch)
        keys = dst.astype(np.int64) * num_vertices + src
        keys = keys[src != dst]
        keys = sorted_unique(keys)
        if forbidden is not None and len(forbidden):
            keys = keys[~np.isin(keys, forbidden, assume_unique=False)]
        keys = np.setdiff1d(keys, collected, assume_unique=True)
        collected = np.concatenate([collected, keys[:need]])
    return np.sort(collected)


def powerlaw_snapshot(
    num_vertices: int,
    num_edges: int,
    feature_dim: int = 1,
    skew: float = _DEFAULT_SKEW,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    with_features: bool = False,
) -> GraphSnapshot:
    """One static power-law snapshot with ``num_edges`` directed edges."""
    if num_vertices < 2 and num_edges > 0:
        raise ValueError("need at least 2 vertices to place edges")
    rng = rng if rng is not None else np.random.default_rng(seed)
    if num_vertices == 0:
        return GraphSnapshot.empty(0, feature_dim)
    weights = _vertex_weights(num_vertices, skew, rng)
    keys = (
        _sample_edges(num_vertices, num_edges, weights, rng)
        if num_edges
        else np.empty(0, dtype=np.int64)
    )
    src = keys % num_vertices
    dst = keys // num_vertices
    features = (
        random_features(num_vertices, feature_dim, rng=rng) if with_features else None
    )
    return GraphSnapshot.from_edge_arrays(
        num_vertices, src, dst, feature_dim=feature_dim, features=features
    )


def evolve_snapshot(
    snapshot: GraphSnapshot,
    dissimilarity: float,
    rng: np.random.Generator,
    skew: float = _DEFAULT_SKEW,
) -> GraphSnapshot:
    """Evolve ``snapshot`` so roughly ``dissimilarity * V`` vertex rows change.

    Half of the selected vertices lose one in-edge (when they have any) and
    the other half gain one, keeping the edge count roughly stable — the
    update mix the deletion-to-addition transform (Mega-Alg) exploits.
    Feature rows of selected vertices are re-drawn when features are present.
    """
    if not 0.0 <= dissimilarity <= 1.0:
        raise ValueError(f"dissimilarity must be in [0, 1], got {dissimilarity}")
    num_vertices = snapshot.num_vertices
    num_changed = int(round(dissimilarity * num_vertices))
    if num_changed == 0 or num_vertices < 2:
        return GraphSnapshot(
            num_vertices,
            snapshot.indptr,
            snapshot.indices,
            snapshot.feature_dim,
            snapshot.timestamp + 1,
            snapshot.features,
        )
    selected = rng.choice(num_vertices, size=num_changed, replace=False)
    degrees = snapshot.in_degree()
    half = num_changed // 2
    removers = selected[:half][degrees[selected[:half]] > 0]
    adders = np.setdiff1d(selected, removers, assume_unique=False)

    keep = np.ones(snapshot.num_edges, dtype=bool)
    if len(removers):
        offsets = (rng.random(len(removers)) * degrees[removers]).astype(np.int64)
        keep[snapshot.indptr[removers] + offsets] = False
    src, dst = snapshot.edge_arrays()
    keys = dst * num_vertices + src
    kept_keys = keys[keep]

    new_keys = np.empty(0, dtype=np.int64)
    if len(adders):
        weights = _vertex_weights(num_vertices, skew, rng)
        candidate_src = rng.choice(num_vertices, size=len(adders) * 4, p=weights)
        candidate_dst = np.repeat(adders, 4)
        cand = candidate_dst.astype(np.int64) * num_vertices + candidate_src
        cand = cand[candidate_src != candidate_dst]
        cand = sorted_unique(cand)
        cand = cand[~np.isin(cand, kept_keys)]
        # Keep at most one new in-edge per adder vertex.
        cand_dst = cand // num_vertices
        _, first = np.unique(cand_dst, return_index=True)
        new_keys = cand[first]

    all_keys = np.concatenate([kept_keys, new_keys])
    new_src = all_keys % num_vertices
    new_dst = all_keys // num_vertices
    features = snapshot.features
    if features is not None:
        features = features.copy()
        features[selected] = random_features(
            len(selected), snapshot.feature_dim, rng=rng
        )
    return GraphSnapshot.from_edge_arrays(
        num_vertices,
        new_src,
        new_dst,
        feature_dim=snapshot.feature_dim,
        timestamp=snapshot.timestamp + 1,
        features=features,
    )


def generate_dynamic_graph(
    num_vertices: int,
    num_edges: int,
    num_snapshots: int,
    dissimilarity: float = 0.1,
    feature_dim: int = 16,
    skew: float = _DEFAULT_SKEW,
    seed: Optional[int] = None,
    with_features: bool = False,
    name: str = "synthetic",
    dissimilarity_jitter: float = 0.25,
) -> DynamicGraph:
    """A full synthetic discrete-time dynamic graph.

    Parameters mirror the knobs of every analytic model in the paper:
    vertex/edge scale, snapshot count ``T``, target per-transition
    dissimilarity ``Dis``, and feature width.  Real update batches vary in
    size, so each transition draws its dissimilarity uniformly from
    ``Dis * [1 - jitter, 1 + jitter]`` — the per-snapshot variation behind
    the paper's Fig. 10 model-vs-actual gap.
    """
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    if not 0.0 <= dissimilarity_jitter < 1.0:
        raise ValueError("dissimilarity_jitter must be in [0, 1)")
    rng = np.random.default_rng(seed)
    first = powerlaw_snapshot(
        num_vertices,
        num_edges,
        feature_dim=feature_dim,
        skew=skew,
        rng=rng,
        with_features=with_features,
    )
    snapshots = [first]
    for _ in range(num_snapshots - 1):
        low = dissimilarity * (1.0 - dissimilarity_jitter)
        high = dissimilarity * (1.0 + dissimilarity_jitter)
        step_dis = min(float(rng.uniform(low, high)), 1.0)
        snapshots.append(evolve_snapshot(snapshots[-1], step_dis, rng, skew=skew))
    return DynamicGraph(snapshots, name=name)


def random_features(
    num_rows: int,
    feature_dim: int,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Standard-normal feature matrix, for numeric tests and examples."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    return rng.standard_normal((num_rows, feature_dim))
