"""Hierarchical statistic-labelled search tree with pruned queries.

Nodes carry the merged summary of their subtree, so bounds (and the 2D
convex hull when present) prune whole subtrees.  Pruning is conservative:
a query that was in the raw data is never declared certainly absent.
Candidate leaves come back with a likelihood from their distribution
model - plausibility, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compare, stats
from .errors import DimensionMismatch, EmptyLeaves

#: Relative slack for hull pruning so roundoff can only widen, never narrow.
HULL_MARGIN = 1e-9


@dataclass
class IndexNode:
    aggregate: stats.SummarySample
    children: tuple["IndexNode", ...] = ()
    leaf: stats.SummarySample | None = None

    @property
    def height(self) -> int:
        return 0 if not self.children else 1 + max(c.height for c in self.children)

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)


def build(leaves, fanout: int = 8) -> IndexNode:
    """Bottom-up construction by merging consecutive runs of ``fanout`` leaves.

    The leaves must be adjacent in time order, as a record's stored samples
    are: each node's aggregate is the merge of its run, which raises
    ``ValueError`` on a gap or an overlap.
    """
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    leaves = list(leaves)
    if not leaves:
        raise EmptyLeaves("cannot index zero leaves")
    nodes = [IndexNode(aggregate=s, leaf=s) for s in leaves]
    while len(nodes) > 1:
        grouped = []
        for i in range(0, len(nodes), fanout):
            run = nodes[i : i + fanout]
            if len(run) == 1:
                grouped.append(run[0])
                continue
            agg = stats.merge_all([n.aggregate for n in run])
            grouped.append(IndexNode(aggregate=agg, children=tuple(run)))
        nodes = grouped
    return nodes[0]


def _excludes(node: IndexNode, q: np.ndarray) -> bool:
    agg = node.aggregate
    if agg.n == 0:
        return True
    if agg.min_v is not None and np.any(q < agg.min_v):
        return True
    if agg.max_v is not None and np.any(q > agg.max_v):
        return True
    if agg.hull is not None and q.shape[0] == 2:
        span = float(np.max(agg.hull) - np.min(agg.hull)) if agg.hull.size else 0.0
        margin = HULL_MARGIN * max(span * span, 1.0)
        if not stats.hull_contains(agg.hull, q, margin=margin):
            return True
    return False


@dataclass
class MembershipResult:
    absent_certain: bool
    candidates: list  # (leaf sample, likelihood), most plausible first
    nodes_visited: int
    note: str = "likelihood ranking over candidates is heuristic, not part of the exclusion proof"


def membership(root: IndexNode, q) -> MembershipResult:
    """Decide certainly-absent vs candidate leaves for a query value."""
    qv = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if qv.shape[0] != root.aggregate.channels:
        raise DimensionMismatch(
            f"query has {qv.shape[0]} channels, index has {root.aggregate.channels}"
        )
    visited = 0
    hits: list[tuple[stats.SummarySample, float]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        visited += 1
        if _excludes(node, qv):
            continue
        if node.leaf is not None:
            try:
                like = compare.pdf(compare.model_from_sample(node.leaf), qv)
            except ValueError:
                like = 0.0
            hits.append((node.leaf, like))
            continue
        stack.extend(reversed(node.children))
    hits.sort(key=lambda h: -h[1])
    return MembershipResult(absent_certain=not hits, candidates=hits, nodes_visited=visited)


def range_count_bounds(root: IndexNode, lo, hi) -> tuple[int, int]:
    """Lower/upper bounds on how many raw values fall inside the closed box."""
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape[0] != root.aggregate.channels or hi.shape[0] != root.aggregate.channels:
        raise DimensionMismatch("box does not match the indexed channel count")

    def box_of(node):
        return node.aggregate.min_v, node.aggregate.max_v

    def walk(node) -> tuple[int, int]:
        if node.aggregate.n == 0:
            return 0, 0
        nlo, nhi = box_of(node)
        if nlo is None or nhi is None:  # no bounds: only the upper bound is safe
            return (0, node.aggregate.n) if node.leaf is not None else _walk_children(node)
        if np.any(nhi < lo) or np.any(nlo > hi):
            return 0, 0
        if np.all(nlo >= lo) and np.all(nhi <= hi):
            return node.aggregate.n, node.aggregate.n
        if node.leaf is not None:
            return 0, node.aggregate.n
        return _walk_children(node)

    def _walk_children(node) -> tuple[int, int]:
        low = up = 0
        for c in node.children:
            cl, cu = walk(c)
            low += cl
            up += cu
        return low, up

    return walk(root)
