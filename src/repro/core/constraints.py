"""Admission constraints for graph reservoir sampling.

The paper maintains the edge reservoir *"while satisfying certain
desired properties like bounding number of clusters or cluster-sizes"*.
Concretely: when the reservoir sampler wants to admit an edge whose
insertion into the sampled sub-graph would merge two components, a
constraint policy may veto the admission so that the declared clustering
keeps the desired shape.

Policies are stateless predicates over the current connectivity
structure, so a single instance can be shared between clusterers.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.connectivity.base import DynamicConnectivity
from repro.streams.events import Vertex
from repro.util.validation import check_positive

__all__ = [
    "ConstraintPolicy",
    "Unconstrained",
    "MaxClusterSize",
    "MinClusterCount",
    "CompositeConstraint",
]


class ConstraintPolicy(abc.ABC):
    """Decides whether a sampled edge may enter the sampled sub-graph."""

    @abc.abstractmethod
    def allows(self, connectivity: DynamicConnectivity, u: Vertex, v: Vertex) -> bool:
        """True if edge ``{u, v}`` may be added to the sampled sub-graph.

        Called *before* the edge is inserted; implementations typically
        inspect the components of ``u`` and ``v``. The built-in policies
        query only ``connected``, ``component_size`` and
        ``num_components``, so batched ingestion answers them from its
        own sample component labels; a subclass defined elsewhere always
        receives the full connectivity structure, and batched ingestion
        applies its events one at a time.
        """


class Unconstrained(ConstraintPolicy):
    """Admit everything — pure graph reservoir sampling."""

    def allows(self, connectivity: DynamicConnectivity, u: Vertex, v: Vertex) -> bool:
        return True

    def __repr__(self) -> str:
        return "Unconstrained()"


class MaxClusterSize(ConstraintPolicy):
    """Bound the size of every declared cluster.

    An edge is vetoed iff it would merge two components whose combined
    size exceeds ``limit``. Edges internal to a component are always
    allowed (they do not change cluster sizes).
    """

    def __init__(self, limit: int) -> None:
        check_positive("limit", limit)
        self.limit = limit

    def allows(self, connectivity: DynamicConnectivity, u: Vertex, v: Vertex) -> bool:
        if connectivity.connected(u, v):
            return True
        return connectivity.component_size(u) + connectivity.component_size(v) <= self.limit

    def __repr__(self) -> str:
        return f"MaxClusterSize(limit={self.limit})"


class MinClusterCount(ConstraintPolicy):
    """Keep at least ``minimum`` clusters (components) alive.

    An edge is vetoed iff it would merge two components while the
    component count is already at the floor. Note the count is over all
    components of the sampled sub-graph, including singleton vertices.
    """

    def __init__(self, minimum: int) -> None:
        check_positive("minimum", minimum)
        self.minimum = minimum

    def allows(self, connectivity: DynamicConnectivity, u: Vertex, v: Vertex) -> bool:
        if connectivity.connected(u, v):
            return True
        return connectivity.num_components > self.minimum

    def __repr__(self) -> str:
        return f"MinClusterCount(minimum={self.minimum})"


class CompositeConstraint(ConstraintPolicy):
    """Logical AND of several policies (all must allow)."""

    def __init__(self, policies: Sequence[ConstraintPolicy]) -> None:
        if not policies:
            raise ValueError("CompositeConstraint requires at least one policy")
        self.policies = tuple(policies)

    def allows(self, connectivity: DynamicConnectivity, u: Vertex, v: Vertex) -> bool:
        return all(policy.allows(connectivity, u, v) for policy in self.policies)

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.policies)
        return f"CompositeConstraint([{inner}])"
