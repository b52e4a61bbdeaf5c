"""Storage-cluster metadata model: nodes, stripes, rack topology."""

from .chunk import ChunkLocation, NodeId, Stripe, StripeCatalog, StripeId
from .cluster import ClusterError, StorageCluster
from .node import Node, NodeRole, NodeState
from .topology import (
    RackAwarePlacement,
    RackTopology,
    RackViolationError,
    verify_rack_tolerance,
)
from . import snapshot

__all__ = [
    "ChunkLocation",
    "ClusterError",
    "Node",
    "NodeId",
    "NodeRole",
    "NodeState",
    "RackAwarePlacement",
    "RackTopology",
    "RackViolationError",
    "verify_rack_tolerance",
    "StorageCluster",
    "Stripe",
    "StripeCatalog",
    "StripeId",
    "snapshot",
]
