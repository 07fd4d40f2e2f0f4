"""Sharded multi-node serving (``docs/cluster.md``).

A :class:`ClusterCoordinator` is the request plane over N ``repro serve``
shard servers, with one :class:`ShardedDataset` backend per dataset (see
:mod:`repro.serving.cluster.coordinator`).  :class:`LocalCluster` boots
the whole topology in-process over loopback sockets.
"""

from repro.serving.cluster.coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterUnavailableError,
    ShardedDataset,
    ShardEndpoint,
    ShardLostError,
)
from repro.serving.cluster.local import LocalCluster
from repro.serving.cluster.merge import merge_candidates
from repro.serving.cluster.shards import SHARD_FUNCTIONS, DatasetPlacement, ShardMap
from repro.serving.protocol import handle_request

#: The coordinator speaks the one protocol; this name predates that.
handle_cluster_request = handle_request

__all__ = [
    "SHARD_FUNCTIONS",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterUnavailableError",
    "DatasetPlacement",
    "LocalCluster",
    "ShardEndpoint",
    "ShardLostError",
    "ShardMap",
    "ShardedDataset",
    "handle_cluster_request",
    "merge_candidates",
]
