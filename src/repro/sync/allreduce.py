"""Gradient aggregation substrates: parameter server vs All-Reduce (§2.1, §8).

The paper uses the PS scheme "due to its simplicity" and cites All-Reduce
[18, 30] as the alternative. This module prices both: the per-round
synchronization time among ``k`` workers for a sharded parameter server and
for a bandwidth-optimal ring all-reduce, so experiments can swap the
aggregation fabric.
"""

from __future__ import annotations

from ..cluster.network import NetworkConfig
from ..core.errors import ConfigurationError


def ps_round_sync_time(
    model_bytes: float,
    num_workers: int,
    network: NetworkConfig,
    *,
    pcie_bandwidth: float = 15.75e9,
) -> float:
    """Per-round PS synchronization among *num_workers* workers.

    Each worker pushes gradients and pulls the model (the per-worker time
    of :meth:`NetworkConfig.sync_time`); in addition the server side must
    ingest ``k × model_bytes`` and egress the same through its
    ``ps_shards`` NICs — the server becomes the bottleneck once
    ``k`` outgrows the shard count.
    """
    if num_workers < 1:
        raise ConfigurationError("num_workers must be >= 1")
    worker_side = network.sync_time(model_bytes, pcie_bandwidth)
    server_bw = network.nic_bandwidth * network.ps_shards
    server_side = (
        network.latency_s
        + network.duplex_factor * num_workers * model_bytes / server_bw
    )
    return max(worker_side, server_side)


def ring_allreduce_time(
    model_bytes: float,
    num_workers: int,
    network: NetworkConfig,
) -> float:
    """Bandwidth-optimal ring all-reduce [30].

    ``2(k−1)/k`` of the buffer crosses each link (reduce-scatter +
    all-gather), in ``2(k−1)`` latency-bound steps.
    """
    if num_workers < 1:
        raise ConfigurationError("num_workers must be >= 1")
    if num_workers == 1:
        return 0.0
    k = num_workers
    transfer = 2 * (k - 1) / k * model_bytes / network.nic_bandwidth
    return 2 * (k - 1) * network.latency_s + transfer

