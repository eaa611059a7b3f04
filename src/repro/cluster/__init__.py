"""Heterogeneous GPU cluster substrate: devices, nodes, interconnect."""

from .._lazy import lazy_facade

__getattr__, __dir__, __all__ = lazy_facade(globals(), {
    ".cluster": (
        "TESTBED_MIX Cluster heterogeneity_preset make_cluster scaled_cluster "
        "testbed_cluster"
    ),
    ".gpu": "GPUSpec gpu_spec",
    ".network": "NetworkConfig",
    ".node": "GPUDevice Node build_nodes",
})
