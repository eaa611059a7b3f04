"""Property-based tests for the sync cost models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NetworkConfig
from repro.sync import ps_round_sync_time, ring_allreduce_time


@given(
    bytes_=st.floats(1.0, 1e10),
    k=st.integers(1, 256),
    shards=st.integers(1, 8),
    gbps=st.floats(1.0, 100.0),
)
@settings(max_examples=80, deadline=None)
def test_cost_models_nonnegative_and_monotone_in_bytes(bytes_, k, shards, gbps):
    net = NetworkConfig(ps_shards=shards).with_bandwidth_gbps(gbps)
    for fn in (ps_round_sync_time, ring_allreduce_time):
        t1 = fn(bytes_, k, net)
        t2 = fn(2 * bytes_, k, net)
        assert t1 >= 0
        assert t2 >= t1 - 1e-12


@given(k=st.integers(2, 128))
@settings(max_examples=40, deadline=None)
def test_ps_cost_monotone_in_workers(k):
    net = NetworkConfig(ps_shards=2)
    assert ps_round_sync_time(1e9, k + 1, net) >= ps_round_sync_time(
        1e9, k, net
    )
