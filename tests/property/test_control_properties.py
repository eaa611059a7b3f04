"""Property-based tests for the control-plane message protocol."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    CheckpointRestored,
    Heartbeat,
    JobCompleted,
    SequenceAck,
    SubmitJob,
    from_wire,
    to_wire,
)

ids = st.integers(0, 10_000)
times = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
sizes = st.floats(0, 1e12, allow_nan=False, allow_infinity=False)

submit_jobs = st.builds(
    SubmitJob,
    job_id=ids,
    model=st.text(min_size=1, max_size=30),
    arrival=times,
    weight=st.floats(0.1, 100, allow_nan=False),
    num_rounds=st.integers(1, 10_000),
    sync_scale=st.integers(1, 64),
    batch_scale=st.floats(0.1, 16, allow_nan=False),
)
restores = st.builds(
    CheckpointRestored,
    job_id=ids, version=ids, round_idx=ids, time=times, data_bytes=sizes,
)
heartbeats = st.builds(Heartbeat, gpu_id=ids, seq=ids, time=times)
acks = st.builds(SequenceAck, gpu_id=ids, num_tasks=ids)
completions = st.builds(JobCompleted, job_id=ids, completion_time=times)

any_message = st.one_of(
    submit_jobs, restores, heartbeats, acks, completions
)


@given(msg=any_message)
@settings(max_examples=100, deadline=None)
def test_wire_round_trip(msg):
    assert from_wire(to_wire(msg)) == msg


@given(msg=any_message)
@settings(max_examples=60, deadline=None)
def test_wire_survives_json(msg):
    assert from_wire(json.loads(json.dumps(to_wire(msg)))) == msg


@given(msg=any_message)
@settings(max_examples=60, deadline=None)
def test_wire_bytes_exceed_payload(msg):
    assert msg.wire_bytes() >= msg.payload_bytes
    assert msg.wire_bytes() > 0


@given(msgs=st.lists(any_message, min_size=1, max_size=20),
       at=st.floats(0, 100, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_transport_conserves_messages(msgs, at):
    from repro.control import SimTransport

    bus = SimTransport()
    bus.register("src")
    bus.register("dst")
    for i, msg in enumerate(msgs):
        bus.send("src", "dst", msg, at=at + i * 1e-6)
    out = bus.drain("dst")
    assert [d.message for d in out] != [] and len(out) == len(msgs)
    # each delivery at or after its send time
    for d in out:
        assert d.delivered_at >= d.sent_at
    # totals match
    assert bus.total_stats().messages == len(msgs)
