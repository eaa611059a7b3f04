"""Property-based tests for the speculative memory manager."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switching import GpuMemoryManager
from repro.switching.memory import sequence_hits

GB = 1e9


@st.composite
def task_streams(draw):
    """A random task stream over a small model universe plus a capacity."""
    capacity = draw(st.floats(4.0, 32.0)) * GB
    n_models = draw(st.integers(1, 5))
    models = {}
    for i in range(n_models):
        weights = draw(st.floats(0.1, 2.0)) * GB
        working = weights + draw(st.floats(0.5, 2.0)) * GB
        models[f"m{i}"] = (weights, min(working, capacity))
    stream = draw(
        st.lists(
            st.sampled_from(sorted(models)), min_size=1, max_size=40
        )
    )
    return capacity, models, stream


@given(data=task_streams())
@settings(max_examples=60, deadline=None)
def test_capacity_never_exceeded(data):
    capacity, models, stream = data
    mgr = GpuMemoryManager(capacity_bytes=capacity)
    for name in stream:
        weights, working = models[name]
        mgr.begin_task(name, working)
        assert mgr.used_bytes <= capacity + 1e-6
        mgr.end_task(retain_bytes=weights)
        assert mgr.retained_bytes <= capacity + 1e-6


@given(data=task_streams())
@settings(max_examples=60, deadline=None)
def test_hit_implies_prior_run(data):
    """A retention hit can only happen for a model that ran before."""
    capacity, models, stream = data
    mgr = GpuMemoryManager(capacity_bytes=capacity)
    seen: set[str] = set()
    for name in stream:
        weights, working = models[name]
        decision = mgr.begin_task(name, working)
        if decision.retained_hit:
            assert name in seen
        seen.add(name)
        mgr.end_task(retain_bytes=weights)


@given(data=task_streams())
@settings(max_examples=60, deadline=None)
def test_immediate_rerun_always_hits_when_it_fits(data):
    """Running the same model twice back-to-back hits iff it was retained
    (it always fits: retained weights ≤ working set ≤ capacity)."""
    capacity, models, stream = data
    mgr = GpuMemoryManager(capacity_bytes=capacity)
    prev = None
    for name in stream:
        weights, working = models[name]
        decision = mgr.begin_task(name, working)
        if prev == name:
            assert decision.retained_hit
        mgr.end_task(retain_bytes=weights)
        prev = name


@given(data=task_streams())
@settings(max_examples=40, deadline=None)
def test_hits_counted_consistently(data):
    capacity, models, stream = data
    mgr = GpuMemoryManager(capacity_bytes=capacity)
    hits = 0
    for name in stream:
        weights, working = models[name]
        if mgr.begin_task(name, working).retained_hit:
            hits += 1
        mgr.end_task(retain_bytes=weights)
    assert mgr.hits == hits
    assert mgr.misses == len(stream) - hits
    if stream:
        assert mgr.hit_rate == hits / len(stream)


@st.composite
def sequences(draw):
    """A GPU's shipped sequence as (model, working, retain) tasks, with
    runs of one task kind, non-integer byte sizes and, when ``tight``,
    a capacity barely above the largest working set, so evictions
    happen at the start and at the end of tasks."""
    n_models = draw(st.integers(1, 5))
    models = {}
    for i in range(n_models):
        weights = draw(st.floats(0.1, 2.0)) * GB + 0.37
        models[f"m{i}"] = (weights, weights + draw(st.floats(0.01, 2.0)) * GB)
    largest = max(working for _, working in models.values())
    if draw(st.booleans()):  # tight
        capacity = largest * draw(st.floats(1.0, 1.5))
    else:
        capacity = largest + draw(st.floats(0.0, 30.0)) * GB
    runs = draw(st.lists(
        st.tuples(st.sampled_from(sorted(models)), st.integers(1, 4)),
        min_size=1, max_size=20,
    ))
    tasks = [
        (name, models[name][1], models[name][0])
        for name, length in runs for _ in range(length)
    ]
    return capacity, tasks


def manager_hits(capacity, tasks, *, retention_enabled, flush_at=None):
    """Hits of a :class:`GpuMemoryManager` driven task by task."""
    mgr = GpuMemoryManager(capacity_bytes=capacity,
                           retention_enabled=retention_enabled)
    hits = []
    for i, (name, working, weights) in enumerate(tasks):
        if i == flush_at:
            mgr.flush()
        hits.append(mgr.begin_task(name, working).retained_hit)
        mgr.end_task(retain_bytes=weights)
    return hits


@given(data=sequences(), retention_enabled=st.booleans(), cut=st.data())
@settings(max_examples=100, deadline=None)
def test_sequence_pass_matches_the_manager(data, retention_enabled, cut):
    """The one-pass rule gives the manager's hits; a flush (a crash
    wiping the device) is a fresh pass from that task on."""
    capacity, tasks = data
    kw = {"retention_enabled": retention_enabled}
    assert sequence_hits(capacity, tasks, **kw) == manager_hits(
        capacity, tasks, **kw
    )
    at = cut.draw(st.integers(0, len(tasks)))
    assert (
        sequence_hits(capacity, tasks[:at], **kw)
        + sequence_hits(capacity, tasks[at:], **kw)
    ) == manager_hits(capacity, tasks, flush_at=at, **kw)
