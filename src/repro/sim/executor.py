"""Per-GPU replay state for the cluster simulator's event loop.

An executor is the passive state of one GPU; the loop in
:mod:`repro.sim.simulator` decides when it starts, finishes and crashes.
It holds the ordered task sequence the scheduler shipped (Fig. 9), as
plan row ids, with a head index, the attempt in flight, a
:class:`~repro.switching.memory.GpuMemoryManager`, the previous job (which
decides the switch cost), the restart window after a crash, the GPU's
straggler windows and the cross-job switch costs already computed for its
device model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.gpu import GPUSpec
from ..cluster.node import GPUDevice
from ..switching.memory import GpuMemoryManager


@dataclass(slots=True)
class GpuExecutor:
    """State of one GPU during a replay."""

    gpu_id: int
    node_id: int
    spec: GPUSpec
    #: plan rows in the order the GPU runs them
    queue: list[int]
    memory: GpuMemoryManager
    #: (start, end, factor) straggler windows on this GPU, in input order
    slowdowns: list[tuple[float, float, float]]
    #: cross-job switch cost per (model, retained hit), with the metric
    #: writes computing it made; shared by every executor of the same
    #: device model
    switch_costs: dict[tuple[str, bool], tuple[float, tuple]]
    #: index of the next task to start; an abort steps it back
    head: int = 0
    #: (row, start, switch, retained hit, train time) in flight
    running: tuple | None = None
    #: attempts started; stamps each compute completion so a crashed
    #: attempt's completion is recognised as stale
    serial: int = 0
    prev_job: int | None = None
    #: a transient failure takes the GPU down until its restart check
    down_until: float = 0.0

    @property
    def done(self) -> bool:
        return self.running is None and self.head == len(self.queue)


def build_executors(
    devices: list[GPUDevice],
    sequences: dict[int, list[int]],
    *,
    retention_enabled: bool,
    slowdowns: list[tuple[float, float, int, float]] = (),
) -> list[GpuExecutor]:
    """One executor per device, in device order, loaded with its
    sequence of plan rows."""
    tables: dict[GPUSpec, dict] = {}
    windows: dict[int, list[tuple[float, float, float]]] = {}
    for start, end, gpu, factor in slowdowns:
        windows.setdefault(gpu, []).append((start, end, factor))
    return [
        GpuExecutor(
            gpu_id=d.gpu_id,
            node_id=d.node_id,
            spec=d.spec,
            queue=sequences.get(d.gpu_id, []),
            memory=GpuMemoryManager(
                capacity_bytes=d.spec.memory_bytes,
                retention_enabled=retention_enabled,
            ),
            slowdowns=windows.get(d.gpu_id, []),
            switch_costs=tables.setdefault(d.spec, {}),
        )
        for d in devices
    ]
