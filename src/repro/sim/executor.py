"""Per-GPU replay state for the cluster simulator's event loop.

An executor is the passive state of one GPU; the loop in
:mod:`repro.sim.simulator` decides when it starts, finishes and crashes.
It holds the ordered task sequence the scheduler shipped (Fig. 9), as
plan row ids, with a head index, the attempt in flight, the restart
window after a crash and the GPU's straggler windows. Retention hits and
switch costs are not executor state: the loop derives them from the
sequence before it starts, and again from the queue head after a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.gpu import GPUSpec
from ..cluster.node import GPUDevice


@dataclass(slots=True)
class GpuExecutor:
    """State of one GPU during a replay."""

    gpu_id: int
    node_id: int
    spec: GPUSpec
    #: plan rows in the order the GPU runs them
    queue: list[int]
    #: (start, end, factor) straggler windows on this GPU, in input order
    slowdowns: list[tuple[float, float, float]]
    #: index of the next task to start; an abort steps it back
    head: int = 0
    #: (row, start, switch, retained hit, train time) in flight
    running: tuple | None = None
    #: attempts started; stamps each compute completion so a crashed
    #: attempt's completion is recognised as stale
    serial: int = 0
    #: a transient failure takes the GPU down until its restart check
    down_until: float = 0.0

    @property
    def done(self) -> bool:
        return self.running is None and self.head == len(self.queue)


def build_executors(
    devices: list[GPUDevice],
    sequences: dict[int, list[int]],
    *,
    slowdowns: list[tuple[float, float, int, float]] = (),
) -> list[GpuExecutor]:
    """One executor per device, in device order, loaded with its
    sequence of plan rows."""
    windows: dict[int, list[tuple[float, float, float]]] = {}
    for start, end, gpu, factor in slowdowns:
        windows.setdefault(gpu, []).append((start, end, factor))
    return [
        GpuExecutor(
            gpu_id=d.gpu_id,
            node_id=d.node_id,
            spec=d.spec,
            queue=sequences.get(d.gpu_id, []),
            slowdowns=windows.get(d.gpu_id, []),
        )
        for d in devices
    ]
