"""Speculative GPU memory management (§4).

Hare knows each GPU's task sequence in advance (the schedule is offline), so
instead of wiping a task's memory on completion it *retains* model weights
that a later task on the same GPU will reuse. The paper's policy is a simple
greedy: give the next task's working set absolute priority, then keep the
models of the most recently completed tasks for as long as they fit.

:class:`GpuMemoryManager` is the runtime state machine: it enforces
capacity, implements the greedy retention policy, and reports whether each
task switch was a *retention hit* (model already resident → the transfer is
skipped entirely). :func:`sequence_hits` is the same rule over a whole
shipped sequence at once, which is how the simulator applies it: a GPU's
hits depend only on its sequence until a crash wipes the device.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from ..core.errors import MemoryModelError


@dataclass(frozen=True, slots=True)
class SwitchDecision:
    """Outcome of preparing a GPU for a task."""

    model: str
    retained_hit: bool
    evicted: tuple[str, ...]


@dataclass(slots=True)
class GpuMemoryManager:
    """Tracks resident model weights and the active task's working set.

    Parameters
    ----------
    capacity_bytes:
        Usable device memory.
    retention_enabled:
        If False (DEFAULT / PIPESWITCH semantics) completed tasks are wiped
        and every switch transfers the model anew.
    """

    capacity_bytes: float
    retention_enabled: bool = True
    #: model name -> retained weight bytes, in completion order (oldest first)
    _retained: OrderedDict[str, float] = field(default_factory=OrderedDict)
    _active_model: str | None = None
    _active_bytes: float = 0.0
    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise MemoryModelError("capacity_bytes must be > 0")

    # ------------------------------------------------------------------
    @property
    def retained_bytes(self) -> float:
        return float(sum(self._retained.values()))

    @property
    def used_bytes(self) -> float:
        return self.retained_bytes + self._active_bytes

    def is_resident(self, model: str) -> bool:
        return model in self._retained

    # ------------------------------------------------------------------
    def begin_task(self, model: str, working_bytes: float) -> SwitchDecision:
        """Prepare the GPU for a task of *model* needing *working_bytes*.

        Returns whether the model weights were already resident (retention
        hit) and which retained models had to be evicted to make room. The
        next task always outranks retained models (the paper's priority
        rule), so eviction proceeds oldest-first until the task fits.
        """
        if self._active_model is not None:
            raise MemoryModelError(
                f"begin_task({model}) while {self._active_model} is active"
            )
        if working_bytes <= 0:
            raise MemoryModelError("working_bytes must be > 0")
        if working_bytes > self.capacity_bytes:
            raise MemoryModelError(
                f"task of {model} needs {working_bytes:.3e} B but GPU has "
                f"{self.capacity_bytes:.3e} B"
            )
        hit = False
        if self.retention_enabled and model in self._retained:
            # The retained weights become part of the task's working set.
            self._retained.pop(model)
            hit = True
        evicted: list[str] = []
        while self.retained_bytes + working_bytes > self.capacity_bytes:
            if not self._retained:
                raise MemoryModelError(
                    "capacity accounting error: nothing left to evict"
                )  # pragma: no cover - guarded by the fit check above
            victim, _ = self._retained.popitem(last=False)  # oldest first
            evicted.append(victim)
        self._active_model = model
        self._active_bytes = working_bytes
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return SwitchDecision(
            model=model, retained_hit=hit, evicted=tuple(evicted)
        )

    def end_task(self, *, retain_bytes: float | None = None) -> None:
        """Complete the active task, retaining its model weights if enabled.

        ``retain_bytes`` defaults to 0 when retention is disabled; when
        enabled the caller passes the model's weight bytes (activations are
        always freed — that is the early-cleaning part).
        """
        if self._active_model is None:
            raise MemoryModelError("end_task with no active task")
        model = self._active_model
        self._active_model = None
        self._active_bytes = 0.0
        if not self.retention_enabled or not retain_bytes:
            return
        if retain_bytes < 0:
            raise MemoryModelError("retain_bytes must be >= 0")
        # Re-inserting moves the model to the newest position.
        self._retained.pop(model, None)
        if retain_bytes <= self.capacity_bytes:
            self._retained[model] = float(retain_bytes)
            # Greedy: drop oldest retained models if we now exceed capacity.
            while self.retained_bytes > self.capacity_bytes:
                self._retained.popitem(last=False)

    def flush(self) -> None:
        """Wipe all retained state (e.g. when the executor restarts)."""
        if self._active_model is not None:
            raise MemoryModelError("cannot flush while a task is active")
        self._retained.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def sequence_hits(
    capacity_bytes: float,
    tasks: Iterable[tuple[str, float, float]],
    *,
    retention_enabled: bool = True,
) -> list[bool]:
    """The retention hit of each task of one GPU's sequence.

    *tasks* are ``(model, working_bytes, retain_bytes)`` in run order:
    what one :class:`GpuMemoryManager` reports when each task is begun
    and then ended with ``end_task(retain_bytes=...)``. This is that walk
    in one pass, with the class's checks, errors and ``sum()``-order
    capacity arithmetic, so the hits match it bit for bit.
    """
    if capacity_bytes <= 0:
        raise MemoryModelError("capacity_bytes must be > 0")
    #: model name -> retained weight bytes, oldest first
    retained: dict[str, float] = {}
    hits = []
    last, settled = None, False
    for task in tasks:
        if settled and task == last:
            # A repeat of a task that kept its model: a fixed point. The
            # model is resident and taken out; the rest is a suffix of
            # what fitted beside it when the predecessor began (a float
            # sum of a suffix is no larger), so nothing is evicted, and
            # putting the model back restores the predecessor's end.
            hits.append(True)
            continue
        model, working_bytes, retain_bytes = task
        # begin_task
        if working_bytes <= 0:
            raise MemoryModelError("working_bytes must be > 0")
        if working_bytes > capacity_bytes:
            raise MemoryModelError(
                f"task of {model} needs {working_bytes:.3e} B but GPU has "
                f"{capacity_bytes:.3e} B"
            )
        hit = retention_enabled and model in retained
        if hit:
            del retained[model]
        while float(sum(retained.values())) + working_bytes > capacity_bytes:
            if not retained:
                raise MemoryModelError(
                    "capacity accounting error: nothing left to evict"
                )  # pragma: no cover - guarded by the fit check above
            del retained[next(iter(retained))]
        hits.append(hit)
        # end_task; begin_task already took the model out of `retained`
        kept = retention_enabled and bool(retain_bytes)
        if kept:
            if retain_bytes < 0:
                raise MemoryModelError("retain_bytes must be >= 0")
            kept = retain_bytes <= capacity_bytes
            if kept:
                retained[model] = float(retain_bytes)
                while float(sum(retained.values())) > capacity_bytes:
                    del retained[next(iter(retained))]
        settled = kept
        last = task
    return hits
