"""Exception hierarchy for the Hare reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries. Specific subclasses carry enough context
to be actionable (which constraint was violated, which task / GPU / job was
involved) without requiring the caller to parse message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or out-of-range settings."""


class UnknownGPUTypeError(ConfigurationError):
    """A GPU type name was requested that is not in the catalog."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown GPU type {name!r}; known types: {', '.join(known)}"
        )


class UnknownModelError(ConfigurationError):
    """A DML model name was requested that is not in the model zoo."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown model {name!r}; known models: {', '.join(known)}"
        )


class ScheduleValidationError(ReproError):
    """A schedule violates one of the Hare_Sched constraints (4)-(8).

    Attributes
    ----------
    constraint:
        The paper's constraint number that was violated (4..8), or 0 for
        structural problems (e.g. missing tasks).
    """

    def __init__(self, constraint: int, message: str) -> None:
        self.constraint = constraint
        super().__init__(f"constraint ({constraint}): {message}")


class InfeasibleProblemError(ReproError):
    """No feasible schedule exists (e.g. a job needs more GPUs than exist)."""


class GangDoesNotFitError(InfeasibleProblemError):
    """A crash left fewer GPUs alive than a gang job needs at once.

    ``cell`` names the cell whose GPUs were counted in a sharded run
    (``None`` on the flat path).
    """

    def __init__(
        self, job_id: int, scale: int, alive: int, *, cell: int | None = None
    ) -> None:
        self.job_id = job_id
        self.scale = scale
        self.alive = alive
        self.cell = cell
        where = "" if cell is None else f" in cell {cell}"
        super().__init__(
            f"job {job_id} needs {scale} simultaneous GPUs but only "
            f"{alive} are alive{where}"
        )


class SolverError(ReproError):
    """The relaxation solver failed to converge or returned an invalid point."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class MemoryModelError(ReproError):
    """The GPU memory manager was driven into an impossible state."""


class ProfileMissError(ReproError):
    """A (model, GPU) pair has no calibrated profile entry."""

    def __init__(self, model: str, gpu: str) -> None:
        self.model = model
        self.gpu = gpu
        super().__init__(f"no profile entry for model {model!r} on GPU {gpu!r}")
