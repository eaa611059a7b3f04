"""Decorator-based scheduler registry.

Scheduling schemes self-register with :func:`register`::

    @register("hare", summary="Algorithm 1: relaxation-ordered list scheduling")
    @dataclass(slots=True)
    class HareScheduler(Scheduler): ...

and callers construct them by key with :func:`create`, which validates
keyword arguments against the scheme's constructor and raises errors that
name the known schemes / accepted parameters instead of a bare ``KeyError``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Scheduler


class UnknownSchedulerError(KeyError):
    """Lookup of a scheme key that was never registered.

    Subclasses :class:`KeyError` so pre-registry call sites that caught
    ``KeyError`` keep working.
    """

    def __str__(self) -> str:  # KeyError repr()s its message; undo that
        return self.args[0]


@dataclass(frozen=True, slots=True)
class SchemeInfo:
    """One registered scheduling scheme."""

    key: str
    cls: type
    summary: str

    @property
    def parameters(self) -> list[str]:
        """Constructor keyword parameters the scheme accepts."""
        return [
            p.name
            for p in inspect.signature(self.cls).parameters.values()
            if p.kind
            in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]


_SCHEMES: dict[str, SchemeInfo] = {}


def register(key: str, *, summary: str = ""):
    """Class decorator: make a :class:`Scheduler` constructible by *key*."""
    normalized = key.lower()

    def decorate(cls):
        if normalized in _SCHEMES:
            raise ValueError(
                f"scheduler key {normalized!r} already registered by "
                f"{_SCHEMES[normalized].cls.__name__}"
            )
        _SCHEMES[normalized] = SchemeInfo(
            key=normalized, cls=cls, summary=summary or (cls.__doc__ or "").strip().splitlines()[0]
        )
        return cls

    return decorate


def available() -> list[str]:
    """Registered scheme keys, sorted."""
    return sorted(_SCHEMES)


def schemes() -> Iterator[SchemeInfo]:
    """Registered schemes in key order."""
    for key in available():
        yield _SCHEMES[key]


def info(name: str) -> SchemeInfo:
    """The :class:`SchemeInfo` for *name* (case-insensitive)."""
    key = name.lower()
    if key not in _SCHEMES:
        raise UnknownSchedulerError(
            f"unknown scheduler {name!r}; known schemes: "
            f"{', '.join(available())}"
        )
    return _SCHEMES[key]


def create(name: str, /, **kwargs) -> "Scheduler":
    """Construct the scheme registered under *name* (case-insensitive).

    Keyword arguments are validated against the scheme's constructor
    before instantiation, so a typo'd option fails with the accepted
    parameter list rather than a ``TypeError`` deep in ``__init__``.
    """
    scheme = info(name)
    accepted = scheme.parameters
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise TypeError(
            f"scheduler {scheme.key!r} got unknown option(s) "
            f"{', '.join(unknown)}; accepted: "
            f"{', '.join(accepted) or '(none)'}"
        )
    return scheme.cls(**kwargs)


def create_from_spec(spec: str | Mapping | "Scheduler") -> "Scheduler":
    """Flexible construction: a key, ``{"name": key, **kwargs}``, or an instance."""
    from .base import Scheduler

    if isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, str):
        return create(spec)
    if isinstance(spec, Mapping):
        options = dict(spec)
        try:
            name = options.pop("name")
        except KeyError:
            raise TypeError(
                "scheduler spec mapping needs a 'name' key"
            ) from None
        return create(name, **options)
    raise TypeError(f"cannot build a scheduler from {spec!r}")
