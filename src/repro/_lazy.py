"""Lazy package facades (PEP 562): a public name loads its module on use.

A facade lists, per source module, the names it re-exports; nothing is
imported until one of them is read. ``import repro`` then costs one
module, and a run loads only the subpackages it touches.
"""

from __future__ import annotations

from importlib import import_module


def lazy_facade(namespace: dict, exports: dict[str, str]):
    """``__getattr__``, ``__dir__`` and ``__all__`` for a package facade.

    *exports* maps a module, relative to the package of *namespace*, to
    the space-separated names it provides; the key ``"."`` lists
    subpackages or submodules exported as themselves. A name is imported
    on its first read and cached in *namespace*, so later reads are
    plain globals.
    """
    package = namespace["__package__"]
    table = {
        name: module for module, names in exports.items()
        for name in names.split()
    }

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        if module == ".":
            value = import_module(f".{name}", package)
        else:
            value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)
