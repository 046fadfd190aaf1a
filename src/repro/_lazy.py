"""Lazy re-exports (PEP 562) for the package ``__init__`` modules.

A package imports the modules its front doors run at the top of its
``__init__`` and lists the rest in a table handed to
:func:`lazy_exports`: such a module is imported the first time one of
its names is read from the package, so ``import repro`` pays nothing
for the decision procedures, persistence or the daemon until a caller
asks for them.  A name keeps its defining module and its identity, and
stays in the package's ``__all__``.  A module listed here must not
register anything when imported: nothing imports it until its name is
read.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; ``table`` maps a module, relative to the package, to
    the names the package re-exports from it.

    The module is imported on the first read of one of its names, and
    the value is stored in ``namespace``, so every later read is a plain
    attribute lookup.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
