"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule whenever any one of them is imported: loading
``repro.trace.events`` first runs ``repro/trace/__init__.py``.  Instead,
a package lists which submodule defines each public name and imports
that submodule only when the name is first read::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.trace.events": ("KINDS", "TraceEvent"),
        ...
    })

``from package import Name``, ``package.Name`` and ``from package
import *`` all keep working; each pays only for the submodule it needs.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``modules`` maps each submodule to the public names it defines.  A
    resolved name is stored on the package, so later reads are plain
    attribute lookups.
    """
    owner = {name: module for module, names in modules.items()
             for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
