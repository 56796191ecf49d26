"""Public names a package resolves on first use (PEP 562).

``python -m repro watch`` imports ``repro``, ``repro.core`` and
``repro.runtime`` on its way to the monitor; their public names stay
importable from them, but each is imported only when something asks for
it, so ``watch`` loads no checker or scheduler.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    globals are *namespace*: each name of *exports* is read from the
    module it maps to on first use, then kept in *namespace*."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
