"""The generic plugin registry behind every ``repro.api.registry`` table.

A :class:`Registry` is an insertion-ordered mapping from names to
entries (factories, builders, parameter objects) with uniform
semantics across the whole code base:

* duplicate registration without ``override=True`` is an error — a
  plugin cannot silently shadow a built-in;
* unknown names raise the registry's *domain* error class (e.g.
  :class:`~repro.scenarios.schedule.ScenarioError` for scenarios,
  ``ValueError`` for architectures), so existing exception contracts
  survive the move onto the shared registry;
* an optional *resolver* hook serves parameterised name families
  (``skewed3``, ``skewed_hotspot2``) that cannot be enumerated.

This module deliberately imports nothing from the rest of ``repro`` so
any layer — traffic patterns, scenario library, store backends, the
architecture table — can build on it without import cycles.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

__all__ = ["Registry", "RegistryError", "canonical_json", "lazy_exports"]


def canonical_json(obj) -> str:
    """The one form behind every content hash: sorted keys, no
    whitespace, repr-exact floats. Store keys and record lines,
    config and scenario fingerprints, job IDs and dataset digests all
    hash (or write) this string, so equal values are equal bytes on
    every machine.

    >>> canonical_json({"b": 0.1, "a": [1, None]})
    '{"a":[1,null],"b":0.1}'
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def lazy_exports(module_name: str, module_globals: dict, exports: dict):
    """Build a module's PEP 562 ``(__getattr__, __dir__)`` pair.

    *exports* maps an attribute name to ``(module, attribute)``; an
    attribute of ``None`` yields the imported module itself. Resolved
    values are cached in *module_globals*, so each lazy import runs at
    most once. Shared by ``repro`` and ``repro.api`` so the two
    packages' lazy-loading stays one implementation::

        __getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
    """

    def __getattr__(name: str):
        try:
            target, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        import importlib

        module = importlib.import_module(target)
        value = module if attribute is None else getattr(module, attribute)
        module_globals[name] = value
        return value

    def __dir__():
        return sorted(set(module_globals) | set(exports))

    return __getattr__, __dir__


class RegistryError(KeyError):
    """Unknown or duplicate name in a :class:`Registry`.

    Subclasses :class:`KeyError` (a registry is a mapping) but renders
    its message plainly instead of as a quoted key.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


#: Sentinel distinguishing ``register(name)`` (decorator form) from
#: ``register(name, value)`` (direct form).
_MISSING = object()


class Registry:
    """Named, insertion-ordered plugin table.

    >>> colors = Registry("color")
    >>> colors.register("red", "#f00")
    '#f00'
    >>> colors.get("red")
    '#f00'
    >>> colors.names()
    ('red',)
    >>> "red" in colors
    True

    Decorator form registers the decorated object itself:

    >>> @colors.register("make_blue")
    ... def make_blue():
    ...     return "#00f"
    >>> colors.get("make_blue")()
    '#00f'
    """

    def __init__(
        self,
        kind: str,
        *,
        error: type = RegistryError,
        resolver: Optional[Callable[[Hashable], Optional[Any]]] = None,
    ) -> None:
        """Create a registry of *kind* (used in error messages).

        ``error`` is the exception class raised for unknown/duplicate
        names; ``resolver`` is tried on lookup misses and may return an
        entry for parameterised names (or ``None`` to decline).
        """
        self.kind = kind
        self._error = error
        self._resolver = resolver
        self._entries: Dict[Hashable, Any] = {}

    # -- registration -------------------------------------------------------
    def register(
        self, name: Hashable, value: Any = _MISSING, *, override: bool = False
    ) -> Any:
        """Register *value* under *name*; returns the value.

        Without *value* this returns a decorator that registers the
        decorated object. Re-registering an existing name raises the
        registry's error class unless ``override=True`` — overriding is
        an explicit act, never an accident.
        """
        if value is _MISSING:
            def decorate(obj: Any) -> Any:
                self.register(name, obj, override=override)
                return obj

            return decorate
        if name in self._entries and not override:
            raise self._error(
                f"{self.kind} {name!r} already registered "
                f"(pass override=True to replace it)"
            )
        self._entries[name] = value
        return value

    def unregister(self, name: Hashable) -> None:
        """Remove *name* (unknown names raise the registry's error)."""
        if name not in self._entries:
            raise self._error(
                f"unknown {self.kind} {name!r}; registered: "
                f"{self._known() or '(none)'}"
            )
        del self._entries[name]

    # -- lookup -------------------------------------------------------------
    def get(self, name: Hashable) -> Any:
        """Entry registered under *name*.

        Falls back to the resolver for parameterised families; raises
        the registry's error class, naming the registered entries, when
        neither matches.
        """
        try:
            return self._entries[name]
        except KeyError:
            pass
        if self._resolver is not None:
            value = self._resolver(name)
            if value is not None:
                return value
        raise self._error(
            f"unknown {self.kind} {name!r}; registered: "
            f"{self._known() or '(none)'}"
        )

    def names(self) -> Tuple[Hashable, ...]:
        """Registered names in registration order (resolver families
        are open-ended and not listed)."""
        return tuple(self._entries)

    def items(self) -> Tuple[Tuple[Hashable, Any], ...]:
        """``(name, entry)`` pairs in registration order."""
        return tuple(self._entries.items())

    def _known(self) -> str:
        return ", ".join(repr(n) for n in self._entries)

    def __contains__(self, name: Hashable) -> bool:
        if name in self._entries:
            return True
        if self._resolver is None:
            return False
        try:
            return self._resolver(name) is not None
        except Exception:
            return False

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self._entries)!r})"
