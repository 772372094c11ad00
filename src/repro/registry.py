"""One generic registry for every pluggable component family.

Codecs, workloads, predictors, decompression strategies and experiment
executors were historically registered through four
hand-rolled dict-plus-helpers mechanisms.  They now all share this one
:class:`Registry`, which gives every family the same three operations:

* decorator registration (``@REGISTRY.register("name")``) or direct
  :meth:`Registry.add` for values that are not classes/functions;
* name-indexed lookup with a uniform "unknown X; available: [...]"
  error;
* listing (``names()``), used by ``repro list`` and the CLI choices.

Every :class:`Registry` announces itself in the module-level
:data:`REGISTRIES` catalog keyed by its plural kind name, so generic
tooling (the CLI, the spec validator) can enumerate all component
families without knowing them individually.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

#: Catalog of every registry in the process, keyed by plural kind name
#: ("codecs", "workloads", ...).  Populated by Registry.__init__.
REGISTRIES: Dict[str, "Registry"] = {}


class Registry:
    """A name-indexed family of pluggable components.

    ``kind`` is the plural family name used in the global catalog;
    ``item`` is the singular used in error messages (defaults to
    ``kind`` minus a trailing "s").  ``catalog=False`` keeps the
    registry private (ad-hoc/test registries must not show up in
    ``repro list``); catalogued kinds must be unique per process.
    """

    def __init__(
        self,
        kind: str,
        item: Optional[str] = None,
        catalog: bool = True,
    ) -> None:
        self.kind = kind
        if item is None:
            item = kind[:-1] if kind.endswith("s") else kind
        self.item = item
        self._entries: Dict[str, Any] = {}
        self._order: List[str] = []
        if catalog:
            if kind in REGISTRIES:
                raise ValueError(
                    f"a registry of kind '{kind}' already exists; "
                    f"pass catalog=False for a private registry"
                )
            REGISTRIES[kind] = self

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str) -> Callable[[Any], Any]:
        """Decorator: register the decorated class/factory under ``name``.

        The decorated object gains/keeps a ``name`` attribute when it has
        one (codec and policy classes use it as their registry key).
        """

        def decorate(value: Any) -> Any:
            if hasattr(value, "name"):
                try:
                    value.name = name
                except (AttributeError, TypeError):
                    pass
            self.add(name, value)
            return value

        return decorate

    def add(self, name: str, value: Any) -> None:
        """Register ``value`` under ``name`` (idempotent re-registration
        replaces the entry, so test doubles can override)."""
        if name not in self._entries:
            self._order.append(name)
        self._entries[name] = value

    def remove(self, name: str) -> None:
        """Unregister ``name`` (no-op when absent) — for test doubles
        and ablation components that should not outlive their scope."""
        if name in self._entries:
            del self._entries[name]
            self._order.remove(name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> Any:
        """The registered value (class/factory/constant) for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.item} '{name}'; "
                f"available: {self.names()}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call the registered factory for ``name`` with the given args."""
        factory = self.get(name)
        if not callable(factory):
            raise TypeError(
                f"{self.item} '{name}' is not constructible "
                f"(registered value: {factory!r})"
            )
        return factory(*args, **kwargs)

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------

    def names(self, sort: bool = True) -> List[str]:
        """Registered names (sorted by default, else registration order)."""
        return sorted(self._order) if sort else list(self._order)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


def all_registries() -> Dict[str, Registry]:
    """The catalog of registries defined so far (import-order keyed)."""
    return dict(REGISTRIES)


def catalog_signature() -> Dict[str, List[str]]:
    """A stable snapshot of every catalogued family's member names.

    Used by :mod:`repro.store.fingerprint` to salt cell fingerprints:
    registering a new codec/strategy/executor changes process behaviour
    without changing any repo source file, so the component catalog must
    participate in cache invalidation.  Keys and name lists are sorted,
    so the snapshot is canonical for a given set of registrations.
    """
    return {
        kind: registry.names()
        for kind, registry in sorted(REGISTRIES.items())
    }
