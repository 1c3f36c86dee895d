"""Additive counters, declared once per class.

A counter class is a dataclass deriving from :class:`Counters`.  Every
field whose default is an ``int`` (not a ``bool``) is a counter; the
counters come first in the field list and start at zero.  From that
one declaration the base derives the whole protocol every accounting
surface speaks:

* ``snapshot()`` — an independent copy;
* ``delta(since)`` — field-wise ``self - since``;
* ``reset()`` — every counter back to zero, in place;
* ``merge(parts)`` (classmethod) — field-wise sum, folded in order;
* ``as_dict()`` — ``{name: value}`` in declaration order.

Adding a counter is one line in its class; no method, merge helper or
report can leave it out.  The methods are generated as source once per
class, on first use, and installed on that class, so the hot
``snapshot``/``delta`` pair (three snapshots and two deltas per
simulated transaction) runs as positional construction with no
per-call field walk.  A class that carries non-counter state (the
per-group partition of :class:`~repro.sim.network.NetStats`) overrides
a method and reaches the derived one through ``super(Class, ...)``:
zero-argument ``super()`` does not work in a ``slots=True`` dataclass.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Tuple, Type, TypeVar

C = TypeVar("C", bound="Counters")

_DERIVED = ("snapshot", "delta", "reset", "merge", "as_dict")


class Counters:
    """Base of every counter dataclass; see the module docstring."""

    __slots__ = ()

    def snapshot(self: C) -> C:
        """An independent copy of the current counters."""
        return _derive(type(self))["snapshot"](self)

    def delta(self: C, since: C) -> C:
        """Counters accumulated since the ``since`` snapshot."""
        return _derive(type(self))["delta"](self, since)

    def reset(self) -> None:
        """Zero every counter in place."""
        _derive(type(self))["reset"](self)

    @classmethod
    def merge(cls: Type[C], parts: Iterable[C]) -> C:
        """Sum counter snapshots from independent stacks, in order."""
        return _derive(cls)["merge"](cls, parts)

    def as_dict(self) -> Dict[str, Any]:
        """``{counter: value}`` in declaration order."""
        return _derive(type(self))["as_dict"](self)


def counter_names(cls: type) -> Tuple[str, ...]:
    """The counters ``cls`` declares, in declaration order.

    Raises ``TypeError`` when a counter does not start at zero or
    follows a non-counter field (derived constructors are positional).
    """
    names = []
    for index, f in enumerate(dataclasses.fields(cls)):
        if not isinstance(f.default, int) or isinstance(f.default, bool):
            continue
        if f.default != 0 or index != len(names):
            raise TypeError(
                f"{cls.__name__}.{f.name}: counters start at 0 and precede other fields"
            )
        names.append(f.name)
    if not names:
        raise TypeError(f"{cls.__name__} declares no counters")
    return tuple(names)


def _derive(cls: type) -> Dict[str, Callable]:
    """Generate ``cls``'s protocol once; install what it does not override."""
    derived = cls.__dict__.get("_derived_counters")
    if derived is not None:
        return derived
    names = counter_names(cls)
    args = ", ".join(f"self.{n}" for n in names)
    diffs = ", ".join(f"self.{n} - since.{n}" for n in names)
    lines = [
        "def snapshot(self):",
        f"    return cls({args})",
        "def delta(self, since):",
        f"    return cls({diffs})",
        "def reset(self):",
        *[f"    self.{n} = 0" for n in names],
        "def merge(cls, parts):",
        f"    {' = '.join(names)} = 0",
        "    for part in parts:",
        *[f"        {n} += part.{n}" for n in names],
        f"    return cls({', '.join(names)})",
        "def as_dict(self):",
        "    return {" + ", ".join(f"{n!r}: self.{n}" for n in names) + "}",
    ]
    namespace: Dict[str, Any] = {"cls": cls}
    exec("\n".join(lines), namespace)
    derived = {name: namespace[name] for name in _DERIVED}
    for name, fn in derived.items():
        if name not in cls.__dict__:
            setattr(cls, name, classmethod(fn) if name == "merge" else fn)
    cls._derived_counters = derived
    return derived


def forward_counters(counters: type) -> Callable[[type], type]:
    """Class decorator: a read-only property per counter of ``counters``
    on the decorated class, reading ``self.counters.<counter>``."""

    def decorate(owner: type) -> type:
        for name in counter_names(counters):
            setattr(owner, name, property(attrgetter(f"counters.{name}")))
        return owner

    return decorate
