"""Span tracing for the benchmark's traced run.

Nothing here ships with the program: :func:`install` wraps the methods
of every class defined in the layer packages of ``repro`` in place, and
:meth:`Installation.restore` puts each original class and module
attribute back.  The untraced run never calls :func:`install`.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory, in flat integer arrays, and written out when the run
ends (:meth:`Tracer.dump`).  A span's name is the dotted path of the
wrapped function below ``repro`` (``nvm.device.NVMDevice.flush``); its
first component is the layer.  Self time is a span's duration minus the
part of it covered by its children (:func:`fold`).

What gets wrapped, per class defined in a layer module:

* every public function (name without a leading underscore);
* ``__get__``/``__set__`` (persistent-field descriptors) and
  ``__enter__``/``__exit__`` (transaction scopes), which is how the
  layers above reach the heap and the engines;
* callbacks handed to ``EventSimulator.schedule``/``at``, named after
  the callback's own layer, so work the simulator dispatches is charged
  to the layer that owns it and not to ``sim``.

Generator and coroutine functions are left alone: a wrapper would time
only their creation.  Their bodies run inside whatever span iterates or
awaits them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import time
from array import array
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the layers measured, each a package of ``repro``; ``workload`` is the
#: YCSB/TPC-C application code the benchmark drives
LAYERS = (
    "nvm",
    "heap",
    "tx",
    "kvstore",
    "runtime",
    "sim",
    "replication",
    "cluster",
    "serve",
    "integrity",
    "workload",
)

#: package of each layer, where it differs from the layer name
_PACKAGE = {"workload": "workloads"}

#: spans the benchmark opens itself; their self time is the harness cost
HARNESS = "harness"

_DUNDERS = frozenset({"__get__", "__set__", "__enter__", "__exit__"})


class Tracer:
    """In-memory span store with a stack of open spans.

    Only synchronous code is wrapped, so spans nest strictly and one
    stack is enough; the serving workload's coroutines interleave only
    between wrapped calls.
    """

    def __init__(self, capacity: int = 2 << 20):
        self.capacity = capacity
        self.active = False
        self.op = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self._stack: List[int] = []
        #: index of the span :meth:`recording` opened
        self.root = -1
        #: spans not recorded because the store was full
        self.dropped = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> int:
        """Record the start of a span; returns its index (-1 if full)."""
        if len(self.start) >= self.capacity:
            self.dropped += 1
            return -1
        idx = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def recording(self, name: str = HARNESS + ".measure"):
        """Record spans for the duration, under one root span."""
        self.active = True
        idx = self.root = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)
            self.active = False

    @property
    def nearly_full(self) -> bool:
        """Past the share of capacity after which a phase should stop
        taking new work, so that no span of work in progress is dropped."""
        return len(self.start) >= self.capacity * 0.8

    def dump(self, directory: str, stem: str) -> str:
        """Write the spans as five little-endian int64/int32 arrays and a
        JSON header naming them; returns the header's path."""
        os.makedirs(directory, exist_ok=True)
        columns = {
            "name": self.name_of,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op_of,
        }
        header = {"spans": len(self), "names": self.names, "columns": {}}
        for column, data in columns.items():
            path = os.path.join(directory, f"{stem}.{column}.bin")
            with open(path, "wb") as fh:
                data.tofile(fh)
            header["columns"][column] = {
                "file": os.path.basename(path),
                "typecode": data.typecode,
                "itemsize": data.itemsize,
            }
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
        return path


def fold(tracer: Tracer) -> Dict[str, Dict[str, int]]:
    """Per-name totals of the recorded spans: ``{"calls", "total_ns",
    "self_ns"}``.

    ``self_ns`` is each span's duration minus its children's durations;
    children never outlive their parent because wrapped code is
    synchronous.  Spans still open (end 0) are skipped.
    """
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    child_ns = array("q", bytes(8 * len(starts)))
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0 and end:
            child_ns[parent] += end - start
    rows = [[0, 0, 0] for _ in tracer.names]
    for nid, start, end, child in zip(tracer.name_of, starts, ends, child_ns):
        if end:
            row = rows[nid]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
    return {
        tracer.names[nid]: {"calls": calls, "total_ns": total, "self_ns": self_ns}
        for nid, (calls, total, self_ns) in enumerate(rows)
        if calls
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_layer(folded: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Sum :func:`fold` rows by layer (the name's first component)."""
    out: Dict[str, Dict[str, int]] = {}
    for name, row in folded.items():
        acc = out.setdefault(layer_of(name), {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key in acc:
            acc[key] += row[key]
    return out


def child_calls(tracer: Tracer, parent_layer: str, child_layer: str) -> int:
    """Spans of ``child_layer`` whose direct parent is a ``parent_layer`` span."""
    layers = [layer_of(name) for name in tracer.names]
    name_of = tracer.name_of
    count = 0
    for nid, parent in zip(name_of, tracer.parent):
        if parent >= 0 and layers[nid] == child_layer and layers[name_of[parent]] == parent_layer:
            count += 1
    return count


def outermost_ns(tracer: Tracer, match: Callable[[str], bool]) -> int:
    """Total duration of the spans whose name matches, not counting those
    nested directly in another matching span (a subclass's call to the
    method it overrides)."""
    hit = [match(name) for name in tracer.names]
    name_of = tracer.name_of
    total = 0
    for nid, start, end, parent in zip(name_of, tracer.start, tracer.end, tracer.parent):
        if hit[nid] and end and (parent < 0 or not hit[name_of[parent]]):
            total += end - start
    return total


# -- installation ------------------------------------------------------------


def wrap(fn: Callable, tracer: Tracer, nid: int) -> Callable:
    """``fn`` recording a span named ``tracer.names[nid]`` while the
    tracer is active."""

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__wrapped__ = fn
    return traced


def _plain(fn) -> bool:
    return (
        inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and not inspect.iscoroutinefunction(fn)
        and not inspect.isasyncgenfunction(fn)
    )


def _wants(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def _layer_of_module(module: str) -> Optional[str]:
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    for layer in LAYERS:
        if parts[1] == _PACKAGE.get(layer, layer):
            return layer
    return None


def span_name(module: str, qualname: str) -> str:
    """``repro.nvm.device`` + ``NVMDevice.flush`` -> ``nvm.device.NVMDevice.flush``
    (``workloads`` is spelled as its layer, ``workload``)."""
    layer = _layer_of_module(module)
    rest = module.split(".")[2:]
    return ".".join([layer or HARNESS, *rest, qualname])


def layer_modules() -> List[object]:
    """Every module of every layer package, imported."""
    modules = []
    for layer in LAYERS:
        pkg = importlib.import_module("repro." + _PACKAGE.get(layer, layer))
        modules.append(pkg)
        for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def _skip_class(cls: type) -> bool:
    return (
        issubclass(cls, (BaseException, Enum))
        or (issubclass(cls, tuple) and hasattr(cls, "_fields"))
    )


class Installation:
    """The attributes :func:`install` replaced, for :meth:`restore`."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, modules: Optional[Sequence[object]] = None) -> Installation:
    """Wrap the entry points of every class and module function in
    ``modules`` (default: :func:`layer_modules`).  Wrappers record only
    while ``tracer.active``; call :meth:`Installation.restore` after."""
    inst = Installation()
    try:
        _install(tracer, modules if modules is not None else layer_modules(), inst)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install(tracer: Tracer, modules: Sequence[object], inst: Installation) -> None:
    seen = set()
    for module in modules:
        mod_name = module.__name__
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != mod_name:
                continue  # imported from elsewhere: wrapped at its home
            if inspect.isclass(value):
                if value in seen or _skip_class(value):
                    continue
                seen.add(value)
                _install_class(tracer, value, inst)
            elif _plain(value) and _wants(attr):
                nid = tracer.name_id(span_name(mod_name, value.__qualname__))
                inst.replace(module, attr, wrap(value, tracer, nid))
    _install_scheduler_hook(tracer, inst)


def _install_class(tracer: Tracer, cls: type, inst: Installation) -> None:
    for attr, raw in list(vars(cls).items()):
        if not _wants(attr):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            if not _plain(fn):
                continue
            nid = tracer.name_id(span_name(cls.__module__, fn.__qualname__))
            inst.replace(cls, attr, type(raw)(wrap(fn, tracer, nid)))
        elif _plain(raw):
            nid = tracer.name_id(span_name(cls.__module__, raw.__qualname__))
            inst.replace(cls, attr, wrap(raw, tracer, nid))


def _callback_name(fn: Callable) -> str:
    target = getattr(fn, "__func__", fn)
    module = getattr(target, "__module__", None) or ""
    qualname = getattr(target, "__qualname__", None) or type(target).__name__
    return span_name(module, qualname)


def _install_scheduler_hook(tracer: Tracer, inst: Installation) -> None:
    from repro.sim.events import EventSimulator

    schedule = EventSimulator.__dict__["schedule"]
    names: Dict[object, int] = {}

    def hooked(self, delay, fn, *args):
        if tracer.active:
            # keyed by code object: a lambda is a new function per call
            target = getattr(fn, "__func__", fn)
            key = getattr(target, "__code__", target)
            nid = names.get(key)
            if nid is None:
                nid = names[key] = tracer.name_id(_callback_name(fn))
            fn = wrap(fn, tracer, nid)
        return schedule(self, delay, fn, *args)

    hooked.__wrapped__ = schedule
    # ``at`` delegates to ``schedule``, so one hook covers both
    inst.replace(EventSimulator, "schedule", hooked)
