import sys
import types

from tracing import (
    Tracer,
    by_layer,
    child_calls,
    fold,
    install,
    layer_modules,
    outermost_ns,
)


def _span(tracer, name, start, end, parent):
    tracer.name_of.append(tracer.name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.op_of.append(0)
    return len(tracer) - 1


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    root = _span(tracer, "kvstore.kv.KVStore.put", 0, 100, -1)
    heap = _span(tracer, "heap.heap.PersistentHeap.alloc", 10, 60, root)
    _span(tracer, "nvm.device.NVMDevice.write", 20, 30, heap)
    _span(tracer, "nvm.device.NVMDevice.write", 35, 50, heap)
    _span(tracer, "nvm.device.NVMDevice.flush", 70, 90, root)
    folded = fold(tracer)
    assert folded["kvstore.kv.KVStore.put"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert folded["heap.heap.PersistentHeap.alloc"]["self_ns"] == 25
    assert folded["nvm.device.NVMDevice.write"] == {"calls": 2, "total_ns": 25, "self_ns": 25}
    layers = by_layer(folded)
    assert layers["nvm"]["self_ns"] == 45
    assert sum(row["self_ns"] for row in layers.values()) == 100
    assert child_calls(tracer, "kvstore", "heap") == 1
    assert child_calls(tracer, "kvstore", "nvm") == 1


def test_open_spans_are_skipped_and_nested_matches_counted_once():
    tracer = Tracer()
    outer = _span(tracer, "tx.kamino.KaminoEngine.sync_pending", 0, 50, -1)
    _span(tracer, "tx.finegrained.FineGrainedKaminoEngine.sync_pending", 5, 45, outer)
    _span(tracer, "tx.kamino.KaminoEngine.sync_pending", 60, 70, -1)
    _span(tracer, "tx.kamino.KaminoEngine.commit", 80, 0, -1)  # never closed
    assert outermost_ns(tracer, lambda n: n.endswith(".sync_pending")) == 60
    assert "tx.kamino.KaminoEngine.commit" not in fold(tracer)


_FAKE_SOURCE = """
class Store:
    def put(self, key):
        return self.helper(key) + Store.scale(1) + Store.make()

    def helper(self, key):
        return key

    @staticmethod
    def scale(x):
        return 2 * x

    @classmethod
    def make(cls):
        return 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __repr__(self):
        return "Store()"

    def _private(self):
        return None


def top_level(store):
    with store:
        return store.put(1)
"""


def _fake_module():
    """A module that passes for part of the kvstore layer."""
    mod = types.ModuleType("repro.kvstore.fake_for_tracing")
    exec(compile(_FAKE_SOURCE, mod.__name__, "exec"), mod.__dict__)
    return mod


def test_wrappers_record_nested_spans_and_restore_every_attribute():
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    try:
        before = dict(vars(mod.Store))
        before_fn = mod.top_level
        tracer = Tracer()
        installation = install(tracer, [mod])
        try:
            assert mod.top_level is not before_fn
            assert mod.Store.__dict__["put"] is not before["put"]
            # __repr__ and private names stay unwrapped
            assert mod.Store.__dict__["__repr__"] is before["__repr__"]
            assert mod.Store.__dict__["_private"] is before["_private"]
            mod.top_level(mod.Store())  # inactive: nothing recorded
            assert len(tracer) == 0
            with tracer.recording():
                assert mod.top_level(mod.Store()) == 3
        finally:
            installation.restore()
        after = dict(vars(mod.Store))
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert mod.top_level is before_fn
        folded = fold(tracer)
        prefix = "kvstore.fake_for_tracing."
        assert folded[prefix + "top_level"]["calls"] == 1
        for name in ("put", "helper", "scale", "make", "__enter__", "__exit__"):
            assert folded[prefix + "Store." + name]["calls"] == 1, name
        put = tracer.name_id(prefix + "Store.put")
        put_idx = list(tracer.name_of).index(put)
        assert tracer.names[tracer.name_of[tracer.parent[put_idx]]] == prefix + "top_level"
    finally:
        del sys.modules[mod.__name__]


def _class_attrs(modules):
    out = {}
    for module in modules:
        out[(module.__name__, None)] = dict(vars(module))
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                out[(module.__name__, value.__qualname__)] = dict(vars(value))
    return out


def test_install_on_every_layer_restores_every_class_attribute():
    modules = layer_modules()
    before = _class_attrs(modules)
    tracer = Tracer()
    installation = install(tracer, modules)
    assert len(installation.saved) > 200
    from repro.sim.events import EventSimulator

    original = before[("repro.sim.events", "EventSimulator")]["schedule"]
    assert EventSimulator.__dict__["schedule"] is not original
    installation.restore()
    after = _class_attrs(modules)
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys(), key
        changed = [a for a in attrs if attrs[a] is not after[key][a]]
        assert not changed, (key, changed)


def test_scheduled_callbacks_are_charged_to_their_own_layer():
    from repro.sim.events import EventSimulator

    tracer = Tracer()
    mod = _fake_module()
    installation = install(tracer, layer_modules())
    try:
        sim = EventSimulator()
        store = mod.Store()
        with tracer.recording():
            sim.schedule(5.0, store.helper, 1)
            sim.at(7.0, store.helper, 2)
            sim.run()
    finally:
        installation.restore()
    folded = fold(tracer)
    assert folded["kvstore.fake_for_tracing.Store.helper"]["calls"] == 2
    assert folded["sim.events.EventSimulator.run"]["calls"] == 1
