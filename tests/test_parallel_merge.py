"""Every counter class keeps every declared field through the derived
protocol: snapshot, delta, reset, merge and as_dict."""

import importlib
import pkgutil
import sys

import pytest

import repro
from repro.counters import Counters, counter_names
from repro.nvm.stats import NVMStats
from repro.sim.network import NetStats

_OPTIONAL_DEPS = {"numpy"}


def _counter_classes():
    """Every :class:`Counters` subclass in the package, found from the base."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(module.name)
        except ModuleNotFoundError as exc:
            # optional backends (numpy) are absent in the pure-python leg
            if exc.name not in _OPTIONAL_DEPS:
                raise
    found = {}
    pending = [Counters]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            # a slots dataclass replaces the class it decorates: keep the
            # one its module exports
            if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                found[f"{sub.__module__}.{sub.__qualname__}"] = sub
    return [found[key] for key in sorted(found)]


COUNTER_FIELDS = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in _counter_classes()
    for name in counter_names(cls)
]


def test_every_counter_class_is_enumerated():
    names = {param.values[0].__name__ for param in COUNTER_FIELDS}
    assert {"NVMStats", "NetStats", "LockStats", "TPCCStats", "ChainCounters"} <= names


@pytest.mark.parametrize("cls, name", COUNTER_FIELDS)
class TestCounterProtocol:
    def test_snapshot_is_independent(self, cls, name):
        live = cls(**{name: 3})
        snap = live.snapshot()
        setattr(live, name, 10)
        assert type(snap) is cls
        assert snap == cls(**{name: 3})

    def test_delta_subtracts(self, cls, name):
        assert cls(**{name: 10}).delta(cls(**{name: 4})) == cls(**{name: 6})

    def test_reset_zeroes(self, cls, name):
        live = cls(**{n: 5 for n in counter_names(cls)})
        live.reset()
        assert getattr(live, name) == 0
        assert live == cls()

    def test_merge_adds(self, cls, name):
        parts = iter([cls(**{name: 3}), cls(), cls(**{name: 4})])
        assert cls.merge(parts) == cls(**{name: 7})

    def test_as_dict_round_trips(self, cls, name):
        live = cls(**{name: 5})
        doc = live.as_dict()
        assert list(doc) == list(counter_names(cls))
        assert doc[name] == 5
        assert cls(**doc) == live


@pytest.mark.parametrize("name", counter_names(NVMStats))
def test_nvm_field_survives_merge(name):
    parts = [NVMStats(**{name: 3}), NVMStats(**{name: 4})]
    assert getattr(NVMStats.merge(parts), name) == 7


@pytest.mark.parametrize("name", counter_names(NetStats))
def test_net_field_survives_merge(name):
    """The per-group partition merges and deltas group by group."""
    parts = [
        NetStats(**{name: 3}, groups={"g0": NetStats(**{name: 1})}),
        NetStats(**{name: 4}, groups={"g0": NetStats(**{name: 2}),
                                      "g1": NetStats(**{name: 5})}),
    ]
    merged = NetStats.merge(parts)
    assert getattr(merged, name) == 7
    assert list(merged.groups) == ["g0", "g1"]
    assert getattr(merged.groups["g0"], name) == 3
    assert getattr(merged.groups["g1"], name) == 5

    window = merged.delta(parts[0])
    assert getattr(window, name) == 4
    assert getattr(window.groups["g0"], name) == 2
    assert getattr(window.groups["g1"], name) == 5  # absent from `since`

    snap = merged.snapshot()
    setattr(merged.groups["g0"], name, 100)
    assert getattr(snap.groups["g0"], name) == 3
    merged.reset()
    assert merged == NetStats()
