"""Counter merges keep every declared field."""

from dataclasses import fields

import pytest

from repro.nvm.stats import NVMStats
from repro.parallel import merge_net_stats, merge_nvm_stats
from repro.sim.network import NetStats


def _int_fields(cls):
    return [f.name for f in fields(cls) if isinstance(getattr(cls(), f.name), int)]


@pytest.mark.parametrize("name", _int_fields(NVMStats))
def test_nvm_field_survives_merge(name):
    parts = [NVMStats(**{name: 3}), NVMStats(**{name: 4})]
    assert getattr(merge_nvm_stats(parts), name) == 7


@pytest.mark.parametrize("name", _int_fields(NetStats))
def test_net_field_survives_merge(name):
    parts = [
        NetStats(**{name: 3}, groups={"g0": NetStats(**{name: 1})}),
        NetStats(**{name: 4}, groups={"g0": NetStats(**{name: 2})}),
    ]
    merged = merge_net_stats(parts)
    assert getattr(merged, name) == 7
    assert getattr(merged.groups["g0"], name) == 3
