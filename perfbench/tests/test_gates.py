import workloads


class TinyYCSB(workloads.YCSBGuarded):
    HEAP_MB = 4
    NRECORDS = 60
    CHUNK = 100
    WINDOW = 200


def _measured(seed=3):
    wl = TinyYCSB(seed)
    wl.build()
    loaded = dict(wl.oracle)
    wl.measure(0.0)
    return wl, loaded


def test_durability_oracle_passes_on_a_recovered_store():
    wl, _loaded = _measured()
    assert wl.phase.attempted >= TinyYCSB.WINDOW
    assert wl.phase.failed == 0
    assert wl.check() == []


def test_durability_oracle_catches_one_key_rolled_back():
    wl, loaded = _measured()
    key = next(k for k, v in wl.oracle.items() if v != loaded[k])
    wl.kv.put(key, loaded[key])  # the store forgets the key's last write
    problems = wl.check()
    assert problems == [f"key {key}: value differs from the last acknowledged write"]


def test_window_is_deterministic_and_seeded():
    first = TinyYCSB(5)
    first.build()
    second = TinyYCSB(5)
    second.build()
    a, b = first.window(first.inputs()), second.window(second.inputs())
    assert a.fingerprint == b.fingerprint
    assert (a.sim_ns, a.write_lat_ns) == (b.sim_ns, b.write_lat_ns)
    assert TinyYCSB.input_digest(5) != TinyYCSB.input_digest(6)


class TinyFresh(TinyYCSB):
    FRESH_WINDOWS = True


def test_fresh_windows_check_each_store_they_replace():
    wl = TinyFresh(3)
    wl.build()
    checked = []
    check = wl.check

    def counting_check():
        checked.append(wl.ctx)
        return check()

    wl.check = counting_check
    wl.measure(0.0)
    # 100 reads per window: a second window reaches MIN_SAMPLES
    assert wl.phase.attempted == 2 * TinyFresh.WINDOW
    assert len(checked) == 1 and checked[0] is not wl.ctx
    assert wl.problems == []
    assert check() == []
