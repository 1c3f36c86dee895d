"""The crash-exploration kernel: op budget, fan-out, fold, minimizer."""

from dataclasses import dataclass, replace
from typing import Optional

import pytest

from repro.nvm import CrashPolicy, NVMDevice
from repro.sweep import (
    Failure,
    Report,
    Verdict,
    count_ops,
    crash_during,
    minimize,
    portable,
    replay_all,
    sweep,
)


class TestCountOps:
    def test_write_flush_fence_counts_three(self):
        device = NVMDevice(4096)

        def run():
            device.write(0, b"x" * 64)
            device.flush(0, 64)
            device.fence()

        assert count_ops(device, run) == 3

    def test_reads_do_not_tick(self):
        device = NVMDevice(4096)

        def run():
            device.write(0, b"x" * 8)
            device.read(0, 8)
            device.read(0, 8)

        assert count_ops(device, run) == 1

    def test_raises_when_budget_exceeded(self):
        device = NVMDevice(4096)

        def run():
            for _ in range(10):
                device.write(0, b"x")

        with pytest.raises(RuntimeError):
            count_ops(device, run, budget=5)

    def test_disarms_the_fail_point(self):
        device = NVMDevice(4096)
        count_ops(device, lambda: device.write(0, b"x"))
        assert device.scheduled_crash_remaining() is None

    def test_countdown_is_the_public_accessor(self):
        """The count comes from NVMDevice.scheduled_crash_remaining()."""
        device = NVMDevice(4096)
        assert device.scheduled_crash_remaining() is None
        device.schedule_crash(10, CrashPolicy.DROP_ALL)
        assert device.scheduled_crash_remaining() == 10
        device.write(0, b"x")
        assert device.scheduled_crash_remaining() == 9
        device.cancel_scheduled_crash()
        assert device.scheduled_crash_remaining() is None


class TestCrashDuring:
    def test_detects_a_crash_inside_the_run(self):
        device = NVMDevice(4096)

        def work():
            device.write(0, b"a")
            device.write(8, b"b")

        assert crash_during(device, work, after=1) is True
        assert device.crashed

    def test_point_beyond_the_run_disarms(self):
        device = NVMDevice(4096)
        assert crash_during(device, lambda: device.write(0, b"a"), after=1) is False
        assert not device.crashed
        assert device.scheduled_crash_remaining() is None

    def test_last_counted_op_is_a_valid_point(self):
        """n counted ops span points 0..n-1: p = n-1 fires before the
        final op, p = n never fires."""
        def fresh():
            device = NVMDevice(4096)

            def run():
                device.write(0, b"a")
                device.flush(0, 8)
                device.fence()

            return device, run

        device, run = fresh()
        n = count_ops(device, run)
        device, run = fresh()
        assert crash_during(device, run, after=n - 1)
        device, run = fresh()
        assert not crash_during(device, run, after=n)


@dataclass(frozen=True)
class Point:
    at: int

    def describe(self) -> str:
        return f"at={self.at}"


class Parity:
    """A toy adapter: every point fires except beyond ``n``; odd points
    fail; the crash image repeats every ``period`` points."""

    def __init__(self, n: int = 10, period: int = 4):
        self.n = n
        self.period = period

    def trial(self, scenario: Point) -> Optional[Verdict]:
        if scenario.at >= self.n:
            return None
        failure = Failure(scenario, ("odd",)) if scenario.at % 2 else None
        return Verdict(failure, fingerprint=str(scenario.at % self.period))


class TestReplayAndFold:
    def test_replay_all_keeps_scenario_order(self):
        points = [Point(i) for i in range(8)]
        serial = replay_all(Parity(), points, workers=0)
        fanned = replay_all(Parity(), points, workers=2)
        assert serial == fanned
        assert [v.fingerprint for v in serial] == [str(i % 4) for i in range(8)]

    def test_unportable_explorer_replays_in_process(self):
        explorer = Parity()
        explorer.hook = lambda: None  # closures cannot be pickled
        assert not portable(explorer)
        assert portable(Parity())
        assert replay_all(explorer, [Point(1), Point(2)], workers=2)[0].failure

    def test_fold_counts_not_fired_and_prunes_repeats(self):
        report = Report("toy", "pts", n_ops=10)
        points = [Point(i) for i in range(12)]
        novel = sweep(report, Parity(), points, prune=True)
        assert report.not_fired == 2
        assert report.states_explored == 4
        assert report.states_pruned == 6
        assert novel == points[:4]
        assert [str(f) for f in report.failures] == ["at=1: odd", "at=3: odd"]
        assert "2 FAILURE(S)" in report.summary()

    def test_nested_verdicts_count_apart(self):
        report = Report("toy", "pts")
        report.add(Verdict(nested=True, crashes=2))
        report.add(Verdict())
        assert (report.states_explored, report.nested_explored) == (1, 1)
        assert report.crashes_observed == 3
        assert report.ok


class TestMinimize:
    @staticmethod
    def fails_from(threshold: int):
        def replay(scenario: Point) -> Optional[Failure]:
            return Failure(scenario, ("late",)) if scenario.at >= threshold else None

        return replay

    @staticmethod
    def earlier(scenario: Point):
        for at in range(scenario.at):
            yield replace(scenario, at=at)

    def test_finds_the_earliest_failing_point(self):
        start = Failure(Point(9), ("late",))
        small = minimize(start, self.earlier, self.fails_from(5))
        assert small.scenario == Point(5)

    def test_returns_the_input_when_nothing_shrinks(self):
        start = Failure(Point(3), ("late",))
        assert minimize(start, self.earlier, self.fails_from(3)) is start

    def test_each_candidate_is_replayed_once(self):
        seen = []
        replay = self.fails_from(5)

        def counting(scenario):
            seen.append(scenario.at)
            return replay(scenario)

        minimize(Failure(Point(9), ("late",)), self.earlier, counting)
        assert len(seen) == len(set(seen))

    def test_budget_caps_the_replays(self):
        seen = []

        def counting(scenario):
            seen.append(scenario.at)
            return None

        minimize(Failure(Point(9), ("late",)), self.earlier, counting, budget=3)
        assert seen == [0, 1, 2]
