"""ServeCrashExplorer: the frame-log sweep and its unhardened teeth."""

from repro.serve import ServeCrashExplorer
from repro.serve.explorer import ServeScenario


class TestDurableSweep:
    def test_incr_workload_is_exactly_once(self, serve_seeds):
        for device_seed in range(serve_seeds):
            explorer = ServeCrashExplorer(
                "incr", durable=True, device_seed=device_seed
            )
            report = explorer.explore(max_points=10, max_nested_points=2)
            assert report.ok, report.summary()
            assert report.states_explored > 0
            assert report.crashes_observed > 0

    def test_transfer_workload_is_exactly_once(self, serve_seeds):
        for device_seed in range(serve_seeds):
            explorer = ServeCrashExplorer(
                "transfer", durable=True, device_seed=device_seed
            )
            report = explorer.explore(max_points=10, max_nested_points=2)
            assert report.ok, report.summary()

    def test_nested_crashes_are_covered(self):
        explorer = ServeCrashExplorer("mixed", durable=True)
        report = explorer.explore(max_points=6, max_nested_points=2)
        assert report.ok, report.summary()
        assert report.nested_explored > 0

    def test_random_survival_lotteries(self):
        explorer = ServeCrashExplorer("incr", durable=True)
        report = explorer.explore(
            max_points=6, nested=False, random_samples=1
        )
        assert report.ok, report.summary()


class TestPointRange:
    def test_sweep_visits_point_zero_and_every_point_fires(self):
        """n counted log ops span crash points 0..n-1: point 0 fires
        before the first op, and the last sampled point still fires."""
        visited = []

        class Recording(ServeCrashExplorer):
            def trial(self, scenario):
                visited.append(scenario.crash_after)
                return super().trial(scenario)

        explorer = Recording("transfer", groups=1, shards_per_group=1)
        report = explorer.explore(max_points=2, nested=False)
        assert report.not_fired == 0
        assert report.states_explored == 2
        assert visited == [0, report.n_ops - 1]
        assert report.ok, report.summary()


class TestUnhardenedTeeth:
    def test_volatile_frames_double_apply(self):
        # the sweep must FIND failures with the persistent stack off —
        # a checker that cannot catch the unprotected config is dead
        explorer = ServeCrashExplorer("incr", durable=False)
        report = explorer.explore(max_points=12, nested=False)
        assert not report.ok
        kinds = " ".join(
            problem for f in report.failures for problem in f.problems
        )
        assert "double-applied" in kinds or "!=" in kinds

    def test_failures_carry_replayable_scenarios(self):
        explorer = ServeCrashExplorer("incr", durable=False)
        report = explorer.explore(max_points=12, nested=False)
        scenario = report.failures[0].scenario
        failure, crashes = ServeCrashExplorer(
            "incr", durable=False, device_seed=scenario.device_seed
        ).replay(scenario)
        assert crashes > 0
        assert failure is not None
        assert failure.problems == report.failures[0].problems


class TestDeterminism:
    def test_count_ops_is_stable(self):
        a = ServeCrashExplorer("mixed", durable=True).count_ops()
        b = ServeCrashExplorer("mixed", durable=True).count_ops()
        assert a == b > 0

    def test_scenario_replay_is_deterministic(self):
        scenario = ServeScenario(workload="transfer", crash_after=5)
        runs = [
            ServeCrashExplorer("transfer", durable=True).replay(scenario)
            for _ in range(2)
        ]
        assert runs[0][1] == runs[1][1]  # same crash count
        assert (runs[0][0] is None) == (runs[1][0] is None)
