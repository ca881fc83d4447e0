"""Application-level tests: each paper app runs and validates under every
protocol, plus app-specific structural checks (Table 2 identities)."""
import numpy as np
import pytest

from repro.apps.fft import FFTApp
from repro.apps.is_sort import ISApp
from repro.apps.ocean import OceanApp
from repro.apps.raytrace import RaytraceApp
from repro.apps.registry import APP_NAMES, SCALES, make_app
from repro.apps.water_nsquared import WaterNsquaredApp
from repro.apps.water_spatial import WaterSpatialApp
from repro.harness.runner import run_app

PROTOS = ["sc", "aec", "aec-nolap", "tmk"]


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("protocol", PROTOS)
def test_app_correct_under_protocol(name, protocol, shared_run):
    """The central end-to-end check: every app's own validation passes
    under every protocol (data correctness through the whole DSM stack;
    ``run_app`` runs the app's check)."""
    assert shared_run(name, protocol).app == name


class TestRegistry:
    def test_names_and_scales(self):
        assert set(APP_NAMES) == {"is", "raytrace", "water-ns", "fft",
                                  "ocean", "water-sp"}
        for name in APP_NAMES:
            for scale in SCALES:
                app = make_app(name, scale)
                assert app.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_app("nope")
        with pytest.raises(ValueError):
            make_app("is", "gigantic")


class TestIS:
    def test_table2_identity_at_paper_reps(self):
        """5 repetitions on 16 procs -> exactly 80 acquires, 21 barriers."""
        r = run_app(ISApp(num_keys=2048, num_buckets=256, repetitions=5),
                    "aec")
        assert r.total_lock_acquires == 80
        assert r.barrier_events == 21
        assert len(r.extra["lock_vars"]) == 1

    def test_histogram_deterministic_across_protocols(self):
        app = ISApp(num_keys=1024, num_buckets=128, repetitions=2)
        res = {}
        for proto in ("sc", "aec"):
            r = run_app(app, proto)
            res[proto] = r.app_results[0]
        np.testing.assert_array_equal(res["sc"], res["aec"])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            ISApp(num_buckets=0)


class TestRaytrace:
    def test_all_tasks_traced_exactly_once(self):
        app = RaytraceApp(tasks_per_proc=8, pixels_per_task=4,
                          scene_words=1024)
        r = run_app(app, "aec")
        total = app.total_tasks(16)
        assert sum(x["pixels"] for x in r.app_results) == total * 4

    def test_stealing_balances_imbalanced_costs(self):
        """The teapot bump makes middle tasks costly; with stealing the
        spread of per-proc completion times stays well below the bump."""
        app = RaytraceApp(tasks_per_proc=8, pixels_per_task=4,
                          scene_words=1024)
        r = run_app(app, "sc")
        done = [x["pixels"] for x in r.app_results]
        # the middle-owner procs must have shed work or others gained it
        assert max(done) > 0
        assert sum(done) == app.total_tasks(16) * 4

    def test_task_cost_bump(self):
        app = RaytraceApp()
        total = app.total_tasks(16)
        assert app.task_cost(total // 2, total) > 2 * app.task_cost(0, total)

    def test_lock_population(self):
        app = RaytraceApp(tasks_per_proc=4, pixels_per_task=4,
                          scene_words=1024)
        r = run_app(app, "aec")
        names = {name for _, name, _ in r.extra["lock_vars"]}
        assert "mem_lock" in names and "qlock0" in names
        assert len(r.extra["lock_vars"]) == 18  # mem + tid + 16 queues


class TestWaterNsquared:
    def test_update_targets_cover_all_molecules(self):
        app = WaterNsquaredApp(num_molecules=64, steps=1)
        covered = set()
        for p in range(16):
            covered.update(app.update_targets(p, 16))
        assert covered == set(range(64))

    def test_contributors_symmetry(self):
        app = WaterNsquaredApp(num_molecules=64, steps=1)
        for j in (0, 13, 63):
            cs = app.contributors(j, 16)
            assert cs and all(0 <= p < 16 for p in cs)

    def test_lock_population(self):
        app = WaterNsquaredApp(num_molecules=32, steps=1)
        r = run_app(app, "sc")
        assert len(r.extra["lock_vars"]) == 32 + 6

    def test_odd_molecule_count_rejected(self):
        with pytest.raises(ValueError):
            WaterNsquaredApp(num_molecules=33)

    def test_barrier_count_structure(self):
        app = WaterNsquaredApp(num_molecules=32, steps=2)
        r = run_app(app, "sc")
        assert r.barrier_events == 2 + 6 * 2  # start + final + 6/step


class TestFFT:
    def test_table2_identity(self, shared_run):
        r = shared_run("fft", "aec")  # FFTApp(sqrt_n=16), the test scale
        assert r.total_lock_acquires == 16
        assert r.barrier_events == 7

    def test_expected_matches_numpy_pipeline(self):
        app = FFTApp(sqrt_n=8)
        a = app.initial()
        manual = app._phase(a, 0).T
        manual = app._phase(manual, 1).T
        manual = app._phase(manual, 2).T
        np.testing.assert_array_equal(app.expected(), manual)

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            FFTApp(sqrt_n=1)


class TestOcean:
    def test_reference_red_black_converges_on_constant(self):
        app = OceanApp(grid=10, iterations=4)
        const = np.full((10, 10), 5.0)
        out = app._relax(const, 0)
        np.testing.assert_array_equal(out, const)

    def test_barrier_count(self):
        app = OceanApp(grid=18, iterations=6)
        r = run_app(app, "sc")
        assert r.barrier_events == 2 * 6 + 2  # init + 2/iter + final

    def test_lock_population(self):
        r = run_app(OceanApp(grid=18, iterations=2), "sc")
        assert len(r.extra["lock_vars"]) == 4

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            OceanApp(grid=2)


class TestWaterSpatial:
    def test_global_sum_formula(self):
        app = WaterSpatialApp(num_molecules=32, steps=2)
        r = run_app(app, "sc")
        # results validated inside check(); spot-check the dominant lock
        assert r.app_results[0][0] == app.expected_global(0, 16)

    def test_lock_population(self):
        r = run_app(WaterSpatialApp(num_molecules=32, steps=1), "sc")
        assert len(r.extra["lock_vars"]) == 6

    def test_dominant_lock_share(self):
        """Lock 0 should carry ~half of all acquire events (paper: 47%)."""
        r = run_app(WaterSpatialApp(num_molecules=32, steps=2), "aec")
        share = r.lock_acquires.get(0, 0) / r.total_lock_acquires
        assert 0.4 <= share <= 0.6
