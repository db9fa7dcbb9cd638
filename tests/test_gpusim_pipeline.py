"""Tests for the pipeline simulator, timeline, and closed-form model."""

import pytest

from repro.gpusim.calibration import PipelineCosts, walk_calibration_report
from repro.gpusim.pipeline import PipelineConfig, simulate_pipeline
from repro.gpusim.timeline import Interval, Timeline
from repro.hybrid.throughput import (
    hybrid_time_ns,
    optimal_batch_size,
    stage_times_ns,
    utilization_report,
)


class TestTimeline:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval("CPU", 5, 4)

    def test_busy_and_idle(self):
        tl = Timeline()
        tl.add("CPU", 0, 4)
        tl.add("CPU", 6, 10)
        assert tl.busy_time("CPU") == 8
        assert tl.idle_fraction("CPU") == pytest.approx(0.2)

    def test_horizon(self):
        tl = Timeline()
        assert tl.horizon == 0
        tl.add("GPU", 1, 9)
        assert tl.horizon == 9

    def test_render_contains_devices(self):
        tl = Timeline()
        tl.add("CPU", 0, 5, "FEED")
        tl.add("GPU", 5, 10, "GEN")
        out = tl.render(width=40)
        assert "CPU" in out and "GPU" in out and "idle" in out

    def test_render_empty(self):
        assert "empty" in Timeline().render()


class TestPipelineAnchors:
    """The paper's stated performance facts must hold in simulation."""

    def test_headline_throughput(self):
        res = simulate_pipeline(PipelineConfig(total_numbers=10**7, batch_size=100))
        assert res.throughput_gnumbers_s == pytest.approx(0.07, rel=0.05)

    def test_cpu_almost_never_idle(self):
        res = simulate_pipeline(PipelineConfig(total_numbers=10**7, batch_size=100))
        assert res.cpu_idle_fraction < 0.05

    def test_gpu_idle_about_20_percent(self):
        res = simulate_pipeline(PipelineConfig(total_numbers=10**7, batch_size=100))
        assert 0.12 < res.gpu_idle_fraction < 0.28

    def test_figure5_minimum_at_100(self):
        assert optimal_batch_size(10**7) == 100

    def test_figure5_u_shape(self):
        def t(s):
            return hybrid_time_ns(PipelineConfig(total_numbers=10**7, batch_size=s))

        assert t(1) > t(10) > t(100)
        assert t(100) < t(500) < t(1000)


class TestDesMatchesClosedForm:
    @pytest.mark.parametrize("s", [1, 10, 100, 1000])
    def test_agreement_across_batch_sizes(self, s):
        cfg = PipelineConfig(total_numbers=10**6, batch_size=s)
        des = simulate_pipeline(cfg).total_ns
        cf = hybrid_time_ns(cfg)
        assert des == pytest.approx(cf, rel=1e-9)

    def test_agreement_with_custom_costs(self):
        costs = PipelineCosts(
            feed_ns=5.0,
            transfer_ns=1.0,
            generate_ns=9.0,  # GPU-bound regime
            launch_overhead_ns=100.0,
            transfer_latency_ns=50.0,
        )
        cfg = PipelineConfig(total_numbers=10**5, batch_size=10, costs=costs)
        assert simulate_pipeline(cfg).total_ns == pytest.approx(
            hybrid_time_ns(cfg), rel=1e-9
        )

    def test_buffer_depth_does_not_change_completion(self):
        base = PipelineConfig(total_numbers=10**6, batch_size=100)
        deep = PipelineConfig(total_numbers=10**6, batch_size=100, buffer_depth=8)
        assert simulate_pipeline(base).total_ns == pytest.approx(
            simulate_pipeline(deep).total_ns
        )


class TestConfig:
    def test_thread_derivation(self):
        cfg = PipelineConfig(total_numbers=1000, batch_size=100)
        assert cfg.num_threads == 10
        assert cfg.iterations == 100

    def test_thread_override(self):
        cfg = PipelineConfig(total_numbers=1000, batch_size=100, threads=50)
        assert cfg.num_threads == 50
        assert cfg.iterations == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(total_numbers=0)
        with pytest.raises(ValueError):
            PipelineConfig(total_numbers=10, batch_size=0)

    def test_result_properties(self):
        res = simulate_pipeline(PipelineConfig(total_numbers=10**5, batch_size=100))
        assert res.time_ms == pytest.approx(res.total_ns / 1e6)


class TestUtilizationReport:
    def test_fractions_sane(self):
        rep = utilization_report(PipelineConfig(total_numbers=10**6, batch_size=100))
        assert 0 < rep["cpu_busy_fraction"] <= 1.001
        assert 0 < rep["gpu_busy_fraction"] <= 1.001
        assert rep["throughput_gnumbers_s"] > 0

    def test_stage_times_positive(self):
        f, x, g, init = stage_times_ns(
            PipelineConfig(total_numbers=10**6, batch_size=100)
        )
        assert f > 0 and x > 0 and g > 0 and init > 0

    def test_feed_is_bottleneck_at_optimum(self):
        """At S=100 the pipeline is feed-bound (CPU ~100% busy)."""
        f, x, g, _ = stage_times_ns(
            PipelineConfig(total_numbers=10**7, batch_size=100)
        )
        assert f > x and f > g


class TestCalibrationBridge:
    def test_walk_calibration_report(self):
        rep = walk_calibration_report(lanes=128, rounds=4)
        assert rep["numbers"] == 128 * 4
        assert rep["ns_per_number"] > 0
        assert rep["predicted_generate_ns"] > 0
        assert rep["measured_over_predicted"] == pytest.approx(
            rep["ns_per_number"] / rep["predicted_generate_ns"]
        )
        assert rep["speedup_vs_sim_mt"] > 0
