import pytest

from fastcloud.bench import (
    BenchConfig,
    BenchMode,
    BenchPoint,
    generate_instance,
    render_report,
    run_benchmark,
)
from fastcloud.registry import Polarity
from fastcloud.trust import evaluate


class TestGenerateInstance:
    def test_seeded_reproducibility(self):
        a = generate_instance(6, 30, seed=1)
        b = generate_instance(6, 30, seed=1)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_instance(6, 30, seed=1) != generate_instance(6, 30, seed=2)

    def test_minimal_instance_valid_for_pipeline(self):
        m = generate_instance(2, 1, seed=5)
        assert len(m.providers) == 2 and len(m.attributes) == 1
        evaluate(m)

    def test_large_instance_completes(self):
        evaluate(generate_instance(60, 30, seed=3))

    def test_rejects_single_provider(self):
        with pytest.raises(ValueError):
            generate_instance(1, 4, seed=0)
        with pytest.raises(ValueError):
            generate_instance(3, 0, seed=0)

    def test_interval_widths_and_alternating_polarity(self):
        m = generate_instance(3, 4, seed=9)
        widths = [cell.upper - cell.lower for row in m.cells for cell in row]
        assert all(cell.lower > 0 for row in m.cells for cell in row)
        assert all(w >= 0 for w in widths) and any(w > 0 for w in widths)
        polarities = [a.polarity for a in m.attributes]
        assert polarities == [Polarity.BENEFIT, Polarity.COST] * 2


class TestBenchConfig:
    def test_sweep_must_increase(self):
        with pytest.raises(ValueError):
            BenchConfig(BenchMode.FIXED_PROVIDERS, 6, (10, 10), 1, 0)

    def test_repetitions_positive(self):
        with pytest.raises(ValueError):
            BenchConfig(BenchMode.FIXED_PROVIDERS, 6, (10, 20), 0, 0)

    def test_sweep_must_not_be_empty(self):
        with pytest.raises(ValueError, match="^sweep must not be empty$"):
            BenchConfig(BenchMode.FIXED_PROVIDERS, 6, (), 1, 0)


class TestRunBenchmark:
    def test_single_point_single_rep(self):
        report = run_benchmark(
            BenchConfig(BenchMode.FIXED_PROVIDERS, 4, (8,), repetitions=1, seed=1)
        )
        assert len(report.points) == 1
        point = report.points[0]
        assert point == BenchPoint(4, 8, point.median_ms, 0.0)
        assert point.median_ms > 0
        assert report.loglog_slope == 0.0

    def test_sweep_shapes(self):
        report = run_benchmark(
            BenchConfig(BenchMode.FIXED_ATTRIBUTES, 5, (2, 4, 6), repetitions=2, seed=1)
        )
        assert [(p.providers, p.attributes) for p in report.points] == [
            (2, 5), (4, 5), (6, 5),
        ]
        report = run_benchmark(
            BenchConfig(BenchMode.FIXED_PROVIDERS, 3, (2, 4), repetitions=2, seed=1)
        )
        assert [(p.providers, p.attributes) for p in report.points] == [(3, 2), (3, 4)]

    def test_render_report_layout(self):
        report = run_benchmark(
            BenchConfig(BenchMode.FIXED_PROVIDERS, 3, (2, 4), repetitions=2, seed=1)
        )
        text = render_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("# value range:")
        assert lines[1] == "mode,m,n,median_ms,stddev_ms"
        assert lines[2].startswith("fixed-providers,3,2,")
        assert lines[-1].startswith("# fit: log-log slope in n =")

    def test_durations_positive(self):
        report = run_benchmark(
            BenchConfig(BenchMode.FIXED_ATTRIBUTES, 4, (2, 3, 4), repetitions=3, seed=7)
        )
        assert all(p.median_ms > 0 for p in report.points)
