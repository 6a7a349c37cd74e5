"""Synthetic-workload generator and timing harness for the scoring pipeline.

Two sweep modes: hold the provider count fixed and sweep the attribute count,
or hold the attribute count fixed and sweep providers. Each sweep point runs
the full normalize -> weights -> trust -> possibility -> ordering pipeline on
fresh seeded instances and records the median and standard deviation of
its process CPU times, so time the host gives other processes is not
counted. Timed runs stay on a single thread so points are comparable.
"""

from __future__ import annotations

import enum
import math
import random
import statistics
import time
from dataclasses import dataclass

from .intervals import IntervalNumber
from .registry import Polarity, QosAttribute
from .trust import DecisionMatrix, evaluate

# SLO point values are drawn uniformly from this range (recorded in reports).
VALUE_RANGE = (10.0, 100.0)


class BenchMode(enum.Enum):
    FIXED_PROVIDERS = "fixed-providers"
    FIXED_ATTRIBUTES = "fixed-attributes"


@dataclass(frozen=True)
class BenchConfig:
    mode: BenchMode
    fixed_value: int
    sweep: tuple[int, ...]
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.sweep:
            raise ValueError("sweep must not be empty")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep must be strictly increasing")


@dataclass(frozen=True)
class BenchPoint:
    providers: int
    attributes: int
    median_ms: float
    stddev_ms: float


@dataclass(frozen=True)
class BenchReport:
    mode: BenchMode
    points: tuple[BenchPoint, ...]
    # least-squares slope of log(median time) against log(swept variable)
    loglog_slope: float


def generate_instance(providers: int, attributes: int, seed: int) -> DecisionMatrix:
    """Reproducible random decision matrix of interval cells.

    Each cell is [v, v + w] with v uniform in VALUE_RANGE and w zero for about
    one cell in five, else uniform in [0, 0.6 v]. Normalization widens a
    point cell unless its whole column is points, so the trust levels are
    points only in the rare instance whose every cell is. Attribute
    polarities alternate benefit/cost so both normalization branches get
    exercised.
    """
    if providers < 2:
        raise ValueError("an instance needs at least two providers")
    if attributes < 1:
        raise ValueError("an instance needs at least one attribute")
    rng = random.Random(seed)
    attrs = tuple(
        QosAttribute(
            name=f"q{k:03d}",
            abbreviation=f"q{k:03d}",
            unit="unit",
            polarity=Polarity.BENEFIT if k % 2 == 0 else Polarity.COST,
        )
        for k in range(attributes)
    )
    rows = []
    for _ in range(providers):
        row = []
        for _ in range(attributes):
            v = rng.uniform(*VALUE_RANGE)
            w = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.6) * v
            row.append(IntervalNumber(v, v + w))
        rows.append(tuple(row))
    cells = tuple(rows)
    provider_ids = tuple(f"p{i:03d}" for i in range(providers))
    return DecisionMatrix(provider_ids, attrs, cells)


def _sweep_shape(config: BenchConfig, point: int) -> tuple[int, int]:
    if config.mode is BenchMode.FIXED_PROVIDERS:
        return config.fixed_value, point
    return point, config.fixed_value


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Time the pipeline across the sweep; instance generation is not timed."""
    points = []
    for index, swept in enumerate(config.sweep):
        providers, attributes = _sweep_shape(config, swept)
        durations = []
        for rep in range(config.repetitions):
            instance = generate_instance(
                providers, attributes, seed=config.seed + 1000 * index + rep
            )
            started = time.process_time()
            evaluate(instance)
            durations.append((time.process_time() - started) * 1000.0)
        points.append(BenchPoint(
            providers=providers,
            attributes=attributes,
            median_ms=statistics.median(durations),
            stddev_ms=statistics.pstdev(durations),
        ))
    xs = [math.log(swept) for swept in config.sweep]
    # a coarse process clock could read an exact zero; guard the logarithm
    ys = [math.log(max(p.median_ms, 1e-9)) for p in points]
    if len(xs) >= 2:
        slope = statistics.linear_regression(xs, ys).slope
    else:
        slope = 0.0
    return BenchReport(mode=config.mode, points=tuple(points), loglog_slope=slope)


def render_report(report: BenchReport) -> str:
    """Delimiter-separated report: one row per sweep point plus a fit line."""
    lines = [
        f"# value range: uniform[{VALUE_RANGE[0]:g}, {VALUE_RANGE[1]:g}]",
        "mode,m,n,median_ms,stddev_ms",
    ]
    for p in report.points:
        lines.append(
            f"{report.mode.value},{p.providers},{p.attributes},"
            f"{p.median_ms:.4f},{p.stddev_ms:.4f}"
        )
    swept = "m" if report.mode is BenchMode.FIXED_ATTRIBUTES else "n"
    lines.append(f"# fit: log-log slope in {swept} = {report.loglog_slope:.3f}")
    return "\n".join(lines)
