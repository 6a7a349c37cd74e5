import copy
import dataclasses
import math
import pickle
import random

import pytest

import reference
from fastcloud.intervals import IntervalNumber, possibility_degree, possibility_row
from fastcloud.trust import column_deviation


def random_interval(rng, lo=-100.0, hi=100.0, allow_point=True):
    a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
    if allow_point and rng.random() < 0.1:
        return IntervalNumber(a, a)
    return IntervalNumber(min(a, b), max(a, b))


class TestConstruction:
    def test_orders_endpoints_strictly(self):
        with pytest.raises(ValueError):
            IntervalNumber(1.0, 0.5)

    def test_rejects_non_finite_endpoints(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                IntervalNumber(bad, 1.0)
            with pytest.raises(ValueError):
                IntervalNumber(0.0, bad)

    def test_point_interval_allowed(self):
        x = IntervalNumber(3, 3)
        assert x.width == 0

    def test_immutable(self):
        x = IntervalNumber(1, 2)
        for name in ("lower", "upper"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert (x.lower, x.upper) == (1.0, 2.0)

    def test_endpoints_come_out_as_plain_floats(self):
        class Tagged(float):
            pass

        for lower, upper in ((1, 2), ("1.5", "2"), (False, True), (Tagged(0.5), 3.0),
                             (0.5, Tagged(3.0)), (True, 2.5), (-3, 2 ** 53), ("-0", "0.1"),
                             (0, False), (False, "7"), (" 1e3 ", 10 ** 4), (0.5, 1)):
            x = IntervalNumber(lower, upper)
            assert (type(x.lower), type(x.upper)) == (float, float)
            # exact: the same bits as float() gives, the sign of a zero included
            assert (x.lower.hex(), x.upper.hex()) == (float(lower).hex(), float(upper).hex())
            assert repr(x) == f"IntervalNumber(lower={float(lower)!r}, upper={float(upper)!r})"

    def test_post_init_runs_once_per_construction_when_wrapped_on_the_class(self, monkeypatch):
        # wrapped as a tracer that counts constructions wraps it: on the class, by name
        post_init = IntervalNumber.__post_init__
        seen = []

        def counted(instance):
            seen.append(instance)
            post_init(instance)

        monkeypatch.setattr(IntervalNumber, "__post_init__", counted)
        made = [IntervalNumber(1, 2), IntervalNumber(0.5, 0.5), IntervalNumber("3", 4.0)]
        with pytest.raises(ValueError):
            IntervalNumber(2.0, 1.0)
        assert len(seen) == 4
        assert all(a is b for a, b in zip(seen, made))
        # the wrapped validator still coerced the endpoints
        assert [(x.lower, x.upper) for x in made] == [(1.0, 2.0), (0.5, 0.5), (3.0, 4.0)]
        assert all(type(x.lower) is float for x in made)

    def test_replace_pickle_and_deepcopy_round_trip(self):
        x = IntervalNumber(0.25, 7)
        copies = [dataclasses.replace(x), copy.deepcopy(x), copy.copy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is IntervalNumber and other == x and hash(other) == hash(x)
            assert (type(other.lower), type(other.upper)) == (float, float)
        assert dataclasses.replace(x, upper=8) == IntervalNumber(0.25, 8.0)
        with pytest.raises(ValueError):
            dataclasses.replace(x, lower=9)

    def test_refusals_name_the_float_endpoints(self):
        with pytest.raises(ValueError, match=r"^interval endpoints must be finite, got \[nan, 1.0\]$"):
            IntervalNumber("nan", 1)
        with pytest.raises(ValueError, match=r"^interval endpoints must be finite, got \[2.0, inf\]$"):
            IntervalNumber(2, math.inf)
        with pytest.raises(ValueError,
                           match=r"^interval lower bound exceeds upper bound: \[3.0, 1.0\]$"):
            IntervalNumber(3, True)
        with pytest.raises(ValueError, match="could not convert"):
            IntervalNumber("x", 1.0)


def separation(x, y):
    """L1 separation, as weighting totals it: half a two-cell column's deviation."""
    return column_deviation([(x.lower, x.upper), (y.lower, y.upper)]) / 2


class TestSeparation:
    def test_worked_value(self):
        got = separation(IntervalNumber(0.196, 0.274), IntervalNumber(0.14, 0.276))
        assert got == pytest.approx(0.058)

    def test_identical_intervals(self):
        x = IntervalNumber(2.5, 7.5)
        assert separation(x, x) == 0

    def test_is_a_metric(self):
        rng = random.Random(13)
        for _ in range(300):
            x, y, z = (random_interval(rng) for _ in range(3))
            dxy = separation(x, y)
            assert dxy >= 0
            assert dxy == separation(y, x)
            assert (dxy == 0) == (x == y)
            assert separation(x, z) <= dxy + separation(y, z) + 1e-12


class TestPossibilityDegree:
    def test_worked_value(self):
        got = possibility_degree(
            IntervalNumber(0.109, 0.474), IntervalNumber(0.0953, 0.477)
        )
        assert got == pytest.approx(0.508, abs=1e-3)

    def test_self_comparison_is_half(self):
        a = IntervalNumber(1, 4)
        assert possibility_degree(a, a) == 0.5

    def test_point_interval_conventions(self):
        assert possibility_degree(IntervalNumber(3, 3), IntervalNumber(1, 1)) == 1
        assert possibility_degree(IntervalNumber(1, 1), IntervalNumber(3, 3)) == 0
        assert possibility_degree(IntervalNumber(2, 2), IntervalNumber(2, 2)) == 0.5

    def test_range(self):
        rng = random.Random(14)
        for _ in range(400):
            p = possibility_degree(random_interval(rng), random_interval(rng))
            assert 0.0 <= p <= 1.0

    def test_complementarity(self):
        rng = random.Random(15)
        for _ in range(400):
            a, b = random_interval(rng), random_interval(rng)
            assert possibility_degree(a, b) + possibility_degree(b, a) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_upward_shift_never_decreases(self):
        rng = random.Random(16)
        for _ in range(300):
            a, b = random_interval(rng), random_interval(rng)
            delta = rng.uniform(0, 5)
            shifted = IntervalNumber(a.lower + delta, a.upper + delta)
            assert possibility_degree(shifted, b) >= possibility_degree(a, b) - 1e-12

    def test_row_equals_min_max_formula_bit_for_bit(self):
        # signed zeros, subnormals, ties and totals that overflow to inf
        edges = [0.0, -0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 2.0,
                 1e308, -1e308, 1.7e308, -1.7e308]
        pairs = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
        rng = random.Random(17)
        pairs += [(x.lower, x.upper) for x in (random_interval(rng) for _ in range(60))]
        intervals = [IntervalNumber(lo, hi) for lo, hi in pairs]
        others = [(b.lower, b.width) for b in intervals]
        for a, pair in zip(intervals, pairs):
            got = possibility_row(a.lower, a.upper, a.width, others)
            assert [repr(x) for x in got] == [repr(reference.possibility(pair, b)) for b in pairs]
