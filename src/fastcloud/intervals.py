"""Closed-interval value type and the possibility degree used for ranking.

``IntervalNumber`` is the validated, immutable form in which an interval
enters or leaves the scoring core: decision cells, consistency profiles,
request spans and trust levels. The core itself computes on plain float
endpoints, so this is deliberately not an interval-arithmetic library; the
one operation here is the possibility degree, also in a float form that
scores a whole possibility-matrix row in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True, init=False)
class IntervalNumber:
    """Closed interval [lower, upper] with finite endpoints and lower <= upper."""

    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        # the slots' own setters store the endpoints past the frozen
        # __setattr__, without the per-field object.__setattr__ calls of the
        # generated __init__. __post_init__, looked up on the class, stays
        # the one validator, and runs once per construction
        _set_lower(self, lower)
        _set_upper(self, upper)
        self.__post_init__()

    def __post_init__(self) -> None:
        lower, upper = self.lower, self.upper
        # an endpoint that is not exactly a float (an int, a str, a bool or a
        # float subclass) is stored as its plain float
        if type(lower) is not float or type(upper) is not float:
            lower, upper = float(lower), float(upper)
            _set_lower(self, lower)
            _set_upper(self, upper)
        # one chained comparison passes every valid interval; nan fails it
        if not -math.inf < lower <= upper < math.inf:
            if not (math.isfinite(lower) and math.isfinite(upper)):
                raise ValueError(f"interval endpoints must be finite, got [{lower}, {upper}]")
            raise ValueError(f"interval lower bound exceeds upper bound: [{lower}, {upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def intersects(self, other: "IntervalNumber") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def __str__(self) -> str:
        return f"[{self.lower:g}, {self.upper:g}]"


# the member descriptors of IntervalNumber's slots, as bound setters
_set_lower = IntervalNumber.lower.__set__
_set_upper = IntervalNumber.upper.__set__


def possibility_degree(a: IntervalNumber, b: IntervalNumber) -> float:
    """Degree in [0, 1] to which interval ``a`` is at least interval ``b``.

    The pairwise form of ``possibility_row``, which gives the formula and the
    point-interval convention. No stage calls it: it stays public as the
    pairwise form, on which the tests check the degree's properties.
    """
    return possibility_row(a.lower, a.upper, a.width, ((b.lower, b.width),))[0]


def possibility_row(
    lower: float, upper: float, width: float, others: Iterable[tuple[float, float]]
) -> list[float]:
    """Possibility degrees of one interval against each of ``others``.

    The interval is given by its endpoints and width, each other interval
    ``b`` by its ``(lower, width)`` pair. For positive combined width:

        min(width(a) + width(b), max(a.upper - b.lower, 0)) / (width(a) + width(b))

    Two point intervals have zero combined width, which the formula leaves
    undefined; the convention here is strict comparison of the point values
    (1 if a > b, 0 if a < b, 0.5 if equal), which preserves the
    complementarity identity p(a, b) + p(b, a) = 1.

    Works on plain floats so a whole possibility-matrix row is one pass.
    """
    # min(total, max(d, 0.0)) / total spelled with the comparisons that min
    # and max make, so every result is the same to the bit (signed zeros and
    # an overflowed total included). With a positive width every total is
    # positive: the row needs no point convention, and a negative d gives 0.0
    # without the division (a d of -0.0 still divides, to -0.0)
    if width > 0.0:
        return [
            0.0 if (d := upper - b_lower) < 0.0 else d / t if d < (t := width + b_width) else t / t
            for b_lower, b_width in others
        ]
    return [
        (0.0 if (d := upper - b_lower) < 0.0 else d if d < total else total) / total
        if (total := width + b_width)
        else 1.0 if lower > b_lower else 0.0 if lower < b_lower else 0.5
        for b_lower, b_width in others
    ]
