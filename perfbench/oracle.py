"""Independent reference computations for checking the program's outputs.

Nothing here imports fastcloud: intervals are plain ``(lower, upper)`` float
pairs and every stage is written out straight from the model's definitions,
so a fault in the program cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import math
from collections import defaultdict

# Scores closer than this are treated as tied when comparing orderings.
TOLERANCE = 1e-9


def possibility(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Degree to which interval ``a`` is at least ``b``; points compare strictly."""
    total = (a[1] - a[0]) + (b[1] - b[0])
    if total == 0:
        return 1.0 if a[0] > b[0] else 0.0 if a[0] < b[0] else 0.5
    return min(total, max(a[1] - b[0], 0.0)) / total


def _pairwise_abs_sum(values: list[float]) -> float:
    """Sum of |x_i - x_j| over all ordered pairs, from the sorted-prefix form."""
    xs = sorted(values)
    n = len(xs)
    return 2.0 * math.fsum((2 * i - n + 1) * x for i, x in enumerate(xs))


def score(
    providers: list[str],
    benefit: list[bool],
    cells: list[list[tuple[float, float]]],
) -> dict[str, float]:
    """Ordering score per provider from a straight-line pipeline.

    The stages are normalize, weights, trust levels, possibility, ordering.

    ``cells`` holds one row per provider and one ``(lower, upper)`` pair per
    attribute; ``benefit[k]`` says whether larger is better on column k.
    """
    n, m = len(providers), len(benefit)
    norm = [[None] * m for _ in range(n)]
    for k in range(m):
        col = [row[k] for row in cells]
        if benefit[k]:
            su = math.fsum(u for _, u in col)
            sl = math.fsum(lo for lo, _ in col)
            for i, (lo, u) in enumerate(col):
                norm[i][k] = (lo / su, u / sl)
        else:
            sil = math.fsum(1.0 / lo for lo, _ in col)
            siu = math.fsum(1.0 / u for _, u in col)
            for i, (lo, u) in enumerate(col):
                norm[i][k] = ((1.0 / u) / sil, (1.0 / lo) / siu)
    totals = [
        _pairwise_abs_sum([norm[i][k][0] for i in range(n)])
        + _pairwise_abs_sum([norm[i][k][1] for i in range(n)])
        for k in range(m)
    ]
    grand = math.fsum(totals)
    weights = [t / grand for t in totals] if grand else [1.0 / m] * m
    trust = [
        (math.fsum(w * c[0] for w, c in zip(weights, row)),
         math.fsum(w * c[1] for w, c in zip(weights, row)))
        for row in norm
    ]
    return {
        pid: (math.fsum(0.5 if i == e else possibility(ti, te) for e, te in enumerate(trust))
              + n / 2.0 - 1.0) / (n * (n - 1))
        for i, (pid, ti) in enumerate(zip(providers, trust))
    }


def ranking_errors(ranking: list[tuple[str, float]], expected: dict[str, float]) -> list[str]:
    """Compare a program ranking of ``(id, score)`` with reference scores.

    The ids must match exactly, every score within ``TOLERANCE``, and each
    adjacent pair must be in reference order wherever the reference scores
    differ by more than ``TOLERANCE``.
    """
    errors = []
    ids = [pid for pid, _ in ranking]
    if sorted(ids) != sorted(expected):
        return [f"ranked ids {sorted(ids)} != expected {sorted(expected)}"]
    for pid, got in ranking:
        if abs(got - expected[pid]) > TOLERANCE:
            errors.append(f"score of {pid}: {got!r} != {expected[pid]!r}")
    for (a, _), (b, _) in zip(ranking, ranking[1:]):
        if expected[b] - expected[a] > TOLERANCE:
            errors.append(f"{a} ranked above {b} but scores lower")
    return errors


class AssessOracle:
    """Reference assessment over the generator's own SLO and AMV lists."""

    def __init__(self, slos, amvs, polarity: dict[str, str]):
        self.polarity = polarity
        self.slos = defaultdict(dict)  # (csp, attr) -> {csc: value}
        for csp, csc, attr, value in slos:
            self.slos[(csp, attr)][csc] = value
        samples = defaultdict(list)
        for csp, csc, attr, value in amvs:
            samples[(csp, csc, attr)].append(value)
        self.actual = {}
        for (csp, attr), agreed in self.slos.items():
            satisfied = 0
            for csc, slo in agreed.items():
                got = samples.get((csp, csc, attr))
                if not got:
                    continue
                mean = sum(got) / len(got)
                if (mean >= slo) if polarity[attr] == "benefit" else (mean <= slo):
                    satisfied += 1
            rate = satisfied / len(agreed)
            self.actual[(csp, attr)] = (rate * min(agreed.values()), rate * max(agreed.values()))
        self.providers = sorted({csp for csp, _ in self.slos})

    def assess(self, request: list[tuple[str, float, float]]) -> tuple[list[str], dict]:
        """Candidates and reference scores for one request ``[(attr, lo, hi)]``."""
        candidates = []
        for csp in self.providers:
            ok = True
            for attr, lo, hi in request:
                cell = self.actual.get((csp, attr))
                if cell is None or not (cell[0] <= hi and lo <= cell[1]):
                    ok = False
                    break
            if ok:
                candidates.append(csp)
        attrs = [attr for attr, _, _ in request]
        return candidates, score(
            candidates,
            [self.polarity[a] == "benefit" for a in attrs],
            [[self.actual[(csp, a)] for a in attrs] for csp in candidates],
        )
