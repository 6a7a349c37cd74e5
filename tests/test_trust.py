import hashlib
import math
import random

import pytest

from conftest import (
    CASE_PROVIDERS,
    EXPECTED_NORMALIZED,
    REFERENCE_TRUST,
    REFERENCE_WEIGHTS,
    case_decision_matrix,
    case_registry,
    case_request,
)
from fastcloud.bench import generate_instance
from fastcloud.intervals import IntervalNumber
from fastcloud.registry import Polarity, QosAttribute
from fastcloud.selection import assess, render_structured, result_document
from fastcloud.trust import (
    DecisionContext,
    DecisionMatrix,
    WeightVector,
    column_deviation,
    deviation_weights,
    evaluate,
    normalize,
    ordering_vector,
    possibility_matrix,
    rank,
    ranking_chain,
    trust_levels,
)


def benefit(name):
    return QosAttribute(name, name, "unit", Polarity.BENEFIT)


def cost(name):
    return QosAttribute(name, name, "unit", Polarity.COST)


def matrix(cells, polarities, providers=None):
    n_rows = len(cells)
    n_cols = len(cells[0])
    attrs = tuple(
        benefit(f"b{k}") if polarities[k] is Polarity.BENEFIT else cost(f"c{k}")
        for k in range(n_cols)
    )
    providers = providers or tuple(f"p{i}" for i in range(n_rows))
    return DecisionMatrix(
        providers=tuple(providers),
        attributes=attrs,
        cells=tuple(tuple(IntervalNumber(lo, hi) for lo, hi in row) for row in cells),
    )


def random_matrix(rng, n_rows, n_cols):
    polarities = [rng.choice([Polarity.BENEFIT, Polarity.COST]) for _ in range(n_cols)]
    cells = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            a, b = rng.uniform(1, 100), rng.uniform(1, 100)
            row.append((min(a, b), max(a, b)))
        cells.append(row)
    return matrix(cells, polarities)


class TestDecisionMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            DecisionMatrix(
                providers=("a", "b"),
                attributes=(benefit("x"),),
                cells=((IntervalNumber(1, 2),), ()),
            )

    def test_rejects_fewer_rows_than_providers(self):
        with pytest.raises(ValueError, match="^one cell row required per provider$"):
            DecisionMatrix(
                providers=("a", "b"),
                attributes=(benefit("x"),),
                cells=((IntervalNumber(1, 2),),),
            )

    def test_rejects_nonpositive_cost_lower(self):
        with pytest.raises(ValueError, match="non-positive lower"):
            matrix([[(0, 5)], [(1, 2)]], [Polarity.COST])

    def test_rejects_negative_benefit_lower(self):
        with pytest.raises(ValueError, match="benefit attribute 'b0' has negative lower"):
            matrix([[(-1, 5)], [(1, 2)]], [Polarity.BENEFIT])
        matrix([[(0, 5)], [(1, 2)]], [Polarity.BENEFIT])  # zero is a valid benefit value


class TestNormalize:
    def test_benefit_column_golden_cell(self):
        lower, upper = normalize(case_decision_matrix())[0][0]
        assert lower == pytest.approx(0.196, abs=1e-3)
        assert upper == pytest.approx(0.274, abs=1e-3)

    def test_cost_column_golden_cell(self):
        lower, upper = normalize(case_decision_matrix())[0][4]
        assert lower == pytest.approx(0.0452, abs=1e-3)
        assert upper == pytest.approx(0.725, abs=1e-3)

    def test_full_golden_matrix(self):
        normalized = normalize(case_decision_matrix())
        for row, expected_row in zip(normalized, EXPECTED_NORMALIZED):
            for (got_lo, got_hi), (lo, hi) in zip(row, expected_row):
                assert got_lo == pytest.approx(lo, abs=1e-3)
                assert got_hi == pytest.approx(hi, abs=1e-3)

    def test_single_provider_benefit_self_ratio(self):
        m = DecisionMatrix(("only",), (benefit("x"),), ((IntervalNumber(42, 42),),))
        assert normalize(m) == (((1.0, 1.0),),)

    def test_cells_stay_ordered(self):
        rng = random.Random(21)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 5))
            for row in normalize(m):
                for lower, upper in row:
                    assert 0 <= lower <= upper

    def test_an_all_zero_benefit_column_is_refused_by_name(self):
        m = DecisionMatrix(("a", "b"), (benefit("availability"),),
                           ((IntervalNumber(0, 0),), (IntervalNumber(0, 0),)))
        with pytest.raises(ValueError, match="^benefit attribute 'availability' has no "
                                             "positive values to normalize$"):
            evaluate(m)

    def test_no_providers_refused(self):
        with pytest.raises(ValueError, match="^decision matrix has no providers$"):
            normalize(DecisionMatrix((), (benefit("x"),), ()))

    def test_no_attributes_keeps_one_row_per_provider(self):
        m = DecisionMatrix(("a", "b"), (), ((), ()))
        assert normalize(m) == ((), ())

    @pytest.mark.parametrize("polarity, cells", [
        # a subnormal cost value (an SLO of 1e-320): 1 / lower is inf, and
        # inf / inf is NaN, whichever row it is in
        (Polarity.COST, [[(1e-320, 1e-320)], [(50, 50)]]),
        (Polarity.COST, [[(50, 50)], [(5e-324, 5e-324)]]),
        # finite reciprocals whose sum is not
        (Polarity.COST, [[(1e-308, 1e-308)], [(1e-308, 2e-308)]]),
        (Polarity.BENEFIT, [[(0, 1e300)], [(1e-300, 1e-300)]]),
    ])
    def test_overflowing_column_is_refused_by_name(self, polarity, cells):
        with pytest.raises(ValueError, match=f"^{polarity.value} attribute '.0' overflows"):
            normalize(matrix(cells, [polarity]))


class TestDeviationWeights:
    def test_identical_rows_fall_back_to_uniform(self):
        m = matrix([[(1, 2), (3, 4)], [(1, 2), (3, 4)]],
                   [Polarity.BENEFIT, Polarity.BENEFIT])
        assert deviation_weights(normalize(m), m.attributes).weights == (0.5, 0.5)

    def test_single_column_normalizes_to_one(self):
        m = matrix([[(1, 2)], [(3, 4)]], [Polarity.BENEFIT])
        assert deviation_weights(normalize(m), m.attributes).weights == (1.0,)

    def test_needs_two_providers(self):
        m = DecisionMatrix(("only",), (benefit("x"),), ((IntervalNumber(1, 2),),))
        with pytest.raises(ValueError):
            deviation_weights(normalize(m), m.attributes)

    def test_weights_sum_to_one_and_nonnegative(self):
        rng = random.Random(22)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(2, 7), rng.randint(1, 6))
            w = deviation_weights(normalize(m), m.attributes).weights
            assert all(x >= 0 for x in w)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-9)

    def test_spread_column_outweighs_flat_column(self):
        m = matrix(
            [[(1, 1), (10, 10)], [(1, 1), (90, 90)], [(1, 1), (50, 50)]],
            [Polarity.BENEFIT, Polarity.BENEFIT],
        )
        w = deviation_weights(normalize(m), m.attributes).weights
        assert w[1] > w[0]
        assert w[0] == 0.0

    @staticmethod
    def huge_among_tiny(upper, n_cols=1):
        """One cell [0, upper] among 39 tiny ones per benefit column: the
        normalized uppers still sum finite, their deviation total may not."""
        tiny = 1e-300 / 39
        return matrix([[(0, upper)] * n_cols] + [[(tiny, tiny)] * n_cols] * 39,
                      [Polarity.BENEFIT] * n_cols)

    def test_column_total_overflow_names_the_attribute(self):
        m = self.huge_among_tiny(1e7)
        for refuse in (lambda: evaluate(m), lambda: deviation_weights(normalize(m), m.attributes)):
            with pytest.raises(ValueError, match="^benefit attribute 'b0' overflows in its "
                                                 "deviation total$"):
                refuse()

    def test_grand_total_overflow_keeps_the_ratios(self):
        # each column total is finite, their sum is not
        m = self.huge_among_tiny(2e6, n_cols=2)
        assert all(math.isfinite(column_deviation(c)) for c in zip(*normalize(m)))
        assert deviation_weights(normalize(m), m.attributes).weights == (0.5, 0.5)
        assert evaluate(m).weights.weights == (0.5, 0.5)


class TestFloatCore:
    """The float inner loops against the interval operations they replace."""

    @staticmethod
    def random_column(rng, n):
        # repeated cells, zero-width cells and shared endpoints on purpose
        pool = [round(rng.uniform(0, 1), 2) for _ in range(max(2, n // 3))]
        column = []
        for _ in range(n):
            lower = rng.choice(pool)
            width = 0.0 if rng.random() < 0.3 else rng.choice(pool)
            column.append(IntervalNumber(lower, lower + width))
        return column

    def test_closed_form_matches_pairwise_separation_sum(self):
        def separation(x, y):
            return abs(x[0] - y[0]) + abs(x[1] - y[1])

        rng = random.Random(29)
        for n in range(2, 61):
            for column in (
                [(c.lower, c.upper) for c in self.random_column(rng, n)],
                [(0.25, 0.75)] * n,  # all equal: total 0
                [(v, v) for v in (rng.uniform(0, 1) for _ in range(n))],
            ):
                brute = math.fsum(separation(a, b) for a in column for b in column)
                assert column_deviation(column) == pytest.approx(brute, rel=1e-15, abs=0)

    def test_all_flat_columns_fall_back_to_uniform(self):
        m = matrix([[(2, 3), (5, 5), (1, 9)]] * 40,
                   [Polarity.BENEFIT, Polarity.COST, Polarity.BENEFIT])
        assert deviation_weights(normalize(m), m.attributes).weights == (1 / 3,) * 3

    def test_weights_bit_identical_under_row_permutation(self):
        rng = random.Random(30)
        m = random_matrix(rng, 200, 8)
        perm = list(range(200))
        for _ in range(5):
            rng.shuffle(perm)
            permuted = DecisionMatrix(
                tuple(m.providers[i] for i in perm), m.attributes,
                tuple(m.cells[i] for i in perm),
            )
            assert (deviation_weights(normalize(permuted), m.attributes)
                    == deviation_weights(normalize(m), m.attributes))

    def test_trust_levels_equal_interval_fold(self):
        def add(x, y):
            return (x[0] + y[0], x[1] + y[1])

        def scale(x, c):
            return (c * x[0], c * x[1])

        rng = random.Random(31)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(2, 30), rng.randint(1, 8))
            normalized = normalize(m)
            weights = deviation_weights(normalized, m.attributes)
            expected = []
            for row in normalized:
                total = (0.0, 0.0)
                for cell, w in zip(row, weights.weights):
                    total = add(total, scale(cell, w))
                expected.append(total)
            got = trust_levels(normalized, weights)
            assert [(z.lower.hex(), z.upper.hex()) for z in got] == \
                [(lower.hex(), upper.hex()) for lower, upper in expected]

    def test_possibility_entries_equal_possibility_degree(self):
        def reference(a, b):
            total = a.width + b.width
            if total == 0:
                return 1.0 if a.lower > b.lower else 0.0 if a.lower < b.lower else 0.5
            return min(total, max(a.upper - b.lower, 0.0)) / total

        # equal and unequal points, upper bounds of -0.0 against lower bounds
        # of 0.0, and widths whose totals overflow to inf, in every matrix
        edges = [IntervalNumber(0.5, 0.5), IntervalNumber(0.5, 0.5), IntervalNumber(0.25, 0.25),
                 IntervalNumber(-0.0, -0.0), IntervalNumber(0.0, 0.0), IntervalNumber(-1.0, -0.0),
                 IntervalNumber(0.0, 2.0), IntervalNumber(-1e308, -0.0),
                 IntervalNumber(0.0, 1.7e308), IntervalNumber(-1.7e308, 1.7e308)]
        rng = random.Random(32)
        for _ in range(20):
            z = self.random_column(rng, rng.randint(2, 30)) + edges
            rng.shuffle(z)
            p = possibility_matrix(tuple(z))
            for i, zi in enumerate(z):
                expected = [reference(zi, ze).hex() for ze in z]
                expected[i] = (0.5).hex()
                assert [x.hex() for x in p[i]] == expected


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector((1.5, -0.5))

    @pytest.mark.parametrize("weights", [(math.nan,), (0.5, math.nan), (math.inf, 0.0),
                                         (1.0, math.nan)])
    def test_rejects_non_finite(self, weights):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            WeightVector(weights)


class TestTrustLevels:
    def test_single_attribute_identity(self):
        m = matrix([[(1, 2)], [(3, 4)]], [Polarity.BENEFIT])
        normalized = normalize(m)
        levels = trust_levels(normalized, WeightVector((1.0,)))
        assert [(z.lower, z.upper) for z in levels] == [normalized[0][0], normalized[1][0]]

    def test_golden_trust_levels(self):
        normalized = normalize(case_decision_matrix())
        total = math.fsum(REFERENCE_WEIGHTS)
        weights = WeightVector(tuple(w / total for w in REFERENCE_WEIGHTS))
        levels = trust_levels(normalized, weights)
        for level, (lo, hi) in zip(levels, REFERENCE_TRUST):
            assert level.lower == pytest.approx(lo, abs=1e-3)
            assert level.upper == pytest.approx(hi, abs=1e-3)

    def test_dimension_mismatch(self):
        m = matrix([[(1, 2)], [(3, 4)]], [Polarity.BENEFIT])
        with pytest.raises(ValueError):
            trust_levels(normalize(m), WeightVector((0.5, 0.5)))


class TestPossibilityMatrix:
    def test_identical_levels_give_half_everywhere(self):
        z = (IntervalNumber(1, 2),) * 3
        p = possibility_matrix(z)
        assert all(x == 0.5 for row in p for x in row)

    def test_single_provider(self):
        assert possibility_matrix((IntervalNumber(1, 2),)) == ((0.5,),)

    def test_diagonal_and_complementarity(self):
        rng = random.Random(23)
        for _ in range(100):
            z = tuple(
                IntervalNumber(*sorted((rng.uniform(0, 1), rng.uniform(0, 1))))
                for _ in range(rng.randint(2, 6))
            )
            p = possibility_matrix(z)
            for i in range(len(z)):
                assert p[i][i] == 0.5
                for e in range(len(z)):
                    assert p[i][e] + p[e][i] == pytest.approx(1.0, abs=1e-12)


class TestOrderingVector:
    def test_uniform_matrix(self):
        p = tuple((0.5,) * 5 for _ in range(5))
        assert ordering_vector(p) == pytest.approx((0.2,) * 5)

    def test_needs_two_providers(self):
        with pytest.raises(ValueError):
            ordering_vector(((0.5,),))

    def test_sums_to_one_for_any_complementary_matrix(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(2, 7)
            p = [[0.5] * n for _ in range(n)]
            for i in range(n):
                for e in range(i + 1, n):
                    p[i][e] = rng.random()
                    p[e][i] = 1.0 - p[i][e]
            v = ordering_vector(tuple(tuple(row) for row in p))
            assert math.fsum(v) == pytest.approx(1.0, abs=1e-12)


class TestRankAndPipeline:
    def test_rank_descending_with_id_tiebreak(self):
        m = matrix([[(1, 2)], [(1, 2)]], [Polarity.BENEFIT], providers=("b", "a"))
        ranked = rank(evaluate(m))
        assert [r.csp_id for r in ranked] == ["a", "b"]
        assert ranked[0].ordering_score == pytest.approx(0.5)
        assert ranked[1].ordering_score == pytest.approx(0.5)

    def test_rank_annotates_possibility_vs_next(self):
        rng = random.Random(25)
        m = random_matrix(rng, 4, 3)
        ctx = evaluate(m)
        ranked = rank(ctx)
        ids = list(ctx.decision.providers)
        for pos in range(len(ranked) - 1):
            i = ids.index(ranked[pos].csp_id)
            e = ids.index(ranked[pos + 1].csp_id)
            assert ranked[pos].possibility_vs_next == ctx.possibility[i][e]
        assert ranked[-1].possibility_vs_next is None

    def test_ranking_chain_format(self):
        m = matrix([[(5, 6)], [(1, 2)]], [Polarity.BENEFIT], providers=("x", "y"))
        assert ranking_chain(rank(evaluate(m))) == "x > y"

    def test_column_scale_invariance(self):
        rng = random.Random(26)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(2, 5), rng.randint(1, 4))
            ctx = evaluate(m)
            k = rng.randrange(len(m.attributes))
            c = rng.uniform(0.1, 10)
            scaled_cells = tuple(
                tuple(
                    IntervalNumber(cell.lower * c, cell.upper * c) if j == k else cell
                    for j, cell in enumerate(row)
                )
                for row in m.cells
            )
            scaled = DecisionMatrix(m.providers, m.attributes, scaled_cells)
            ctx2 = evaluate(scaled)
            for a, b in zip(ctx.ordering, ctx2.ordering):
                assert a == pytest.approx(b, abs=1e-12)
            assert ranking_chain(rank(ctx)) == ranking_chain(rank(ctx2))

    def test_row_permutation_equivariance_is_exact(self):
        rng = random.Random(27)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 4))
            perm = list(range(len(m.providers)))
            rng.shuffle(perm)
            permuted = DecisionMatrix(
                tuple(m.providers[i] for i in perm),
                m.attributes,
                tuple(m.cells[i] for i in perm),
            )
            ctx, ctx2 = evaluate(m), evaluate(permuted)
            for new_i, old_i in enumerate(perm):
                assert ctx2.trust_levels[new_i] == ctx.trust_levels[old_i]
                assert ctx2.ordering[new_i] == ctx.ordering[old_i]
            assert [r.csp_id for r in rank(ctx)] == [r.csp_id for r in rank(ctx2)]

    def test_context_stages_recompose(self):
        rng = random.Random(28)
        m = random_matrix(rng, 5, 4)
        ctx = evaluate(m)
        assert normalize(ctx.decision) == ctx.normalized
        assert deviation_weights(ctx.normalized, m.attributes) == ctx.weights
        assert trust_levels(ctx.normalized, ctx.weights) == ctx.trust_levels
        assert possibility_matrix(ctx.trust_levels) == ctx.possibility
        assert ordering_vector(ctx.possibility) == ctx.ordering

    def test_case_ranking_is_deterministic(self):
        chains = {
            ranking_chain(rank(evaluate(case_decision_matrix()))) for _ in range(3)
        }
        assert len(chains) == 1
        # CSP ids round-trip from the fixture
        assert set(ranking_chain(rank(evaluate(case_decision_matrix()))).split(" > ")) \
            == set(CASE_PROVIDERS)


class TestGoldenDigest:
    """Every intermediate of the scoring core, pinned to the bit.

    The digest was taken before the core's inner loops were last rewritten;
    a rewrite that keeps the arithmetic and its order keeps it. A normalized
    cell is a point only where its whole column is, so the last three
    instances are seeds whose cells are all points: their trust levels are
    points, and possibility rows of zero width run as well as positive ones.
    """

    INSTANCES = [(providers, attributes, providers * 10 + attributes)
                 for providers in (2, 7, 60, 200) for attributes in (1, 2, 8)]
    INSTANCES += [(2, 1, 4), (2, 2, 736), (7, 1, 31806)]
    DIGEST = "622aca39ae2655f1ffd82ba5a9a510c196d30c2995275fe0990368905ab0b48d"

    @staticmethod
    def core_lines(providers, attributes, seed):
        ctx = evaluate(generate_instance(providers, attributes, seed))
        yield f"instance {providers} x {attributes}, seed {seed}"
        for row in ctx.normalized:
            yield " ".join(x.hex() for cell in row for x in cell)
        yield " ".join(w.hex() for w in ctx.weights.weights)
        yield " ".join(f"{z.lower.hex()} {z.upper.hex()}" for z in ctx.trust_levels)
        for row in ctx.possibility:
            yield " ".join(x.hex() for x in row)
        yield " ".join(x.hex() for x in ctx.ordering)
        for r in rank(ctx):
            vs = "-" if r.possibility_vs_next is None else r.possibility_vs_next.hex()
            yield (f"{r.csp_id} {r.ordering_score.hex()} {r.trust_level.lower.hex()} "
                   f"{r.trust_level.upper.hex()} {vs}")

    def test_core_and_case_document_digest(self):
        digest = hashlib.sha256()
        for instance in self.INSTANCES:
            for line in self.core_lines(*instance):
                digest.update(line.encode() + b"\n")
        document = result_document(assess(case_registry(), case_request()))
        del document["elapsed_seconds"]
        digest.update(render_structured(document).encode())
        assert digest.hexdigest() == self.DIGEST
