import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from flatsphere import core, partitions, recursion, tables
from flatsphere.cli import _random_positive_weights, _random_rational_weights
from flatsphere.closed_forms import _partition_sums, mcmullen_an
from flatsphere.core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    parse_weights,
    weights_from_signature,
)
from flatsphere.flat_charts import is_single_polygon, mv_ratio, mv_table_entry
from flatsphere.partitions import enum_T1a, enum_T1b
from flatsphere.recursion import (
    QuadSignature,
    _coefficient,
    _four_point_num,
    _t1a_child_num,
    _volume,
    a4_closed,
    a5_direct,
    a_n,
    enumerate_odd_signatures,
    j_n,
    mv_quadratic_aez,
    quad_V,
    quad_V_closed,
    quad_V_recursive,
    recursive_rhs_dform,
    vol1,
)
from util import (a4_reference, a5_reference, chart_orders, level_vector, load_perfbench,
                  mcmullen_bell, ref_odd_signatures)

F = Fraction


def _random_weights(rng, n):
    """The weights of a seeded random level-d signature with n entries."""
    while True:
        d = rng.randint(2, 9)
        ks = [rng.randint(1 - d, d) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if last >= 1 - d:
            return weights_from_signature(Signature(tuple(ks) + (last,), d))


class TestA4Closed:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ("1/2,1/2,1/2,1/2", F(1, 2)),
            ("2/3,2/3,1/3,1/3", F(1, 3)),
            ("3/4,3/4,3/4,-1/4", F(-1, 4)),
            ("0,2/3,2/3,2/3", F(0)),
            ("5/6,5/6,5/6,-1/2", F(-1, 2)),
        ],
    )
    def test_examples(self, weights, expected):
        assert a4_closed(parse_weights(weights)) == expected

    def test_rejects_other_lengths(self):
        with pytest.raises(ValidationError):
            a4_closed(parse_weights("2/3,2/3,2/3"))

    def test_integer_form_matches_fraction_reference(self):
        # seeded vectors over q <= 60, a quarter with a negative entry and
        # half with a zero pairing difference (a wall)
        rng = random.Random(4)
        checked = negative = walls = 0
        while checked < 300:
            q = rng.randint(2, 60)
            a = rng.randint(-q, q - 1)
            b = q - a if rng.random() < 0.4 else rng.randint(-q, q - 1)
            c = rng.randint(-2 * q, q - 1)
            nums = [a, b, c, 2 * q - a - b - c]
            if max(nums) >= q:
                continue
            rng.shuffle(nums)
            mu = WeightVector(tuple(F(x, q) for x in nums))
            assert a4_closed(mu) == a4_reference(mu), mu
            if all(x % q for x in nums):
                assert a_n(mu, {}) == a4_reference(mu), mu
            checked += 1
            negative += min(nums) < 0
            walls += any(nums[0] + nums[j] == q for j in (1, 2, 3))
        assert negative >= 50 and walls >= 100


class TestAn:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ("2/3,1/3,1/3,1/3,1/3", F(1, 9)),
            ("5/6,5/6,5/6,5/6,-4/3", F(4, 9)),
            ("1/2,1/2,1/2,1/2,1/2,-1/2", F(-3, 8)),
            ("1/2,1/2,1/2,1/2", F(1, 2)),
            # kappa = (-1^7, 3) at level 2: closed form gives 5!*(3!!/4!!) = 45,
            # so the normalized value is 45 / 2^5
            ("1/2,1/2,1/2,1/2,1/2,1/2,1/2,-3/2", F(45, 32)),
        ],
    )
    def test_values(self, weights, expected):
        assert a_n(parse_weights(weights)) == expected

    def test_n3_constant(self):
        assert a_n(parse_weights("2/3,2/3,2/3")) == 1

    @pytest.mark.parametrize(
        "weights",
        ["0,2/3,2/3,2/3", "-1,5/6,5/6,5/6,1/2", "0,5/6,5/6,5/6,-1/2"],
    )
    def test_vanishing_on_integer_entries(self, weights):
        assert a_n(parse_weights(weights)) == 0

    def test_memo_transparency(self):
        mu = parse_weights("5/6,5/6,5/6,5/6,5/6,-5/6,-4/3")
        cache = {}
        assert a_n(mu, cache) == a_n(mu) == a_n(mu, cache)
        assert cache

    def test_memo_hit_builds_only_the_input_vector(self, monkeypatch):
        mu = parse_weights("5/6,5/6,5/6,5/6,5/6,-5/6,-4/3")
        memo = {}
        value = a_n(mu, memo)
        builds = []
        original = WeightVector.__post_init__

        def counting(self):
            builds.append(self)
            original(self)

        monkeypatch.setattr(WeightVector, "__post_init__", counting)
        assert a_n(tuple(mu.entries), memo) == value
        assert len(builds) == 1

    def test_memo_hit_makes_no_fraction_comparison_or_addition(self, monkeypatch):
        # a warm memo serves a_n, j_n and vol1 on a tuple input from the
        # vector's integer view: no Fraction is compared or added
        mu = tuple(parse_weights("5/6,5/6,5/6,5/6,5/6,-5/6,-4/3").entries)
        memo = {}
        values = (a_n(mu, memo), j_n(mu, memo), vol1(mu, memo))
        counts = collections.Counter()
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__"):
            def counted(self, other, _name=name, _original=getattr(F, name)):
                counts[_name] += 1
                return _original(self, other)
            monkeypatch.setattr(F, name, counted)
        assert F(1, 3) < F(1, 2) and F(1, 3) + F(1, 2) == F(5, 6)
        assert counts == {"__lt__": 1, "__add__": 1}
        counts.clear()
        assert (a_n(mu, memo), j_n(mu, memo), vol1(mu, memo)) == values
        assert not counts

    def test_bool_weight_is_rejected_not_read_as_zero(self):
        with pytest.raises(ValidationError, match="bools"):
            a_n((False, F(1, 2), F(3, 4), F(3, 4)))

    def test_memo_keys_share_equal_weights(self):
        # each sub-vector's new weight 2 - mu(I) is one shared object per
        # value, so apart from the input's own entries every weight in the
        # memo keys is held once
        mu = load_perfbench("workloads").level_vector(random.Random(8), 8, 6)
        memo = {}
        a_n(mu, memo)
        weights = [x for key in memo for x in key]
        assert len({id(x) for x in weights}) <= len(set(weights)) + len(mu)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_no_cache_equals_fresh_memo(self, n):
        rng = random.Random(70 + n)
        for _ in range(3):
            mu = _random_weights(rng, n)
            assert a_n(mu) == a_n(mu, {}), mu

    def test_permutation_invariance_spot(self):
        mu = parse_weights("2/3,1/3,1/3,1/3,1/3")
        base = a_n(mu)
        for perm in itertools.permutations(range(5)):
            assert a_n([mu[i] for i in perm]) == base


def _mixed_weights(rng):
    """Five seeded weights over unrelated denominators 2..9 (the last one
    closing the sum), so the minimal denominator is rarely a level's; an
    entry may be an integer."""
    while True:
        dens = [rng.randint(2, 9) for _ in range(4)]
        head = [F(rng.randint(-12, q - 1), q) for q in dens]
        last = 2 - sum(head)
        if last < 1:
            return WeightVector((*head, last))


class TestFivePointLeaf:
    """a_n at n = 5 is the integer leaf ``_five_point``; the Fraction
    recursion it replaced is ``a5_reference``."""

    def test_golden_rows(self):
        for row in tables.expected_rows(5):
            mu = weights_from_signature(row.signature())
            assert a_n(mu, {}) == a5_reference(mu) == F(row.col3), row

    def test_seeded_vectors(self):
        rng = random.Random(5)
        vectors = [level_vector(rng, 5, d) for d in range(3, 13) for _ in range(150)]
        vectors += [_mixed_weights(rng) for _ in range(600)]
        walls = negative = mixed = vanishing = 0
        for mu in vectors:
            value = a_n(mu, {})
            assert value == a5_reference(mu), mu
            if enum_T1b(mu):
                # the wall vectors against the recursion-free oracle too
                assert value == a5_direct(mu, mu._den), mu
                walls += 1
            negative += min(mu) < 0
            mixed += len({x.denominator for x in mu}) > 2
            vanishing += value == 0
        assert len(vectors) >= 2000
        assert walls >= 600 and negative >= 1500 and mixed >= 600 and vanishing >= 100

    def test_t1a_child_read_off_the_sums(self):
        # A4 = 2D - 2 * sum over the heavy j of |s(pair | j) - D| is the
        # child's _four_point_num: the child (s(pair), s_i for i in heavy)
        # over D, and its value A4 / 4D that of the record's sub-vector
        rng = random.Random(29)
        children = 0
        for d in range(3, 13):
            for _ in range(40):
                mu = level_vector(rng, 5, d)
                den, nums, sums = mu._den, mu._nums, mu._sums
                for rec in enum_T1a(mu):
                    pair, heavy = (sorted(block) for block in rec.blocks)
                    got = _t1a_child_num(sums, den, core._mask(pair))
                    child = (sum(nums[i] for i in pair), *[nums[i] for i in heavy])
                    assert got == _four_point_num(child, den), (mu, pair)
                    assert F(got, 4 * den) == a4_closed(rec.sub_weights[0]), (mu, pair)
                    children += 1
        assert children >= 1000

    def test_node_builds_no_vector_and_stores_only_itself(self, monkeypatch):
        mu = parse_weights("5/6,5/6,1/2,1/6,-1/3")
        want = a5_reference(mu)
        built = []
        original = WeightVector._exact.__func__

        def counting(cls, *args):
            built.append(args)
            return original(cls, *args)

        monkeypatch.setattr(WeightVector, "_exact", classmethod(counting))
        memo = {}
        assert a_n(mu, memo) == want
        assert not built
        assert memo == {tuple(sorted(mu)): want}

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_integer_forms_derive_from_coefficient(self, n):
        # with M = s(I) - D per heavy block, each family's term is an integer
        # numerator over (n - 1)(n - 2) D**k, k heavy blocks
        rng = random.Random(80 + n)
        lead = (n - 1) * (n - 2)
        for _ in range(40):
            den = rng.randint(1, 60)
            m1, m2 = rng.randint(-3 * den, 3 * den), rng.randint(-3 * den, 3 * den)
            mb1, mb2 = F(m1, den), F(m2, den)
            assert _coefficient("T1a", [mb1], (n - 2,), 1, n) == F(
                (n - 3) * den - (n - 1) * m1, lead * den)
            assert _coefficient("T1b", [mb1], (n - 3,), 1, n) == F(
                (3 - n) * m1, lead * den)
            n1 = rng.randint(2, n - 3)
            n2 = n - 1 - n1
            assert _coefficient("T2a", [mb1, mb2], (n1, n2), 1, n) == F(
                (n - 1) * m1 * m2 - den * (n1 * n2 * (m1 + m2) - n1 * m1 - n2 * m2),
                lead * den ** 2)
            if n >= 6:
                n1, epsilon = rng.randint(2, n - 4), rng.choice((1, 2))
                n2 = n - 2 - n1
                assert _coefficient("T2b", [mb1, mb2], (n1, n2), epsilon, n) == F(
                    epsilon * n1 * n2 * m1 * m2, lead * den ** 2)
            if n == 5:
                # the leaf's numerators over 48 D**2; a T1a child's a_4 is
                # A4 / 4D
                assert _coefficient("T1a", [mb1], (3,), 1, 5) == F(
                    4 * den * (2 * den - 4 * m1), 48 * den ** 2)
                assert _coefficient("T1b", [mb1], (2,), 1, 5) == F(
                    -8 * den * m1, 48 * den ** 2)
                assert _coefficient("T2a", [mb1, mb2], (2, 2), 1, 5) == F(
                    16 * m1 * m2 - 8 * den * (m1 + m2), 48 * den ** 2)


class TestOneTablePerNode:
    """Every node reads the subset sums its vector builds on first access:
    the four families of a node, or the five-point leaf, share one table."""

    def test_one_table_per_memo_miss(self, monkeypatch):
        build, built = core._subset_sums, []

        def counting(xs):
            built.append(len(xs))
            return build(xs)

        for module in (core, partitions, recursion):
            monkeypatch.setattr(module, "_subset_sums", counting)
        memo = {}
        a_n(level_vector(random.Random(27), 9, 5), memo)
        # a fresh memo misses once per entry; nodes below n = 5 need no table
        misses = sorted(len(key) for key in memo if len(key) >= 5)
        assert 9 in misses and 6 in misses
        assert sorted(built) == misses


class TestJn:
    def test_examples(self):
        assert j_n(parse_weights("1/2,1/2,1/2,1/2")) == 1
        assert j_n(parse_weights("2/3,1/3,1/3,1/3,1/3")) == 1
        assert j_n(parse_weights("0,2/3,2/3,2/3")) == 0

    def test_integrality_on_random_signatures(self):
        # the normalized value times e**(n-3) is an intersection number
        rng = random.Random(5)
        cache = {}
        for _ in range(30):
            d = rng.randint(2, 9)
            ks = [rng.randint(1 - d, d) for _ in range(4)]
            last = -2 * d - sum(ks)
            if last < 1 - d:
                continue
            mu = weights_from_signature(Signature(tuple(ks) + (last,), d))
            assert j_n(mu, cache).denominator == 1

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_integrality_on_random_signatures_larger_n(self, n):
        rng = random.Random(50 + n)
        cache = {}
        for _ in range(6):
            mu = _random_weights(rng, n)
            assert j_n(mu, cache).denominator == 1, mu


class TestMcMullenOracle:
    def test_known_values(self):
        assert mcmullen_an(parse_weights("1/2,1/2,1/2,1/2")) == F(1, 2)
        assert mcmullen_an(parse_weights("2/3,1/3,1/3,1/3,1/3")) == F(1, 9)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_matches_recursion_on_positive_weights(self, n):
        rng = random.Random(300 + n)
        cache = {}
        for _ in range(3):
            mu = _random_positive_weights(rng, n)
            assert mcmullen_an(mu) == a_n(mu, cache), mu

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_bell_sum(self, n):
        # the subset DP against the sum over all Bell(n) set partitions; the
        # formula does not look at signs, so mixed-sign vectors agree too
        rng = random.Random(400 + n)
        vectors = [_random_positive_weights(rng, n) for _ in range(2)]
        vectors += [_random_rational_weights(rng, n)[0] for _ in range(2)]
        assert any(x < 0 for mu in vectors[2:] for x in mu)
        for mu in vectors:
            assert mcmullen_an(mu) == mcmullen_bell(mu), mu

    @pytest.mark.parametrize("n", range(9))
    def test_partition_sums_of_ones_are_stirling_numbers(self, n):
        def stirling(n, k):
            # S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!
            total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
            return total // math.factorial(k)

        got = _partition_sums(n, [1] * (1 << n))
        assert got == [stirling(n, k) for k in range(n + 1)]

    def test_differs_with_a_negative_weight(self):
        # the limit stated in the oracle's docstring
        mu = parse_weights("3/4,3/4,3/4,3/4,-1/2,-1/2")
        assert a_n(mu) == F(3, 8)
        assert mcmullen_an(mu) == F(9, 16)


class TestDform:
    def test_minimal_denominator_matches_j(self):
        mu = parse_weights("2/3,1/3,1/3,1/3,1/3")
        assert recursive_rhs_dform(mu, 3) == 1

    def test_reflex_row(self):
        mu = parse_weights("5/6,5/6,5/6,5/6,-4/3")
        assert recursive_rhs_dform(mu, 6) == 16

    def test_non_minimal_level_scales(self):
        mu = parse_weights("2/3,1/3,1/3,1/3,1/3")
        assert recursive_rhs_dform(mu, 6) == F(6, 3) ** 2 * j_n(mu)
        assert recursive_rhs_dform(mu, 12) == F(12, 3) ** 2 * j_n(mu)

    def test_integer_entry_returns_zero(self):
        assert recursive_rhs_dform(parse_weights("0,5/6,5/6,5/6,-1/2"), 6) == 0

    def test_rejects_non_common_denominator(self):
        with pytest.raises(ValidationError):
            recursive_rhs_dform(parse_weights("2/3,1/3,1/3,1/3,1/3"), 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValidationError):
            recursive_rhs_dform(parse_weights("1/2,1/2,1/2,1/2"), 2)

    @pytest.mark.parametrize("d", [0, -3, 3.0])
    def test_rejects_bad_level(self, d):
        with pytest.raises(ValidationError):
            recursive_rhs_dform(parse_weights("2/3,1/3,1/3,1/3,1/3"), d)


class TestVol1:
    def test_quadratic_pillow(self):
        assert vol1(parse_weights("1/2,1/2,1/2,1/2")) == PiValue(F(-1, 4), 2)

    def test_five_points(self):
        assert vol1(parse_weights("2/3,1/3,1/3,1/3,1/3")) == PiValue(F(1, 54), 3)

    def test_integer_entry_zero(self):
        v = vol1(parse_weights("0,2/3,2/3,2/3"))
        assert v.is_zero() and v.pi_power == 2


class TestVolumeHelper:
    """``_volume`` builds (-1)**(n-3) * a * ratio / ((n-2)! * d) as one
    Fraction; it must equal vol1 times ratio / d in PiValue arithmetic, and
    the volume rule written out with PiValue and Fraction."""

    @staticmethod
    def _rule(n, value):
        return PiValue(F((-1) ** (n - 3), math.factorial(n - 2)), n - 2) * value

    def _check(self, kappa, memo):
        n, d = kappa.n, kappa.level
        mu = weights_from_signature(kappa)
        ratio, value = mv_ratio(kappa), a_n(mu, memo)
        want = self._rule(n, value) * (ratio / d)
        got = _volume(n, value, ratio, d)
        assert got == want == vol1(mu, memo) * (ratio / d), kappa
        assert str(got) == str(want), kappa
        assert mv_table_entry(kappa, memo) == got, kappa
        return got

    def test_single_polygon_golden_rows(self):
        memo = {}
        rows = [row for n in (4, 5) for row in tables.expected_rows(n)
                if is_single_polygon(row.signature())]
        for row in rows:
            got = self._check(row.signature(), memo)
            assert tables.compute_row(row, memo).mv == got
        assert len(rows) == 60

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_seeded_chart_signatures(self, n):
        memo = {}
        for d in (2, 3, 4, 6) if n % 2 == 0 else (3, 4, 6):
            rng = random.Random(f"volume:{n}:{d}")
            for _ in range(6):
                self._check(Signature(chart_orders(rng, n, d), d), memo)

    def test_vol1_is_the_unit_ratio(self):
        rng = random.Random(30)
        for n in range(4, 8):
            for _ in range(10):
                mu = level_vector(rng, n, 6)
                value = a_n(mu, {})
                assert vol1(mu) == _volume(n, value) == self._rule(n, value), mu


class TestQuadSignature:
    def test_rejects_even_orders(self):
        with pytest.raises(ValidationError):
            QuadSignature((2, -2, -2, -2))

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            QuadSignature((-1, -1, -1, -1, -1, -1))

    def test_rejects_bool_order(self):
        # True counts as 1, an odd order, so the orders would sum to -4
        with pytest.raises(ValidationError, match="integers"):
            QuadSignature((True, -1, -1, -1, -1, -1))

    def test_orders_from_a_generator(self):
        kappa = QuadSignature(k for k in (1, -1, -1, -1, -1, -1))
        assert kappa == QuadSignature((1, -1, -1, -1, -1, -1))
        assert kappa.orders == (1, -1, -1, -1, -1, -1) and kappa.level == 2

    def test_is_a_level_two_signature(self):
        kappa = QuadSignature((1, -1, -1, -1, -1, -1))
        assert isinstance(kappa, Signature)
        assert kappa.level == 2 and kappa.n == 6
        assert str(kappa) == "1,-1,-1,-1,-1,-1:2"

    def test_rejects_other_levels(self):
        # a valid level-3 signature with odd orders
        Signature((-1,) * 6, 3)
        with pytest.raises(ValidationError, match="level 2"):
            QuadSignature((-1,) * 6, 3)

    @pytest.mark.parametrize("entry", [quad_V, quad_V_closed, quad_V_recursive,
                                       mv_quadratic_aez])
    def test_entry_points_take_a_level_two_signature(self, entry):
        for orders in [(-1, -1, -1, -1), (1, -1, -1, -1, -1, -1),
                       (1, 1, -1, -1, -1, -1, -1, -1)]:
            assert entry(Signature(orders, 2)) == entry(QuadSignature(orders))
        with pytest.raises(ValidationError, match="level 2"):
            entry(Signature((-1,) * 6, 3))
        with pytest.raises(ValidationError, match="odd"):
            entry(Signature((0, -1, -1, -1, -1), 2))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_weights_equal_those_of_the_signature(self, n):
        for kappa in enumerate_odd_signatures(n):
            assert (weights_from_signature(kappa)
                    == weights_from_signature(Signature(kappa.orders, 2)))


class TestQuadV:
    def test_base(self):
        k = (-1, -1, -1, -1)
        assert quad_V(k) == quad_V_closed(k) == quad_V_recursive(k) == 1

    @pytest.mark.parametrize(
        "orders,expected",
        [
            ((1, -1, -1, -1, -1, -1), F(-3)),
            ((1, 1, -1, -1, -1, -1, -1, -1), F(30)),
            ((3, -1, -1, -1, -1, -1, -1, -1), F(45)),
        ],
    )
    def test_values_three_ways(self, orders, expected):
        assert quad_V(orders) == expected
        assert quad_V_closed(orders) == expected
        assert quad_V_recursive(orders) == expected

    def test_no_memo_shares_a_fresh_one(self, monkeypatch):
        # without a memo the call makes one and passes it down, so it makes
        # as many recursive calls as with an explicit fresh memo
        kappa = (1, 1, 1, -1, -1, -1, -1, -1, -1, -1)
        original = recursion.quad_V_recursive
        calls = []

        def counting(kappa, memo=None):
            calls.append(kappa)
            return original(kappa, memo)

        monkeypatch.setattr(recursion, "quad_V_recursive", counting)
        counts = []
        for memo in (None, {}):
            calls.clear()
            assert recursion.quad_V_recursive(kappa, memo) == quad_V_closed(kappa)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_recursion_matches_closed_form(self, n):
        # the T1b family and the pairings read off one subset-sum table of
        # the -k_i (odd n has no odd signature); one memo per n, as a caller
        # sharing it would
        memo = {}
        signatures = enumerate_odd_signatures(n)
        assert signatures
        for kappa in signatures:
            assert quad_V_recursive(kappa, memo) == quad_V_closed(kappa), kappa.orders

    def test_sign_pattern(self):
        for n in (4, 6, 8):
            for kappa in enumerate_odd_signatures(n):
                value = quad_V_closed(kappa)
                assert (value > 0) == (n % 4 == 0)
                mu = weights_from_signature(Signature(kappa.orders, 2))
                an = a_n(mu)
                assert (an > 0) == (n % 4 == 0)


class TestMvQuadraticAez:
    def test_pillowcase(self):
        assert mv_quadratic_aez((-1, -1, -1, -1)) == PiValue(F(2), 2)

    def test_one_zero(self):
        assert mv_quadratic_aez((1, -1, -1, -1, -1, -1)) == PiValue(F(1), 4)


class TestA5Direct:
    @pytest.mark.parametrize(
        "weights,d,expected",
        [
            ("2/3,1/3,1/3,1/3,1/3", 3, F(1, 9)),
            ("5/6,5/6,5/6,5/6,-4/3", 6, F(4, 9)),
            ("3/4,1/2,1/4,1/4,1/4", 4, F(1, 16)),
        ],
    )
    def test_table_values(self, weights, d, expected):
        assert a5_direct(parse_weights(weights), d) == expected

    def test_matches_recursion_on_random_integral_weights(self):
        rng = random.Random(17)
        cache = {}
        checked = 0
        while checked < 25:
            d = rng.randint(2, 12)
            ks = [rng.randint(1 - d, d + 2) for _ in range(4)]
            last = -2 * d - sum(ks)
            if last < 1 - d:
                continue
            mu = weights_from_signature(Signature(tuple(ks) + (last,), d))
            assert a5_direct(mu, d) == a_n(mu, cache)
            checked += 1

    def test_non_minimal_level_agrees(self):
        mu = parse_weights("2/3,1/3,1/3,1/3,1/3")
        assert a5_direct(mu, 6) == a5_direct(mu, 3) == a_n(mu)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValidationError):
            a5_direct(parse_weights("2/3,1/3,1/3,1/3,1/3"), 2)

    @pytest.mark.parametrize("d", [0, -3, 3.0])
    def test_rejects_bad_level(self, d):
        with pytest.raises(ValidationError):
            a5_direct(parse_weights("2/3,1/3,1/3,1/3,1/3"), d)


@pytest.mark.parametrize("d, message", [
    (0, "the level d must be a positive int, got 0"),
    (-3, "the level d must be a positive int, got -3"),
    (3.0, "the level d must be a positive int, got 3.0"),
    (True, "the level d must be a positive int, got True"),
    (2, "2 is not a common denominator of the weights"),
    (4, "4 is not a common denominator of the weights"),
])
def test_level_checks_shared_by_both_cross_checks(d, message):
    mu = parse_weights("2/3,1/3,1/3,1/3,1/3")
    for check in (recursive_rhs_dform, a5_direct):
        with pytest.raises(ValidationError) as info:
            check(mu, d)
        assert str(info.value) == message


def test_enumerate_odd_signatures_matches_brute_force():
    # check --suite kontsevich and identity print in this order
    for n in range(15):
        assert [k.orders for k in enumerate_odd_signatures(n)] == ref_odd_signatures(n)


def test_enumerate_odd_signatures_counts():
    assert [len(enumerate_odd_signatures(n)) for n in (4, 6, 8, 10)] == [1, 1, 2, 3]
    for n in (4, 6, 8, 10):
        for kappa in enumerate_odd_signatures(n):
            assert sum(kappa.orders) == -4
            assert all(k % 2 for k in kappa.orders)
