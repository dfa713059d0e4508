import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from flatsphere import recursion
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
from flatsphere.recursion import (
    QuadSignature,
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
from util import load_perfbench, mcmullen_bell, ref_odd_signatures

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
