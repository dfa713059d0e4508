import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flatsphere.closed_forms import f_nab
from flatsphere.core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    _as_fraction,
    _scale_to_integers,
    _shared_weight,
    _subset_sums,
    canonicalize,
    minimal_denominator,
    parse_rational,
    parse_signature,
    parse_weights,
    weights_from_signature,
)
from flatsphere.flat_charts import Cyclo24
from flatsphere.piecewise import MultiPoly
from flatsphere.recursion import a_n
from util import fraction_weight_error


F = Fraction


class TestWeightVector:
    def test_valid(self):
        w = WeightVector((F("1/2"), F("1/2"), F("1/2"), F("1/2")))
        assert w.n == 4
        assert sum(w) == 2

    def test_rejects_entry_at_one(self):
        with pytest.raises(ValidationError):
            WeightVector((F(1), F("1/2"), F("1/2")))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            WeightVector((F("1/2"), F("1/2"), F("1/2")))

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            WeightVector((F(1), F(1)))

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            WeightVector((0.5, 0.5, 0.5, 0.5))

    def test_integer_entries_permitted(self):
        w = WeightVector((F(0), F("2/3"), F("2/3"), F("2/3")))
        assert w[0] == 0

    @pytest.mark.parametrize("flag", [False, True])
    def test_rejects_bool_entries(self, flag):
        with pytest.raises(ValidationError, match="bools"):
            WeightVector((flag, F(1, 2), F(3, 4), F(3, 4)))

    def test_integer_view_outside_equality_hash_and_repr(self):
        w = WeightVector((F(1, 3), F(2, 3), F(1, 2), F(1, 2)))
        same = WeightVector(("2/6", "4/6", "1/2", "2/4"))
        assert w == same and hash(w) == hash(same)
        assert repr(w) == f"WeightVector(entries={w.entries!r})"
        assert (w._den, w._nums) == (6, (2, 4, 3, 3))
        # the subset sums are built on first read, then kept, and take no
        # part in equality, hash or repr either
        assert "_sums" not in vars(w)
        assert w._sums == _subset_sums(w._nums) and w._sums is w._sums
        assert w == same and hash(w) == hash(same) and "_sums" not in repr(w)


def _random_entries(rng: random.Random) -> list:
    """Seeded entries that often, not always, make a weight vector: mixed
    denominators, negative entries, and equal weights held as distinct
    objects."""
    n = rng.randint(1, 8)
    den = rng.choice((2, 3, 4, 5, 6, 7, 12))
    entries = [F(rng.randint(-2 * den, den), den) for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        # the same value as entries[1], built as a new object
        entries[0] = F(2 * entries[1].numerator, 2 * entries[1].denominator)
    if rng.random() < 0.8:
        entries[-1] = 2 - sum(entries[:-1], F(0))
    if rng.random() < 0.2:
        entries[rng.randrange(n)] += F(rng.choice((1, -1)), rng.choice((3, 10)))
    return entries


def _random_vector_entries(rng: random.Random, n: int) -> list:
    """Seeded valid entries with no integer entry, some of them equal."""
    while True:
        entries = _random_entries(rng)
        if len(entries) == n and fraction_weight_error(entries) is None \
                and all(x.denominator != 1 for x in entries):
            return entries


class TestIntegerView:
    """The integer validation against the Fraction rules it replaced."""

    def test_accepts_and_rejects_as_the_fraction_rules(self):
        rng = random.Random(18)
        kinds = set()
        for _ in range(3000):
            entries = _random_entries(rng)
            want = fraction_weight_error(entries)
            try:
                WeightVector(tuple(entries))
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == want, entries
            kinds.add(want and want.split(",")[0])
        assert kinds == {None, "a weight vector needs at least 3 entries",
                         "every weight must be < 1", "weights must sum to 2"}

    def test_carried_denominator_is_the_lcm(self):
        rng = random.Random(19)
        for _ in range(300):
            entries = _random_entries(rng)
            if fraction_weight_error(entries) is not None:
                continue
            w = WeightVector(tuple(entries))
            den = math.lcm(*(x.denominator for x in entries))
            assert minimal_denominator(w) == w._den == den
            assert w._nums == tuple(x * den for x in entries)
            assert all(type(k) is int for k in w._nums)

    def test_memo_keys_are_the_sorted_entries(self):
        class KeyLog(dict):
            def get(self, key, default=None):
                keys.append(key)
                return super().get(key, default)

        rng = random.Random(20)
        for n in (5, 6, 7) * 4:
            entries = _random_vector_entries(rng, n)
            keys = []
            memo = KeyLog()
            a_n(tuple(entries), memo)
            # the top-level key holds the input's own objects, in sorted order
            assert len(keys[0]) == n
            assert all(x is y for x, y in zip(keys[0], sorted(entries)))
            for key in keys + list(memo):
                assert key == tuple(sorted(key))


class TestSignature:
    def test_valid(self):
        k = Signature((-1, -1, -1, -1), 2)
        assert k.n == 4

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            Signature((-1, -1, -1, -2), 2)

    def test_rejects_low_order(self):
        with pytest.raises(ValidationError):
            Signature((-3, -1, -1, 1), 2)

    def test_rejects_level_that_is_not_an_int(self):
        with pytest.raises(ValidationError, match="level"):
            Signature((-1, -1, -1, -1), 2.0)

    def test_rejects_bool_level(self):
        with pytest.raises(ValidationError, match="level"):
            Signature((-1, -1, -1, -1), True)

    def test_rejects_bool_order(self):
        # True counts as 1, so these orders would otherwise pass every check
        with pytest.raises(ValidationError, match="integers"):
            Signature((True, -1, -1, -1, -1, -1), 2)

    def test_huge_sum_fails_validation(self):
        with pytest.raises(ValidationError, match="got a number too long to print"):
            Signature((10**5000, 0, 0), 1)

    def test_orders_from_a_generator(self):
        # the orders are made a tuple before any check reads them
        kappa = Signature((k for k in (1, -1, -1, -1, -1, -1)), 2)
        assert kappa.orders == (1, -1, -1, -1, -1, -1)
        assert kappa == Signature((1, -1, -1, -1, -1, -1), 2)
        with pytest.raises(ValidationError, match="integers"):
            Signature((k for k in (True, -1, -1, -1, -1, -1)), 2)


class TestAsFraction:
    def test_exact_fraction_returned_unchanged(self):
        x = F(2, 3)
        assert _as_fraction(x) is x

    def test_other_values_converted_to_exact_fraction(self):
        class Sub(F):
            pass

        for value, want in ((3, F(3)), ("5/10", F(1, 2)), (Sub(1, 2), F(1, 2)),
                            (Decimal("0.25"), F(1, 4))):
            got = _as_fraction(value)
            assert got == want and type(got) is F

    def test_rejects_floats_and_junk(self):
        for bad in (0.5, 1.0, "x", "1/0", None, Decimal("Infinity"), Decimal("NaN")):
            with pytest.raises(ValidationError):
                _as_fraction(bad)

    # before bools were rejected each of these read True as 1: PiValue(True,
    # 2) printed 1*pi^2 and f_nab(3, 0, 0, [True, 1, 1]) returned 18
    @pytest.mark.parametrize("build", [
        lambda: _as_fraction(True),
        lambda: PiValue(True, 2),
        lambda: PiValue(F(1), 2) * True,
        lambda: MultiPoly(2, {(1, 0): True}),
        lambda: MultiPoly.constant(False, 2),
        lambda: MultiPoly.variable(0, 2) * True,
        lambda: Cyclo24([True] + [0] * 7),
        lambda: Cyclo24([1] + [0] * 7) * True,
        lambda: f_nab(3, 0, 0, [True, 1, 1]),
        lambda: f_nab(3, False, 0, [1, 1, 0]),
    ], ids=["as_fraction", "PiValue", "PiValue_mul", "MultiPoly", "MultiPoly_constant",
            "MultiPoly_mul", "Cyclo24", "Cyclo24_mul", "f_nab_entry", "f_nab_shift"])
    def test_rejects_bools(self, build):
        with pytest.raises(ValidationError, match="bools"):
            build()

    # each of these parsed its text operand as a number (PiValue(1, 1) * "2"
    # gave 2*pi^1, Cyclo24 one times "3" equalled 3), where Fraction(1) * "2"
    # raises TypeError
    @pytest.mark.parametrize("build", [
        lambda: PiValue(1, 1) * "2",
        lambda: "2" * PiValue(1, 1),
        lambda: MultiPoly.variable(0, 2) + "2",
        lambda: "2" - MultiPoly.variable(0, 2),
        lambda: MultiPoly.variable(0, 2) * "2",
        lambda: Cyclo24([1] + [0] * 7) * "3",
        lambda: Cyclo24([1] + [0] * 7) + "3",
        lambda: "3" / Cyclo24([1] + [0] * 7),
    ], ids=["PiValue_mul", "PiValue_rmul", "MultiPoly_add", "MultiPoly_rsub",
            "MultiPoly_mul", "Cyclo24_mul", "Cyclo24_add", "Cyclo24_rtruediv"])
    def test_rejects_text_operands(self, build):
        with pytest.raises(ValidationError, match="text operands"):
            build()

    def test_constructors_still_read_text(self):
        assert PiValue("1/2", 1) == PiValue(F(1, 2), 1)
        assert MultiPoly.constant("2", 2) == MultiPoly.constant(2, 2)
        one = Cyclo24(["1"] + [0] * 7)
        assert one == Cyclo24([1] + [0] * 7) == 1
        assert one != "1"

    # each raised a bare ValueError ("Exceeds the limit (4300 digits) for
    # integer string conversion") while formatting its own error message; a
    # Decimal with an exponent is refused before Fraction builds 10**exponent
    @pytest.mark.parametrize("entries,message", [
        ((Decimal("1e5000"), Decimal("0.5"), Decimal("0.5")),
         r"invalid rational Decimal\('1E\+5000'\): exponents are not accepted"),
        ((F(1, 10**5000), F(1, 2), F(1, 2)),
         "weights must sum to 2, got a number too long to print"),
        ((F(10**5000), F(1, 2), F(1, 2)),
         "every weight must be < 1, got a number too long to print"),
    ], ids=["decimal_exponent", "huge_denominator", "huge_numerator"])
    def test_huge_rationals_fail_validation(self, entries, message):
        with pytest.raises(ValidationError, match=message):
            WeightVector(entries)

    def test_weight_vector_shares_input_fractions(self):
        entries = (F(1, 2), F(1, 2), F(2, 3), F(1, 3))
        w = WeightVector(entries)
        assert all(a is b for a, b in zip(w.entries, entries))
        assert all(a is b for a, b in zip(sorted(canonicalize(w).entries),
                                          sorted(entries)))


class TestSubsetSums:
    def test_matches_naive_sums(self):
        rng = random.Random(3)
        for n in range(7):
            xs = [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
            sums = _subset_sums(xs)
            assert len(sums) == 1 << n
            for mask in range(1 << n):
                chosen = [xs[i] for i in range(n) if mask >> i & 1]
                assert sums[mask] == sum(chosen, F(0)), (xs, mask)

    def test_scale_to_integers(self):
        den, ints = _scale_to_integers([F(1, 2), F(-2, 3), 5, F(0)])
        assert den == 6 and ints == [3, -4, 30, 0]
        assert all(type(k) is int for k in ints)


class TestSharedWeight:
    def test_returns_the_value_as_a_fraction(self):
        for value in (F(5, 6), F(-4, 3), 3, F(0)):
            shared = _shared_weight(value)
            assert type(shared) is Fraction and shared == value

    def test_equal_values_are_one_object(self):
        first = _shared_weight(F(-7, 13))
        assert _shared_weight(F(-14, 26)) is first
        assert _shared_weight(1 - F(20, 13)) is first

    def test_signature_weights_share_the_cache(self):
        # a weight -k/d and a sub-vector weight 2 - mu(I) of equal value
        weight = weights_from_signature(Signature((-5, -5, -5, -5, 8), 6)).entries[0]
        assert _shared_weight(F(10, 12)) is weight
        assert _shared_weight(2 - F(7, 6)) is weight


class TestWeightsFromSignature:
    def test_quadratic(self):
        w = weights_from_signature(Signature((-1, -1, -1, -1), 2))
        assert w.entries == (F("1/2"),) * 4

    def test_table_row_d3(self):
        w = weights_from_signature(Signature((-2, -2, -1, -1), 3))
        assert w.entries == (F("2/3"), F("2/3"), F("1/3"), F("1/3"))

    def test_weights_shared_between_signatures(self):
        first = weights_from_signature(Signature((-2, -2, -1, -1), 3))
        second = weights_from_signature(Signature((-1, -2, -1, -2), 3))
        assert first.entries[0] is second.entries[1]
        assert first.entries[2] is second.entries[0]

    def test_table_row_reflex(self):
        w = weights_from_signature(Signature((-5, -5, -5, -5, 8), 6))
        assert w.entries == (F("5/6"),) * 4 + (F("-4/3"),)

    @staticmethod
    def _validated(kappa):
        return WeightVector(tuple(F(-k, kappa.level) for k in kappa.orders))

    def test_reducible_signature_carries_its_minimal_denominator(self):
        # weights (1/3, 1/3, 1/3, 1/3, 2/3): every order is even, so D = 3
        kappa = Signature((-2, -2, -2, -2, -4), 6)
        w = weights_from_signature(kappa)
        assert (w._den, w._nums) == (3, (1, 1, 1, 1, 2))
        assert (w.entries, w._den, w._nums) == (
            self._validated(kappa).entries, 3, self._validated(kappa)._nums)

    def test_matches_the_validated_vector(self):
        # built on the signature's integers without validation, the vector
        # carries what validating the weights -k_i/d gives; orders drawn
        # from the multiples of a divisor f of d reduce D to d/f or below
        rng = random.Random(25)
        reduced = 0
        for d in range(2, 13):
            divisors = [f for f in range(1, d + 1) if d % f == 0]
            found = 0
            while found < 20:
                n, f = rng.randint(3, 9), rng.choice(divisors)
                orders = [k for k in range(1 - d, d) if k % f == 0]
                ks = [rng.choice(orders) for _ in range(n - 1)]
                last = -2 * d - sum(ks)
                if last < 1 - d:
                    continue
                kappa = Signature((*ks, last), d)
                w, checked = weights_from_signature(kappa), self._validated(kappa)
                assert (w.entries, w._den, w._nums) == (
                    checked.entries, checked._den, checked._nums), kappa
                assert all(x is _shared_weight(x) for x in w.entries)
                reduced += w._den < d
                found += 1
        assert reduced >= 40


class TestMinimalDenominator:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            (("1/2", "1/2", "1/2", "1/2"), 2),
            (("2/3", "1/2", "1/2", "1/3"), 6),
            (("5/6", "5/6", "5/6", "5/6", "-4/3"), 6),
        ],
    )
    def test_examples(self, weights, expected):
        assert minimal_denominator(parse_weights(",".join(weights))) == expected


class TestCanonicalize:
    def test_sorts(self):
        w = canonicalize(parse_weights("1/3,2/3,1/3,2/3"))
        assert w.entries == (F("1/3"), F("1/3"), F("2/3"), F("2/3"))

    def test_sorted_unchanged(self):
        w = parse_weights("1/3,1/3,2/3,2/3")
        assert canonicalize(w) == w

    def test_reflex_first(self):
        w = canonicalize(parse_weights("5/6,-4/3,5/6,5/6,5/6"))
        assert w.entries == (F("-4/3"),) + (F("5/6"),) * 4


class TestParsing:
    def test_rational(self):
        assert parse_rational("-7/3") == F(-7, 3)
        assert parse_rational("5") == 5

    def test_rational_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_rational("x/y")

    def test_signature_text(self):
        k = parse_signature("-1,-1,-1,-1:2")
        assert k.orders == (-1,) * 4 and k.level == 2

    def test_signature_negated(self):
        k = parse_signature("5,5,5,-3:6", negate_orders=True)
        assert k.orders == (-5, -5, -5, 3)

    def test_signature_without_level(self):
        with pytest.raises(ValidationError):
            parse_signature("1,2,3")

    def test_rational_decimals_still_exact(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational(" -1.5 ") == F(-3, 2)

    @pytest.mark.parametrize("text", ["1e5", "1E5", "2.5e-3", "1.e2", " 3e0 "])
    def test_rational_rejects_exponent(self, text):
        # Fraction would build 10**exponent in full: "1e999999999" never returns
        with pytest.raises(ValidationError, match="exponents are not accepted"):
            parse_rational(text)

    @pytest.mark.parametrize("text,position", [
        ("1/2,,1/2,1/2,1/2", 2), (",1/2,1/2,1/2,1/2", 1), ("1/2,1/2,1/2,1/2,", 5),
        ("1/2, ,1/2,1/2,1/2", 2), ("", 1),
    ])
    def test_weights_reject_empty_field(self, text, position):
        with pytest.raises(ValidationError, match=f"empty weight at position {position} "):
            parse_weights(text)

    @pytest.mark.parametrize("text,position", [
        ("-1,,-1,-1,-1:2", 2), ("-1,-1,-1,-1,:2", 5), (" ,-1,-1,-1,-1:2", 1),
    ])
    def test_signature_rejects_empty_field(self, text, position):
        with pytest.raises(ValidationError, match=f"empty order at position {position} "):
            parse_signature(text)


class TestPiValue:
    def test_str_and_parse(self):
        v = PiValue(F("3/4"), 2)
        assert str(v) == "3/4*pi^2"
        assert PiValue.parse(str(v)) == v

    def test_zero_equality_ignores_power(self):
        assert PiValue(F(0), 3) == PiValue(F(0), 0)
        assert str(PiValue(F(0), 3)) == "0"

    def test_power_zero(self):
        assert str(PiValue(F(-2), 0)) == "-2"
        assert PiValue.parse("-2") == PiValue(F(-2), 0)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            PiValue.parse("1/0*pi^2")

    def test_bool_power_rejected(self):
        # without the check it prints 1*pi^True
        with pytest.raises(ValidationError):
            PiValue(1, True)

    def test_product(self):
        v = PiValue(F("1/2"), 1) * PiValue(F(3), 2)
        assert v == PiValue(F("3/2"), 3)
        assert v * F("2/3") == PiValue(F(1), 3)

    def test_approx_close_to_float(self):
        import math

        assert abs(PiValue(F(1, 8), 2).approx() - math.pi ** 2 / 8) < 1e-12


signatures = st.integers(2, 8).flatmap(
    lambda d: st.integers(3, 7).flatmap(
        lambda n: st.lists(
            st.integers(1 - d, 2 * d), min_size=n - 1, max_size=n - 1
        ).map(lambda ks: (ks, d))
    )
)


@given(signatures)
def test_signature_weights_always_valid(data):
    ks, d = data
    last = -2 * d - sum(ks)
    if last < 1 - d:
        return
    kappa = Signature(tuple(ks) + (last,), d)
    w = weights_from_signature(kappa)
    assert sum(w) == 2
    assert all(x < 1 for x in w)
    assert d % minimal_denominator(w) == 0


@given(signatures, st.randoms(use_true_random=False))
def test_canonicalize_idempotent_and_permutation_invariant(data, rng):
    ks, d = data
    last = -2 * d - sum(ks)
    if last < 1 - d:
        return
    w = weights_from_signature(Signature(tuple(ks) + (last,), d))
    canon = canonicalize(w)
    assert canonicalize(canon) == canon
    shuffled = list(w.entries)
    rng.shuffle(shuffled)
    assert canonicalize(WeightVector(tuple(shuffled))) == canon
