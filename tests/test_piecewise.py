import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flatsphere import piecewise
from flatsphere.cli import _random_positive_weights, _wall_point_agrees
from flatsphere.closed_forms import _partition_sums
from flatsphere.core import ValidationError, WeightVector, parse_weights
from flatsphere.piecewise import (
    MultiPoly,
    SignDomain,
    WallError,
    an_polynomial,
    wall_continuity_check,
)
from flatsphere.partitions import enum_T1a, enum_T1b, enum_T2a, enum_T2b
from flatsphere.recursion import _coefficient, a4_closed, a_n

from util import (
    adjacent_domain_pair,
    integer_entry_point,
    level_vector,
    mu_bar_form,
    random_generic_sample,
    random_linear_terms,
    random_poly_terms,
    ref_add,
    ref_evaluate,
    ref_mul,
    ref_pow,
    ref_scale,
    ref_substitute_linear,
)

F = Fraction

GENERIC5 = [F(a, 11) for a in (9, 5, 4, 3, 1)]
GENERIC6 = [F(a, 11) for a in (10, 4, 2, 2, 2, 2)]

DATA = Path(__file__).parent / "data"
# values printed before the symbolic recursion was memoised and before the
# wall tests moved to integer subset sums
PIECES_PINNED = json.loads((DATA / "pieces_pinned.json").read_text())
SIGN_DOMAINS_PINNED = json.loads((DATA / "sign_domains_pinned.json").read_text())

# The n = 4 pieces printed before the four-point leaf moved into
# ``recursion``: per sign pattern (sigma_1, sigma_2, sigma_3) of
# mu_0 + mu_j - 1, a seeded sample and its piece 1/2 + sum(c_i x_i), with
# the c_i in quarters.  All eight patterns occur.
FOUR_POINT_PIECES = {
    (-1, -1, -1): ("-1/13,9/13,7/13,11/13", (3, -1, -1, -1)),
    (-1, -1, 1): ("16/59,28/59,30/59,44/59", (1, 1, 1, -3)),
    (-1, 1, -1): ("5/11,4/11,10/11,3/11", (1, 1, -3, 1)),
    (-1, 1, 1): ("56/59,-22/59,36/59,48/59", (-1, 3, -1, -1)),
    (1, -1, -1): ("42/59,58/59,14/59,4/59", (1, -3, 1, 1)),
    (1, -1, 1): ("4/11,10/11,-2/11,10/11", (-1, -1, 3, -1)),
    (1, 1, -1): ("8/13,10/13,11/13,-3/13", (-1, -1, -1, 3)),
    (1, 1, 1): ("10/11,6/11,4/11,2/11", (-3, 1, 1, 1)),
}


def _subset_sums(xs):
    return [sum(x for i, x in enumerate(xs) if mask >> i & 1)
            for mask in range(1 << len(xs))]


def _subset_floors(xs):
    return [math.floor(s) for s in _subset_sums(xs)]


class TestMultiPoly:
    def test_evaluate_linear(self):
        p = MultiPoly.variable(0, 2) + MultiPoly.variable(1, 2)
        assert p.evaluate([F(1, 2), F(1, 3)]) == F(5, 6)

    def test_substitute_then_evaluate(self):
        y1y2 = MultiPoly.variable(0, 2) * MultiPoly.variable(1, 2)
        forms = [
            MultiPoly.linear(0, [1, 1], 2),   # y1 -> x1 + x2
            MultiPoly.linear(2, [-1, 0], 2),  # y2 -> 2 - x1
        ]
        assert y1y2.substitute_linear(forms).evaluate([F(1), F(1)]) == 2

    def test_ring_laws_at_random_points(self):
        rng = random.Random(2)

        def rand_poly():
            terms = {}
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                terms[exps] = F(rng.randint(-5, 5))
            return MultiPoly(3, terms)

        for _ in range(10):
            p, q = rand_poly(), rand_poly()
            x = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
            assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
            assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)

    def test_no_zero_terms_stored(self):
        x = MultiPoly.variable(0, 1)
        p = x - x
        assert p.is_zero() and p.terms == {}
        square = (x + 1) * (x - 1)
        assert square.terms == {(2,): F(1), (0,): F(-1)}
        assert (square * 0).is_zero() and (square * 0).terms == {}

    def test_arithmetic_matches_public_constructor(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        results = [x - x, (x + 1) * (x - 1), (x + y) * 0, -(x * y) + F(1, 2),
                   (x + y) ** 3 - 3 * x * y * (x + y)]
        for p in results:
            assert all(isinstance(c, F) and c != 0 for c in p.terms.values())
            assert MultiPoly(2, p.terms) == p
        assert results[4] == MultiPoly(2, {(3, 0): 1, (0, 3): 1})

    def test_public_constructor_validates(self):
        with pytest.raises(ValidationError):
            MultiPoly(2, {(1, 0): 0.5})
        with pytest.raises(ValidationError):
            MultiPoly(2, {(1, 0, 0): F(1)})
        with pytest.raises(ValidationError):
            MultiPoly.variable(0, 2) * 0.5

    def test_named_constructors_match_public_constructor(self):
        cases = [
            (MultiPoly.constant(F(3, 4), 3), {(0, 0, 0): F(3, 4)}),
            (MultiPoly.constant(0, 3), {}),
            (MultiPoly.constant("2/6", 2), {(0, 0): F(1, 3)}),
            (MultiPoly.variable(1, 3), {(0, 1, 0): 1}),
            (MultiPoly.linear(2, [-1, 0, F(1, 2)], 3),
             {(0, 0, 0): 2, (1, 0, 0): -1, (0, 0, 1): F(1, 2)}),
            (MultiPoly.linear(0, [0, 0], 2), {}),
            (MultiPoly.linear(F(-1, 3), [1], 2),
             {(0, 0): F(-1, 3), (1, 0): 1}),
        ]
        for poly, terms in cases:
            public = MultiPoly(poly.nvars, terms)
            assert poly == public
            assert poly.terms == public.terms
            assert all(type(c) is F and c != 0 for c in poly.terms.values())
        two = MultiPoly.variable(0, 2)
        assert MultiPoly.linear(1, [3, -2], 2) == (
            1 + 3 * two - 2 * MultiPoly.variable(1, 2))

    def test_named_constructors_validate(self):
        with pytest.raises(ValidationError):
            MultiPoly.constant(0.5, 2)
        with pytest.raises(ValidationError):
            MultiPoly.linear(0.5, [1, 0], 2)
        with pytest.raises(ValidationError):
            MultiPoly.linear(0, [1, 0.25], 2)
        with pytest.raises(ValidationError):
            MultiPoly.linear(0, ["x"], 2)
        # variable(-1, 3) used to give x_2 without a word, and the others a
        # bare IndexError
        for index in (-1, 3, True):
            with pytest.raises(ValidationError):
                MultiPoly.variable(index, 3)
        with pytest.raises(ValidationError):
            MultiPoly.linear(0, [1, 2, 3, 4], 3)

    @pytest.mark.parametrize("build", [
        lambda: MultiPoly(-1, {}),
        lambda: MultiPoly("2", {}),
        lambda: MultiPoly(True, {(1,): 1}),
        lambda: MultiPoly.from_json(-3, []),
        lambda: MultiPoly.constant(1, -1),
        lambda: MultiPoly.constant(1, 2.0),
        lambda: MultiPoly.variable(0, 2.0),
        lambda: MultiPoly.linear(0, [1], "2"),
    ], ids=["negative", "text", "bool", "from_json_negative", "constant_negative",
            "constant_float", "variable_float", "linear_text"])
    def test_rejects_invalid_variable_count(self, build):
        # each of these used to build a junk polynomial, or raise a bare
        # TypeError
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize("exponent", [2.0, 1.5, "2", True, -1],
                             ids=["float", "fraction_float", "text", "bool", "negative"])
    def test_rejects_invalid_power(self, exponent):
        # floats and text used to raise a bare TypeError, True to give p ** 1
        with pytest.raises(ValidationError):
            MultiPoly.linear(1, [1, 2], 2) ** exponent

    def test_zero_variables_accepted(self):
        assert MultiPoly(0, {(): 3}) == MultiPoly.constant(3, 0)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValidationError):
            MultiPoly.variable(0, 2) + MultiPoly.variable(0, 3)

    def test_json_round_trip(self):
        p = MultiPoly(2, {(1, 0): F(1, 2), (0, 2): F(-3)})
        assert MultiPoly.from_json(2, p.to_json()) == p

    def test_rejects_fractional_exponent(self):
        # int(1.5) used to turn this into x_0 without a word
        with pytest.raises(ValidationError):
            MultiPoly(2, {(1.5, 0): 1})
        with pytest.raises(ValidationError):
            MultiPoly.from_json(2, [[[1.5, 0], "1"]])

    def test_rejects_negative_exponent(self):
        # used to give total_degree() == -1 and an evaluate that divides
        with pytest.raises(ValidationError):
            MultiPoly(2, {(-1, 0): 1})
        with pytest.raises(ValidationError):
            MultiPoly.from_json(2, [[[-1, 0], "1"]])

    def test_rejects_text_exponent(self):
        with pytest.raises(ValidationError):
            MultiPoly(2, {("1", 0): 1})
        with pytest.raises(ValidationError):
            MultiPoly.from_json(2, [[["1", 0], "1"]])


class TestMultiPolyRepresentation:
    """Integer numerators over one denominator, against the Fraction-dict
    reference in tests/util.py."""

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_arithmetic_matches_fraction_reference(self, nvars):
        rng = random.Random(900 + nvars)
        for _ in range(6):
            a = random_poly_terms(rng, nvars)
            b = random_poly_terms(rng, nvars, count=3)
            p, q = MultiPoly(nvars, a), MultiPoly(nvars, b)
            # the reference keeps the zero coefficients the constructor drops
            assert p.terms == ref_add({}, a) and q.terms == ref_add({}, b)
            scalar = F(rng.randint(-5, 5), rng.randint(1, 6))
            assert (p + q).terms == ref_add(a, b)
            assert (p - q).terms == ref_add(a, ref_scale(b, -1))
            assert (-p).terms == ref_scale(a, -1)
            assert (p * scalar).terms == ref_scale(a, scalar)
            assert (3 * p).terms == ref_scale(a, 3)
            assert (p + scalar).terms == ref_add(a, {(0,) * nvars: scalar})
            assert (p * q).terms == ref_mul(a, b)
            for k in range(4):
                assert (q ** k).terms == ref_pow(b, k, nvars)
            point = [F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(nvars)]
            assert p.evaluate(point) == ref_evaluate(a, point)

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_substitute_linear_matches_one_factor_at_a_time(self, nvars):
        rng = random.Random(950 + nvars)
        # top exponents above 1 put different powers of a form's denominator
        # into different terms; fewer of them at larger n keeps this quick
        degree = 3 if nvars <= 2 else 2 if nvars <= 4 else 1
        for target in (nvars, 3):
            p = MultiPoly(nvars, random_poly_terms(rng, nvars, count=6, degree=degree))
            forms = [MultiPoly(target, random_linear_terms(rng, target))
                     for _ in range(nvars)]
            got = p.substitute_linear(forms)
            assert got.nvars == target
            assert got.terms == ref_substitute_linear(
                p.terms, [f.terms for f in forms], target)
        # the sub-piece forms: a renaming of the variables and 2 - (a block)
        piece = MultiPoly(4, random_poly_terms(rng, 4, count=8, degree=2))
        forms = [MultiPoly.variable(i, 4) for i in (2, 0, 3)]
        forms.insert(1, MultiPoly.linear(2, [-1, 0, -1, -1], 4))
        assert piece.substitute_linear(forms).terms == ref_substitute_linear(
            piece.terms, [f.terms for f in forms], 4)

    def test_equal_values_built_differently_compare_equal(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        pairs = [
            (MultiPoly(2, {(1, 0): F(2, 4)}), MultiPoly(2, {(1, 0): F(1, 2)})),
            (MultiPoly(2, {(0, 0): 3, (1, 1): 0}), MultiPoly.constant(3, 2)),
            (x * F(1, 6) + x * F(1, 3), MultiPoly(2, {(1, 0): F(1, 2)})),
            ((x + y) ** 2, x * x + 2 * x * y + y * y),
            (MultiPoly.linear(F(1, 3), [F(2, 3), 0], 2) * 3,
             MultiPoly.linear(1, [2, 0], 2)),
            (MultiPoly.linear(0, [1, 1], 2).substitute_linear(
                [MultiPoly.linear(F(1, 2), [1], 1), MultiPoly.linear(F(-1, 2), [1], 1)]),
             2 * MultiPoly.variable(0, 1)),
            (MultiPoly.from_json(2, [[[1, 0], "2/6"]]), x * F(1, 3)),
        ]
        for left, right in pairs:
            assert left == right
            assert left.terms == right.terms
        assert x != y and x != MultiPoly.variable(0, 3)

    def test_lowest_terms_after_cancellation(self):
        x = MultiPoly.variable(0, 1)
        zero = MultiPoly(1)
        for p in (x - x, (x * F(1, 3)) - (x * F(1, 3)), (x + 1) * (x - 1) * 0):
            assert p.is_zero() and p.terms == {} and p == zero
        assert (x + 1) * (x - 1) == MultiPoly(1, {(2,): 1, (0,): -1})
        assert (x * F(1, 3) + F(1, 6)) * 6 == 2 * x + 1
        rng = random.Random(31)
        for _ in range(20):
            p = MultiPoly(3, random_poly_terms(rng, 3))
            q = MultiPoly(3, random_poly_terms(rng, 3))
            for result in (p + q, p * q, (p + q) - q, p * F(2, 3), q ** 2):
                # one positive denominator, coprime to the numerators
                assert result._den > 0
                assert math.gcd(result._den, *result._num.values()) == 1
            assert (p + q) - q == p

    def test_terms_are_exact_nonzero_fractions(self):
        rng = random.Random(32)
        p = MultiPoly(3, random_poly_terms(rng, 3, count=8))
        for poly in (p, p * p, p - 1, MultiPoly.linear(F(1, 2), [3, 0, F(-2, 5)], 3)):
            terms = poly.terms
            assert terms and all(type(c) is F and c != 0 for c in terms.values())
            assert all(type(e) is int for exps in terms for e in exps)
            # a fresh dict: changing it leaves the polynomial alone
            terms.clear()
            assert not poly.is_zero()

    def test_rejects_floats(self):
        x = MultiPoly.variable(0, 2)
        with pytest.raises(ValidationError):
            MultiPoly(2, {(1, 0): 0.5})
        with pytest.raises(ValidationError):
            MultiPoly.from_json(2, [[[1, 0], 0.5]])
        with pytest.raises(ValidationError):
            x + 0.5
        with pytest.raises(ValidationError):
            0.5 * x
        with pytest.raises(ValidationError):
            x.evaluate([0.5, 1])


class TestSignDomain:
    def test_generic_sample_accepted(self):
        dom = SignDomain(GENERIC5)
        assert dom.n == 5 and len(dom.signs) == 10

    def test_on_wall_sample_rejected_with_wall(self):
        with pytest.raises(WallError) as err:
            SignDomain(parse_weights("2/3,1/3,1/3,1/3,1/3"))
        assert "wall" in str(err.value)

    def test_integral_subset_rejected(self):
        with pytest.raises(WallError) as err:
            SignDomain(parse_weights("0,5/6,5/6,5/6,-1/2"))
        assert err.value.subset == frozenset({0})

    def test_signs_built_on_first_access(self):
        # construction checks the walls but leaves the signs to whoever
        # reads them; the integer subset sums stay on the domain
        dom = SignDomain(GENERIC5)
        assert "signs" not in vars(dom)
        assert dom._den == 11
        assert dom._sums[0b10011] == 9 + 5 + 1
        signs = dom.signs
        assert len(signs) == 10 and dom.signs is signs
        assert signs[frozenset({1, 2})] == -1 and signs[frozenset({1, 2, 3})] == 1

    def test_same_pattern(self):
        dom = SignDomain(GENERIC5)
        assert dom.same_pattern(GENERIC5)
        swapped = [GENERIC5[i] for i in (4, 1, 2, 3, 0)]
        assert not dom.same_pattern(swapped)

    def test_generic_samples_pinned(self):
        # n = 4..8; the signs are compared in insertion order, which callers
        # that walk dom.signs (wall_continuity_check) depend on; the probes
        # are jittered and permuted samples and points on exactly one wall
        for case in SIGN_DOMAINS_PINNED["generic"]:
            dom = SignDomain(parse_weights(case["sample"]))
            signs = [[sorted(block), sign] for block, sign in dom.signs.items()]
            assert signs == case["signs"], case["sample"]
            assert dom.signs_json() == case["signs_json"], case["sample"]
            for probe in case["probes"]:
                got = dom.same_pattern(parse_weights(probe["point"]))
                assert got is probe["same_pattern"], (case["sample"], probe["point"])

    def test_on_wall_samples_pinned(self):
        # n = 4..8, two-block walls and integral subsets; most samples have
        # several offending subsets, and the first in combinations order
        # (by size, then lexicographically) is the one reported, by the
        # constructor, with no read of the signs
        for case in SIGN_DOMAINS_PINNED["on_wall"]:
            with pytest.raises(WallError) as err:
                SignDomain(parse_weights(case["sample"]))
            assert str(err.value) == case["message"], case["sample"]
            assert err.value.subset == frozenset(case["subset"]), case["sample"]


class TestAnPolynomial:
    def test_three_points_constant_one(self):
        poly = an_polynomial(SignDomain(parse_weights("2/3,2/3,2/3")))
        assert poly == MultiPoly.constant(1, 3)

    def test_four_point_piece_matches_closed_form_nearby(self):
        rng = random.Random(4)
        for _ in range(8):
            sample = random_generic_sample(rng, 4)
            piece = an_polynomial(SignDomain(sample))
            assert piece.total_degree() <= 1
            assert piece.evaluate(sample.entries) == a4_closed(sample)

    @pytest.mark.parametrize("signs", sorted(FOUR_POINT_PIECES))
    def test_four_point_pieces_pinned(self, signs):
        text, quarters = FOUR_POINT_PIECES[signs]
        sample = parse_weights(text)
        mu = sample.entries
        assert tuple(1 if mu[0] + mu[j] > 1 else -1 for j in (1, 2, 3)) == signs
        want = MultiPoly.linear(F(1, 2), [F(c, 4) for c in quarters], 4)
        assert an_polynomial(SignDomain(sample)) == want

    def test_degree_bound_and_sample_value(self):
        for sample in (GENERIC5, GENERIC6):
            domain = SignDomain(sample)
            piece = an_polynomial(domain)
            assert piece.total_degree() <= len(sample) - 3
            assert piece.evaluate(sample) == a_n(sample)

    def test_agrees_with_recursion_inside_domain(self):
        rng = random.Random(12)
        domain = SignDomain(GENERIC5)
        piece = an_polynomial(domain)
        hits = 0
        while hits < 12:
            jitter = [rng.randint(-40, 40) for _ in range(5)]
            shift = sum(jitter)
            point = [
                GENERIC5[i] + F(jitter[i] * 5 - shift, 5 * 11 * 997)
                for i in range(5)
            ]
            if not domain.same_pattern(point):
                continue
            assert piece.evaluate(point) == a_n(point)
            hits += 1

    def test_table_value_through_continuity(self):
        # the reference five-point weight (2/3,1/3,1/3,1/3,1/3) sits on walls;
        # the piece of a neighbouring domain extends continuously to it
        base = parse_weights("2/3,1/3,1/3,1/3,1/3")
        shift = (2, -3, 1, 1, -1)
        nearby = WeightVector(
            tuple(base[i] + F(shift[i], 9999) for i in range(5)))
        piece = an_polynomial(SignDomain(nearby))
        assert piece.evaluate(base.entries) == F(1, 9)

    def test_integer_entry_points_evaluate_to_zero(self):
        domain = SignDomain(GENERIC5)
        piece = an_polynomial(domain)
        point = integer_entry_point(domain)
        assert point is not None
        assert piece.evaluate(point.entries) == 0
        assert a_n(point) == 0

    @pytest.mark.parametrize("case", PIECES_PINNED["an_polynomial"],
                             ids=lambda case: f"seed{case['seed']}")
    def test_json_pinned(self, case):
        sample = random_generic_sample(random.Random(case["seed"]), case["n"])
        assert str(sample) == case["sample"]
        assert an_polynomial(SignDomain(sample)).to_json() == case["terms"]

    def test_each_sub_piece_built_once_per_call(self, monkeypatch):
        # the recursion builds each sorted sub-sample once and keeps nothing
        # between top-level calls, so a second call does the same work
        built = []
        original = piecewise._piece

        def recording(n, sums, den, memo):
            built.append(tuple(F(sums[1 << i], den) for i in range(n)))
            return original(n, sums, den, memo)

        monkeypatch.setattr(piecewise, "_piece", recording)
        # without the memo this piece makes 100 builds for 50 sorted samples
        sample = random_generic_sample(random.Random(1), 6)
        first = an_polynomial(SignDomain(sample))
        per_call = len(built)
        second = an_polynomial(SignDomain(sample))
        assert first == second
        assert len(built) == 2 * per_call
        assert built[0] == tuple(sample)
        assert built[per_call:] == built[:per_call]
        sub_samples = built[1:per_call]
        assert len(set(sub_samples)) == len(sub_samples)
        assert all(list(s) == sorted(s) for s in sub_samples)

    def test_permutation_equivariance(self):
        sample = WeightVector(tuple(GENERIC5))
        piece = an_polynomial(SignDomain(sample))
        perm = [2, 0, 4, 1, 3]
        permuted = WeightVector(tuple(sample[p] for p in perm))
        piece_p = an_polynomial(SignDomain(permuted))
        relabeled = {}
        for exps, coeff in piece.terms.items():
            new = [0] * 5
            for pos in range(5):
                new[perm.index(pos)] = exps[pos]
            relabeled[tuple(new)] = coeff
        assert piece_p == MultiPoly(5, relabeled)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_piece_depends_only_on_chamber(self, n):
        # a piece is fixed by the floors of the subset sums of its sample: a
        # second sample over another denominator with the same floors gives
        # the same polynomial, although no sub-sample of the two is shared
        rng = random.Random(80 + n)
        for _ in range(2):
            sample = random_generic_sample(rng, n)
            floors = _subset_floors(sample.entries)
            while True:
                shift = [rng.randint(-4, 4) for _ in range(n - 1)]
                shift.append(-sum(shift))
                other = [x + F(k, 7 * 101) for x, k in zip(sample.entries, shift)]
                if (max(other) < 1 and any(shift)
                        and _subset_floors(other) == floors
                        and not any(s.denominator == 1
                                    for s in _subset_sums(other)[1:-1])):
                    break
            assert an_polynomial(SignDomain(other)) == an_polynomial(SignDomain(sample))


class TestMcMullenPiece:
    """On a sign domain of positive weights each factor max(0, 1 - mu(B))^(|B|-1)
    of McMullen's partition sum is one polynomial or 0, fixed by the sample,
    so the sum is a polynomial to compare with the piece: a check with no
    recursion enumeration."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_partition_sum_polynomial_matches_piece(self, n):
        rng = random.Random(90 + n)
        # x_{n-1} = 2 - (x_0 + ... + x_{n-2}) on both sides
        forms = [MultiPoly.variable(i, n) for i in range(n - 1)]
        forms.append(MultiPoly.linear(2, [-1] * (n - 1), n))
        checked = 0
        while checked < 2:
            try:
                domain = SignDomain(_random_positive_weights(rng, n))
            except WallError:
                continue
            sums, den = domain._sums, domain._den
            factors = [0] + [
                MultiPoly.linear(1, [-(m >> i & 1) for i in range(n)], n)
                ** (m.bit_count() - 1) if sums[m] < den else 0
                for m in range(1, 1 << n)]
            by_blocks = _partition_sums(n, factors)
            total = sum(((-1) ** (k + 1) * math.factorial(k - 3) * by_blocks[k]
                         for k in range(3, n + 1)), MultiPoly(n))
            mcmullen = total * F((-1) ** (n + 1), n - 2)
            piece = an_polynomial(domain)
            assert mcmullen.substitute_linear(forms) == piece.substitute_linear(forms)
            checked += 1


class TestSubPiece:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_renaming_matches_substitute_linear(self, n):
        # the renamed sub-piece against the general substitution of the
        # sorted piece: the composite 2 - sum(x_i, i in heavy) and the
        # variables x_i, in sorted order; the memo holds the sorted piece
        # under the sorted numerators of the sub-sample over the sample's
        # denominator
        rng = random.Random(70 + n)
        for q in (101, 101, 30):
            sample = random_generic_sample(rng, n, q)
            domain = SignDomain(sample)
            den = domain._den
            memo = {}
            for rec in enum_T1a(sample) + enum_T2a(sample):
                for block in rec.heavy_blocks:
                    heavy = sorted(block)
                    got = piecewise._sub_piece(n, domain._sums, den, heavy, memo)
                    sub = (2 - sample.subset_sum(heavy), *(sample[i] for i in heavy))
                    order = sorted(range(len(sub)), key=sub.__getitem__)
                    piece = memo[tuple(int(sub[j] * den) for j in order)]
                    forms = [MultiPoly.linear(2, [-1 if i in heavy else 0
                                                  for i in range(n)], n)]
                    forms += [MultiPoly.variable(i, n) for i in heavy]
                    assert got == piece.substitute_linear([forms[j] for j in order])


class TestCoefficientTemplate:
    """The coefficient an_polynomial builds from a per-shape template is the
    recursion's coefficient applied to the linear forms mu(I) - 1."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_template_matches_coefficient_on_forms(self, n):
        rng = random.Random(60 + n)
        # T1a has one heavy block of n - 2 weights; T2a two heavy blocks
        # that share the n - 1 weights besides the negative singleton
        shapes = [("T1a", (n - 2,))]
        shapes += [("T2a", (n1, n - 1 - n1)) for n1 in range(2, n - 2)]
        for family, sizes in shapes:
            template = piecewise._template(family, sizes, n)
            for _ in range(3):
                indices = rng.sample(range(n), n)
                blocks, start = [], n - sum(sizes)
                for size in sizes:
                    blocks.append(sorted(indices[start:start + size]))
                    start += size
                want = _coefficient(family, [mu_bar_form(b, n) for b in blocks],
                                    sizes, 1, n)
                assert piecewise._from_template(template, blocks, n) == want


class TestCoefficientForms:
    """The recursion's signed coefficients, applied to the linear forms of
    the excess weights, evaluate to their values on Fractions."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_forms_match_fraction_values(self, n):
        rng = random.Random(40 + n)
        sample = random_generic_sample(rng, n)
        points = [[F(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(n)]
                  for _ in range(3)]

        def mu_bar(block, point):
            return sum(point[i] for i in block) - 1

        for rec in enum_T1a(sample) + enum_T2a(sample):
            heavies = rec.heavy_blocks
            form = _coefficient(rec.family, [mu_bar_form(h, n) for h in heavies],
                                rec.block_sizes, rec.epsilon, n)
            for point in points:
                want = _coefficient(rec.family, [mu_bar(h, point) for h in heavies],
                                    rec.block_sizes, rec.epsilon, n)
                assert form.evaluate(point) == want


class TestWallContinuity:
    def test_adjacent_pair(self):
        rng = random.Random(21)
        sample = random_generic_sample(rng, 5)
        built = adjacent_domain_pair(rng, sample)
        assert built is not None
        dom_a, dom_b, wall, points = built
        assert wall_continuity_check(dom_a, dom_b, points)

    def test_four_point_wall_value(self):
        # on a four-point wall the flipped pairing term vanishes, so both
        # pieces agree with the closed form there
        rng = random.Random(23)
        sample = random_generic_sample(rng, 4)
        built = adjacent_domain_pair(rng, sample)
        assert built is not None
        dom_a, dom_b, wall, points = built
        assert wall_continuity_check(dom_a, dom_b, points)
        piece_a = an_polynomial(dom_a)
        piece_b = an_polynomial(dom_b)
        for point in points:
            expected = a4_closed(point)
            assert piece_a.evaluate(point.entries) == expected
            assert piece_b.evaluate(point.entries) == expected

    def test_rejects_point_of_another_length(self):
        rng = random.Random(21)
        sample = random_generic_sample(rng, 5)
        dom_a, dom_b, _, _ = adjacent_domain_pair(rng, sample)
        with pytest.raises(ValidationError, match="4 weights"):
            wall_continuity_check(dom_a, dom_b, [[F(1, 2)] * 4])

    def test_rejects_same_domain(self):
        dom = SignDomain(GENERIC5)
        with pytest.raises(ValidationError):
            wall_continuity_check(dom, dom, [])

    def test_rejects_point_off_wall(self):
        rng = random.Random(22)
        sample = random_generic_sample(rng, 5)
        built = adjacent_domain_pair(rng, sample)
        assert built is not None
        dom_a, dom_b, wall, _ = built
        with pytest.raises(ValidationError):
            wall_continuity_check(dom_a, dom_b, [dom_a.sample])

    def test_rejects_point_on_a_second_wall(self):
        # with mu_k = mu_i for an i inside the wall W and a k > 0 outside
        # it, the point is on W and on W - {i} + {k}; index 0 takes up the
        # difference, which keeps mu(W) = 1
        rng = random.Random(22)
        sample = random_generic_sample(rng, 5)
        dom_a, dom_b, wall, points = adjacent_domain_pair(rng, sample)
        point = list(points[0])
        i, k = min(wall), min(set(range(1, 5)) - wall)
        point[0] += point[k] - point[i]
        point[k] = point[i]
        with pytest.raises(ValidationError, match="second wall"):
            wall_continuity_check(dom_a, dom_b, [point])


class TestWallFamilies:
    """a_n on walls against the piece of a neighbouring chamber.

    Where no weight is an integer the volume is continuous, so the piece of
    any chamber next to a wall point takes a_n's value there.  A piece is
    built from the T1a and T2a families only (a generic sample has no
    integral subset), while a_n at a wall point also sums T1b and T2b terms:
    this checks those two families against the other two.  At n = 5 a_n is
    the integer leaf and the piece comes from ``_piece``, so the leaf's T1b
    term is checked independently; T2b needs n >= 6."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_level_vectors_with_wall_records(self, n):
        rng = random.Random(f"walls:{n}")
        points, t1b, t2b = [], 0, 0
        while len(points) < 12:
            w = level_vector(rng, n, rng.choice((3, 4, 5, 6)))
            has_t1b, has_t2b = bool(enum_T1b(w)), bool(enum_T2b(w))
            if has_t1b or has_t2b:
                points.append(w)
                t1b, t2b = t1b + has_t1b, t2b + has_t2b
        assert t1b and (t2b or n == 5)
        for w in points:
            assert _wall_point_agrees(w, rng), w
