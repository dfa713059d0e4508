import random
from fractions import Fraction

import pytest

from flatsphere.core import ValidationError, WeightVector, parse_weights
from flatsphere.piecewise import (
    MultiPoly,
    SignDomain,
    WallError,
    an_polynomial,
    wall_continuity_check,
)
from flatsphere.recursion import a4_closed, a_n

from util import adjacent_domain_pair, integer_entry_point, random_generic_sample

F = Fraction

GENERIC5 = [F(a, 11) for a in (9, 5, 4, 3, 1)]
GENERIC6 = [F(a, 11) for a in (10, 4, 2, 2, 2, 2)]


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

    def test_variable_count_mismatch(self):
        with pytest.raises(ValidationError):
            MultiPoly.variable(0, 2) + MultiPoly.variable(0, 3)

    def test_json_round_trip(self):
        p = MultiPoly(2, {(1, 0): F(1, 2), (0, 2): F(-3)})
        assert MultiPoly.from_json(2, p.to_json()) == p


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

    def test_same_pattern(self):
        dom = SignDomain(GENERIC5)
        assert dom.same_pattern(GENERIC5)
        swapped = [GENERIC5[i] for i in (4, 1, 2, 3, 0)]
        assert not dom.same_pattern(swapped)


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
