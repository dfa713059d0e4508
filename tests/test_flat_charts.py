import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from flatsphere import flat_charts, tables
from flatsphere.core import PiValue, Signature, ValidationError
from flatsphere.flat_charts import (
    CY_I,
    CY_OMEGA,
    CY_ONE,
    CY_SQRT3,
    Cyclo24,
    HermitianForm,
    QuadInt,
    UnsupportedChart,
    UnsupportedLevel,
    _NORMS,
    _area_entries,
    _zeta_power,
    area_form,
    chart_constraint,
    is_single_polygon,
    lattice_index,
    mv_ratio,
    mv_table_entry,
    quadint_gcd,
)

from util import chart_orders

F = Fraction


def random_cyclo(rng: random.Random) -> Cyclo24:
    return Cyclo24([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)])


class TestCyclo24:
    def test_constants(self):
        zeta = Cyclo24.zeta_pow(1)
        assert zeta ** 24 == CY_ONE
        assert zeta ** 8 == zeta ** 4 - CY_ONE  # minimal polynomial
        assert CY_I * CY_I == -CY_ONE
        assert CY_OMEGA * CY_OMEGA + CY_OMEGA + CY_ONE == Cyclo24([0])
        assert CY_SQRT3 * CY_SQRT3 == Cyclo24([3])
        assert Cyclo24.zeta_pow(8) == CY_OMEGA

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(12):
            x, y, z = (random_cyclo(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == CY_ONE
                assert (CY_ONE / x) * x == CY_ONE

    def test_conjugation_is_involutive_automorphism(self):
        rng = random.Random(8)
        for _ in range(10):
            x, y = random_cyclo(rng), random_cyclo(rng)
            assert x.conj().conj() == x
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()

    def test_reality_and_rationality(self):
        assert CY_SQRT3.is_real() and not CY_SQRT3.is_rational()
        assert not CY_I.is_real()
        assert Cyclo24([F(5, 3)]).rational_value() == F(5, 3)
        with pytest.raises(ValidationError):
            CY_SQRT3.rational_value()

    def test_imag(self):
        two = Cyclo24([2])
        assert CY_I.imag() == CY_ONE
        assert CY_OMEGA.imag() == CY_SQRT3 / two
        assert CY_SQRT3.imag() == Cyclo24([0])


def _ref_reduce(poly: list[Fraction]) -> list[Fraction]:
    """Reference reduction modulo zeta^8 = zeta^4 - 1 on Fraction lists."""
    poly = list(poly)
    while len(poly) > 8:
        top = poly.pop()
        poly[len(poly) - 4] += top
        poly[len(poly) - 8] -= top
    return poly + [F(0)] * (8 - len(poly))


def _ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    prod = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod)


def _ref_conj(a: list[Fraction]) -> list[Fraction]:
    out = [F(0)] * 8
    for k, c in enumerate(a):
        basis = _ref_reduce([F(0)] * ((24 - k) % 24) + [F(1)])
        out = [o + c * e for o, e in zip(out, basis)]
    return out


def _ref_inverse(a: list[Fraction]) -> list[Fraction]:
    """Solve a * y = 1 as an 8x8 Fraction linear system (Gauss-Jordan)."""
    columns = [_ref_mul(a, [F(0)] * j + [F(1)]) for j in range(8)]
    rows = [[columns[j][i] for j in range(8)] + [F(i == 0)] for i in range(8)]
    for col in range(8):
        pivot = next(r for r in range(col, 8) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(8):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[8] for row in rows]


class TestCyclo24Representation:
    """Integer-numerator arithmetic against Fraction-list references."""

    def test_arithmetic_matches_fraction_reference(self):
        rng = random.Random(24)
        for _ in range(40):
            x, y = random_cyclo(rng), random_cyclo(rng)
            a, b = list(x.coeffs), list(y.coeffs)
            assert list((x * y).coeffs) == _ref_mul(a, b)
            assert list((x + y).coeffs) == [p + q for p, q in zip(a, b)]
            assert list((x - y).coeffs) == [p - q for p, q in zip(a, b)]
            assert list((-x).coeffs) == [-p for p in a]
            assert list(x.conj().coeffs) == _ref_conj(a)
            assert list((x ** 3).coeffs) == _ref_mul(_ref_mul(a, a), a)
            if not x.is_zero():
                assert list(x.inverse().coeffs) == _ref_inverse(a)
                assert list((x ** -2).coeffs) == _ref_mul(
                    _ref_inverse(a), _ref_inverse(a))

    def test_scalar_operands(self):
        rng = random.Random(25)
        x = random_cyclo(rng)
        a = list(x.coeffs)
        assert list((x * F(3, 7)).coeffs) == [p * F(3, 7) for p in a]
        assert list((2 * x).coeffs) == [2 * p for p in a]
        assert list((x + 1).coeffs) == [a[0] + 1] + a[1:]
        assert list((1 - x).coeffs) == [1 - a[0]] + [-p for p in a[1:]]

    def test_equal_values_compare_and_hash_equal(self):
        pairs = [
            (Cyclo24([F(2, 4)]), Cyclo24([F(1, 2)])),
            (Cyclo24([1, 0, 0]), Cyclo24([1])),
            (Cyclo24([0] * 8 + [1]), Cyclo24([0, 0, 0, 0, 1]) - CY_ONE),
            (Cyclo24([F(1, 3), F(2, 3)]) * 3, Cyclo24([1, 2])),
            (Cyclo24.zeta_pow(8), CY_OMEGA),
            (Cyclo24([F(6, 4), F(-3, 9)]), Cyclo24(["3/2", F(-1, 3)])),
        ]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)
        assert len({Cyclo24([F(2, 4)]), Cyclo24([F(1, 2)])}) == 1
        assert Cyclo24([F(1, 2)]) == F(1, 2)
        assert Cyclo24([5]) == 5
        assert CY_I != CY_ONE

    def test_lowest_terms_after_cancellation(self):
        rng = random.Random(26)
        for _ in range(10):
            x, y = random_cyclo(rng), random_cyclo(rng)
            total = (x + y) - y
            assert total == x and hash(total) == hash(x)
        assert Cyclo24([F(1, 3)]) * 3 == CY_ONE
        assert (CY_I - CY_I).is_zero() and CY_I - CY_I == Cyclo24([])

    def test_coeffs_is_fraction_tuple(self):
        value = Cyclo24([1, F(1, 2)])
        assert isinstance(value.coeffs, tuple) and len(value.coeffs) == 8
        assert all(type(c) is Fraction for c in value.coeffs)
        assert value.coeffs[:2] == (F(1), F(1, 2))
        assert repr(Cyclo24([F(1, 2)])) == (
            "Cyclo24([Fraction(1, 2)" + ", Fraction(0, 1)" * 7 + "])")

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            Cyclo24([0.5])
        with pytest.raises(ValidationError):
            Cyclo24.from_rational(0.5)
        with pytest.raises(ValidationError):
            CY_I * 0.5
        with pytest.raises(ValidationError):
            Cyclo24(["not a number"])

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo24([0]).inverse()

    @pytest.mark.parametrize("exponent", [2.0, 1.5, True])
    def test_power_needs_an_int_exponent(self, exponent):
        with pytest.raises(ValidationError):
            CY_I ** exponent

    def test_zeta_pow_needs_an_int(self):
        with pytest.raises(ValidationError):
            Cyclo24.zeta_pow(1.5)


class TestQuadInt:
    def test_norms(self):
        assert QuadInt(3, 4, False).norm() == 25
        assert QuadInt(2, 1, True).norm() == 3
        assert QuadInt(1, -1, True).norm() == 3

    def test_bool_part_rejected(self):
        # without the check it prints True+0i
        with pytest.raises(ValidationError):
            QuadInt(True, 0, False)

    def test_euclidean_division(self):
        rng = random.Random(10)
        for omega in (False, True):
            for _ in range(40):
                x = QuadInt(rng.randint(-20, 20), rng.randint(-20, 20), omega)
                y = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9), omega)
                if y.is_zero():
                    continue
                q, r = divmod(x, y)
                assert y * q + r == x
                assert r.norm() < y.norm()

    def test_gcd_divides(self):
        rng = random.Random(11)
        for omega in (False, True):
            for _ in range(20):
                g0 = QuadInt(rng.randint(1, 5), rng.randint(0, 5), omega)
                if g0.is_zero():
                    continue
                a = g0 * QuadInt(rng.randint(-4, 4), rng.randint(-4, 4), omega)
                b = g0 * QuadInt(rng.randint(-4, 4), rng.randint(-4, 4), omega)
                if a.is_zero() and b.is_zero():
                    continue
                g = quadint_gcd(a, b)
                if not a.is_zero():
                    assert (a % g).is_zero()
                if not b.is_zero():
                    assert (b % g).is_zero()
                assert g.norm() % g0.norm() == 0

    def test_to_cyclo(self):
        assert QuadInt(1, 1, True).to_cyclo() == CY_ONE + CY_OMEGA
        assert QuadInt(0, -1, False).to_cyclo() == -CY_I


class TestChartConstraint:
    def test_pillowcase_all_twos(self):
        cs = chart_constraint(Signature((-1, -1, -1, -1), 2))
        assert [(c.a, c.b) for c in cs] == [(2, 0)] * 3

    def test_level_four_example(self):
        cs = chart_constraint(Signature((-3, -2, -2, -1), 4))
        assert (cs[0].a, cs[0].b) == (1, -1)
        assert (cs[1].a, cs[1].b) == (2, 0)
        assert (cs[2].a, cs[2].b) == (2, 0)

    def test_level_three_values(self):
        cs = chart_constraint(Signature((-2, -2, -1, -1), 3))
        # 1 - omega^{-2} = 1 - omega and 1 - omega^{-1} = 1 - omega^2 = 2 + omega
        assert {(c.a, c.b) for c in cs} == {(1, -1), (2, 1)}

    def test_reflex_moved_last(self):
        cs = chart_constraint(Signature((-5, 8, -5, -5, -5), 6))
        assert len(cs) == 4
        assert len({(c.a, c.b) for c in cs}) == 1  # all from the -5 orders

    def test_two_reflex_rejected(self):
        with pytest.raises(UnsupportedChart):
            chart_constraint(Signature((-5, -5, -4, 1, 1), 6))

    def test_bad_level_rejected(self):
        with pytest.raises(UnsupportedLevel):
            chart_constraint(Signature((-4, -4, -1, -1), 5))

    def test_divisible_order_rejected(self):
        kappa = Signature((-1, -1, -1, -1, 0), 2)
        with pytest.raises(ValidationError):
            chart_constraint(kappa)


class TestAreaForm:
    def test_hermitian_everywhere(self):
        for orders, d in [
            ((-1, -1, -1, -1), 2),
            ((-2, -2, -1, -1), 3),
            ((-3, -3, -3, 1), 4),
            ((-2, -2, -2, -1, -1), 4),
            ((-5, -5, -5, -5, 8), 6),
        ]:
            assert area_form(Signature(orders, d)).is_hermitian()

    def test_pillowcase_determinant(self):
        h = area_form(Signature((-1, -1, -1, -1), 2))
        assert h.det().rational_value() == -1

    def test_shoelace_oracle(self):
        # direct vertex-by-vertex evaluation at concrete rational points
        rng = random.Random(13)
        # the walk below closes at the last point, so any reflex point is last
        for orders, d in [((-1, -1, -1, -1), 2), ((-2, -2, -2, -1, -1), 4),
                          ((-2, -2, -1, -1), 3),
                          ((-1, -1, -1, -1, -1, -1), 3),
                          ((-2, -2, -1, -1, -1, -1), 4),
                          ((-5, -1, -2, -1, -2, -1), 6),
                          ((-1, -1, -1, -1, -1, -2, 1), 3),
                          ((-1, -1, -3, -2, -3, -3, 5), 4),
                          ((-1, -2, -4, -3, -2, -2, 2), 6)]:
            kappa = Signature(orders, d)
            h = area_form(kappa)
            cs = [c.to_cyclo() for c in chart_constraint(kappa)]
            step = 24 // d
            ks = list(orders)
            for _ in range(8):
                z = [
                    Cyclo24([F(rng.randint(-5, 5), rng.randint(1, 3))])
                    + Cyclo24([F(rng.randint(-5, 5), rng.randint(1, 3))]) * CY_I
                    for _ in range(kappa.n - 2)
                ]
                z_last = -sum(
                    (cs[i] * z[i] for i in range(kappa.n - 2)),
                    Cyclo24([0]),
                ) / cs[-1]
                zs = z + [z_last]
                pts = [Cyclo24([0])]
                for i in range(kappa.n - 1):
                    rot = Cyclo24.zeta_pow(step * ks[i])
                    pts.append(pts[-1] - zs[i])
                    pts.append(pts[-1] + rot * zs[i])
                assert pts[-1].is_zero()
                pts.pop()
                count = len(pts)
                total = Cyclo24([0])
                for k in range(count):
                    total = total + (pts[k].conj() * pts[(k + 1) % count]).imag()
                direct_area = -total / Cyclo24([2])
                assert h.evaluate(z) == direct_area

    def test_signature_on_interior_weights(self):
        # all weights in (0,1): the form has signature (1, n-3), fixing det sign
        for orders, d, n in [((-1, -1, -1, -1), 2, 4), ((-2, -2, -1, -1), 3, 4),
                             ((-2, -2, -2, -1, -1), 4, 5),
                             ((-3, -3, -2, -2, -2), 6, 5)]:
            det = area_form(Signature(orders, d)).det()
            needs_sqrt3 = d in (3, 6) and (n - 2) % 2 == 1
            value = det / CY_SQRT3 if needs_sqrt3 else det
            sign = value.rational_value()
            assert (sign > 0) == ((-1) ** (n - 3) > 0)


class TestLatticeIndex:
    def test_pillowcase(self):
        assert lattice_index(chart_constraint(Signature((-1, -1, -1, -1), 2))) == 1

    def test_zero_entry_rejected(self):
        with pytest.raises(ValidationError):
            lattice_index([QuadInt(0, 0, False), QuadInt(1, 0, False)])

    def test_empty_constraint_rejected(self):
        with pytest.raises(ValidationError):
            lattice_index([])

    def test_adjudicated_row_determinant_and_index(self):
        # the five-point level-6 row with orders (-4,-4,-4,-3,3): the golden
        # table's printed ratio -16/9 is off by 3; det H = -3*sqrt(3)/8 (also
        # verified by hand) and index 4 give -16/27, invariant under all
        # orderings of the non-reflex points
        kappa = Signature((-4, -4, -4, -3, 3), 6)
        det = area_form(kappa).det()
        assert det == Cyclo24([F(-3, 8)]) * CY_SQRT3
        assert lattice_index(chart_constraint(kappa)) == 4
        values = {
            mv_ratio(Signature((*perm, 3), 6))
            for perm in permutations((-4, -4, -4, -3))
        }
        assert values == {F(-16, 27)}

    def test_residue_enumeration_oracle(self):
        # |image of (z -> sum c_k z_k) in Z[zeta]/(c_last)| by brute closure
        def oracle(cs):
            last = cs[-1]
            norm = last.norm()

            def eq_mod(x, y):
                diff = (x - y) * last.conj()
                return diff.a % norm == 0 and diff.b % norm == 0

            gens = []
            for c in cs[:-1]:
                gens.append(c)
                gens.append(c * QuadInt(0, 1, c.omega))
            group = [QuadInt(0, 0, last.omega)]
            frontier = list(group)
            while frontier:
                fresh = []
                for x in frontier:
                    for g in gens:
                        y = x + g
                        if not any(eq_mod(y, z) for z in group):
                            group.append(y)
                            fresh.append(y)
                frontier = fresh
            return len(group)

        for orders, d in [
            ((-1, -1, -1, -1), 2),
            ((-3, -3, -1, -1), 4),
            ((-2, -2, -1, -1), 3),
            ((-4, -4, -4, -3, 3), 6),
            ((-5, -4, -2, -1), 6),
            ((-5, -5, -5, -5, 8), 6),
        ]:
            cs = chart_constraint(Signature(orders, d))
            assert lattice_index(cs) == oracle(cs)


class TestNormTable:
    """mv_ratio reads N(1 - zeta_d^k) off ``_NORMS`` and takes the index as
    N(c_last) over the gcd of the constraint's norms (README "The lattice
    index"); the ring's Euclid is the oracle."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_table_is_the_norm_of_one_minus_zeta_power(self, d):
        one = QuadInt(1, 0, d in (3, 6))
        assert len(_NORMS[d]) == d
        for k in range(d):
            assert _NORMS[d][k] == (one - _zeta_power(d, k)).norm(), k

    def test_one_table_decides_the_levels(self):
        # mv_ratio, chart_constraint and is_single_polygon accept the same
        # levels, the keys of both tables, and refuse every other level with
        # one message; level 1 has no signature (its orders would be >= 0)
        with pytest.raises(ValidationError):
            Signature((0, -1, -1), 1)
        supported = set()
        for d in range(2, 13):
            kappa = Signature((-1,) * (2 * d), d)  # no order a multiple of d
            refused = (UnsupportedLevel, f"no period lattice at level {d}")
            verdicts = {_outcome(mv_ratio, kappa) == refused,
                        _outcome(chart_constraint, kappa) == refused,
                        not is_single_polygon(kappa)}
            assert len(verdicts) == 1, d
            if verdicts == {False}:
                supported.add(d)
        assert supported == set(flat_charts._ZETA) == set(_NORMS) == {2, 3, 4, 6}

    def test_gcd_norm_is_the_gcd_of_norms(self):
        # each 1 - zeta_d^k is a unit times a power of one prime, so the two
        # agree on every multiset of nonzero residues up to size 5
        checked = 0
        for d in (2, 3, 4, 6):
            one = QuadInt(1, 0, d in (3, 6))
            for size in range(1, 6):
                for residues in combinations_with_replacement(range(1, d), size):
                    entries = [one - _zeta_power(d, k) for k in residues]
                    assert (quadint_gcd(*entries).norm()
                            == math.gcd(*[_NORMS[d][k] for k in residues])), residues
                    checked += 1
        assert checked == 331

    def test_general_index_keeps_euclid(self):
        # 2 + i and 2 - i are coprime primes of norm 5: the gcd of the norms
        # would give index 1, the ring's gcd gives 5
        assert lattice_index([QuadInt(2, 1, False), QuadInt(2, -1, False)]) == 5


class TestMvRatio:
    @pytest.mark.parametrize(
        "orders,d,expected",
        [
            ((-1, -1, -1, -1), 2, F(-1)),
            ((-2, -2, -1, -1), 3, F(-16, 9)),
            ((-3, -3, -1, -1), 4, F(-2)),
            ((-2, -2, -2, -1, -1), 4, F(1)),
            ((-5, -4, -2, -1), 6, F(-16, 9)),
        ],
    )
    def test_reference_values(self, orders, d, expected):
        assert mv_ratio(Signature(orders, d)) == expected

    @pytest.mark.parametrize(
        "orders,d,expected",
        [
            ((-1, -1, -1, -1, -1, -1), 3, F(-256, 81)),
            ((-1, -1, -1, -1, -1, 1, -2), 3, F(-1024, 243)),
            ((-1, -1, 5, -3, -2, -3, -3), 4, F(4)),
            ((-1, -2, -4, -3, -2, -2, 2), 6, F(-512, 243)),
            ((-1, -1, -1, -1, -1, -1, -1, 3), 2, F(-1)),
            ((-1, -1, -1, 2, -2, -1, -1, -1), 3, F(4096, 729)),
            ((-3, 7, -1, -5, -5, -1, -1, -3), 6, F(-1024, 27)),
        ],
    )
    def test_pinned_values_six_to_eight_points(self, orders, d, expected):
        # values computed with the earlier Fraction-coefficient field arithmetic
        assert mv_ratio(Signature(orders, d)) == expected

    def test_permutation_invariance_four_points(self):
        for orders, d in [((-3, -3, -3, 1), 4), ((-5, -4, -2, -1), 6),
                          ((-2, -2, -1, -1), 3)]:
            values = {
                mv_ratio(Signature(perm, d)) for perm in permutations(orders)
            }
            assert len(values) == 1

    def test_permutation_invariance_five_points(self):
        for orders, d in [((-4, -3, -2, -2, -1), 6), ((-3, -2, -1, -1, -1), 4)]:
            values = {
                mv_ratio(Signature(perm, d)) for perm in permutations(orders)
            }
            assert len(values) == 1

    def test_permutation_invariance_six_and_seven_points(self):
        # the closing point (reflex, else last) is picked by index
        rng = random.Random(15)
        for orders, d, expected in [
            ((-1, -1, -1, -1, -1, -1), 3, F(-256, 81)),
            ((-1, -2, -4, -3, -2, -2, 2), 6, F(-512, 243)),
        ]:
            for _ in range(10):
                shuffled = list(orders)
                rng.shuffle(shuffled)
                assert mv_ratio(Signature(tuple(shuffled), d)) == expected

    def test_quadratic_sign(self):
        # level-2 all-odd: ratio sign follows the parity of (n-2)/2
        for orders in [(-1, -1, -1, -1), (-1, -1, -1, -1, -1, 1)]:
            n = len(orders)
            ratio = mv_ratio(Signature(orders, 2))
            assert (ratio > 0) == ((-1) ** ((n - 2) // 2) > 0)


class TestMvTableEntry:
    @pytest.mark.parametrize(
        "orders,d,expected",
        [
            ((-1, -1, -1, -1), 2, PiValue(F(1, 8), 2)),
            ((-5, -4, -2, -1), 6, PiValue(F(2, 81), 2)),
            ((-2, -1, -1, -1, -1), 3, PiValue(F(32, 2187), 3)),
        ],
    )
    def test_reference_values(self, orders, d, expected):
        assert mv_table_entry(Signature(orders, d)) == expected

    def test_positive_on_reference_rows(self):
        assert mv_table_entry(Signature((-5, -5, -5, 3), 6)) == PiValue(F(1, 9), 2)


def test_is_single_polygon():
    assert is_single_polygon(Signature((-5, -5, -5, -5, 8), 6))
    assert not is_single_polygon(Signature((-5, -5, -4, 1, 1), 6))
    assert not is_single_polygon(Signature((-4, -4, -1, -1), 5))
    assert not is_single_polygon(Signature((-7, -7, -1, -1), 8))
    assert not is_single_polygon(Signature((-1, -1, -1, -1, 0), 2))


class TestOrientationWitness:
    """Geometric witness for the clockwise traversal convention: on charts of
    strata with explicit angle data, the simple polygons produced by the side
    recurrence are negatively oriented, carry exactly the prescribed interior
    angles, and the Hermitian form returns their (positive) geometric area."""

    @staticmethod
    def _float_form(h):
        import cmath
        import math

        def lift(value):
            return sum(
                float(c) * cmath.exp(1j * math.pi * k / 12)
                for k, c in enumerate(value.coeffs)
            )

        return [[lift(entry) for entry in row] for row in h.entries]

    def test_simple_polygons_are_clockwise_with_prescribed_angles(self):
        import cmath
        import math
        import random

        for orders, d in [((-2, -2, -2, -1, -1), 4), ((-4, -4, -4, -3, 3), 6)]:
            kappa = Signature(orders, d)
            h_num = self._float_form(area_form(kappa))
            n = kappa.n
            rot = [cmath.exp(2j * math.pi * k / d) for k in orders[:-1]]
            cs = [1 - r for r in rot]
            rng = random.Random(31)
            witnesses = 0
            attempts = 0
            while witnesses < 3 and attempts < 300000:
                attempts += 1
                z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(n - 2)]
                z_last = -sum(c * v for c, v in zip(cs[:-1], z)) / cs[-1]
                zs = z + [z_last]
                pts = [0j]
                for i in range(n - 1):
                    pts.append(pts[-1] - zs[i])
                    pts.append(pts[-1] + rot[i] * zs[i])
                assert abs(pts[-1]) < 1e-9
                pts.pop()
                m = len(pts)

                def cross(o, a, b):
                    return ((a - o).real * (b - o).imag
                            - (a - o).imag * (b - o).real)

                simple = True
                for i in range(m):
                    a1, a2 = pts[i], pts[(i + 1) % m]
                    for j in range(i + 1, m):
                        if j in (i, (i + 1) % m) or (i == 0 and j == m - 1):
                            continue
                        if abs(i - j) == 1:
                            continue
                        b1, b2 = pts[j], pts[(j + 1) % m]
                        d1 = cross(b1, b2, a1)
                        d2 = cross(b1, b2, a2)
                        d3 = cross(a1, a2, b1)
                        d4 = cross(a1, a2, b2)
                        if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
                            simple = False
                            break
                    if not simple:
                        break
                if not simple:
                    continue
                shoelace = 0.5 * sum(
                    (pts[i].conjugate() * pts[(i + 1) % m]).imag
                    for i in range(m))
                # interior angle at vertex v of a clockwise polygon is the
                # counterclockwise angle from the incoming-vertex ray to the
                # outgoing-vertex ray
                interiors = []
                for i in range(m):
                    u = pts[(i - 1) % m] - pts[i]
                    v = pts[(i + 1) % m] - pts[i]
                    angle = math.atan2((u.conjugate() * v).imag,
                                       (u.conjugate() * v).real) % (2 * math.pi)
                    interiors.append(angle)
                targets = [2 * math.pi * (1 + k / d) for k in orders[:-1]]
                if shoelace > 0:
                    continue  # positively oriented solutions belong elsewhere
                for i, target in enumerate(targets):
                    assert abs(interiors[2 * i + 1] - target) < 1e-7
                area = sum(
                    z[r].conjugate() * h_num[r][s] * z[s]
                    for r in range(n - 2) for s in range(n - 2)
                ).real
                assert abs(area - (-shoelace)) < 1e-8
                assert area > 0
                witnesses += 1
            assert witnesses == 3, f"no clockwise witnesses for {orders}"


def _ratio_oracle(kappa: Signature) -> Fraction:
    """1 / (index * Im(zeta)**(n-2) * det H) with det H by Gaussian
    elimination over Q(zeta_24): what mv_ratio computed before it took the
    determinant in closed form."""
    constraint = chart_constraint(kappa)
    det = HermitianForm(_area_entries(constraint)).det()
    zeta = CY_OMEGA if constraint[0].omega else CY_I
    value = lattice_index(constraint) * zeta.imag() ** (kappa.n - 2) * det
    return 1 / value.rational_value()


def _outcome(ratio, kappa):
    try:
        return ratio(kappa)
    except ValidationError as exc:
        return type(exc), str(exc)


# every signature the tests above use, with the orderings they permute
_TESTED_SIGNATURES = sorted({
    (perm, d)
    for orders, d in [
        ((-1, -1, -1, -1), 2), ((-3, -2, -2, -1), 4), ((-2, -2, -1, -1), 3),
        ((-5, 8, -5, -5, -5), 6), ((-5, -5, -4, 1, 1), 6),
        ((-4, -4, -1, -1), 5), ((-1, -1, -1, -1, 0), 2), ((-3, -3, -3, 1), 4),
        ((-2, -2, -2, -1, -1), 4), ((-5, -5, -5, -5, 8), 6),
        ((-3, -3, -2, -2, -2), 6), ((-4, -4, -4, -3, 3), 6),
        ((-3, -3, -1, -1), 4), ((-5, -4, -2, -1), 6),
        ((-4, -3, -2, -2, -1), 6), ((-3, -2, -1, -1, -1), 4),
        ((-2, -1, -1, -1, -1), 3), ((-5, -5, -5, 3), 6),
        ((-7, -7, -1, -1), 8),
    ]
    for perm in permutations(orders)
} | {
    (orders, d)
    for orders, d in [
        ((-1, -1, -1, -1, -1, -1), 3), ((-2, -2, -1, -1, -1, -1), 4),
        ((-5, -1, -2, -1, -2, -1), 6), ((-1, -1, -1, -1, -1, -2, 1), 3),
        ((-1, -1, -3, -2, -3, -3, 5), 4), ((-1, -2, -4, -3, -2, -2, 2), 6),
        ((-1, -1, -1, -1, -1, 1, -2), 3), ((-1, -1, 5, -3, -2, -3, -3), 4),
        ((-1, -1, -1, -1, -1, -1, -1, 3), 2),
        ((-1, -1, -1, 2, -2, -1, -1, -1), 3),
        ((-3, 7, -1, -5, -5, -1, -1, -3), 6), ((-1, -1, -1, -1, -1, 1), 2),
    ]
})


class TestClosedFormDeterminant:
    """mv_ratio takes det H from the product of sines (README "The area-form
    determinant") and the index from the norm table; the Q(zeta_24)
    elimination and ``lattice_index`` are its exact oracle, and they must
    agree on every rejection too, in type and message."""

    def test_signatures_of_these_tests(self):
        rejected = set()
        for orders, d in _TESTED_SIGNATURES:
            kappa = Signature(orders, d)
            got = _outcome(mv_ratio, kappa)
            assert got == _outcome(_ratio_oracle, kappa), kappa
            if isinstance(got, tuple):
                rejected.add(got[0])
        assert rejected == {UnsupportedChart, UnsupportedLevel, ValidationError}

    @pytest.mark.parametrize("orders,d,error", [
        ((-4, -4, -4, 0, 2), 5, UnsupportedLevel),  # breaks all three rules
        ((-5, -5, -5, 0, 1, 2), 6, ValidationError),  # d | 0, 3 reflex
        ((-5, -5, -5, 1, 1, 1), 6, UnsupportedChart),
    ])
    def test_rules_checked_in_order(self, orders, d, error):
        kappa = Signature(orders, d)
        got = _outcome(mv_ratio, kappa)
        assert got == _outcome(_ratio_oracle, kappa)
        assert got[0] is error
        assert not is_single_polygon(kappa)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_chart_signatures(self, n):
        for d in (2, 3, 4, 6) if n % 2 == 0 else (3, 4, 6):
            rng = random.Random(f"chart:{n}:{d}")
            for _ in range(8):
                kappa = Signature(chart_orders(rng, n, d), d)
                assert mv_ratio(kappa) == _ratio_oracle(kappa), kappa

    def test_golden_table_rows(self):
        multi_reflex = 0
        for n in (4, 5):
            for row in tables.expected_rows(n):
                kappa = row.signature()
                if is_single_polygon(kappa):
                    assert mv_ratio(kappa) == _ratio_oracle(kappa), kappa
                    continue
                multi_reflex += 1
                for ratio in (mv_ratio, _ratio_oracle):
                    with pytest.raises(UnsupportedChart):
                        ratio(kappa)
        assert multi_reflex == 2

    def test_value_path_does_no_cyclotomic_arithmetic(self, monkeypatch):
        kappa = Signature((-4, -4, -4, -3, 3), 6)
        want = mv_ratio(kappa), mv_table_entry(kappa), tables.table_csv(5, {})

        def forbidden(*args, **kwargs):
            raise AssertionError("Q(zeta_24) arithmetic on the value path")

        for name in ("__init__", "_exact", "__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(Cyclo24, name, forbidden)
        monkeypatch.setattr(HermitianForm, "det", forbidden)
        # nor Gaussian or Eisenstein integer arithmetic: the norms come
        # from the table
        monkeypatch.setattr(QuadInt, "__post_init__", forbidden)
        monkeypatch.setattr(QuadInt, "__divmod__", forbidden)
        for name in ("_area_entries", "quadint_gcd", "lattice_index",
                     "chart_constraint"):
            monkeypatch.setattr(flat_charts, name, forbidden)
        with pytest.raises(AssertionError):
            _ratio_oracle(kappa)
        assert (mv_ratio(kappa), mv_table_entry(kappa),
                tables.table_csv(5, {})) == want
