import itertools
import math
import random
from fractions import Fraction

import pytest

from flatsphere.closed_forms import (
    _f_nab_ring,
    double_factorial,
    f_nab,
    f_p22_bridge,
    identity_n_minus_1,
    sum_dependence_check,
    v_kontsevich,
)
from flatsphere.core import PiValue, ValidationError
from flatsphere.piecewise import MultiPoly
from flatsphere.recursion import enumerate_odd_signatures

F = Fraction


class TestDoubleFactorial:
    @pytest.mark.parametrize("k,expected", [(-1, 1), (0, 1), (1, 1), (5, 15), (6, 48)])
    def test_examples(self, k, expected):
        assert double_factorial(k) == expected

    def test_recurrence(self):
        for k in range(1, 20):
            assert double_factorial(k) == k * double_factorial(k - 2)

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValidationError):
            double_factorial(-2)

    def test_rejects_float(self):
        # without the check 5.0 gives 15.0
        with pytest.raises(ValidationError):
            double_factorial(5.0)

    def test_rejects_bool(self):
        # without the check True gives 1
        with pytest.raises(ValidationError):
            double_factorial(True)


class TestVKontsevich:
    def test_examples(self):
        assert v_kontsevich(-1) == PiValue(F(1), 0)
        assert v_kontsevich(0) == PiValue(F(2), 0)
        assert v_kontsevich(1) == PiValue(F(1, 2), 2)
        assert v_kontsevich(2) == PiValue(F(4, 3), 2)

    def test_rejects_float(self):
        # without the check 3.0 raises a bare TypeError
        with pytest.raises(ValidationError):
            v_kontsevich(3.0)


class TestIdentity:
    @pytest.mark.parametrize(
        "orders,value",
        [
            ((-1, -1, -1, -1), 6),
            ((1, -1, -1, -1, -1, -1), 120),
            ((3,) + (-1,) * 7, 5040),
        ],
    )
    def test_examples(self, orders, value):
        assert identity_n_minus_1(orders) == (value, value)

    def test_exhaustive_small(self):
        for n in (4, 6, 8):
            for kappa in enumerate_odd_signatures(n):
                lhs, rhs = identity_n_minus_1(kappa)
                assert lhs == rhs == math.factorial(n - 1)


class TestFnab:
    def test_constant_two_points(self):
        rng = random.Random(3)
        for _ in range(5):
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            b = F(rng.randint(-9, 9), rng.randint(1, 9))
            xs = [F(rng.randint(-9, 9)), F(rng.randint(-9, 9))]
            assert f_nab(2, a, b, xs) == 2

    def test_three_point_closed_form_symbolically(self):
        # variables (x1, x2, x3, a, b)
        x1, x2, x3, a, b = (MultiPoly.variable(i, 5) for i in range(5))
        value = f_nab(3, a, b, [x1, x2, x3])
        expected = 4 * (x1 + x2 + x3) + 3 * (a + b + MultiPoly.constant(2, 5))
        assert value == expected

    def test_equal_sum_invariance(self):
        xs = [F(1), F(2), F(-3), F(4), F(2)]
        ys = [F(6), F(-1), F(0), F(0), F(1)]
        assert sum(xs) == sum(ys)
        assert f_nab(5, F(1), F(2), xs) == f_nab(5, F(1), F(2), ys)

    def test_permutation_and_side_swap_invariance(self):
        rng = random.Random(9)
        xs = [F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(5)]
        a, b = F(3, 2), F(-1, 3)
        base = f_nab(5, a, b, xs)
        perm = xs[::-1]
        assert f_nab(5, a, b, perm) == base
        assert f_nab(5, b, a, xs) == base  # I <-> I^c relabeling

    def test_integer_path_matches_ring_reference(self):
        rng = random.Random(11)
        shifts = [0, F(1), 2, F(1, 2)]  # int and Fraction shifts
        for n in range(2, 10):
            fractions = [F(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(n)]
            integers = [rng.randint(-9, 9) for _ in range(n)]
            mixed = [x if i % 2 else int(x) for i, x in enumerate(fractions)]
            for a in shifts:
                for b in shifts:
                    for xs in (fractions, integers, mixed):
                        assert f_nab(n, a, b, xs) == _f_nab_ring(n, a, b, xs), (n, a, b, xs)

    @staticmethod
    def _has_zero_factor(n, a, b, xs):
        """Whether some term has a vanishing factor s + a + i (i < |I|) or
        (S - s) + b + i (i < n - |I|), over the blocks I by position."""
        total = sum(xs)
        for k in range(1, n):
            for block in itertools.combinations(xs, k):
                s = sum(block)
                if (any(s + a + i == 0 for i in range(1, k))
                        or any(total - s + b + i == 0 for i in range(1, n - k))):
                    return True
        return False

    @pytest.mark.parametrize("n, a, b, xs", [
        # {1, 2, -5} sums to -2: its factor s + a + 2 is 0
        (4, 0, 0, [1, 2, -5, 3]),
        # {4} leaves S - s = -2 on five points: (S - s) + b + 1 is 0
        (6, 1, 1, [-3, 2, 0, -1, 4, 0]),
        # Fraction shifts: {-7/2, 1} sums to -5/2, and -5/2 + 3/2 + 1 = 0
        (5, F(3, 2), F(-1, 2), [F(-7, 2), 1, F(1, 2), 2, -4]),
    ])
    def test_integer_path_with_a_vanishing_factor(self, n, a, b, xs):
        assert self._has_zero_factor(n, a, b, xs)
        assert f_nab(n, a, b, xs) == _f_nab_ring(n, a, b, xs)

    @pytest.mark.parametrize("n, a, b, xs", [
        # a == b
        (6, F(3, 2), F(3, 2), [F(5, 3), -2, F(1, 4), 7, F(-9, 5), 0]),
        (9, -1, -1, [3, -4, 1, 0, 2, -7, 5, 1, -2]),
        # a negative total S
        (8, -2, F(5, 4), [F(-7, 3), -4, F(1, 6), -9, 2, F(-11, 2), 3, -1]),
        (9, F(1, 2), 0, [F(-40, 7)] * 4 + [F(3, 11)] * 5),
    ])
    def test_integer_path_on_equal_shifts_and_negative_sums(self, n, a, b, xs):
        assert f_nab(n, a, b, xs) == _f_nab_ring(n, a, b, xs)

    @pytest.mark.parametrize("n, a, b, x", [
        (3, 0, 0, F(2)), (7, 1, F(-1, 3), F(2, 5)), (8, F(1, 2), F(1, 2), F(-3, 4)),
        (9, -3, 2, F(-5)),
    ])
    def test_integer_path_on_equal_entries(self, n, a, b, x):
        # all blocks of size k share one term: a sum over k with binomial
        # weights, by no mask loop
        expected = sum(
            math.comb(n, k)
            * math.prod(k * x + a + i for i in range(1, k))
            * math.prod((n - k) * x + b + i for i in range(1, n - k))
            for k in range(1, n))
        assert f_nab(n, a, b, [x] * n) == expected
        assert f_nab(n, a, b, [x] * n) == _f_nab_ring(n, a, b, [x] * n)

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            f_nab(1, F(0), F(0), [F(1)])

    def test_rejects_float_shift(self):
        # the ring loop would give 31.5
        with pytest.raises(ValidationError):
            f_nab(3, 0.5, 0, [1, 2, 3])

    def test_rejects_float_entry(self):
        # the ring loop would give 30.0
        with pytest.raises(ValidationError):
            f_nab(3, 0, 0, [1.0, 2, 3])

    @pytest.mark.parametrize("n", [3.0, True])
    def test_rejects_non_int_n(self, n):
        # 3.0 used to raise a bare TypeError from 1 << n
        with pytest.raises(ValidationError):
            f_nab(n, 0, 0, [1, 2, 3])


class TestSumDependence:
    def test_small_cases(self):
        assert sum_dependence_check(4, F(1), F(2), 100, seed=0)
        assert sum_dependence_check(5, F(1, 2), F(0), 50, seed=1)

    def test_desk_scale_guard(self):
        with pytest.raises(ValidationError):
            sum_dependence_check(10, F(0), F(0), 1)

    @pytest.mark.parametrize("n", [5.0, True])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(ValidationError):
            sum_dependence_check(n, 0, 0, 1)

    @pytest.mark.parametrize("trials", [2.5, 1.0, True, 0, -1])
    def test_rejects_bad_trials(self, trials):
        # 0 and -1 used to return True without running a trial
        with pytest.raises(ValidationError):
            sum_dependence_check(5, 0, 0, trials)


class TestBridge:
    def test_single_positive(self):
        lhs, rhs = f_p22_bridge((1, -1, -1, -1, -1, -1))
        assert lhs == rhs == 120

    def test_pillowcase_with_two_poles(self):
        lhs, rhs = f_p22_bridge((-1, -1, -1, -1), minus_ones=2)
        assert lhs == rhs == 6

    def test_two_positive_eight_points(self):
        lhs, rhs = f_p22_bridge((1, 1) + (-1,) * 6)
        assert lhs == rhs == 5040

    def test_poles_added_to_p(self):
        for minus in (0, 1, 2):
            lhs, rhs = f_p22_bridge((3,) + (-1,) * 7, minus_ones=minus)
            assert lhs == rhs == 5040

    def test_empty_p_rejected(self):
        with pytest.raises(ValidationError):
            f_p22_bridge((-1, -1, -1, -1), minus_ones=0)

    def test_three_poles_rejected(self):
        with pytest.raises(ValidationError):
            f_p22_bridge((-1, -1, -1, -1), minus_ones=3)

    def test_bool_minus_ones_rejected(self):
        # without the check True is taken for 1
        with pytest.raises(ValidationError):
            f_p22_bridge((-1, -1, -1, -1), minus_ones=True)

    def test_float_minus_ones_rejected(self):
        # without the check 1.0 raises a bare TypeError
        with pytest.raises(ValidationError):
            f_p22_bridge((-1, -1, -1, -1), minus_ones=1.0)


def test_kontsevich_product_matches_aez_form():
    from flatsphere.recursion import mv_quadratic_aez

    for n in (4, 6, 8):
        for kappa in enumerate_odd_signatures(n):
            product = PiValue(F(2), 2)
            for k in kappa.orders:
                product = product * v_kontsevich(k)
            assert product == mv_quadratic_aez(kappa)
