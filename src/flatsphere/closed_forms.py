"""Double factorials, the odd-order volume constants, two exact
combinatorial identities used as executable checks, and McMullen's
partition sum for a_n as an oracle independent of the recursion."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .core import (PiValue, ValidationError, WeightVector, _as_fraction,
                   _scale_to_integers, _subset_sums)
from .partitions import enum_P0


def double_factorial(k: int) -> int:
    """k!! with the convention 0!! = (-1)!! = 1."""
    if type(k) is not int or k < -1:
        raise ValidationError(f"double factorial needs an int k >= -1, got {k!r}")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def v_kontsevich(k: int) -> PiValue:
    """The per-singularity factor k!!/(k+1)!! * pi**k * (pi if k odd else 2)."""
    if type(k) is not int or k < -1:
        raise ValidationError(f"v(k) needs an int k >= -1, got {k!r}")
    ratio = Fraction(double_factorial(k), double_factorial(k + 1))
    if k % 2:  # odd, including k = -1
        return PiValue(ratio, k + 1)
    return PiValue(2 * ratio, k)


def identity_n_minus_1(kappa) -> tuple[int, int]:
    """Both sides of the boundary-count identity: the factorial-weighted sum
    over all order-(-2) subsets, against (n-1)!."""
    orders = tuple(getattr(kappa, "orders", kappa))
    n = len(orders)
    lhs = 0
    for block in enum_P0(orders):
        lhs += math.factorial(len(block) - 1) * math.factorial(n - len(block) - 1)
    return lhs, math.factorial(n - 1)


def rising_product(k: int, shift, x):
    """prod_{i=1..k} (x + shift + i); empty product is 1.  Ring-generic."""
    result = 1
    for i in range(1, k + 1):
        result = result * (x + shift + i)
    return result


def f_nab(n: int, a, b, xs: Sequence):
    """Two-sided subset sum of shifted rising products over proper nonempty
    subsets.  Works over any commutative ring containing the inputs.

    When every x_i, a and b is an int or a Fraction, the sum is computed in
    integers: the inputs are scaled by their common denominator D, every
    term is a product of exactly n - 2 integer linear factors, and the total
    is divided by D**(n-2) once.  Other inputs (a MultiPoly, say) take the
    ring-generic loop; a bool or a float raises ``ValidationError``.
    """
    if type(n) is not int:
        raise ValidationError(f"f_nab needs an int n, got {n!r}")
    if n < 2 or len(xs) != n:
        raise ValidationError("f_nab needs n = len(xs) >= 2")
    xs = list(xs)
    if any(isinstance(v, (bool, float)) for v in (a, b, *xs)):
        raise ValidationError("bools and floats are not accepted; pass exact rationals")
    if all(isinstance(v, (int, Fraction)) for v in (a, b, *xs)):
        return _f_nab_rational(n, a, b, xs)
    return _f_nab_ring(n, a, b, xs)


def _f_nab_rational(n: int, a, b, xs: list) -> Fraction:
    den, (big_a, big_b, *scaled) = _scale_to_integers((a, b, *xs))
    sums = _subset_sums(scaled)
    full = (1 << n) - 1
    # per block size k: D * (a + i) for i = 1..k-1 on the block, and
    # D * (S + b + i) for i = 1..n-k-1 on its complement, whose sum is S - s
    left = [[big_a + i * den for i in range(1, k)] for k in range(n)]
    big_sb = sums[full] + big_b
    right = [[big_sb + i * den for i in range(1, n - k)] for k in range(n)]
    total = 0
    for mask in range(1, full):
        s, k = sums[mask], mask.bit_count()
        term = 1
        for offset in left[k]:
            term *= s + offset
        for offset in right[k]:
            term *= offset - s
        total += term
    return Fraction(total, den ** (n - 2))


def _f_nab_ring(n: int, a, b, xs: list):
    """The ring-generic loop; the reference the integer path is tested
    against."""
    sums = _subset_sums(xs)
    full = (1 << n) - 1
    total = 0
    for mask in range(1, full):
        comp = full ^ mask
        left = rising_product(mask.bit_count() - 1, a, sums[mask])
        right = rising_product(comp.bit_count() - 1, b, sums[comp])
        total = total + left * right
    return total


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


# the largest n sum_dependence_check takes (desk scale): an f_nab call sums
# 2^n - 2 terms of n - 2 factors, about 0.4 ms at n = 9 on Python 3.11
_SUM_CHECK_MAX_N = 9


def sum_dependence_check(n: int, a, b, trials: int, seed: int = 0) -> bool:
    """True iff f_nab agrees on `trials` random pairs with equal entry sums."""
    if type(n) is not int:
        raise ValidationError(f"sum_dependence_check needs an int n, got {n!r}")
    if type(trials) is not int or trials < 1:
        raise ValidationError(
            f"sum_dependence_check needs an int trials >= 1, got {trials!r}")
    if n > _SUM_CHECK_MAX_N:
        raise ValidationError(
            f"sum_dependence_check is desk-scale: n <= {_SUM_CHECK_MAX_N}")
    a, b = _as_fraction(a), _as_fraction(b)
    rng = random.Random(seed)
    for _ in range(trials):
        xs = [_random_fraction(rng) for _ in range(n)]
        ys = [_random_fraction(rng) for _ in range(n - 1)]
        ys.append(sum(xs) - sum(ys))
        if f_nab(n, a, b, xs) != f_nab(n, a, b, ys):
            return False
    return True


def f_p22_bridge(kappa, minus_ones: int = 0) -> tuple[Fraction, Fraction]:
    """Both sides of the bridge between the factorial identity and the
    shift-2 symmetric function.

    P is the set of positive-order indices plus `minus_ones` (at most two)
    simple-pole indices; the right side is the closed two-term expression in
    q = n - |P|.
    """
    orders = tuple(getattr(kappa, "orders", kappa))
    if type(minus_ones) is not int or not 0 <= minus_ones <= 2:
        raise ValidationError(
            f"at most two simple-pole indices may join P: minus_ones is an int "
            f"in 0..2, got {minus_ones!r}")
    n = len(orders)
    p_indices = [i for i in range(n) if orders[i] > 0]
    poles = [i for i in range(n) if orders[i] == -1]
    if len(poles) < minus_ones:
        raise ValidationError("not enough simple poles")
    p_indices += poles[:minus_ones]
    if not p_indices:
        raise ValidationError("P must be nonempty")
    q = n - len(p_indices)

    lhs, _ = identity_n_minus_1(orders)

    p_orders = [Fraction(orders[i]) for i in p_indices]
    rhs = Fraction(math.comb(q, 2) * 2 * math.factorial(n - 3))
    if len(p_orders) >= 2:
        rhs += math.factorial(q) * f_nab(len(p_orders), Fraction(2), Fraction(2),
                                         p_orders)
    return Fraction(lhs), rhs


def _partition_sums(n: int, factors) -> list:
    """Entry k: the sum over the set partitions of range(n) into k blocks of
    the product of ``factors[mask]`` over the blocks (masks as in
    ``_subset_sums``).  Each subset S adds, for each block B of S holding its
    lowest index, factors[B] times S - B's list shifted by one block; only
    + and * are used, so any commutative ring will do."""
    sums = [[1]]
    for s in range(1, 1 << n):
        low = s & -s
        rest = b = s ^ low
        row = [0] * (s.bit_count() + 1)
        while b >= 0:  # every submask b of rest, rest first and 0 last
            for k, value in enumerate(sums[rest ^ b]):
                row[k + 1] = row[k + 1] + factors[b | low] * value
            b = (b - 1) & rest if b else -1
        sums.append(row)
    return sums[-1]


def mcmullen_an(mu) -> Fraction:
    """a_n from McMullen's partition sum (C. McMullen, "The Gauss-Bonnet
    theorem for cone manifolds and volumes of moduli spaces", Amer. J. Math.
    2017):

        (-1)^(n+1)/(n-2) * sum_P (-1)^(|P|+1) (|P|-3)! prod_{B in P} max(0, 1 - mu(B))^(|B|-1)

    over the set partitions P of the n indices into at least three blocks,
    summed per block count on the weights' integer subset sums s over their
    denominator D, a block giving max(0, D - s(B))^(|B|-1).  It uses no
    records and no ``_family_blocks``.  Valid for all-positive weights only:
    it is known to differ from a_n when a weight is negative
    (3/4,3/4,3/4,3/4,-1/2,-1/2 gives 9/16 against a_n = 3/8)."""
    mu = WeightVector.coerce(mu)
    n, den = mu.n, mu._den
    factors = [max(0, den - s) ** (m.bit_count() - 1) if m else 0
               for m, s in enumerate(mu._sums)]
    by_blocks = _partition_sums(n, factors)
    total = sum((-1) ** (k + 1) * math.factorial(k - 3) * by_blocks[k] * den ** (k - 3)
                for k in range(3, n + 1))
    return (-1) ** (n + 1) * Fraction(total, (n - 2) * den ** (n - 3))
