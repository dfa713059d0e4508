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
    if k < -1:
        raise ValidationError("double factorial needs k >= -1")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def v_kontsevich(k: int) -> PiValue:
    """The per-singularity factor k!!/(k+1)!! * pi**k * (pi if k odd else 2)."""
    if k < -1:
        raise ValidationError("v(k) needs k >= -1")
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
    is divided by D**(n-2) once.  Any other input (a MultiPoly, say) takes
    the ring-generic loop.
    """
    if n < 2 or len(xs) != n:
        raise ValidationError("f_nab needs n = len(xs) >= 2")
    xs = list(xs)
    if all(isinstance(v, (int, Fraction)) for v in (a, b, *xs)):
        return _f_nab_rational(n, a, b, xs)
    return _f_nab_ring(n, a, b, xs)


def _f_nab_rational(n: int, a, b, xs: list) -> Fraction:
    den, (big_a, big_b, *scaled) = _scale_to_integers((a, b, *xs))
    sums = _subset_sums(scaled)
    full = (1 << n) - 1
    total = 0
    for mask in range(1, full):
        comp = full ^ mask
        term = 1
        # D * (s + a + i) for i = 1..|mask|-1, then the same with b on comp
        left = sums[mask] + big_a
        for i in range(1, mask.bit_count()):
            term *= left + i * den
        right = sums[comp] + big_b
        for i in range(1, comp.bit_count()):
            term *= right + i * den
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


def sum_dependence_check(n: int, a, b, trials: int, seed: int = 0) -> bool:
    """True iff f_nab agrees on `trials` random pairs with equal entry sums."""
    if n > 9:
        raise ValidationError("sum_dependence_check is desk-scale: n <= 9")
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
    if not 0 <= minus_ones <= 2:
        raise ValidationError("at most two simple-pole indices may join P")
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


def partitions_into(items, k):
    """All set partitions of `items` into exactly k nonempty blocks, each
    once, as lists of sets."""
    items = list(items)
    if k <= 0:
        return
    if k == 1:
        yield [set(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    for p in partitions_into(rest, k - 1):
        yield [{first}] + [set(b) for b in p]
    for p in partitions_into(rest, k):
        for i in range(len(p)):
            q = [set(b) for b in p]
            q[i].add(first)
            yield q


def mcmullen_an(mu) -> Fraction:
    """a_n from McMullen's partition sum (C. McMullen, "The Gauss-Bonnet
    theorem for cone manifolds and volumes of moduli spaces", Amer. J. Math.
    2017):

        (-1)^(n+1)/(n-2) * sum_P (-1)^(|P|+1) (|P|-3)! prod_{B in P} max(0, 1 - mu(B))^(|B|-1)

    over the set partitions P of the n indices into at least three blocks.
    It enumerates with `partitions_into` and shares no code with the
    recursion.  Valid for all-positive weights only: the formula is known to
    differ from a_n when some weight is negative (3/4,3/4,3/4,3/4,-1/2,-1/2
    gives 9/16 against a_n = 3/8).
    """
    mu = WeightVector.coerce(mu)
    n = mu.n
    total = Fraction(0)
    for k in range(3, n + 1):
        for blocks in partitions_into(range(n), k):
            term = Fraction((-1) ** (k + 1) * math.factorial(k - 3))
            for block in blocks:
                weight = sum((mu[i] for i in block), Fraction(0))
                term *= max(Fraction(0), 1 - weight) ** (len(block) - 1)
            total += term
    return (-1) ** (n + 1) * total / (n - 2)
