"""The normalized intersection-number recursion and its specializations.

``a_n`` computes the denominator-free intersection function on weight
vectors; ``j_n`` restores the minimal-denominator power.  The quadratic
(level-2, all-odd) specialization has a closed form and its own two-term
recursion, and the five-point case has an independent evaluation through
the boundary intersection matrix of the five-point stable-curve space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import MutableMapping, Optional

from .closed_forms import _order_product
from .core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    _bits,
    _mask,
    _subset_sums,
    weights_from_signature,
)
from .partitions import (_child_nums, _family_blocks, _paired_blocks, _sub_vector, enum_all,
                         enum_T1a, enum_T1b, enum_T2a, enum_T2b)


def a4_closed(nu) -> Fraction:
    """Closed form of the four-point function:
    1/2 - (|d12| + |d13| + |d14|)/4 with dij the pairing differences."""
    nu = WeightVector.coerce(nu)
    if nu.n != 4:
        raise ValidationError("a4_closed needs exactly 4 weights")
    return _leaf(nu._nums, nu._den)


def _four_point_num(weights, den: int, signs=None):
    """The numerator 2D - sum_j |d_j| of the four-point closed form
    (2D - sum_j |d_j|) / 4D, for weights summing to 2D with pairing
    differences d_j = w_0 + w_j - w_k - w_l, {j, k, l} = {1, 2, 3}; each
    |d_j| is opened as signs[j - 1] * d_j.  Ring-generic, like
    ``_coefficient``: ``_leaf`` passes a vector's integer numerators over D
    and no signs (abs on integers), and a piece passes the variables x_i
    (MultiPoly, D = 1) with the signs at its sample."""
    w0, w1, w2, w3 = weights
    diffs = (w0 + w1 - w2 - w3, w0 + w2 - w1 - w3, w0 + w3 - w1 - w2)
    if signs is None:
        return 2 * den - sum(map(abs, diffs))
    return 2 * den - sum(s * d for s, d in zip(signs, diffs))


def _coefficient(family: str, mu_bars, block_sizes, epsilon: int, n: int):
    """The coefficient of a record's term, signed: T1b and T2a terms carry the
    minus.  Ring-generic (only Fraction and int factors), so
    ``an_polynomial``'s templates pass linear forms (MultiPoly) and the
    Fraction references of the tests pass Fractions.  ``a_n`` evaluates it
    as the integer numerators of ``_term_num``, and the five-point leaf as
    those of ``_five_point_num``; only the pieces and the test references
    still call it."""
    if family == "T1a":
        return Fraction(n - 3, (n - 1) * (n - 2)) - Fraction(1, n - 2) * mu_bars[0]
    if family == "T1b":
        return Fraction(3 - n, (n - 1) * (n - 2)) * mu_bars[0]
    mb1, mb2 = mu_bars
    n1, n2 = block_sizes
    if family == "T2a":
        lead = n1 * n2 * (mb1 + mb2) - n1 * mb1 - n2 * mb2
        return Fraction(1, n - 2) * (mb1 * mb2) - Fraction(1, (n - 1) * (n - 2)) * lead
    return Fraction(epsilon * n1 * n2, (n - 1) * (n - 2)) * mb1 * mb2


def _term_num(family: str, ms, block_sizes, epsilon: int, n: int, den: int) -> int:
    """The numerator of ``_coefficient`` over (n - 1)(n - 2) D**k, k heavy
    blocks, for a vector of numerators over D: each heavy block I gives
    M = s(I) - D, so mu_bar = M / D, and the numerator is an integer."""
    if family == "T1a":
        return (n - 3) * den - (n - 1) * ms[0]
    if family == "T1b":
        return (3 - n) * ms[0]
    m1, m2 = ms
    n1, n2 = block_sizes
    if family == "T2a":
        return (n - 1) * m1 * m2 - den * (n1 * n2 * (m1 + m2) - n1 * m1 - n2 * m2)
    return epsilon * n1 * n2 * m1 * m2


def _t1a_child_num(sums, den: int, pair: int) -> int:
    """The ``_four_point_num`` A4 of a five-point vector's T1a child
    (s(pair), s_j for j in the heavy block), read off the vector's subset
    sums: the child's pairing differences are s(pair) + s_j - s_k - s_l =
    2 (s(pair | j) - D), as s_k + s_l = 2D - s(pair) - s_j, so
    A4 = 2D - 2 * sum over j of |s(pair | j) - D|."""
    a4 = 2 * den
    for j in (1, 2, 4, 8, 16):
        if not pair & j:
            a4 -= 2 * abs(sums[pair | j] - den)
    return a4


def _five_point_num(sums, den: int) -> int:
    """The numerator N of a five-point node's a_5 = N / 48 D**2, read off
    the subset sums ``sums`` of its numerators s_i over D, none a multiple
    of D: ``_coefficient`` at n = 5 over 12 D**k (k heavy blocks), each
    child's value read off the same sums.  These are the n = 5 forms of
    ``_term_num``, which holds a_n's integer numerators for n >= 6; only
    the pieces and the test references still evaluate ``_coefficient``.

    With M = s(I) - D for a heavy block I, N sums (2D - 4M) * A4 over T1a
    (A4 the child's ``_t1a_child_num``, whose a_4 is A4 / 4D), -8 D M over
    T1b and 16 M1 M2 - 8 D (M1 + M2) over T2a; the T1b and T2a children
    have three entries, so a_3 = 1, and T2b needs n >= 6.  No child
    vanishes: each entry is an s_i, or 2D - s(I) for a heavy block, which
    the families keep off the multiples of D.  So no child needs a vector
    or a memo.
    """
    total = 0
    for (pair,), _, _ in _family_blocks("T1a", 5, sums, den):
        # 2D - 4M, with M = s(heavy) - D = D - s(pair)
        total += (4 * sums[pair] - 2 * den) * _t1a_child_num(sums, den, pair)
    for _, (heavy,), _ in _family_blocks("T1b", 5, sums, den):
        total -= 8 * den * (sums[heavy] - den)
    for _, (block1, block2), _ in _family_blocks("T2a", 5, sums, den):
        m1, m2 = sums[block1] - den, sums[block2] - den
        total += 16 * m1 * m2 - 8 * den * (m1 + m2)
    return total


def _leaf(nums, den: int) -> Fraction:
    """a_n of three, four or five numerators over den, none a multiple of
    den: 1, the four-point closed form over 4D, or the five-point leaf
    ``_five_point_num`` over 48 D**2.  Both are homogeneous in (den, nums),
    so numerators over any common denominator give the same value."""
    if len(nums) == 3:
        return Fraction(1)
    if len(nums) == 4:
        return Fraction(_four_point_num(nums, den), 4 * den)
    return Fraction(_five_point_num(_subset_sums(nums), den), 48 * den * den)


def _memo_key(mu: WeightVector) -> tuple:
    """The memo key of a vector: its entries ordered by their integer
    numerators, that is tuple(sorted(mu.entries))."""
    nums = mu._nums
    return itemgetter(*sorted(range(len(nums)), key=nums.__getitem__))(mu.entries)


def a_n(mu, cache: Optional[MutableMapping] = None) -> Fraction:
    """The normalized intersection function on a weight vector.

    Vanishes when any entry is an integer; equals 1 for n = 3, the closed
    form for n = 4 and the five-point leaf for n = 5; for n >= 6 it is the
    four-family recursion with denominator-free coefficients, each record's
    the integer ``_term_num`` over (n - 1)(n - 2) D**k.  A vector of
    three, four or five weights, input or child, never touches the memo: an
    input is evaluated on its own numerators, and a child inline on its
    numerators (2D - s(I), s_i for i in I) over the node's D, with no
    vector.  ``cache`` maps sorted weight tuples to values and holds exactly
    the vectors of six or more weights the call visits, the input among
    them when it has six or more.  ``None`` gives this call a fresh one.
    """
    mu = WeightVector.coerce(mu)
    den, nums = mu._den, mu._nums
    if any(s % den == 0 for s in nums):
        return Fraction(0)
    n = mu.n
    if n <= 5:
        return _leaf(nums, den)
    if cache is None:
        cache = {}
    key = _memo_key(mu)
    hit = cache.get(key)
    if hit is not None:
        return hit
    sums, lead, value = mu._sums, (n - 1) * (n - 2), Fraction(0)
    # looked up by name on each call, so wrappers bound to these names see it
    for enum in (enum_T1a, enum_T1b, enum_T2a, enum_T2b):
        for rec in enum(mu):
            heavies = rec.heavy_blocks
            ms = [sums[_mask(heavy)] - den for heavy in heavies]
            term = Fraction(_term_num(rec.family, ms, rec.block_sizes, rec.epsilon,
                                      n, den), lead * den ** len(ms))
            for heavy in heavies:
                # a heavy block's child never vanishes (see _five_point_num)
                if len(heavy) >= 5:
                    term *= a_n(_sub_vector(mu, heavy), cache)
                elif len(heavy) > 2:  # a three-point child is 1
                    term *= _leaf(_child_nums(mu, heavy), den)
            value += term
    cache[key] = value
    return value


def j_n(nu, cache: Optional[MutableMapping] = None) -> Fraction:
    """Integer-valued intersection number: e**(n-3) * a_n with e minimal."""
    nu = WeightVector.coerce(nu)
    return nu._den ** (nu.n - 3) * a_n(nu, cache)


def _check_level(mu: WeightVector, d) -> None:
    """d must be a positive int and a multiple of the weights' denominator."""
    if type(d) is not int or d < 1:
        raise ValidationError(f"the level d must be a positive int, got {d!r}")
    if d % mu._den:
        raise ValidationError(f"{d} is not a common denominator of the weights")


def recursive_rhs_dform(mu, d: int, cache: Optional[MutableMapping] = None) -> Fraction:
    """Literal right-hand side of the level-d recursion, as a cross-check.

    Evaluates the d-dependent coefficient table and the d/e power bookkeeping
    verbatim; must equal (d/e)**(n-3) * j_n(mu).  Only defined for n >= 5
    (the boundary expansion degenerates below that), and returns 0 outright
    for integer-entry weights, mirroring the vanishing statement.

    Each family's signed coefficient a_s is written in m = d * mu_bar; a
    record with b blocks adds a_s * d**(n-2-b) * prod j_n(w) / e_w**(|I|-2),
    one factor per heavy block I with sub-vector w of minimal denominator e_w.
    """
    mu = WeightVector.coerce(mu)
    n = mu.n
    _check_level(mu, d)
    if n < 5:
        raise ValidationError("the literal recursion needs n >= 5")
    if any(x.denominator == 1 for x in mu):
        return Fraction(0)
    total = Fraction(0)
    for family, records in enum_all(mu).items():
        for rec in records:
            m = [d * x for x in rec.mu_bars]
            if family == "T1a":
                a_s = Fraction(d * (n - 3), (n - 1) * (n - 2)) - m[0] / (n - 2)
            elif family == "T1b":
                a_s = -Fraction(d * (n - 3), (n - 1) * (n - 2)) * m[0]
            else:
                (m1, m2), (n1, n2) = m, rec.block_sizes
                if family == "T2a":
                    a_s = m1 * m2 / (n - 2) - Fraction(d, (n - 1) * (n - 2)) * (
                        n1 * n2 * (m1 + m2) - m1 * n1 - m2 * n2)
                else:
                    a_s = Fraction(rec.epsilon * d * n1 * n2, (n - 1) * (n - 2)) * m1 * m2
            term = a_s * Fraction(d) ** (n - 2 - len(rec.blocks))
            for w, size in zip(rec.sub_weights, rec.block_sizes):
                term *= j_n(w, cache) / Fraction(w._den) ** (size - 2)
            total += term
    return total


def vol1(mu, cache: Optional[MutableMapping] = None) -> PiValue:
    """Normalized volume (-1)**(n-3) * pi**(n-2) / (n-2)! times a_n; signed."""
    mu = WeightVector.coerce(mu)
    return _volume(mu.n, a_n(mu, cache))


def _volume(n: int, value: Fraction, ratio=1, d: int = 1) -> PiValue:
    """``vol1`` of an n-point vector whose a_n is ``value``, times
    ratio / d: the lattice-normalized volume of a level-d stratum whose
    volume-form ratio is ``ratio``.  Its coefficient
    (-1)**(n-3) * value * ratio / ((n-2)! * d) is one Fraction, built from
    the integers."""
    num = value.numerator * ratio.numerator
    return PiValue(Fraction(-num if n % 2 == 0 else num,
                            value.denominator * ratio.denominator
                            * math.factorial(n - 2) * d), n - 2)


@dataclass(frozen=True)
class QuadSignature(Signature):
    """A level-2 signature with all orders odd (so >= -1, summing to -4):
    the quadratic strata with simple poles."""

    level: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.level != 2:
            raise ValidationError(f"a quadratic signature has level 2, got {self.level}")
        if any(k % 2 == 0 for k in self.orders):
            raise ValidationError("orders must be odd")

    @classmethod
    def coerce(cls, value) -> "QuadSignature":
        if isinstance(value, QuadSignature):
            return value
        if isinstance(value, Signature):
            return cls(value.orders, value.level)
        return cls(tuple(value))


def quad_V(kappa, cache: Optional[MutableMapping] = None) -> Fraction:
    """Intersection number of a quadratic stratum, via the generic recursion."""
    return j_n(weights_from_signature(QuadSignature.coerce(kappa)), cache)


def quad_V_closed(kappa) -> Fraction:
    """Closed form (-1)**(n/2) * (n-3)! * prod k!!/(k+1)!!."""
    kappa = QuadSignature.coerce(kappa)
    n = kappa.n
    return (-1) ** (n // 2) * math.factorial(n - 3) * _order_product(kappa.orders)


def quad_V_recursive(kappa, memo: Optional[MutableMapping] = None) -> Fraction:
    """The quadratic two-family recursion, evaluated on integer orders only.

    ``memo`` maps sorted order tuples to values down the recursion; ``None``
    gives this call a fresh one."""
    kappa = QuadSignature.coerce(kappa)
    n = kappa.n
    if n == 4:
        return Fraction(1)  # only (-1,-1,-1,-1) exists at n = 4
    if memo is None:
        memo = {}
    key = tuple(sorted(kappa.orders))
    hit = memo.get(key)
    if hit is not None:
        return hit
    orders = kappa.orders
    # the families of the weights -k_i / 2, on the sums of -k_i over 2
    sums = _subset_sums([-k for k in orders])
    value = Fraction(0)
    # T1b: a pair of simple poles (every -k_i <= 1, so no other pair sums to
    # 2) plus a positive singleton; the rest sums to 2 + k1, odd and > 2
    for (_, single), (heavy,), _ in _family_blocks("T1b", n, sums, 2):
        k1 = orders[single.bit_length() - 1]
        sub = QuadSignature((k1 - 2, *(orders[i] for i in _bits(heavy))))
        value -= (
            Fraction(2 * (n - 3), (n - 1) * (n - 2))
            * k1
            * quad_V_recursive(sub, memo)
        )
    # two positive singletons paired with blocks summing to -2 with them;
    # each pairing counts once, so equal singletons give the epsilon = 2
    for masks in _paired_blocks(n, sums, 2):
        (a,), block_a, (c,), block_c = map(_bits, masks)
        n1, n2 = len(block_a), len(block_c)
        sub1 = QuadSignature((orders[a] - 2, *(orders[i] for i in block_a)))
        sub2 = QuadSignature((orders[c] - 2, *(orders[i] for i in block_c)))
        value += (
            Fraction(2 * n1 * n2, (n - 1) * (n - 2))
            * orders[a]
            * orders[c]
            * quad_V_recursive(sub1, memo)
            * quad_V_recursive(sub2, memo)
        )
    memo[key] = value
    return value


def mv_quadratic_aez(kappa) -> PiValue:
    """Masur-Veech volume of an all-odd quadratic stratum in the
    dimension-normalized convention: 2 * pi**(n-2) * prod k!!/(k+1)!!."""
    kappa = QuadSignature.coerce(kappa)
    return PiValue(2 * _order_product(kappa.orders), kappa.n - 2)


def _boundary_pairing(s: frozenset, t: frozenset) -> int:
    if s == t:
        return -1
    if s & t:
        return 0
    return 1


def a5_direct(mu, d: int) -> Fraction:
    """Five-point value through the boundary self-intersection computation.

    Independent of the recursion: expands the tautological divisor in the
    ten boundary classes of the five-point space, pairs them with the
    standard intersection matrix, and corrects by the exceptional
    contribution -r1*r2 for each doubly-heavy degeneration.
    """
    mu = WeightVector.coerce(mu)
    if mu.n != 5:
        raise ValidationError("a5_direct needs exactly 5 weights")
    _check_level(mu, d)
    pairs = [frozenset(p) for p in combinations(range(5), 2)]

    def coefficient(pair: frozenset) -> Fraction:
        comp = frozenset(range(5)) - pair
        light, heavy = pair, comp
        if mu.subset_sum(light) > mu.subset_sum(heavy):
            light, heavy = heavy, light
        mu_s = mu.subset_sum(heavy) - 1
        return (
            Fraction(d, 12)
            * (len(light) - 1)
            * ((len(heavy) - 1) - 4 * mu_s)
        )

    coeffs = {p: coefficient(p) for p in pairs}
    d_squared = Fraction(0)
    for s in pairs:
        for t in pairs:
            inter = _boundary_pairing(s, t)
            if inter:
                d_squared += coeffs[s] * coeffs[t] * inter

    exceptional = Fraction(0)
    for single in range(5):
        rest = sorted(set(range(5)) - {single})
        anchor, others = rest[0], rest[1:]
        for partner in others:
            block1 = (anchor, partner)
            block2 = tuple(i for i in others if i != partner)
            w1, w2 = mu.subset_sum(block1), mu.subset_sum(block2)
            if w1 <= 1 or w2 <= 1:
                continue
            r1 = d * (w1 - 1)
            r2 = d * (w2 - 1)
            exceptional -= r1 * r2

    return (d_squared + exceptional) / Fraction(d) ** 2


def enumerate_odd_signatures(n: int) -> list[QuadSignature]:
    """All odd signatures with n entries (each >= -1, summing to -4), up to
    reordering: by the number of positive orders, then their nondecreasing
    tuple, each followed by the -1 entries."""

    def parts(count: int, total: int, lo: int):
        """Nondecreasing odd tuples of `count` parts >= lo summing to total."""
        if count == 0:
            if total == 0:
                yield ()
            return
        for k in range(lo, total + 1, 2):
            for rest in parts(count - 1, total - k, k):
                yield (k, *rest)

    # with p positive orders, the other n - p entries are -1
    return [QuadSignature((*pos, *(-1,) * (n - p)))
            for p in range(n - 3) for pos in parts(p, n - p - 4, 1)]
