"""Exact multivariate polynomials and the per-sign-domain pieces of the
normalized volume function.

A sign domain is cut out by the two-block comparison walls; on each domain
the volume function restricts to a single polynomial of degree at most
n - 3, reconstructed here by running the recursion symbolically.  Family
membership is decided at a generic rational sample point, by the integer
subset-sum tests of ``partitions`` on the sample's scaled subset sums.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .core import (ValidationError, WeightVector, _as_fraction, _bits, _mask,
                   _scale_to_integers, _subset_sums)
from .partitions import _family_blocks
from .recursion import _coefficient, _four_point


def _nvars(nvars) -> int:
    """A validated variable count: a non-negative int, not a bool."""
    if type(nvars) is not int or nvars < 0:
        raise ValidationError(f"variable count must be a non-negative int, got {nvars!r}")
    return nvars


def _exponents(exps, nvars: int) -> tuple[int, ...]:
    """A validated exponent vector: nvars non-negative ints."""
    try:
        exps = tuple(exps)
    except TypeError as exc:
        raise ValidationError(f"invalid exponent vector {exps!r}") from exc
    if len(exps) != nvars:
        raise ValidationError("exponent vector length mismatch")
    for e in exps:
        if type(e) is not int or e < 0:
            raise ValidationError(f"exponents must be non-negative ints, got {e!r}")
    return exps


def _unit(i: int, n: int) -> tuple[int, ...]:
    """The exponent vector of x_i among n variables."""
    return (0,) * i + (1,) + (0,) * (n - 1 - i)


def _rational(value):
    """An exact rational: ints pass as they are (they carry numerator and
    denominator too), anything else through the validating conversion."""
    return value if type(value) is int else _as_fraction(value)


def _lowest(num: Mapping, den: int) -> tuple[dict, int]:
    """Integer numerators over a positive denominator in lowest terms: zeros
    dropped, the rest and den divided by one gcd."""
    num = {e: c for e, c in num.items() if c}
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den


def _mul_into(out: dict, a: Mapping, b: Mapping) -> dict:
    """Add the product of two integer term dicts into `out`."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = get(exps, 0) + c1 * c2
    return out


class MultiPoly:
    """Dense-exponent multivariate polynomial with exact rational coefficients.

    Stored as integer numerators keyed by fixed-length exponent tuples
    (``_num``) over one positive common denominator (``_den``), in lowest
    terms and without zero numerators, so equal values have equal
    representations.  ``terms`` gives the coefficients as Fractions.
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        nvars = _nvars(nvars)
        coeffs = {_exponents(exps, nvars): _rational(c) for exps, c in (terms or {}).items()}
        den, nums = _scale_to_integers(coeffs.values())
        self.nvars = nvars
        self._num, self._den = _lowest(dict(zip(coeffs, nums)), den)

    @classmethod
    def _exact(cls, nvars: int, num: dict, den: int = 1) -> "MultiPoly":
        """Result of internal arithmetic: integer numerators on exponent
        tuples of length nvars over a positive int, only brought to lowest
        terms."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly._num, poly._den = _lowest(num, den)
        return poly

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The nonzero coefficients as Fractions, in a new dict."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        nvars = _nvars(nvars)
        value = _rational(value)
        return cls._exact(nvars, {(0,) * nvars: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        nvars = _nvars(nvars)
        if type(index) is not int or not 0 <= index < nvars:
            raise ValidationError(f"variable index {index!r} is not in 0..{nvars - 1}")
        return cls._exact(nvars, {_unit(index, nvars): 1})

    @classmethod
    def linear(cls, const, coeffs: Sequence, nvars: int) -> "MultiPoly":
        """const + sum(coeffs[i] * x_i), built as one term dict."""
        nvars = _nvars(nvars)
        if len(coeffs) > nvars:
            raise ValidationError(
                f"{len(coeffs)} coefficients for a form in {nvars} variables")
        terms = {(0,) * nvars: const}
        for i, c in enumerate(coeffs):
            terms[_unit(i, nvars)] = c
        return cls(nvars, terms)

    def _coerce(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return MultiPoly.constant(other, self.nvars)
        if self.nvars != other.nvars:
            raise ValidationError("variable-count mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self._den, other._den)
        m1, m2 = den // self._den, den // other._den
        num = {e: c * m1 for e, c in self._num.items()}
        for e, c in other._num.items():
            num[e] = num.get(e, 0) + c * m2
        return MultiPoly._exact(self.nvars, num, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._exact(self.nvars, {e: -c for e, c in self._num.items()},
                                self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = _rational(other)
            return MultiPoly._exact(
                self.nvars, {e: c * scalar.numerator for e, c in self._num.items()},
                self._den * scalar.denominator)
        other = self._coerce(other)
        return MultiPoly._exact(self.nvars, _mul_into({}, self._num, other._num),
                                self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            raise ValidationError(
                f"polynomial powers need a non-negative int exponent, got {exponent!r}")
        num = {(0,) * self.nvars: 1}
        for _ in range(exponent):
            num = _mul_into({}, num, self._num)
        return MultiPoly._exact(self.nvars, num, self._den ** exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.nvars, self._den, self._num) == (other.nvars, other._den, other._num)

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        return max(map(sum, self._num), default=0)

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a rational point, in integers: with the point scaled
        by its common denominator q, each term is padded by q to the total
        degree, and the sum is divided once."""
        values = [_as_fraction(x) for x in point]
        if len(values) != self.nvars:
            raise ValidationError("evaluation point length mismatch")
        q, scaled = _scale_to_integers(values)
        degree = self.total_degree()
        total = 0
        for exps, c in self._num.items():
            term = c * q ** (degree - sum(exps))
            for x, e in zip(scaled, exps):
                if e:
                    term *= x ** e
            total += term
        return Fraction(total, self._den * q ** degree)

    def substitute_linear(self, forms: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute a degree-<=1 polynomial for each variable: every term is
        its coefficient times the forms' powers, which are built once per
        call up to the top exponent of their variable."""
        if len(forms) != self.nvars:
            raise ValidationError("need one substitution form per variable")
        if any(f.total_degree() > 1 for f in forms):
            raise ValidationError("substitute_linear needs linear forms")
        target_vars = forms[0].nvars if forms else 0
        if any(f.nvars != target_vars for f in forms):
            raise ValidationError("variable-count mismatch among forms")
        tops = [max(col) for col in zip(*self._num)] or [0] * self.nvars
        powers = [[form ** e for e in range(top + 1)] for form, top in zip(forms, tops)]
        result = MultiPoly(target_vars)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(c, target_vars)
            for table, e in zip(powers, exps):
                term = term * table[e]
            result = result + term
        return result

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [[list(exps), str(coeff)] for exps, coeff in items]

    @classmethod
    def from_json(cls, nvars: int, data: Iterable) -> "MultiPoly":
        nvars = _nvars(nvars)
        return cls(nvars, {_exponents(exps, nvars): coeff for exps, coeff in data})

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class WallError(ValidationError):
    """A sample sits on a wall (or an integral-subset locus) and cannot
    anchor a sign domain; carries the offending subset."""

    def __init__(self, message: str, subset: frozenset[int]):
        super().__init__(message)
        self.subset = subset


def _wall_gaps(point: WeightVector, blocks) -> dict:
    """For each block I, mu(I) - 1 at the point scaled by the common
    denominator of its weights: an integer with the sign of mu(I) - 1."""
    sums, den = _subset_sums(point._nums), point._den
    return {block: sums[_mask(block)] - den for block in blocks}


class SignDomain:
    """A chamber of the weight space, anchored by a generic rational sample.

    The sample must avoid every two-block comparison wall and every locus
    where a proper subset of the weights sums to an integer; both are
    checked at construction.  Every test reads the integer subset sums of
    the sample scaled by its common denominator, which the domain keeps
    (``_sums`` by bitmask, over ``_den``).
    """

    def __init__(self, sample):
        sample = WeightVector.coerce(sample)
        den, n = sample._den, sample.n
        sums = _subset_sums(sample._nums)
        integral = [mask for mask in range(1, (1 << n) - 1) if sums[mask] % den == 0]
        if integral:
            # report the first such subset in combinations order
            subset = min(([i for i in range(n) if mask >> i & 1] for mask in integral),
                         key=lambda s: (len(s), s))
            total = sums[_mask(subset)] // den
            if total == 1 and 2 <= len(subset) <= n - 2:
                comp = sorted(set(range(n)) - set(subset))
                raise WallError(f"sample lies on the wall {subset}|{comp}",
                                frozenset(subset))
            raise WallError(f"subset {subset} has integral weight {total}",
                            frozenset(subset))
        self.sample, self.n, self._den, self._sums = sample, n, den, sums

    @functools.cached_property
    def signs(self) -> dict[frozenset[int], int]:
        """The walls mu(I) = 1 with 2 <= |I| <= n - 2, one per complementary
        pair (the side without index 0), each with the sign of mu(I) - 1;
        built on first access."""
        sums, den = self._sums, self._den
        return {
            frozenset(subset): 1 if sums[_mask(subset)] > den else -1
            for size in range(2, self.n - 1)
            for subset in combinations(range(1, self.n), size)
        }

    def same_pattern(self, point) -> bool:
        """Does a rational point satisfy all of this domain's strict wall
        inequalities?  (Integral-subset loci are allowed.)"""
        point = WeightVector.coerce(point)
        if point.n != self.n:
            return False
        gaps = _wall_gaps(point, self.signs)
        return all(gaps[block] * sign > 0 for block, sign in self.signs.items())

    def signs_json(self) -> list[dict]:
        out = []
        for block in sorted(self.signs, key=lambda b: (len(b), sorted(b))):
            out.append({"block": sorted(block),
                        "sign": "+" if self.signs[block] > 0 else "-"})
        return out


# One exponent tuple per distinct monomial of the pieces an_polynomial
# returns.  A tuple is most of a stored term's memory, so pieces that share
# them cost about half as much to keep; the table holds at most C(2n-3, n)
# tuples per n (5005 at n = 9).
_EXPONENTS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _sum(polys: Iterable[MultiPoly], nvars: int) -> MultiPoly:
    """The sum of polynomials in one integer accumulator, over the least
    common multiple of their denominators, keyed by the shared exponent
    tuples."""
    acc: dict[tuple[int, ...], int] = {}
    den = 1
    for poly in polys:
        if den % poly._den:
            scale = poly._den // math.gcd(den, poly._den)
            for exps in acc:
                acc[exps] *= scale
            den *= scale
        m = den // poly._den
        for exps, c in poly._num.items():
            acc[exps] = acc.get(exps, 0) + c * m
    share = _EXPONENTS.setdefault
    return MultiPoly._exact(nvars, {share(e, e): c for e, c in acc.items()}, den)


def _sub_piece(n: int, sums: list[int], den: int, heavy: Sequence[int],
               memo: dict) -> MultiPoly:
    """The piece of a heavy block's sub-sample (2 - mu(heavy), mu_i for i in
    heavy) in the variables of the full sample.

    The sub-sample is read off the integer subset sums, over the sample's
    own denominator D; its sorted numerators are its memo key, and a new key
    is built by ``_piece`` from the subset sums of the sorted ints.  The memo maps each key to its piece
    in sorted variables.  Each sorted variable is renamed back: a weight
    mu_i becomes x_i, which only moves its exponent, and 2 - mu(heavy)
    becomes the composite 2 - sum(x_i for i in heavy), whose integer powers
    are built once.  Every term is expanded into one integer accumulator
    over the piece's denominator.  Equal weights need no care: swapping them
    fixes the chamber, so the piece is symmetric in their variables.

    The sorted memo and the renaming stay because they share work that a
    recursion in the sample's own variables repeats (see README).
    """
    sub = (2 * den - sums[_mask(heavy)], *(sums[1 << i] for i in heavy))
    order = sorted(range(len(sub)), key=sub.__getitem__)
    key = tuple(sub[j] for j in order)
    piece = memo.get(key)
    if piece is None:
        piece = memo[key] = _piece(len(key), _subset_sums(key), den, memo)
    # sorted variable j is the composite when order[j] == 0, else
    # x_heavy[order[j] - 1]; the renaming reads each x_i's exponent from its
    # sorted position, the other x_i read a 0 appended after them
    where = [len(sub)] * n
    for j, k in enumerate(order):
        if k:
            where[heavy[k - 1]] = j
    rename = itemgetter(*where)
    slot = order.index(0)
    composite = {(0,) * n: 2}
    for i in heavy:
        composite[_unit(i, n)] = -1
    powers = [{(0,) * n: 1}]
    for _ in range(max((exps[slot] for exps in piece._num), default=0)):
        powers.append(_mul_into({}, powers[-1], composite))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for exps, c in piece._num.items():
        base = rename((*exps, 0))
        power = exps[slot]
        if not power:
            acc[base] = get(base, 0) + c
            continue
        for comp_exps, comp_c in powers[power].items():
            out = tuple(map(add, base, comp_exps))
            acc[out] = get(out, 0) + c * comp_c
    return MultiPoly._exact(n, acc, piece._den)


def _template(family: str, block_sizes: tuple[int, ...],
              n: int) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """A record's signed coefficient as a polynomial in its block weights
    u_j = mu(I_j) = mu_bar_j + 1, over one integer denominator:
    ``_coefficient`` on the forms u_j - 1, one variable per block (its
    epsilon only enters T2b, which a piece never meets).  The
    coefficient is affine in each mu_bar, so each term is the product of the
    u_j over a set S of blocks.  Returns the denominator and the (S,
    numerator) pairs.
    """
    k = len(block_sizes)
    forms = [MultiPoly.variable(j, k) - 1 for j in range(k)]
    poly = _coefficient(family, forms, block_sizes, 1, n)
    return poly._den, [(tuple(j for j in range(k) if exps[j]), c)
                       for exps, c in poly._num.items()]


def _from_template(template, blocks: Sequence, n: int) -> MultiPoly:
    """A template evaluated at u_j = sum(x_i for i in blocks[j]): the
    blocks are disjoint, so each choice of one index per block in S is its
    own monomial."""
    den, parts = template
    num = {}
    for s, c in parts:
        for choice in product(*[blocks[j] for j in s]):
            exps = [0] * n
            for i in choice:
                exps[i] = 1
            num[tuple(exps)] = c
    return MultiPoly._exact(n, num, den)


def _piece(n: int, sums: list[int], den: int, memo: dict) -> MultiPoly:
    """The piece of the sample whose integer subset sums over den are
    ``sums``: its T1a and T2a terms, read off the same sums by
    ``partitions._family_blocks``, each sub-piece taken from the memo.  No
    proper subset of the sample has integral weight, so it has no T1b (a
    weight-1 pair) or T2b (a singleton and a block of weight 1) record.

    A sub-sample (2D - s(I), s_i for i in I) of a heavy block I needs none
    of the checks of ``SignDomain``: it has at least 3 entries, each below
    D, summing to 2D, and each of its proper nonempty subset sums is s(K) or
    2D - s(K) for a nonempty K inside I, a proper subset of the sample, so
    none is a multiple of D.  Every key of one call is over the same D, so
    equal sub-samples meet at equal keys without a gcd.
    """
    if n == 3:
        return MultiPoly.constant(1, 3)
    if n == 4:
        # the closed form on x_0, ..., x_3, each d_j opened with the sign of
        # mu_0 + mu_j - 1 (that of d_j, as the weights sum to 2): the piece
        # depends on these signs alone
        signs = tuple(1 if sums[1 | 1 << j] > den else -1 for j in (1, 2, 3))
        key = ("four-point", signs)
        if key not in memo:
            memo[key] = _four_point([MultiPoly.variable(i, 4) for i in range(4)],
                                    signs=signs)
        return memo[key]
    terms = []
    for family in ("T1a", "T2a"):
        for blocks, _ in _family_blocks(family, n, sums, den):
            heavies = [_bits(mask) for mask in blocks[1:]]
            block_sizes = tuple(map(len, heavies))
            shape = (family, n, block_sizes)
            template = memo.get(shape)
            if template is None:
                template = memo[shape] = _template(family, block_sizes, n)
            term = _from_template(template, heavies, n)
            for heavy in heavies:
                term = term * _sub_piece(n, sums, den, heavy, memo)
            terms.append(term)
    return _sum(terms, n)


def an_polynomial(domain: SignDomain) -> MultiPoly:
    """The polynomial piece of the volume function on a sign domain.

    The terms are the sample's T1a and T2a records, weighted by the
    recursion's signed coefficients on linear forms; elsewhere in the domain,
    terms whose integrality side conditions fail contribute sub-values that
    vanish, so the piece holds on the whole domain.  Each distinct sub-piece
    is built once per call, and each coefficient template once per family,
    n and block sizes, in one memo that dies with the call: sub-pieces sit
    under their sorted integer sub-samples, templates under keys that start
    with the family name, and four-point pieces under their sign pattern.
    """
    return _piece(domain.n, domain._sums, domain._den, {})


def wall_continuity_check(domain_a: SignDomain, domain_b: SignDomain,
                          boundary_samples: Sequence) -> bool:
    """Exact agreement of two adjacent pieces at points of their common wall.

    The domains must differ in exactly one wall sign, and every sample must
    lie on that wall and on no other.
    """
    if domain_a.n != domain_b.n:
        raise ValidationError("domains live in different weight spaces")
    flipped = [b for b in domain_a.signs
               if domain_a.signs[b] != domain_b.signs.get(b)]
    if len(flipped) != 1:
        raise ValidationError(
            f"domains must differ in exactly one sign, got {len(flipped)}")
    wall = flipped[0]
    piece_a = an_polynomial(domain_a)
    piece_b = an_polynomial(domain_b)
    for raw in boundary_samples:
        point = WeightVector.coerce(raw)
        if point.n != domain_a.n:
            raise ValidationError(
                f"sample {point} has {point.n} weights, the domains {domain_a.n}")
        gaps = _wall_gaps(point, domain_a.signs)
        if gaps[wall] != 0:
            raise ValidationError(f"sample {point} is not on the common wall")
        for block, gap in gaps.items():
            if block != wall and gap == 0:
                raise ValidationError(
                    f"sample {point} sits on a second wall {sorted(block)}")
        if piece_a.evaluate(point.entries) != piece_b.evaluate(point.entries):
            return False
    return True
