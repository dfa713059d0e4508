"""Exact multivariate polynomials and the per-sign-domain pieces of the
normalized volume function.

A sign domain is cut out by the two-block comparison walls; on each domain
the volume function restricts to a single polynomial of degree at most
n - 3, reconstructed here by running the recursion symbolically, with
family membership decided by a generic rational sample point.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .core import (ValidationError, WeightVector, _as_fraction, _scale_to_integers,
                   _subset_sums)
from .partitions import enum_T1a, enum_T2a
from .recursion import _coefficient


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
        value = _rational(value)
        return cls._exact(nvars, {(0,) * nvars: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        if type(index) is not int or not 0 <= index < nvars:
            raise ValidationError(f"variable index {index!r} is not in 0..{nvars - 1}")
        return cls._exact(nvars, {_unit(index, nvars): 1})

    @classmethod
    def linear(cls, const, coeffs: Sequence, nvars: int) -> "MultiPoly":
        """const + sum(coeffs[i] * x_i), built as one term dict."""
        if len(coeffs) > nvars:
            raise ValidationError(
                f"{len(coeffs)} coefficients for a form in {nvars} variables")
        terms = {(0,) * nvars: _rational(const)}
        for i, c in enumerate(coeffs):
            terms[_unit(i, nvars)] = _rational(c)
        den, nums = _scale_to_integers(terms.values())
        return cls._exact(nvars, dict(zip(terms, nums)), den)

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
        if exponent < 0:
            raise ValidationError("negative polynomial powers are undefined")
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
        """Substitute a degree-<=1 polynomial for each variable.

        The integer powers of each form's numerators are built once, up to
        the top exponent of its variable, and every term is expanded
        through them into one integer accumulator over one denominator.
        """
        if len(forms) != self.nvars:
            raise ValidationError("need one substitution form per variable")
        if any(f.total_degree() > 1 for f in forms):
            raise ValidationError("substitute_linear needs linear forms")
        target_vars = forms[0].nvars if forms else 0
        if any(f.nvars != target_vars for f in forms):
            raise ValidationError("variable-count mismatch among forms")
        zero = (0,) * target_vars
        tops = [max(col) for col in zip(*self._num)] or [0] * self.nvars
        powers = []
        for form, top in zip(forms, tops):
            table = [{zero: 1}]
            for _ in range(top):
                table.append(_mul_into({}, table[-1], form._num))
            powers.append(table)
        # form j enters a term with exponent e as N_j**e / d_j**e; padding
        # it by d_j**(top_j - e) puts every term over one denominator
        padded = [(j, forms[j]._den, tops[j]) for j in range(self.nvars)
                  if forms[j]._den != 1 and tops[j]]
        den = self._den
        for _, d, top in padded:
            den *= d ** top
        # multiply the single-term powers in first, so each term's partial
        # product stays small until the widest factor
        order = sorted(range(self.nvars), key=lambda j: len(forms[j]._num))
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in self._num.items():
            for j, d, top in padded:
                c *= d ** (top - exps[j])
            part = {zero: c}
            factors = [powers[j][exps[j]] for j in order if exps[j]]
            for factor in factors[:-1]:
                part = _mul_into({}, part, factor)
            _mul_into(acc, part, factors[-1] if factors else {zero: 1})
        return MultiPoly._exact(target_vars, acc, den)

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [[list(exps), str(coeff)] for exps, coeff in items]

    @classmethod
    def from_json(cls, nvars: int, data: Iterable) -> "MultiPoly":
        return cls(nvars, {_exponents(exps, nvars): coeff for exps, coeff in data})

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class WallError(ValidationError):
    """A sample sits on a wall (or an integral-subset locus) and cannot
    anchor a sign domain; carries the offending subset."""

    def __init__(self, message: str, subset: frozenset[int]):
        super().__init__(message)
        self.subset = subset


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


class SignDomain:
    """A chamber of the weight space, anchored by a generic rational sample.

    The sample must avoid every two-block comparison wall and every locus
    where a proper subset of the weights sums to an integer.  Every test
    reads the integer subset sums of the sample scaled by its common
    denominator.
    """

    def __init__(self, sample):
        self.sample = WeightVector.coerce(sample)
        n = self.sample.n
        den, scaled = _scale_to_integers(self.sample.entries)
        sums = _subset_sums(scaled)
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
        # the walls mu(I) = 1 with 2 <= |I| <= n - 2, one per complementary
        # pair (the side without index 0); the sign is that of mu(I) - 1
        self.signs: dict[frozenset[int], int] = {
            frozenset(subset): 1 if sums[_mask(subset)] > den else -1
            for size in range(2, n - 1)
            for subset in combinations(range(1, n), size)
        }

    @property
    def n(self) -> int:
        return self.sample.n

    def same_pattern(self, point) -> bool:
        """Does a rational point satisfy all of this domain's strict wall
        inequalities?  (Integral-subset loci are allowed.)"""
        point = WeightVector.coerce(point)
        if point.n != self.n:
            return False
        den, scaled = _scale_to_integers(point.entries)
        sums = _subset_sums(scaled)
        for block, sign in self.signs.items():
            gap = sums[_mask(block)] - den
            if gap == 0 or (1 if gap > 0 else -1) != sign:
                return False
        return True

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


def _a4_piece(sample: WeightVector) -> MultiPoly:
    """1/2 - (|d_1| + |d_2| + |d_3|)/4 with d_j = x_0 + x_j minus the other
    two variables, each |d_j| opened with its sign at the sample (that of
    mu_0 + mu_j - 1, as the weights sum to 2)."""
    num = {(0, 0, 0, 0): 2}
    for j in (1, 2, 3):
        coeffs = [1 if k in (0, j) else -1 for k in range(4)]
        sigma = 1 if sample[0] + sample[j] > 1 else -1
        for k, c in enumerate(coeffs):
            exps = (0,) * k + (1,) + (0,) * (3 - k)
            num[exps] = num.get(exps, 0) - sigma * c
    return MultiPoly._exact(4, num, 4)


def _sub_piece(sample: WeightVector, heavy: Sequence[int], mu_bar: Fraction,
               memo: dict) -> MultiPoly:
    """The piece of a heavy block's sub-sample (1 - mu_bar, mu_i for i in
    heavy), with mu_bar = mu(heavy) - 1, in the variables of the full sample.

    The memo maps each sorted sub-sample to its piece in sorted variables.
    Each sorted variable is renamed back: a weight mu_i becomes x_i, which
    only moves its exponent, and 1 - mu_bar becomes the composite
    2 - sum(x_i for i in heavy), whose integer powers are built once.  Every
    term is expanded into one integer accumulator over the piece's
    denominator.  Equal weights need no care: swapping them fixes the
    chamber, so the piece is symmetric in their variables.
    """
    n = sample.n
    sub = (1 - mu_bar, *(sample[i] for i in heavy))
    order = sorted(range(len(sub)), key=sub.__getitem__)
    key = tuple(sub[j] for j in order)
    piece = memo.get(key)
    if piece is None:
        piece = memo[key] = an_polynomial(SignDomain(key), _memo=memo)
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


def _mu_bar(block, n: int) -> MultiPoly:
    """The excess weight mu(block) - 1 as a linear form in n variables."""
    num = {(0,) * n: -1}
    for i in block:
        num[_unit(i, n)] = 1
    return MultiPoly._exact(n, num)


def an_polynomial(domain: SignDomain, *, _memo: dict | None = None) -> MultiPoly:
    """The polynomial piece of the volume function on a sign domain.

    The terms are the sample's T1a and T2a records, weighted by the
    recursion's signed coefficients on linear forms; elsewhere in the domain,
    terms whose integrality side conditions fail contribute sub-values that
    vanish, so the piece holds on the whole domain.  Each distinct sub-piece
    is built once per top-level call, in a memo that the recursion passes
    down as `_memo` and that dies with the call.
    """
    memo = {} if _memo is None else _memo
    sample = domain.sample
    n = sample.n
    if n == 3:
        return MultiPoly.constant(1, 3)
    if n == 4:
        return _a4_piece(sample)
    # The sample has no proper subset of integral weight, so T1b (a weight-1
    # pair) and T2b (a singleton and a block of weight 1) are empty, and
    # T2a's negative singleton follows from its two heavy blocks.
    terms = []
    for rec in enum_T1a(sample) + enum_T2a(sample):
        term = _coefficient(rec.family, [_mu_bar(h, n) for h in rec.heavy_blocks],
                            rec.block_sizes, rec.epsilon, n)
        for heavy, mu_bar in zip(rec.heavy_blocks, rec.mu_bars):
            term = term * _sub_piece(sample, sorted(heavy), mu_bar, memo)
        terms.append(term)
    return _sum(terms, n)


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
        if 2 * point.subset_sum(wall) - 2 != 0:
            raise ValidationError(f"sample {point} is not on the common wall")
        for block, sign in domain_a.signs.items():
            if block == wall:
                continue
            gap = 2 * point.subset_sum(block) - 2
            if gap == 0:
                raise ValidationError(
                    f"sample {point} sits on a second wall {sorted(block)}")
        if piece_a.evaluate(point.entries) != piece_b.evaluate(point.entries):
            return False
    return True
