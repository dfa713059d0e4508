"""Exact multivariate polynomials and the per-sign-domain pieces of the
normalized volume function.

A sign domain is cut out by the two-block comparison walls; on each domain
the volume function restricts to a single polynomial of degree at most
n - 3, reconstructed here by running the recursion symbolically, with
family membership decided by a generic rational sample point.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .core import ValidationError, WeightVector, _as_fraction


class MultiPoly:
    """Dense-exponent multivariate polynomial with exact rational coefficients.

    Terms map fixed-length exponent tuples to nonzero Fractions.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != nvars:
                raise ValidationError("exponent vector length mismatch")
            clean[tuple(int(e) for e in exps)] = coeff
        self.terms = clean

    @classmethod
    def _exact(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Result of internal arithmetic: the coefficients are already exact
        Fractions on exponent tuples of length nvars, so only zeros are
        dropped."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        return cls._exact(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls._exact(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def linear(cls, const, coeffs: Sequence, nvars: int) -> "MultiPoly":
        """const + sum(coeffs[i] * x_i), built as one term dict."""
        terms = {(0,) * nvars: _as_fraction(const)}
        for i, c in enumerate(coeffs):
            exps = [0] * nvars
            exps[i] = 1
            terms[tuple(exps)] = _as_fraction(c)
        return cls._exact(nvars, terms)

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValidationError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return MultiPoly._exact(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._exact(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = _as_fraction(other)
            return MultiPoly._exact(self.nvars,
                                    {e: c * scalar for e, c in self.terms.items()})
        self._check_compatible(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return MultiPoly._exact(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValidationError("negative polynomial powers are undefined")
        result = MultiPoly.constant(1, self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        values = [_as_fraction(x) for x in point]
        if len(values) != self.nvars:
            raise ValidationError("evaluation point length mismatch")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term *= value ** e
            total += term
        return total

    def substitute_linear(self, forms: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute a degree-<=1 polynomial for each variable."""
        if len(forms) != self.nvars:
            raise ValidationError("need one substitution form per variable")
        if any(f.total_degree() > 1 for f in forms):
            raise ValidationError("substitute_linear needs linear forms")
        target_vars = forms[0].nvars if forms else 0
        if any(f.nvars != target_vars for f in forms):
            raise ValidationError("variable-count mismatch among forms")
        result = MultiPoly(target_vars)
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(coeff, target_vars)
            for form, e in zip(forms, exps):
                for _ in range(e):
                    term = term * form
            result = result + term
        return result

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [[list(exps), str(coeff)] for exps, coeff in items]

    @classmethod
    def from_json(cls, nvars: int, data: Iterable) -> "MultiPoly":
        return cls(nvars, {tuple(exps): Fraction(coeff) for exps, coeff in data})

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class WallError(ValidationError):
    """A sample sits on a wall (or an integral-subset locus) and cannot
    anchor a sign domain; carries the offending subset."""

    def __init__(self, message: str, subset: frozenset[int]):
        super().__init__(message)
        self.subset = subset


def _proper_subsets(n: int):
    for size in range(1, n):
        yield from combinations(range(n), size)


class SignDomain:
    """A chamber of the weight space, anchored by a generic rational sample.

    The sample must avoid every two-block comparison wall and every locus
    where a proper subset of the weights sums to an integer.
    """

    def __init__(self, sample):
        self.sample = WeightVector.coerce(sample)
        n = self.sample.n
        signs: dict[frozenset[int], int] = {}
        for subset in _proper_subsets(n):
            total = self.sample.subset_sum(subset)
            if total.denominator == 1:
                if total == 1 and 2 <= len(subset) <= n - 2:
                    comp = sorted(set(range(n)) - set(subset))
                    raise WallError(
                        f"sample lies on the wall {sorted(subset)}|{comp}",
                        frozenset(subset),
                    )
                raise WallError(
                    f"subset {sorted(subset)} has integral weight {total}",
                    frozenset(subset),
                )
            if 2 <= len(subset) <= n - 2 and 0 not in subset:
                gap = total - (2 - total)
                signs[frozenset(subset)] = 1 if gap > 0 else -1
        self.signs = signs

    @property
    def n(self) -> int:
        return self.sample.n

    def same_pattern(self, point) -> bool:
        """Does a rational point satisfy all of this domain's strict wall
        inequalities?  (Integral-subset loci are allowed.)"""
        point = WeightVector.coerce(point)
        if point.n != self.n:
            return False
        for block, sign in self.signs.items():
            gap = 2 * point.subset_sum(block) - 2
            if gap == 0 or (1 if gap > 0 else -1) != sign:
                return False
        return True

    def signs_json(self) -> list[dict]:
        out = []
        for block in sorted(self.signs, key=lambda b: (len(b), sorted(b))):
            out.append({"block": sorted(block),
                        "sign": "+" if self.signs[block] > 0 else "-"})
        return out


def _a4_piece(sample: WeightVector) -> MultiPoly:
    half = MultiPoly.constant(Fraction(1, 2), 4)
    total = MultiPoly(4)
    for j in (1, 2, 3):
        coeffs = [Fraction(0)] * 4
        coeffs[0] = coeffs[j] = Fraction(1)
        for k in range(1, 4):
            if k != j:
                coeffs[k] = Fraction(-1)
        gap = sample[0] + sample[j] - sum(
            sample[k] for k in range(1, 4) if k != j)
        sigma = 1 if gap > 0 else -1
        total = total + sigma * MultiPoly.linear(0, coeffs, 4)
    return half - Fraction(1, 4) * total


def _sub_data(sample: WeightVector, heavy: Sequence[int]):
    """Sub-sample and substitution forms for a heavy block, index-ordered."""
    n = sample.n
    heavy = sorted(heavy)
    sub_sample = (2 - sample.subset_sum(heavy),
                  *(sample[i] for i in heavy))
    forms = [MultiPoly.linear(2, [-1 if i in heavy else 0 for i in range(n)], n)]
    for i in heavy:
        forms.append(MultiPoly.variable(i, n))
    return WeightVector(sub_sample), forms


def an_polynomial(domain: SignDomain) -> MultiPoly:
    """The polynomial piece of the volume function on a sign domain.

    Family membership is read off the sample's wall signs alone; terms whose
    integrality side conditions fail contribute sub-values that vanish, so
    including them preserves the identity on the whole domain.
    """
    sample = domain.sample
    n = sample.n
    if n == 3:
        return MultiPoly.constant(1, 3)
    if n == 4:
        return _a4_piece(sample)
    piece = MultiPoly(n)
    for pair in combinations(range(n), 2):
        if sample.subset_sum(pair) >= 1:
            continue
        heavy = sorted(set(range(n)) - set(pair))
        sub_sample, forms = _sub_data(sample, heavy)
        sub_piece = an_polynomial(SignDomain(sub_sample))
        mu_bar = MultiPoly.linear(
            -1, [1 if i in set(heavy) else 0 for i in range(n)], n)
        alpha = (MultiPoly.constant(Fraction(n - 3, (n - 1) * (n - 2)), n)
                 - Fraction(1, n - 2) * mu_bar)
        piece = piece + alpha * sub_piece.substitute_linear(forms)
    for single in range(n):
        rest = sorted(set(range(n)) - {single})
        anchor, others = rest[0], rest[1:]
        for size in range(2, len(rest) - 1):
            for tail in combinations(others, size - 1):
                block1 = sorted((anchor, *tail))
                block2 = sorted(set(rest) - set(block1))
                if len(block2) < 2:
                    continue
                if sample.subset_sum(block1) <= 1 or sample.subset_sum(block2) <= 1:
                    continue
                n1, n2 = len(block1), len(block2)
                mb1 = MultiPoly.linear(
                    -1, [1 if i in set(block1) else 0 for i in range(n)], n)
                mb2 = MultiPoly.linear(
                    -1, [1 if i in set(block2) else 0 for i in range(n)], n)
                gamma = (
                    Fraction(1, (n - 1) * (n - 2))
                    * (n1 * n2 * (mb1 + mb2) - n1 * mb1 - n2 * mb2)
                    - Fraction(1, n - 2) * (mb1 * mb2)
                )
                sub1, forms1 = _sub_data(sample, block1)
                sub2, forms2 = _sub_data(sample, block2)
                piece1 = an_polynomial(SignDomain(sub1)).substitute_linear(forms1)
                piece2 = an_polynomial(SignDomain(sub2)).substitute_linear(forms2)
                piece = piece - gamma * piece1 * piece2
    return piece


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
