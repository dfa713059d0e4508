"""Polygon charts: side constraints, lattice indices and volume-form ratios.

A flat sphere with at most one reflex cone angle is cut out of a single
polygon; the side identifications impose one linear constraint on the side
vectors, the surface area is a Hermitian form in the free sides, and the
period lattice projects to a finite-index sublattice of the Gaussian or
Eisenstein lattice.  ``chart_constraint`` gives the constraint as exact
Gaussian or Eisenstein integers and ``lattice_index`` the index by their
Euclidean gcd.  ``mv_ratio`` needs only the constraint's integer norms,
which it reads off one table per level: the index is a norm quotient, and
the form's determinant a product of sines.  The form itself is built
exactly in Q(zeta_24), which contains i, omega, and sqrt(3) at once; the
tests use it, with ``lattice_index``, as ``mv_ratio``'s oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    PiValue,
    Signature,
    ValidationError,
    _as_fraction,
    _operand,
    _scale_to_integers,
    weights_from_signature,
)
from .recursion import _volume, a_n

_DEGREE = 8  # minimal polynomial x^8 - x^4 + 1


class UnsupportedChart(ValidationError):
    """More than one reflex angle: no single-polygon chart."""


class UnsupportedLevel(ValidationError):
    """No square or triangular period lattice at this level."""


def _reduce(coeffs: list) -> list:
    """Reduce a polynomial in zeta modulo zeta^8 = zeta^4 - 1, in place;
    returns the first eight coefficients, zero-padded."""
    for k in range(len(coeffs) - 1, _DEGREE - 1, -1):
        c = coeffs[k]
        if c:
            coeffs[k - 4] += c
            coeffs[k - 8] -= c
    out = coeffs[:_DEGREE]
    out += [0] * (_DEGREE - len(out))
    return out


class Cyclo24:
    """Element of Q(zeta) with zeta a primitive 24th root of unity.

    Stored as eight integer numerators over one positive common denominator
    in lowest terms, so equal values have equal representations.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence[Fraction]):
        den, nums = _scale_to_integers([_as_fraction(c) for c in coeffs])
        self._num, self._den = _lowest(_reduce(nums), den)

    @classmethod
    def _exact(cls, num, den: int) -> "Cyclo24":
        """Result of internal arithmetic: eight ints over a positive int,
        only brought to lowest terms."""
        value = cls.__new__(cls)
        value._num, value._den = _lowest(num, den)
        return value

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @classmethod
    def from_rational(cls, value) -> "Cyclo24":
        return cls([value])

    @classmethod
    def zeta_pow(cls, m: int) -> "Cyclo24":
        if type(m) is not int:
            raise ValidationError(f"zeta powers need an int exponent, got {m!r}")
        m %= 24
        raw = [0] * (m + 1)
        raw[m] = 1
        return cls._exact(_reduce(raw), 1)

    def __add__(self, other):
        other = _coerce_cyclo(other)
        d1, d2 = self._den, other._den
        return Cyclo24._exact(
            [a * d2 + b * d1 for a, b in zip(self._num, other._num)], d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo24._exact([-a for a in self._num], self._den)

    def __sub__(self, other):
        return self + (-_coerce_cyclo(other))

    def __rsub__(self, other):
        return (-self) + _coerce_cyclo(other)

    def __mul__(self, other):
        other = _coerce_cyclo(other)
        return Cyclo24._exact(_mul_ints(self._num, other._num),
                              self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce_cyclo(other).inverse()

    def __rtruediv__(self, other):
        return _coerce_cyclo(other) * self.inverse()

    def __eq__(self, other) -> bool:
        try:
            other = _coerce_cyclo(other)
        except (ValidationError, TypeError, ValueError):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def inverse(self) -> "Cyclo24":
        """1/x as the product of the other seven Galois conjugates of x over
        its norm.  The Galois group (Z/24)^* is generated by zeta -> zeta^5,
        zeta^7, zeta^13; each step multiplies by one conjugate and so fixes
        one more generator, ending at the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_24)")
        num = self._num
        cofactor = [self._den] + [0] * (_DEGREE - 1)
        for image in _GALOIS_STEPS:
            other = _apply(num, image)
            cofactor = _mul_ints(cofactor, other)
            num = _mul_ints(num, other)
        norm = num[0]
        if norm < 0:
            cofactor, norm = [-c for c in cofactor], -norm
        return Cyclo24._exact(cofactor, norm)

    def __pow__(self, exponent: int) -> "Cyclo24":
        if type(exponent) is not int:
            raise ValidationError(
                f"cyclotomic powers need an int exponent, got {exponent!r}")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CY_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "Cyclo24":
        """Complex conjugation: zeta maps to zeta**(-1)."""
        return Cyclo24._exact(_apply(self._num, _CONJ_MAP), self._den)

    def is_real(self) -> bool:
        return self == self.conj()

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def imag(self) -> "Cyclo24":
        """(z - conj(z)) / (2i), an element of the maximal real subfield."""
        return (self - self.conj()) * _INV_2I

    def __repr__(self) -> str:
        return f"Cyclo24({list(self.coeffs)!r})"


def _mul_ints(left, right) -> list[int]:
    """Product of two integer coefficient vectors, reduced."""
    prod = [0] * (2 * _DEGREE - 1)
    right = [(j, b) for j, b in enumerate(right) if b]
    for i, a in enumerate(left):
        if a:
            for j, b in right:
                prod[i + j] += a * b
    return _reduce(prod)


def _apply(num, image) -> list[int]:
    """Image of an integer coefficient vector under a Galois map, given as
    the sparse images of the eight basis powers."""
    out = [0] * _DEGREE
    for c, powers in zip(num, image):
        if c:
            for j, m in powers:
                out[j] += m * c
    return out


def _galois_map(k: int):
    """zeta^j -> zeta^(j*k) on the basis powers, as sparse (power, integer)
    pairs."""
    return tuple(
        tuple((i, c) for i, c in enumerate(Cyclo24.zeta_pow(j * k)._num) if c)
        for j in range(_DEGREE))


def _lowest(num, den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _coerce_cyclo(value) -> Cyclo24:
    if isinstance(value, Cyclo24):
        return value
    value = _operand(value)
    return Cyclo24._exact([value.numerator] + [0] * (_DEGREE - 1),
                          value.denominator)


CY_ZERO = Cyclo24([0])
CY_ONE = Cyclo24([1])
CY_I = Cyclo24.zeta_pow(6)
CY_OMEGA = Cyclo24.zeta_pow(8)
_CONJ_MAP = _galois_map(-1)
_GALOIS_STEPS = tuple(_galois_map(k) for k in (5, 7, 13))
_INV_2I = CY_I * Fraction(-1, 2)  # 1 / (2i)
CY_SQRT3 = Cyclo24.zeta_pow(2) + Cyclo24.zeta_pow(-2)


@dataclass(frozen=True)
class QuadInt:
    """a + b*zeta with zeta = i (Gaussian) or zeta = omega (Eisenstein)."""

    a: int
    b: int
    omega: bool

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:
            raise ValidationError(
                f"quadratic integers need int parts, got {self.a!r} and {self.b!r}")

    def norm(self) -> int:
        if self.omega:
            return self.a * self.a - self.a * self.b + self.b * self.b
        return self.a * self.a + self.b * self.b

    def conj(self) -> "QuadInt":
        if self.omega:
            return QuadInt(self.a - self.b, -self.b, True)
        return QuadInt(self.a, -self.b, False)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _check_ring(self, other: "QuadInt") -> None:
        if self.omega != other.omega:
            raise ValidationError("mixed quadratic integer rings")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.omega)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.omega)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check_ring(other)
        if self.omega:  # omega^2 = -1 - omega
            a = self.a * other.a - self.b * other.b
            b = self.a * other.b + self.b * other.a - self.b * other.b
        else:  # i^2 = -1
            a = self.a * other.a - self.b * other.b
            b = self.a * other.b + self.b * other.a
        return QuadInt(a, b, self.omega)

    def __divmod__(self, other: "QuadInt"):
        self._check_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero quadratic integer")
        numer = self * other.conj()
        n = other.norm()
        qa = round(Fraction(numer.a, n))
        qb = round(Fraction(numer.b, n))
        quotient = QuadInt(qa, qb, self.omega)
        return quotient, self - other * quotient

    def __mod__(self, other: "QuadInt") -> "QuadInt":
        return divmod(self, other)[1]

    def to_cyclo(self) -> Cyclo24:
        gen = CY_OMEGA if self.omega else CY_I
        return Cyclo24.from_rational(self.a) + Fraction(self.b) * gen


def quadint_gcd(*values: QuadInt) -> QuadInt:
    """Euclidean gcd, defined up to a unit."""
    items = [v for v in values if not v.is_zero()]
    if not items:
        raise ValidationError("gcd of all-zero inputs")
    g = items[0]
    for v in items[1:]:
        a, b = g, v
        while not b.is_zero():
            a, b = b, a % b
        g = a
    return g


# The levels with a period lattice, with zeta_d in Z[i] or Z[w] (omega)
_ZETA = {2: QuadInt(-1, 0, False), 3: QuadInt(0, 1, True),
         4: QuadInt(0, 1, False), 6: QuadInt(1, 1, True)}  # e^{i pi/3} = 1 + w

# N(1 - zeta_d^k) = 4 sin^2(pi k / d) per level, indexed by k mod d
_NORMS = {2: (0, 4), 3: (0, 3, 3), 4: (0, 2, 4, 2), 6: (0, 1, 3, 4, 3, 1)}


def _zeta_power(d: int, k: int) -> QuadInt:
    base = _ZETA[d]
    result = QuadInt(1, 0, base.omega)
    for _ in range(k % d):
        result = result * base
    return result


def _closing_index(kappa: Signature) -> int:
    """Every chart rule, in order: the level has a period lattice, d divides
    no order, and at most one order is reflex.  Returns the point that
    closes the chart's walk: the unique reflex point, else the last one."""
    d, orders = kappa.level, kappa.orders
    if d not in _ZETA:
        raise UnsupportedLevel(f"no period lattice at level {d}")
    if any(k % d == 0 for k in orders):
        raise ValidationError("chart needs d not dividing any order")
    reflex = [i for i, k in enumerate(orders) if k >= 0]
    if len(reflex) > 1:
        raise UnsupportedChart(
            f"{len(reflex)} reflex angles; single-polygon charts need at most one")
    return reflex[0] if reflex else len(orders) - 1


def chart_constraint(kappa: Signature) -> list[QuadInt]:
    """Side-identification coefficients 1 - e^{i alpha_k} of the polygon
    chart, as exact Gaussian or Eisenstein integers: one per point except
    the one that closes the walk (the unique reflex point, else the last)."""
    closing = _closing_index(kappa)
    d = kappa.level
    one = QuadInt(1, 0, _ZETA[d].omega)
    return [one - _zeta_power(d, k)
            for i, k in enumerate(kappa.orders) if i != closing]


@dataclass(frozen=True)
class HermitianForm:
    """Hermitian matrix over Q(zeta_24) representing the area form."""

    entries: tuple[tuple[Cyclo24, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_hermitian(self) -> bool:
        n = self.size
        return all(
            self.entries[r][s] == self.entries[s][r].conj()
            for r in range(n) for s in range(n)
        )

    def evaluate(self, z: Sequence[Cyclo24]) -> Cyclo24:
        if len(z) != self.size:
            raise ValidationError("evaluation vector length mismatch")
        total = CY_ZERO
        for r in range(self.size):
            zr = z[r].conj()
            for s in range(self.size):
                total = total + zr * self.entries[r][s] * z[s]
        return total

    def det(self) -> Cyclo24:
        n = self.size
        rows = [list(row) for row in self.entries]
        det = CY_ONE
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if not rows[r][col].is_zero()), None)
            if pivot_row is None:
                return CY_ZERO
            if pivot_row != col:
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
                det = -det
            pivot = rows[col][col]
            det = det * pivot
            inv = pivot.inverse()
            for r in range(col + 1, n):
                factor = rows[r][col] * inv
                if factor.is_zero():
                    continue
                for s in range(col, n):
                    rows[r][s] = rows[r][s] - factor * rows[col][s]
        return det


def _area_entries(constraint: Sequence[QuadInt]):
    """Entries of the area form on the free sides z_1..z_m, m = n - 2.

    The walk goes out along -s_i and back along zeta^k_i s_i, so the outer
    vertices are -(c_1 s_1 + ... + c_{i-1} s_{i-1}) with c_i = 1 - zeta^k_i.
    Counterclockwise, each side's ear adds Im(c_i)|s_i|^2/2 and the outer
    polygon adds the sum over i < j of Im(conj(c_i s_i) c_j s_j)/2: the form
    G with Im(c_i)/2 on the diagonal, conj(c_i) c_j/(4i) above it and its
    conjugate below.  Substituting s_last = -sum_k (c_k/c_last) z_k, the
    last side's row and column each add conj(c_r) c_s/(4i) with opposite
    signs, so only the corner remains: Im(c_last)/(2 N(c_last)) times
    conj(c_r) c_s.  The walk is clockwise (checked by the signature
    (1, n-3) on all-positive weights), so the area is minus that form.
    """
    *sides, last = [c.to_cyclo() for c in constraint]
    corner = last.imag() * Fraction(1, 2 * constraint[-1].norm())
    quarter = _INV_2I * Fraction(1, 2)
    above, below = -(quarter + corner), quarter - corner
    entries = []
    for r, c_r in enumerate(sides):
        bar = c_r.conj()
        up, down = bar * above, bar * below
        entries.append(tuple(
            up * c_s if s > r else down * c_s if s < r
            else (bar - c_r) * quarter - corner * constraint[r].norm()
            for s, c_s in enumerate(sides)))
    return tuple(entries)


def area_form(kappa: Signature) -> HermitianForm:
    """The Hermitian matrix H with area = z^* H z on the polygon chart,
    in closed form from the side coefficients."""
    return HermitianForm(_area_entries(chart_constraint(kappa)))


def lattice_index(constraint: Sequence[QuadInt]) -> int:
    """Index of the projected period lattice in the full quadratic lattice:
    the norm quotient N(c_last) / N(gcd(c_1, ..., c_last))."""
    if not constraint:
        raise ValidationError("empty constraint")
    if any(c.is_zero() for c in constraint):
        raise ValidationError("zero constraint entry")
    last = constraint[-1]
    g = quadint_gcd(*constraint)
    quotient, remainder = divmod(last.norm(), g.norm())
    if remainder:
        raise ArithmeticError("gcd norm does not divide the last norm")
    return quotient


def mv_ratio(kappa: Signature) -> Fraction:
    """Exact ratio of the lattice-normalized volume form to the area-form
    volume form: 1 / (index * Im(zeta)**(n-2) * det H).  May be negative.

    Everything is read off the integer norms N(1 - zeta_d^k) = 4 sin(a)^2,
    a = pi k / d, of ``_NORMS``.  The index is N(c_last) over the gcd of the
    constraint's norms (README "The lattice index").  det H is taken in
    closed form (README "The area-form determinant"): with a_c the closing
    point's angle and a_1, ..., a_{n-1} the constraint's in order,
    det H = -sin(a_c) * prod_{j<n-1} sin(a_j) / sin(a_{n-1}).  sin(a) > 0
    exactly when k mod 2d < d, so the ratio is the signed root of a rational
    square.
    """
    closing = _closing_index(kappa)
    d, orders = kappa.level, kappa.orders
    table = _NORMS[d]
    norms = [table[k % d] for k in orders]
    closing_norm = norms.pop(closing)
    index = norms[-1] // math.gcd(*norms)
    m = len(norms) - 1
    # ratio^2 = 4^m N(c_last) / (index^2 Im(zeta)^(2m) N(closing) prod N(c_j))
    num = 4 ** m * norms[-1]
    den = index * index * closing_norm * math.prod(norms[:-1])
    if _ZETA[d].omega:  # Im(omega)^2 = 3/4
        num, den = num * 4 ** m, den * 3 ** m
    g = math.gcd(num, den)
    num, den = num // g, den // g
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        raise ArithmeticError("volume-form ratio fell outside the rationals")
    # det H has the sign of minus the product of all n sines
    if sum(k % (2 * d) > d for k in orders) % 2 == 0:
        root_num = -root_num
    return Fraction(root_num, root_den)


def mv_table_entry(kappa: Signature, cache=None) -> PiValue:
    """Lattice-normalized volume of the projectivized stratum:
    (1/d) * ratio * vol1(mu)."""
    mu = weights_from_signature(kappa)
    ratio = mv_ratio(kappa)
    return _volume(kappa.n, a_n(mu, cache), ratio, kappa.level)


def is_single_polygon(kappa: Signature) -> bool:
    """Does the chart construction apply (at most one reflex angle)?"""
    try:
        _closing_index(kappa)
    except ValidationError:
        return False
    return True
