"""Exact rational weight vectors, integer signatures, and pi-multiples.

Everything here is plain exact arithmetic: weights are `fractions.Fraction`,
volumes are a rational coefficient times a power of pi carried symbolically.
No value-producing path ever touches a float.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator


class ValidationError(ValueError):
    """Raised when an input violates a domain invariant."""


def _as_fraction(value) -> Fraction:
    """Validate an exact rational; a value of exact type Fraction is returned
    as it is, anything else but a bool, a float or a text or Decimal whose
    text shows an exponent is converted (Fraction would build 10**exponent
    in full, however large)."""
    if type(value) is Fraction:
        return value
    if type(value) is bool:
        raise ValidationError("bools are not accepted; pass exact rationals")
    if isinstance(value, float):
        raise ValidationError("floats are not accepted; pass exact rationals")
    if isinstance(value, (str, Decimal)) and re.search(r"[\d.][eE]", str(value)):
        raise ValidationError(f"invalid rational {value!r}: exponents are not accepted")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValidationError(f"invalid rational {value!r}") from exc


def _operand(value):
    """An exact rational operand of a value type's arithmetic: an int as it
    is, anything else through ``_as_fraction`` but never text, which
    Fraction's own operators refuse as well; constructors and the
    ``parse_*`` functions still read text."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        raise ValidationError(f"text operands are not accepted, got {value!r}; "
                              "parse it first")
    return _as_fraction(value)


def _shown(value) -> str:
    """str(value) for an error message, or a stand-in for a number with more
    digits than str converts (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        return "a number too long to print"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal ``"0.25"``, with no exponent, exactly."""
    return _as_fraction(text.strip())


@dataclass(frozen=True)
class WeightVector:
    """A curvature-weight tuple: n >= 3 rationals, each < 1, summing to 2.

    Validation runs on integers: the vector carries its minimal denominator
    D (``_den``, the lcm of the entries' denominators), the numerators
    D * mu_i (``_nums``) and, once read, their subset sums (``_sums``), all
    read instead of rescaling.  None takes part in equality, hash or repr.
    """

    entries: tuple[Fraction, ...]
    _den: int = field(init=False, compare=False, repr=False)
    _nums: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        entries = tuple(map(_as_fraction, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) < 3:
            raise ValidationError("a weight vector needs at least 3 entries")
        den, nums = _scale_to_integers(entries)
        if max(nums) >= den:
            bad = next(x for x in entries if x >= 1)
            raise ValidationError(f"every weight must be < 1, got {_shown(bad)}")
        if sum(nums) != 2 * den:
            raise ValidationError(f"weights must sum to 2, got {_shown(sum(entries))}")
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(nums))

    @classmethod
    def _exact(cls, entries: tuple, den: int, nums: tuple) -> "WeightVector":
        """A vector derived from a validated one, given as its entries, their
        minimal denominator and the numerators over it; not re-checked."""
        value = cls.__new__(cls)
        object.__setattr__(value, "entries", entries)
        object.__setattr__(value, "_den", den)
        object.__setattr__(value, "_nums", nums)
        return value

    @functools.cached_property
    def _sums(self) -> list[int]:
        """The ``_subset_sums`` of ``_nums``: s(I) by bitmask, mu(I) = s(I) / D."""
        return _subset_sums(self._nums)

    @classmethod
    def coerce(cls, value) -> "WeightVector":
        if isinstance(value, WeightVector):
            return value
        return cls(tuple(value))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def subset_sum(self, indices: Iterable[int]) -> Fraction:
        return sum((self.entries[i] for i in indices), Fraction(0))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.entries)


@dataclass(frozen=True)
class Signature:
    """Integer zero/pole orders (k_1, ..., k_n) of a level-d differential.

    Genus-0 constraints: d >= 1, n >= 3, each k_i >= 1 - d, sum(k_i) = -2d.
    """

    orders: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        orders = tuple(self.orders)
        if any(type(k) is not int for k in orders):
            raise ValidationError("orders must be integers")
        object.__setattr__(self, "orders", orders)
        if type(self.level) is not int:
            raise ValidationError(f"level d must be an int, got {self.level!r}")
        if self.level < 1:
            raise ValidationError("level d must be >= 1")
        if len(orders) < 3:
            raise ValidationError("a signature needs at least 3 orders")
        if any(k < 1 - self.level for k in orders):
            raise ValidationError(f"every order must be >= 1-d = {1 - self.level}")
        total = sum(orders)
        if total != -2 * self.level:
            raise ValidationError(
                f"orders must sum to -2d = {-2 * self.level}, got {_shown(total)}"
            )

    @property
    def n(self) -> int:
        return len(self.orders)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.orders) + f":{self.level}"


@dataclass(frozen=True, eq=False, slots=True)
class PiValue:
    """An exact value ``coefficient * pi**pi_power``; the power stays symbolic."""

    coefficient: Fraction
    pi_power: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", _as_fraction(self.coefficient))
        if type(self.pi_power) is not int or self.pi_power < 0:
            raise ValidationError(
                f"pi_power must be a non-negative int, got {self.pi_power!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiValue):
            return NotImplemented
        if self.coefficient == 0 and other.coefficient == 0:
            return True
        return (self.coefficient, self.pi_power) == (other.coefficient, other.pi_power)

    def __hash__(self) -> int:
        if self.coefficient == 0:
            return hash((Fraction(0), 0))
        return hash((self.coefficient, self.pi_power))

    def __mul__(self, other):
        if isinstance(other, PiValue):
            return PiValue(self.coefficient * other.coefficient,
                           self.pi_power + other.pi_power)
        return PiValue(self.coefficient * _operand(other), self.pi_power)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def approx(self) -> float:
        """Floating-point rendering; never used in exact paths."""
        return float(self.coefficient) * math.pi ** self.pi_power

    def __str__(self) -> str:
        if self.coefficient == 0:
            return "0"
        if self.pi_power == 0:
            return str(self.coefficient)
        return f"{self.coefficient}*pi^{self.pi_power}"

    _PATTERN = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)(?:\*pi\^(?P<pow>\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "PiValue":
        text = text.strip()
        if text == "0":
            return cls(Fraction(0), 0)
        m = cls._PATTERN.match(text)
        if not m:
            raise ValidationError(f"invalid pi-value {text!r}")
        power = int(m.group("pow")) if m.group("pow") else 0
        return cls(m.group("coeff"), power)


@functools.lru_cache(maxsize=4096)
def _shared_weight(value) -> Fraction:
    """The exact rational ``value``, one shared object per value while it
    stays cached, so that the weights of signatures and the sub-vectors a
    recursion builds do not each hold their own copy in every memo key."""
    return _as_fraction(value)


@functools.lru_cache(maxsize=4096)
def _signature_weight(k: int, d: int) -> Fraction:
    """The shared weight -k / d, cached under the int pair so that a warm
    lookup builds and hashes no Fraction.  It is the ``_shared_weight``
    object of its value as long as that cache has not evicted it since."""
    return _shared_weight(Fraction(-k, d))


def weights_from_signature(kappa: Signature) -> WeightVector:
    """Weights mu_i = -k_i / d of a signature, valid by its checks, so built
    unvalidated on D = d / g, g = gcd(d, k_1, ..., k_n), and numerators -k_i / g."""
    d, orders = kappa.level, kappa.orders
    g = math.gcd(d, *orders)
    return WeightVector._exact(tuple([_signature_weight(k, d) for k in orders]),
                               d // g, tuple([-k // g for k in orders]))


def minimal_denominator(nu) -> int:
    """Least e >= 1 with e*nu_i integral for all i (lcm of the denominators),
    as the validated vector carries it."""
    return WeightVector.coerce(nu)._den


def _scale_to_integers(values) -> tuple[int, list[int]]:
    """The common denominator D of exact rationals and the integers D * v."""
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _mask(indices) -> int:
    """The bitmask of an index set, as ``_subset_sums`` indexes it."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    """The sorted index tuple of a bitmask, the inverse of ``_mask``."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _subset_sums(xs) -> list:
    """Sum of every subset of xs, indexed by bitmask (bit i stands for
    xs[i]).  Ring-generic; on scaled integers it is the one subset-sum kernel
    behind f_nab, the sign-domain wall tests and the boundary families."""
    sums = [0]
    for x in xs:
        sums += [s + x for s in sums]
    return sums


def canonicalize(nu) -> WeightVector:
    """Sort the entries; value-equal vectors get identical memo keys."""
    nu = WeightVector.coerce(nu)
    return WeightVector(tuple(sorted(nu.entries)))


def _fields(text: str, what: str) -> list[str]:
    """The stripped comma-separated fields of text; an empty one (a trailing
    comma's included) is an error naming its position, counted from 1."""
    fields = [p.strip() for p in text.split(",")]
    if "" in fields:
        raise ValidationError(f"empty {what} at position {fields.index('') + 1} of {text!r}")
    return fields


def parse_weights(text: str) -> WeightVector:
    """Parse a comma-separated weight list like ``"2/3,1/3,1/3,1/3,1/3"``."""
    return WeightVector(tuple(map(parse_rational, _fields(text, "weight"))))


def parse_signature(text: str, negate_orders: bool = False) -> Signature:
    """Parse ``"k1,k2,...,kn:d"``; with negate_orders, flip each k_i.

    The negated form mirrors the (-k_i) labels used by the reference tables.
    """
    if ":" not in text:
        raise ValidationError("signature syntax is 'k1,k2,...,kn:d'")
    orders_part, _, level_part = text.rpartition(":")
    fields = _fields(orders_part, "order")
    try:
        level = int(level_part.strip())
        orders = tuple(map(int, fields))
    except ValueError as exc:
        raise ValidationError(f"invalid signature {text!r}") from exc
    if negate_orders:
        orders = tuple(-k for k in orders)
    return Signature(orders, level)
