"""Enumeration of the boundary partition families driving the recursion.

Indices are 0-based throughout.  Four families of partitions of
``{0, ..., n-1}`` are enumerated, each with the derived data the recursion
needs: the excess weights mu(I_j) - 1 of the heavy blocks, the induced
lower-dimensional weight vectors, their minimal denominators, and the
multiplicity flag epsilon for the four-block family.

``_family_blocks`` owns every membership rule.  It reads a family off the
subset sums of weights scaled to integers over their common denominator (a
vector's ``_sums``), so each test is an integer comparison, and yields the
light and the heavy blocks apart, as bitmasks of those sums; the
enumerators, the five-point leaf of ``a_n``, the symbolic pieces and the
quadratic recursion all call it, and only the records make index tuples.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (ValidationError, WeightVector, _bits, _shared_weight, _subset_sums,
                   minimal_denominator)


@dataclass(frozen=True)
class PartitionRecord:
    """One primary partition of a weight vector (``source``) together with
    its recursion parameters.

    ``blocks`` lays out the index sets family by family:
    T1a ``(I0, I1)``, T1b ``(I00, I01, I1)``, T2a ``(I0, I1, I2)``,
    T2b ``(I01, I02, I1, I2)`` with I0j paired to Ij.
    """

    family: str
    blocks: tuple[frozenset[int], ...]
    mu_bars: tuple[Fraction, ...]
    block_sizes: tuple[int, ...]
    source: WeightVector
    epsilon: int = 1

    @property
    def heavy_blocks(self) -> tuple[frozenset[int], ...]:
        """The trailing blocks I1 (and I2), one per sub-vector."""
        return self.blocks[-len(self.block_sizes):]

    @property
    def sub_weights(self) -> tuple[WeightVector, ...]:
        """Per heavy block I, the induced vector (2 - mu(I), sorted mu_i for
        i in I); built on access, so callers that never read it pay nothing.

        Built on integers from the source's numerators s_i over its
        denominator D: (2D - s(I), s_i for i in I) by numerator, over D.
        It is valid by construction (each entry below 1 as s(I) > D, sum
        2D), so only one gcd brings D down to its minimal denominator."""
        mu = self.source
        den, nums, entries = mu._den, mu._nums, mu.entries
        out = []
        for heavy in self.heavy_blocks:
            block = sorted(heavy, key=nums.__getitem__)
            sub = [nums[i] for i in block]
            sub.insert(0, 2 * den - sum(sub))
            g = math.gcd(den, *sub)
            out.append(WeightVector._exact(
                (_shared_weight(Fraction(sub[0], den)), *[entries[i] for i in block]),
                den // g, tuple([s // g for s in sub])))
        return tuple(out)

    @property
    def min_denoms(self) -> tuple[int, ...]:
        """Per sub-vector; 2 - mu(I) adds no denominator to the block's."""
        return tuple([minimal_denominator(w) for w in self.sub_weights])

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "blocks": [sorted(b) for b in self.blocks],
            "mu_bars": [str(x) for x in self.mu_bars],
            "block_sizes": list(self.block_sizes),
            "sub_weights": [[str(x) for x in w] for w in self.sub_weights],
            "min_denoms": list(self.min_denoms),
            "epsilon": self.epsilon,
        }


def enum_P(n: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All two-block partitions with both block sizes >= 2 (none for n < 4),
    as ``(block without index 0, block with it)``, by the sorted first block."""
    full = (1 << n) - 1
    masks = sorted([m for m in range(1, full, 2) if 2 <= m.bit_count() <= n - 2],
                   key=lambda m: _bits(full ^ m))
    return [(frozenset(_bits(full ^ m)), frozenset(_bits(m))) for m in masks]


def enum_P0(kappa) -> list[frozenset[int]]:
    """All subsets I with sum of orders -2, for an orders vector summing to -4.

    Both I and its complement appear when both qualify.
    """
    orders = tuple(getattr(kappa, "orders", kappa))
    if sum(orders) != -4:
        raise ValidationError("enum_P0 expects orders summing to -4")
    n = len(orders)
    sums = _subset_sums(orders)
    out = [frozenset(_bits(mask)) for mask in range(1, (1 << n) - 1) if sums[mask] == -2]
    out.sort(key=lambda b: (len(b), sorted(b)))
    return out


def _heavy(total: int, den: int) -> bool:
    """Is a block of integer sum ``total`` over den of weight > 1, not integral?"""
    return total > den and total % den != 0


@functools.cache
def _pairs(n: int) -> tuple[int, ...]:
    """The bitmasks of the pairs of n indices."""
    return tuple([1 << i | 1 << j for j in range(n) for i in range(j)])


def _paired_blocks(n: int, sums: Sequence[int], target: int) -> Iterator[tuple]:
    """Each pairing of two singletons a, c with two blocks, as the bitmasks
    ``(a, block_a, c, block_c)``, such that s(a) + s(block_a) = target =
    s(c) + s(block_c), where s is read off the integer subset sums ``sums``
    (by bitmask) of n values.

    The values are below ``target`` and sum to 2 * target, and a singleton
    is a value below 0 that ``target`` does not divide.  The two sides
    {a} + block_a and {c} + block_c are a subset A holding index 0 with sum
    ``target`` and its complement; each pairing comes once, so when
    s(a) == s(c) the same blocks also come with a and c swapped.
    """
    singles = [1 << i for i in range(n) if sums[1 << i] < 0 and sums[1 << i] % target]
    if len(singles) < 2:
        return
    for side in [m for m in range(1, 1 << n, 2) if sums[m] == target]:
        for a in [s for s in singles if side & s]:
            for c in [s for s in singles if not side & s]:
                yield a, side ^ a, c, ((1 << n) - 1) ^ side ^ c


def _family_blocks(family: str, n: int, sums: Sequence[int],
                   den: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Each partition of ``family`` as ``(light, heavy, epsilon)``, the light
    and the heavy blocks of ``PartitionRecord`` as the bitmasks ``sums`` indexes.

    ``sums`` are the subset sums (by bitmask) of n weights scaled to
    integers over their common denominator den, so mu(I) = s(I) / den and
    every test compares integers: T1a a pair with s < den and den not
    dividing s; T1b a pair with s = den, a singleton with s < 0 and the rest
    ``_heavy``; T2a a singleton with s < 0 and a split of the rest into two
    ``_heavy`` blocks (two indices or more each, as every weight is below 1),
    the first holding the lowest index of the rest; T2b a ``_paired_blocks``
    pairing.
    """
    full = (1 << n) - 1
    singles = [1 << i for i in range(n) if sums[1 << i] < 0]
    if family == "T1a":
        for pair in _pairs(n):
            light = sums[pair]
            if light < den and light % den:
                yield (pair,), (full ^ pair,), 1
    elif family == "T1b":
        # a pair of weight 1 holds two positive weights, so no singleton
        for pair in [p for p in _pairs(n) if sums[p] == den]:
            for single in singles:
                heavy = full ^ pair ^ single
                if _heavy(sums[heavy], den):
                    yield (pair, single), (heavy,), 1
    elif family == "T2a":
        for single in singles:
            rest = full ^ single
            lowest = rest & -rest
            sub = others = rest ^ lowest
            while sub:  # the submasks of others but 0, with lowest added
                first = lowest | sub
                sub = (sub - 1) & others
                if _heavy(sums[first], den) and _heavy(sums[rest ^ first], den):
                    yield (single,), (first, rest ^ first), 1
    else:
        for a, block_a, c, block_c in _paired_blocks(n, sums, den):
            if block_c & -block_c < block_a & -block_a:
                a, block_a, c, block_c = c, block_c, a, block_a
            epsilon = 2 if sums[a] == sums[c] else 1
            if epsilon == 2 and c < a:
                continue  # the same blocks, paired the other way
            yield (a, c), (block_a, block_c), epsilon


def _records(family: str, mu) -> list[PartitionRecord]:
    """The family's records of a weight vector, from ``_family_blocks`` on
    the subset sums it carries over its denominator den, by their blocks as
    index tuples; a heavy block I has mu(I) - 1 = (s(I) - den) / den."""
    mu = WeightVector.coerce(mu)
    den, sums = mu._den, mu._sums
    found = sorted((tuple(map(_bits, light + heavy)), heavy, epsilon)
                   for light, heavy, epsilon in _family_blocks(family, mu.n, sums, den))
    return [PartitionRecord(family, tuple(map(frozenset, blocks)),
                            tuple([Fraction(sums[m] - den, den) for m in heavy]),
                            tuple([m.bit_count() for m in heavy]), mu, epsilon)
            for blocks, heavy, epsilon in found]


def enum_T1a(mu) -> list[PartitionRecord]:
    """Two-block partitions {I0, I1}: |I0| = 2, mu(I0) < 1 and non-integral."""
    return _records("T1a", mu)


def enum_T1b(mu) -> list[PartitionRecord]:
    """Three-block partitions {I00, I01, I1}: a weight-1 pair, a negative
    singleton, and a heavy block of non-integral weight > 1."""
    return _records("T1b", mu)


def enum_T2a(mu) -> list[PartitionRecord]:
    """Three-block partitions {I0, I1, I2}: a negative singleton and two heavy
    blocks of non-integral weight > 1; the unordered pair {I1, I2} appears once.
    """
    return _records("T2a", mu)


def enum_T2b(mu) -> list[PartitionRecord]:
    """Four-block partitions {I01, I02, I1, I2}: two singletons paired with two
    heavy blocks so that mu(I0j) + mu(Ij) = 1 for the paired blocks.

    I1 holds the lowest index outside the singletons.  Each block set appears
    once; epsilon = 2 exactly when the two singleton weights coincide (both
    pairings are then valid, and I01 is the lower singleton).  There is none
    below n = 6, as each heavy block holds two entries or more.
    """
    return _records("T2b", mu)


def enum_all(mu) -> dict[str, list[PartitionRecord]]:
    """All four families at once, keyed by family tag."""
    mu = WeightVector.coerce(mu)
    return {family: _records(family, mu) for family in ("T1a", "T1b", "T2a", "T2b")}
