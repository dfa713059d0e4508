"""Enumeration of the boundary partition families driving the recursion.

Indices are 0-based throughout.  Four families of partitions of
``{0, ..., n-1}`` are enumerated, each with the derived data the recursion
needs: the excess weights mu(I_j) - 1 of the heavy blocks, the induced
lower-dimensional weight vectors, their minimal denominators, and the
multiplicity flag epsilon for the four-block family.

``_family_blocks`` owns every membership rule.  It reads a family off the
subset sums of the weights scaled to integers over their common
denominator, so each test is an integer comparison; the enumerators, the
symbolic pieces (``piecewise``) and the quadratic recursion all call it.
T2a takes its splits into two heavy blocks from ``two_block_splits``, and
T2b its pairings from the weight-1 subsets by ``_paired_blocks``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import (ValidationError, WeightVector, _mask, _shared_weight, _subset_sums,
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


def _record(mu: WeightVector, family: str, blocks, heavies, weights,
            epsilon: int = 1) -> PartitionRecord:
    """A record whose recursion data is derived from its heavy blocks and
    their weights mu(I)."""
    return PartitionRecord(
        family=family,
        blocks=tuple(map(frozenset, blocks)),
        mu_bars=tuple([w - 1 for w in weights]),
        block_sizes=tuple(map(len, heavies)),
        source=mu,
        epsilon=epsilon,
    )


def two_block_splits(indices: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each split of a sorted index list into two blocks of size >= 2, once.

    The first block always holds ``indices[0]``; splits come by the size of
    the first block, then in lexicographic order.
    """
    if len(indices) < 4:
        return
    anchor, others = indices[0], indices[1:]
    for size in range(1, len(indices) - 2):
        for tail in combinations(others, size):
            yield (anchor, *tail), tuple([i for i in others if i not in tail])


def enum_P(n: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All two-block partitions with both block sizes >= 2 (none for n < 4),
    as ``(block without index 0, block with it)``, by the sorted first block."""
    out = [(frozenset(second), frozenset(first))
           for first, second in two_block_splits(range(n))]
    out.sort(key=lambda p: tuple(sorted(p[0])))
    return out


def enum_P0(kappa) -> list[frozenset[int]]:
    """All subsets I with sum of orders -2, for an orders vector summing to -4.

    Both I and its complement appear when both qualify.
    """
    orders = tuple(getattr(kappa, "orders", kappa))
    if sum(orders) != -4:
        raise ValidationError("enum_P0 expects orders summing to -4")
    n = len(orders)
    sums = _subset_sums(orders)
    out = [frozenset([i for i in range(n) if mask >> i & 1])
           for mask in range(1, (1 << n) - 1) if sums[mask] == -2]
    out.sort(key=lambda b: (len(b), sorted(b)))
    return out


def _heavy(total: int, den: int) -> bool:
    """Is a block of integer sum ``total`` over den of weight > 1, not integral?"""
    return total > den and total % den != 0


def _paired_blocks(n: int, sums: Sequence[int], target: int) -> Iterator[tuple]:
    """Each pairing of two singletons a, c with two blocks, as
    ``(a, block_a, c, block_c)`` with sorted index tuples, such that
    s(a) + s(block_a) = target = s(c) + s(block_c), where s is read off the
    integer subset sums ``sums`` (by bitmask) of n values.

    The values are below ``target`` and sum to 2 * target, and a singleton
    is a value below 0 that ``target`` does not divide.  The two sides
    {a} + block_a and {c} + block_c are a subset A holding index 0 with sum
    ``target`` and its complement; each pairing comes once, so when
    s(a) == s(c) the same blocks also come with a and c swapped.
    """
    singles = [i for i in range(n) if sums[1 << i] < 0 and sums[1 << i] % target]
    if len(singles) < 2:
        return
    for side in [m for m in range(1, 1 << n, 2) if sums[m] == target]:
        inside = [i for i in range(n) if side >> i & 1]
        outside = [i for i in range(n) if not side >> i & 1]
        for a in [i for i in singles if side >> i & 1]:
            block_a = tuple([i for i in inside if i != a])
            for c in [i for i in singles if not side >> i & 1]:
                yield a, block_a, c, tuple([i for i in outside if i != c])


def _family_blocks(family: str, n: int, sums: Sequence[int],
                   den: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Each partition of ``family`` as ``(blocks, epsilon)``, blocks as sorted
    index tuples laid out as in ``PartitionRecord``, sorted by blocks.

    ``sums`` are the subset sums (by bitmask) of n weights scaled to
    integers over their common denominator den, so mu(I) = s(I) / den and
    every test compares integers: T1a a pair with s < den and den not
    dividing s; T1b a pair with s = den, a singleton with s < 0 and the rest
    ``_heavy``; T2a a singleton with s < 0 and a ``two_block_splits`` split
    of the rest into two ``_heavy`` blocks; T2b a ``_paired_blocks`` pairing.
    """
    everyone = range(n)
    out = []
    if family == "T1a":
        for pair in combinations(everyone, 2):
            light = sums[_mask(pair)]
            if light < den and light % den:
                out.append(((pair, tuple([i for i in everyone if i not in pair])), 1))
    elif family == "T1b":
        for pair in [p for p in combinations(everyone, 2) if sums[_mask(p)] == den]:
            rest = [i for i in everyone if i not in pair]
            for single in [i for i in rest if sums[1 << i] < 0]:
                heavy = tuple([i for i in rest if i != single])
                if _heavy(sums[_mask(heavy)], den):
                    out.append(((pair, (single,), heavy), 1))
    elif family == "T2a":
        for single in [i for i in everyone if sums[1 << i] < 0]:
            for blocks in two_block_splits([i for i in everyone if i != single]):
                if all(_heavy(sums[_mask(block)], den) for block in blocks):
                    out.append((((single,), *blocks), 1))
    else:
        for a, block_a, c, block_c in _paired_blocks(n, sums, den):
            if block_c[0] < block_a[0]:
                a, block_a, c, block_c = c, block_c, a, block_a
            epsilon = 2 if sums[1 << a] == sums[1 << c] else 1
            if epsilon == 2 and c < a:
                continue  # the same blocks, paired the other way
            out.append((((a,), (c,), block_a, block_c), epsilon))
    out.sort()
    return out


def _records(family: str, mu) -> list[PartitionRecord]:
    """The family's records of a weight vector, from ``_family_blocks`` on
    the subset sums of the numerators it carries over its denominator den;
    a heavy block's weight is s(I) / den."""
    mu = WeightVector.coerce(mu)
    den = mu._den
    sums = _subset_sums(mu._nums)
    out = []
    for blocks, epsilon in _family_blocks(family, mu.n, sums, den):
        heavies = blocks[2:] if family in ("T1b", "T2b") else blocks[1:]
        weights = [Fraction(sums[_mask(heavy)], den) for heavy in heavies]
        out.append(_record(mu, family, blocks, heavies, weights, epsilon))
    return out


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
    pairings are then valid, and I01 is the lower singleton).
    """
    mu = WeightVector.coerce(mu)
    # two singletons and two blocks of size >= 2 need n >= 6
    return _records("T2b", mu) if mu.n >= 6 else []


def enum_all(mu) -> dict[str, list[PartitionRecord]]:
    """All four families at once, keyed by family tag."""
    return {
        "T1a": enum_T1a(mu),
        "T1b": enum_T1b(mu),
        "T2a": enum_T2a(mu),
        "T2b": enum_T2b(mu),
    }
