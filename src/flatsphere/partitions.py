"""Enumeration of the boundary partition families driving the recursion.

Indices are 0-based throughout.  Four families of partitions of
``{0, ..., n-1}`` are enumerated, each with the derived data the recursion
needs: the excess weights mu(I_j) - 1 of the heavy blocks, the induced
lower-dimensional weight vectors, their minimal denominators, and the
multiplicity flag epsilon for the four-block family.  The three-block
families take their splits into two heavy blocks from ``two_block_splits``;
the four-block family is read off the weight-1 subsets of one integer
subset-sum table by ``_paired_blocks``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import (ValidationError, WeightVector, _scale_to_integers, _shared_weight,
                   _subset_sums, minimal_denominator)


@dataclass(frozen=True)
class TwoBlockPartition:
    """A two-block partition of {0..n-1} with both blocks of size >= 2."""

    light_block: frozenset[int]
    heavy_block: frozenset[int]

    def blocks(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.light_block, self.heavy_block)

    def oriented(self, mu: WeightVector) -> "TwoBlockPartition":
        """Reorient so the heavy block carries weight >= 1."""
        a, b = self.light_block, self.heavy_block
        if mu.subset_sum(a) > mu.subset_sum(b):
            a, b = b, a
        return TwoBlockPartition(a, b)


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
        i in I); built on access, so callers that never read it pay nothing."""
        mu = self.source
        return tuple([WeightVector((_shared_weight(1 - mu_bar),
                                    *sorted([mu[i] for i in heavy])))
                      for heavy, mu_bar in zip(self.heavy_blocks, self.mu_bars)])

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


def _sort_key(record: PartitionRecord):
    return tuple(tuple(sorted(b)) for b in record.blocks)


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


def enum_P(n: int) -> list[TwoBlockPartition]:
    """All two-block partitions with both block sizes >= 2 (none for n < 4);
    the block containing index 0 is the second one."""
    out = [TwoBlockPartition(frozenset(second), frozenset(first))
           for first, second in two_block_splits(range(n))]
    out.sort(key=lambda p: tuple(sorted(p.light_block)))
    return out


def enum_P0(kappa) -> list[frozenset[int]]:
    """All subsets I with sum of orders -2, for an orders vector summing to -4.

    Both I and its complement appear when both qualify.
    """
    orders = tuple(getattr(kappa, "orders", kappa))
    if sum(orders) != -4:
        raise ValidationError("enum_P0 expects orders summing to -4")
    n = len(orders)
    out = []
    for size in range(1, n):
        for block in combinations(range(n), size):
            if sum(orders[i] for i in block) == -2:
                out.append(frozenset(block))
    out.sort(key=lambda b: (len(b), sorted(b)))
    return out


def enum_T1a(mu) -> list[PartitionRecord]:
    """Two-block partitions {I0, I1}: |I0| = 2, mu(I0) < 1 and non-integral."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for pair in combinations(range(n), 2):
        light = mu.subset_sum(pair)
        if light >= 1 or light.denominator == 1:
            continue
        heavy = [i for i in range(n) if i not in pair]
        out.append(_record(mu, "T1a", (pair, heavy), (heavy,), (2 - light,)))
    out.sort(key=_sort_key)
    return out


def enum_T1b(mu) -> list[PartitionRecord]:
    """Three-block partitions {I00, I01, I1}: a weight-1 pair, a negative
    singleton, and a heavy block of non-integral weight > 1."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for pair in combinations(range(n), 2):
        if mu.subset_sum(pair) != 1:
            continue
        rest = [i for i in range(n) if i not in pair]
        for single in rest:
            if mu[single] >= 0:
                continue
            heavy = [i for i in rest if i != single]
            hw = mu.subset_sum(heavy)
            if hw <= 1 or hw.denominator == 1:
                continue
            out.append(_record(mu, "T1b", (pair, (single,), heavy), (heavy,), (hw,)))
    out.sort(key=_sort_key)
    return out


def enum_T2a(mu) -> list[PartitionRecord]:
    """Three-block partitions {I0, I1, I2}: a negative singleton and two heavy
    blocks of non-integral weight > 1; the unordered pair {I1, I2} appears once.
    """
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for single in range(n):
        if mu[single] >= 0:
            continue
        rest = [i for i in range(n) if i != single]
        for block1, block2 in two_block_splits(rest):
            w1, w2 = mu.subset_sum(block1), mu.subset_sum(block2)
            if w1 <= 1 or w2 <= 1:
                continue
            if w1.denominator == 1 or w2.denominator == 1:
                continue
            out.append(_record(mu, "T2a", ((single,), block1, block2),
                               (block1, block2), (w1, w2)))
    out.sort(key=_sort_key)
    return out


def _paired_blocks(values: Sequence[int], target: int) -> Iterator[tuple]:
    """Each pairing of two singletons a, c with two blocks, as
    ``(a, block_a, c, block_c)`` with sorted index tuples, such that
    values[a] + sum(block_a) = target = values[c] + sum(block_c).

    ``values`` are integers below ``target`` that sum to 2 * target, and a
    singleton is an entry below 0 that ``target`` does not divide.  The two
    sides {a} + block_a and {c} + block_c are a subset A holding index 0 with
    sum ``target`` and its complement, read off one subset-sum table; each
    pairing comes once, so when values[a] == values[c] the same blocks also
    come with a and c swapped.
    """
    singles = [i for i, v in enumerate(values) if v < 0 and v % target]
    if len(singles) < 2:
        return
    n = len(values)
    sums = _subset_sums(values)
    for side in [m for m in range(1, 1 << n, 2) if sums[m] == target]:
        inside = [i for i in range(n) if side >> i & 1]
        outside = [i for i in range(n) if not side >> i & 1]
        for a in [i for i in singles if side >> i & 1]:
            block_a = tuple([i for i in inside if i != a])
            for c in [i for i in singles if not side >> i & 1]:
                yield a, block_a, c, tuple([i for i in outside if i != c])


def enum_T2b(mu) -> list[PartitionRecord]:
    """Four-block partitions {I01, I02, I1, I2}: two singletons paired with two
    heavy blocks so that mu(I0j) + mu(Ij) = 1 for the paired blocks.

    I1 holds the lowest index outside the singletons.  Each block set appears
    once; epsilon = 2 exactly when the two singleton weights coincide (both
    pairings are then valid, and I01 is the lower singleton).
    """
    mu = WeightVector.coerce(mu)
    if mu.n < 6:
        return []  # two singletons and two blocks of size >= 2
    den, scaled = _scale_to_integers(mu.entries)
    out = []
    for a, block_a, c, block_c in _paired_blocks(scaled, den):
        if block_c[0] < block_a[0]:
            a, block_a, c, block_c = c, block_c, a, block_a
        epsilon = 2 if scaled[a] == scaled[c] else 1
        if epsilon == 2 and c < a:
            continue  # the same blocks, paired the other way
        out.append(_record(mu, "T2b", ((a,), (c,), block_a, block_c),
                           (block_a, block_c), (1 - mu[a], 1 - mu[c]), epsilon))
    out.sort(key=_sort_key)
    return out


def enum_all(mu) -> dict[str, list[PartitionRecord]]:
    """All four families at once, keyed by family tag."""
    return {
        "T1a": enum_T1a(mu),
        "T1b": enum_T1b(mu),
        "T2a": enum_T2a(mu),
        "T2b": enum_T2b(mu),
    }
