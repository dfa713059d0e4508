"""Enumeration of the boundary partition families driving the recursion.

Indices are 0-based throughout.  Four families of partitions of
``{0, ..., n-1}`` are enumerated, each with the derived data the recursion
needs: the excess weights mu(I_j) - 1 of the heavy blocks, the induced
lower-dimensional weight vectors, their minimal denominators, and the
multiplicity flag epsilon for the four-block family.  Every split into two
heavy blocks comes from ``two_block_splits``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import ValidationError, WeightVector, minimal_denominator


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
    """One primary partition together with its recursion parameters.

    ``blocks`` lays out the index sets family by family:
    T1a ``(I0, I1)``, T1b ``(I00, I01, I1)``, T2a ``(I0, I1, I2)``,
    T2b ``(I01, I02, I1, I2)`` with I0j paired to Ij.
    """

    family: str
    blocks: tuple[frozenset[int], ...]
    mu_bars: tuple[Fraction, ...]
    block_sizes: tuple[int, ...]
    sub_weights: tuple[WeightVector, ...]
    epsilon: int = 1

    @property
    def heavy_blocks(self) -> tuple[frozenset[int], ...]:
        """The trailing blocks I1 (and I2), one per sub-vector."""
        return self.blocks[-len(self.block_sizes):]

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


def _sub_vector(mu: WeightVector, heavy: Sequence[int], weight) -> WeightVector:
    """Weight vector induced by a heavy block of weight mu(I):
    (2 - mu(I), sorted mu_i for i in I)."""
    return WeightVector((2 - weight, *sorted([mu[i] for i in heavy])))


def _record(mu: WeightVector, family: str, blocks, heavies, weights,
            epsilon: int = 1) -> PartitionRecord:
    """A record whose recursion data is derived from its heavy blocks and
    their weights mu(I)."""
    return PartitionRecord(
        family=family,
        blocks=tuple(map(frozenset, blocks)),
        mu_bars=tuple([w - 1 for w in weights]),
        block_sizes=tuple(map(len, heavies)),
        sub_weights=tuple([_sub_vector(mu, h, w) for h, w in zip(heavies, weights)]),
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


def enum_T2b(mu) -> list[PartitionRecord]:
    """Four-block partitions {I01, I02, I1, I2}: two singletons paired with two
    heavy blocks so that mu(I0j) + mu(Ij) = 1 for the paired blocks.

    Each block set appears once; epsilon = 2 exactly when the two singleton
    weights coincide (both pairings are then valid).
    """
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for s1, s2 in combinations(range(n), 2):
        rest = [i for i in range(n) if i != s1 and i != s2]
        for block1, block2 in two_block_splits(rest):
            w1, w2 = mu.subset_sum(block1), mu.subset_sum(block2)
            if w1 <= 1 or w2 <= 1:
                continue
            if w1.denominator == 1 or w2.denominator == 1:
                continue
            direct = mu[s1] + w1 == 1 and mu[s2] + w2 == 1
            swapped = mu[s2] + w1 == 1 and mu[s1] + w2 == 1
            if not (direct or swapped):
                continue
            first, second = (s1, s2) if direct else (s2, s1)
            epsilon = 2 if mu[s1] == mu[s2] else 1
            out.append(_record(mu, "T2b", ((first,), (second,), block1, block2),
                               (block1, block2), (w1, w2), epsilon))
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
