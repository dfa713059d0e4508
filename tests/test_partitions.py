import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from flatsphere.core import ValidationError, WeightVector, _bits, _subset_sums, parse_weights
from flatsphere.partitions import (
    _family_blocks,
    _paired_blocks,
    _records,
    enum_P,
    enum_P0,
    enum_T1a,
    enum_T1b,
    enum_T2a,
    enum_T2b,
)
from flatsphere.recursion import a_n

from util import (
    load_perfbench,
    oracle_t1a,
    oracle_t1b,
    oracle_t2a,
    oracle_t2b,
    partitions_into,
    random_generic_sample,
    record_key,
    ref_enum_T1a,
    ref_enum_T1b,
    ref_enum_T2a,
    ref_enum_T2b,
    ref_family_blocks,
    ref_odd_signatures,
    ref_paired_blocks,
    ref_splits,
)

F = Fraction

# vectors exercising every family at small n
INTERESTING = [
    "1/2,1/2,1/2,1/2",
    "2/3,2/3,1/3,1/3",
    "2/3,1/3,1/3,1/3,1/3",
    "5/6,5/6,5/6,5/6,-4/3",
    "3/4,1/4,3/4,3/4,-1/2",
    "1/2,1/2,1/2,1/2,1/2,-1/2",
    "3/4,3/4,3/4,3/4,-1/2,-1/2",
    "-1/4,-1/2,5/8,5/8,3/4,3/4",
    "5/6,5/6,5/6,5/6,5/6,5/6,-3",
    "1/2,1/2,1/2,1/2,1/2,1/2,1/2,-3/2",
]


class TestEnumP:
    @pytest.mark.parametrize("n,count", [(4, 3), (5, 10), (6, 25)])
    def test_counts_frozen(self, n, count):
        assert len(enum_P(n)) == count

    @pytest.mark.parametrize("n", range(4, 10))
    def test_count_formula(self, n):
        assert len(enum_P(n)) == 2 ** (n - 1) - n - 1

    def test_small_n_empty(self):
        assert enum_P(3) == []

    @pytest.mark.parametrize("indices", [
        *(list(range(k)) for k in range(4, 10)),
        [1, 3, 4, 7, 8, 12],
        [0, 2, 5, 6, 9],
        [], [0], [0, 1], [2, 5, 7],
    ])
    def test_every_split_exactly_once(self, indices):
        """enum_P(n), relabelled onto ``indices``, gives each split of them
        into two blocks of two or more exactly once, against brute force."""
        brute = {frozenset(map(frozenset, blocks))
                 for blocks in partitions_into(indices, 2)
                 if all(len(b) >= 2 for b in blocks)}
        keys = [frozenset(frozenset(indices[i] for i in block) for block in split)
                for split in enum_P(len(indices))]
        assert len(keys) == len(set(keys))
        assert set(keys) == brute

    def test_blocks_partition_and_no_swap_duplicates(self):
        seen = set()
        for light, heavy in enum_P(6):
            assert len(light) >= 2 and len(heavy) >= 2
            assert light | heavy == set(range(6))
            assert not (light & heavy)
            assert 0 in heavy
            key = frozenset({light, heavy})
            assert key not in seen
            seen.add(key)

    def test_order_by_sorted_first_block(self):
        firsts = [tuple(sorted(light)) for light, _ in enum_P(5)]
        assert firsts == sorted(firsts)
        assert firsts[:3] == [(1, 2), (1, 2, 3), (1, 2, 4)]


class TestEnumP0:
    def test_all_poles(self):
        blocks = enum_P0((-1, -1, -1, -1))
        assert len(blocks) == 6
        assert all(len(b) == 2 for b in blocks)

    def test_one_zero(self):
        # orders (1, -1, -1, -1, -1, -1): subsets of the poles of size 2,
        # plus their complements through the zero
        blocks = enum_P0((1, -1, -1, -1, -1, -1))
        assert len(blocks) == 20
        pairs = [b for b in blocks if len(b) == 2]
        assert len(pairs) == 10 and all(0 not in b for b in pairs)
        quads = [b for b in blocks if len(b) == 4]
        assert len(quads) == 10 and all(0 in b for b in quads)

    def test_larger_zero(self):
        blocks = enum_P0((3,) + (-1,) * 7)
        assert len(blocks) == 42  # C(7,5) + C(7,2)

    def test_complement_closure(self):
        orders = (1, 1, -1, -1, -1, -1, -1, -1)
        blocks = set(enum_P0(orders))
        n = len(orders)
        assert all(frozenset(range(n)) - b in blocks for b in blocks)

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            enum_P0((1, -1, -1, -1))


class TestT1a:
    def test_example_six_records(self):
        recs = enum_T1a(parse_weights("2/3,1/3,1/3,1/3,1/3"))
        assert len(recs) == 6
        for rec in recs:
            assert 0 not in rec.blocks[0]  # pairs through index 0 sum to 1

    def test_half_weights_empty(self):
        assert enum_T1a(parse_weights("1/2,1/2,1/2,1/2")) == []

    def test_reflex_example(self):
        recs = enum_T1a(parse_weights("5/6,5/6,5/6,5/6,-4/3"))
        assert len(recs) == 4
        for rec in recs:
            assert 4 in rec.blocks[0]
            assert rec.min_denoms == (6,)
            assert rec.mu_bars == (F(3, 2),)
            assert rec.sub_weights[0].entries == (F(-1, 2), F(5, 6), F(5, 6), F(5, 6))

    def test_record_shape(self):
        for rec in enum_T1a(parse_weights("2/3,1/3,1/3,1/3,1/3")):
            assert len(rec.blocks[0]) == 2
            first = rec.sub_weights[0][0]
            assert first == 2 - (rec.mu_bars[0] + 1)


class TestT1b:
    def test_example_count(self):
        recs = enum_T1b(parse_weights("3/4,1/4,3/4,3/4,-1/2"))
        assert len(recs) == 3
        for rec in recs:
            assert rec.blocks[1] == frozenset({4})

    def test_all_positive_empty(self):
        assert enum_T1b(parse_weights("2/3,1/3,1/3,1/3,1/3")) == []

    def test_no_unit_pairs_empty(self):
        assert enum_T1b(parse_weights("5/6,5/6,5/6,5/6,-4/3")) == []


class TestT2a:
    def test_reflex_three_records(self):
        recs = enum_T2a(parse_weights("5/6,5/6,5/6,5/6,-4/3"))
        assert len(recs) == 3
        for rec in recs:
            assert rec.blocks[0] == frozenset({4})
            assert rec.block_sizes == (2, 2)

    def test_all_positive_empty(self):
        assert enum_T2a(parse_weights("2/3,1/3,1/3,1/3,1/3")) == []

    def test_sizes_sum(self):
        for text in INTERESTING:
            mu = parse_weights(text)
            for rec in enum_T2a(mu):
                assert sum(rec.block_sizes) == mu.n - 1


class TestT2b:
    def test_symmetric_epsilon_two(self):
        recs = enum_T2b(parse_weights("3/4,3/4,3/4,3/4,-1/2,-1/2"))
        assert len(recs) == 3
        assert all(rec.epsilon == 2 for rec in recs)

    def test_asymmetric_epsilon_one(self):
        recs = enum_T2b(parse_weights("-1/4,-1/2,5/8,5/8,3/4,3/4"))
        assert len(recs) == 1
        rec = recs[0]
        assert rec.epsilon == 1
        # the -1/4 singleton pairs with the 5/4 block
        assert rec.blocks[0] == frozenset({0})
        assert rec.blocks[2] == frozenset({2, 3})

    def test_n5_always_empty(self):
        assert enum_T2b(parse_weights("3/4,1/4,3/4,3/4,-1/2")) == []

    def test_sizes_sum(self):
        for text in INTERESTING:
            mu = parse_weights(text)
            for rec in enum_T2b(mu):
                assert sum(rec.block_sizes) == mu.n - 2


def _level_vectors():
    """One seeded level vector per n = 5..10 and d = 2..9; n odd orders
    cannot sum to -4, so d = 2 comes at even n only."""
    level_vector = load_perfbench("workloads").level_vector
    return [level_vector(random.Random(7 * n + d), n, d)
            for n in range(5, 11) for d in range(2, 10) if d > 2 or n % 2 == 0]


def _integer_entry_vectors(rng, count):
    """Seeded level vectors -k_i/d at n = 6..9 holding an integer entry."""
    out = []
    while len(out) < count:
        n, d = rng.randint(6, 9), rng.randint(2, 6)
        orders = [rng.randint(1 - d, d - 1) for _ in range(n - 1)]
        orders.append(-2 * d - sum(orders))
        if orders[-1] >= 1 - d and any(k % d == 0 for k in orders):
            rng.shuffle(orders)
            out.append(WeightVector(tuple(F(-k, d) for k in orders)))
    return out


REFERENCES = {
    "T1a": (enum_T1a, ref_enum_T1a),
    "T1b": (enum_T1b, ref_enum_T1b),
    "T2a": (enum_T2a, ref_enum_T2a),
    "T2b": (enum_T2b, ref_enum_T2b),
}

# (family, epsilon) of every kind of record
EVERY_KIND = {("T1a", 1), ("T1b", 1), ("T2a", 1), ("T2b", 1), ("T2b", 2)}


class TestT2bReference:
    """Each enumerator reads its family off one integer subset-sum table;
    its reference in tests/util.py tests membership on Fraction subset sums
    (T2b's by scanning every singleton pair against every two-block split).
    The records must agree in order, and each set of vectors must hold every
    family, T2b with both epsilons."""

    @staticmethod
    def kinds_matching_reference(vectors):
        kinds = set()
        for mu in vectors:
            for family, (enum, reference) in REFERENCES.items():
                records = [rec.to_json() for rec in enum(mu)]
                assert records == [rec.to_json() for rec in reference(mu)], (family, mu)
                kinds.update((family, rec["epsilon"]) for rec in records)
        return kinds

    def test_level_vectors(self):
        assert self.kinds_matching_reference(_level_vectors()) == EVERY_KIND

    def test_every_memo_key_of_a_n(self):
        level_vector = load_perfbench("workloads").level_vector
        keys = []
        for n, d in ((7, 4), (8, 5), (8, 6)):
            memo = {}
            a_n(level_vector(random.Random(n * d), n, d), memo)
            keys += memo
        assert self.kinds_matching_reference(keys) == EVERY_KIND

    def test_vectors_with_an_integer_entry(self):
        vectors = _integer_entry_vectors(random.Random(3), 60)
        assert self.kinds_matching_reference(vectors) == EVERY_KIND


def _as_tuples(found):
    """Kernel partitions with each block bitmask, light blocks then heavy
    ones, as its sorted index tuple."""
    return [(tuple(map(_bits, light + heavy)), epsilon) for light, heavy, epsilon in found]


class TestMaskKernel:
    """``_family_blocks`` yields light and heavy blocks as bitmasks.  As
    index tuples, light + heavy, they are the partitions of the tuple kernel
    (``util.ref_family_blocks``), each once, and ``_records`` lists them in
    its order, which is the order of ``explain`` and of ``a_n``'s memo."""

    @staticmethod
    def kinds_matching_reference(vectors):
        kinds = set()
        for mu in map(WeightVector.coerce, vectors):
            sums = _subset_sums(mu._nums)
            for family in REFERENCES:
                want = ref_family_blocks(family, mu.n, sums, mu._den)
                got = _as_tuples(_family_blocks(family, mu.n, sums, mu._den))
                assert len(got) == len(set(got)) and sorted(got) == want, (family, mu)
                records = [(tuple(tuple(sorted(b)) for b in rec.blocks), rec.epsilon)
                           for rec in _records(family, mu)]
                assert records == want, (family, mu)
                kinds.update((family, epsilon) for _, epsilon in want)
        return kinds

    def test_level_vectors(self):
        level_vector = load_perfbench("workloads").level_vector
        four = [level_vector(random.Random(f"mask:{d}"), 4, d) for d in range(2, 10)]
        assert self.kinds_matching_reference(four + _level_vectors()) == EVERY_KIND

    def test_vectors_with_an_integer_entry(self):
        vectors = _integer_entry_vectors(random.Random(25), 60)
        assert self.kinds_matching_reference(vectors) == EVERY_KIND

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_quadratic_tables(self, n):
        # quad_V_recursive reads T1b and the pairings off the sums of -k_i
        # with target 2; the pairings come in the reference's order
        for orders in ref_odd_signatures(n):
            sums = _subset_sums([-k for k in orders])
            got = [(a.bit_length() - 1, _bits(block_a), c.bit_length() - 1, _bits(block_c))
                   for a, block_a, c, block_c in _paired_blocks(n, sums, 2)]
            assert got == list(ref_paired_blocks(n, sums, 2)), orders
            got = _as_tuples(_family_blocks("T1b", n, sums, 2))
            assert sorted(got) == ref_family_blocks("T1b", n, sums, 2), orders


ORACLES = {
    "T1a": (enum_T1a, oracle_t1a),
    "T1b": (enum_T1b, oracle_t1b),
    "T2a": (enum_T2a, oracle_t2a),
    "T2b": (enum_T2b, oracle_t2b),
}


@pytest.mark.parametrize("family", sorted(ORACLES))
@pytest.mark.parametrize("text", INTERESTING)
def test_enumerators_match_naive_partition_scan(family, text):
    mu = parse_weights(text)
    enum, oracle = ORACLES[family]
    assert {record_key(r) for r in enum(mu)} == oracle(mu)


@pytest.mark.parametrize("text", INTERESTING)
def test_enumeration_is_duplicate_free_and_sorted(text):
    mu = parse_weights(text)
    for enum, _ in ORACLES.values():
        recs = enum(mu)
        keys = [record_key(r) for r in recs]
        assert len(keys) == len(set(keys))
        sort_keys = [tuple(tuple(sorted(b)) for b in r.blocks) for r in recs]
        assert sort_keys == sorted(sort_keys)


@pytest.mark.parametrize("text", INTERESTING)
def test_sub_weights_are_valid_vectors(text):
    mu = parse_weights(text)
    for enum, _ in ORACLES.values():
        for rec in enum(mu):
            for i, sub in enumerate(rec.sub_weights):
                assert sum(sub) == 2
                assert all(x < 1 for x in sub)
                assert sub.n == rec.block_sizes[i] + 1


def test_permutation_equivariance():
    rng = random.Random(11)
    for text in INTERESTING[:6]:
        mu = parse_weights(text)
        perm = list(range(mu.n))
        rng.shuffle(perm)
        relabeled = WeightVector(tuple(mu[perm[i]] for i in range(mu.n)))
        inverse = {perm[i]: i for i in range(mu.n)}

        def relabel(key):
            if isinstance(key, frozenset):
                item = next(iter(key), None)
                if isinstance(item, (frozenset, tuple)):
                    return frozenset(relabel(x) for x in key)
                return frozenset(inverse[i] for i in key)
            if isinstance(key, tuple):
                return tuple(relabel(x) for x in key)
            return key

        for enum, _ in ORACLES.values():
            original = {record_key(r) for r in enum(mu)}
            image = {record_key(r) for r in enum(relabeled)}
            assert {relabel(k) for k in original} == image


def test_records_serialize_to_json():
    mu = parse_weights("3/4,3/4,3/4,3/4,-1/2,-1/2")
    rec = enum_T2b(mu)[0]
    data = rec.to_json()
    assert data["family"] == "T2b"
    assert data["epsilon"] == 2
    assert all(isinstance(b, list) for b in data["blocks"])
    assert data["min_denoms"] == [4, 4]


def test_min_denoms_match_heavy_block_denominators():
    # 2 - mu(I) adds no denominator beyond those of the weights in I
    rng = random.Random(17)
    vectors = [parse_weights(text) for text in INTERESTING]
    vectors += [random_generic_sample(rng, n, q=12) for n in (5, 6, 7)]
    for mu in vectors:
        for enum, _ in ORACLES.values():
            for rec in enum(mu):
                heavies = rec.blocks[-len(rec.sub_weights):]
                assert rec.min_denoms == tuple(
                    math.lcm(*[mu[i].denominator for i in h]) for h in heavies)


def test_heavy_blocks_induce_the_sub_vectors():
    # heavy block I, mu_bar and sub-vector (2 - mu(I), sorted mu_i for i in I)
    # line up entry by entry
    for mu in map(parse_weights, INTERESTING):
        for enum, _ in ORACLES.values():
            for rec in enum(mu):
                assert len(rec.heavy_blocks) == len(rec.sub_weights)
                for block, size, bar, sub in zip(rec.heavy_blocks, rec.block_sizes,
                                                 rec.mu_bars, rec.sub_weights):
                    weight = mu.subset_sum(block)
                    assert len(block) == size and bar == weight - 1
                    assert sub.entries == (2 - weight, *sorted(mu[i] for i in block))


def test_sub_vectors_built_on_access(monkeypatch):
    # enumeration builds no sub-vector, so a caller that never reads them
    # (an_polynomial) pays nothing; records of one vector still compare equal
    built = []
    original = WeightVector._exact

    def counting(cls, *args):
        value = original(*args)
        built.append(value)
        return value

    mu = parse_weights("1/3,2/3,-1/3,5/6,-1/6,-1/6,5/6")
    monkeypatch.setattr(WeightVector, "_exact", classmethod(counting))
    records = [rec for enum, _ in ORACLES.values() for rec in enum(mu)]
    assert records and not built
    subs = [sub for rec in records for sub in rec.sub_weights]
    assert len(built) == len(subs) == sum(len(rec.heavy_blocks) for rec in records)
    again = [rec for enum, _ in ORACLES.values() for rec in enum(list(mu))]
    assert again == records


def _sub_vectors_and_validated(mu):
    """Each sub-vector of every record of mu, with the validated vector
    (2 - mu(I), sorted mu_i for i in I) of its heavy block I."""
    mu = WeightVector.coerce(mu)
    return [(sub, WeightVector((2 - mu.subset_sum(heavy),
                                *sorted([mu[i] for i in heavy]))))
            for enum in (enum_T1a, enum_T1b, enum_T2a, enum_T2b)
            for rec in enum(mu)
            for sub, heavy in zip(rec.sub_weights, rec.heavy_blocks, strict=True)]


def _carried(w):
    return w.entries, w._den, w._nums


def test_sub_vectors_built_on_integers_match_validated_ones():
    # sub_weights builds each sub-vector on the source's numerators without
    # validating it; it must carry what validating its definition gives
    level_vector = load_perfbench("workloads").level_vector
    vectors = [level_vector(random.Random(f"sub:{n}:{d}:{i}"), n, d)
               for n in range(5, 10) for d in (3, 4, 5, 6) for i in range(3)]
    assert len(vectors) >= 50
    for mu in vectors:
        for sub, checked in _sub_vectors_and_validated(mu):
            assert _carried(sub) == _carried(checked), (mu, sub)


@pytest.mark.parametrize("text", ["1/6,1/3,1/2,1/2,1/2",
                                  "1/6,1/3,1/2,1/2,1/2,1/2,-1/2"])
def test_sub_vector_denominator_below_the_source(text):
    # halves inside a level-6 vector: the T1a pair (1/6, 1/3) leaves a
    # heavy block of halves, whose sub-vector has denominator 2, not 6
    mu = parse_weights(text)
    pairs = _sub_vectors_and_validated(mu)
    assert any(sub._den == 2 for sub, _ in pairs)
    for sub, checked in pairs:
        assert _carried(sub) == _carried(checked), sub


def _generic_samples(rng, sizes, per_size):
    return [random_generic_sample(rng, n) for n in sizes for _ in range(per_size)]


class TestGenericSamples:
    """On a sample off every wall and every integral subset sum (a sign-domain
    sample), the families reduce to what the symbolic recursion reads."""

    SAMPLES = _generic_samples(random.Random(23), range(5, 9), 2)

    @pytest.mark.parametrize("mu", SAMPLES, ids=str)
    def test_t1b_and_t2b_empty(self, mu):
        assert enum_T1b(mu) == []
        assert enum_T2b(mu) == []

    @pytest.mark.parametrize("mu", SAMPLES, ids=str)
    def test_t1a_and_t2a_read_off_the_walls(self, mu):
        n = mu.n
        light_pairs = {frozenset(p) for p in combinations(range(n), 2)
                       if mu.subset_sum(p) < 1}
        assert {rec.blocks[0] for rec in enum_T1a(mu)} == light_pairs
        heavy_splits = set()
        for single in range(n):
            rest = [i for i in range(n) if i != single]
            for b1, b2 in ref_splits(rest):
                if mu.subset_sum(b1) > 1 and mu.subset_sum(b2) > 1:
                    heavy_splits.add(((single,), b1, b2))
        assert {(tuple(r.blocks[0]), tuple(sorted(r.blocks[1])), tuple(sorted(r.blocks[2])))
                for r in enum_T2a(mu)} == heavy_splits
