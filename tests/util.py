"""Shared test helpers: naive oracles and generic-point generators."""
from __future__ import annotations

import math
import random
import types
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

from flatsphere.core import WeightVector, _mask
from flatsphere.partitions import PartitionRecord, enum_T1a, enum_T1b, enum_T2a, enum_T2b
from flatsphere.piecewise import MultiPoly, SignDomain, WallError
from flatsphere.recursion import _coefficient, a_n

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    """Execute ``perfbench/<name>.py`` without importing it as a package
    module, so nothing is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def fraction_weight_error(entries) -> str | None:
    """The Fraction rules ``WeightVector`` validated with before it read its
    integer numerators: the message of the first broken rule, or None."""
    if len(entries) < 3:
        return "a weight vector needs at least 3 entries"
    bad = [x for x in entries if x >= 1]
    if bad:
        return f"every weight must be < 1, got {bad[0]}"
    total = sum(entries)
    if total != 2:
        return f"weights must sum to 2, got {total}"
    return None


def a4_reference(mu) -> Fraction:
    """The four-point closed form 1/2 - (|d12| + |d13| + |d14|)/4 on the
    Fraction weights, with dij the pairing differences: the literal
    statement ``recursion.a4_closed`` evaluates on integers."""
    m1, m2, m3, m4 = WeightVector.coerce(mu).entries
    total = abs(m1 + m2 - m3 - m4) + abs(m1 + m3 - m2 - m4) + abs(m1 + m4 - m2 - m3)
    return Fraction(1, 2) - total / 4


def a5_reference(mu) -> Fraction:
    """A five-point node as the Fraction recursion evaluated it before the
    integer leaf: each family's records, ``_coefficient`` on their Fraction
    excess weights, times ``a_n`` of every sub-vector (n = 3 or 4)."""
    mu = WeightVector.coerce(mu)
    if mu.n != 5:
        raise ValueError("a5_reference needs exactly 5 weights")
    if any(x.denominator == 1 for x in mu):
        return Fraction(0)
    value = Fraction(0)
    for enum in (enum_T1a, enum_T1b, enum_T2a, enum_T2b):
        for rec in enum(mu):
            term = _coefficient(rec.family, rec.mu_bars, rec.block_sizes,
                                rec.epsilon, 5)
            for sub in rec.sub_weights:
                term *= a_n(sub, {})
            value += term
    return value


def an_reference(mu, memo: dict) -> Fraction:
    """a_n as the Fraction recursion evaluated it while every child was a
    node of its own: each child of an n >= 6 node is its ``sub_weights``
    vector, and every node, three-, four- and five-point children included,
    is stored in ``memo`` under its sorted entries once its children are;
    n = 4 is ``a4_reference`` and n = 5 ``a5_reference``."""
    mu = WeightVector.coerce(mu)
    if any(x.denominator == 1 for x in mu):
        return Fraction(0)
    key = tuple(sorted(mu))
    if key in memo:
        return memo[key]
    if mu.n == 3:
        value = Fraction(1)
    elif mu.n == 4:
        value = a4_reference(mu)
    elif mu.n == 5:
        value = a5_reference(mu)
    else:
        value = Fraction(0)
        for enum in (enum_T1a, enum_T1b, enum_T2a, enum_T2b):
            for rec in enum(mu):
                term = _coefficient(rec.family, rec.mu_bars, rec.block_sizes,
                                    rec.epsilon, mu.n)
                for sub in rec.sub_weights:
                    term *= an_reference(sub, memo)
                value += term
    memo[key] = value
    return value


def partitions_into(items, k):
    """All set partitions of `items` into exactly k nonempty blocks, each
    once, as lists of sets."""
    items = list(items)
    if k <= 0:
        return
    if k == 1:
        yield [set(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    for p in partitions_into(rest, k - 1):
        yield [{first}] + [set(b) for b in p]
    for p in partitions_into(rest, k):
        for i in range(len(p)):
            q = [set(b) for b in p]
            q[i].add(first)
            yield q


def ref_splits(indices):
    """Each split of ``indices`` into two blocks of two indices or more, once,
    as sorted tuples with the block holding the lowest index first."""
    for blocks in partitions_into(indices, 2):
        first, second = sorted(tuple(sorted(b)) for b in blocks)
        if len(first) >= 2 and len(second) >= 2:
            yield first, second


def mcmullen_bell(mu) -> Fraction:
    """McMullen's partition sum for a_n over all Bell(n) set partitions, on
    Fraction block weights: the reference for ``mcmullen_an``."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    total = Fraction(0)
    for k in range(3, n + 1):
        for blocks in partitions_into(range(n), k):
            term = Fraction((-1) ** (k + 1) * math.factorial(k - 3))
            for block in blocks:
                weight = sum((mu[i] for i in block), Fraction(0))
                term *= max(Fraction(0), 1 - weight) ** (len(block) - 1)
            total += term
    return (-1) ** (n + 1) * total / (n - 2)


def _msum(mu, block):
    return sum((mu[i] for i in block), Fraction(0))


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def oracle_t1a(mu: WeightVector):
    keys = set()
    for blocks in partitions_into(range(mu.n), 2):
        for a, b in ((0, 1), (1, 0)):
            i0, i1 = blocks[a], blocks[b]
            w0 = _msum(mu, i0)
            if len(i0) == 2 and w0 < 1 and not _is_int(w0) and _msum(mu, i1) > 1:
                keys.add((frozenset(i0), frozenset(i1)))
    return keys


def oracle_t1b(mu: WeightVector):
    keys = set()
    for blocks in partitions_into(range(mu.n), 3):
        for roles in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            i00, i01, i1 = (blocks[r] for r in roles)
            if len(i00) != 2 or len(i01) != 1:
                continue
            if _msum(mu, i00) != 1 or _msum(mu, i01) >= 0:
                continue
            w1 = _msum(mu, i1)
            if w1 > 1 and not _is_int(w1):
                keys.add((frozenset(i00), frozenset(i01), frozenset(i1)))
    return keys


def oracle_t2a(mu: WeightVector):
    keys = set()
    for blocks in partitions_into(range(mu.n), 3):
        for single_at in range(3):
            i0 = blocks[single_at]
            if len(i0) != 1 or _msum(mu, i0) >= 0:
                continue
            heavies = [blocks[i] for i in range(3) if i != single_at]
            ws = [_msum(mu, h) for h in heavies]
            if all(w > 1 and not _is_int(w) for w in ws):
                keys.add((frozenset(i0),
                          frozenset(frozenset(h) for h in heavies)))
    return keys


def oracle_t2b(mu: WeightVector):
    keys = set()
    for blocks in partitions_into(range(mu.n), 4):
        singles = [b for b in blocks if len(b) == 1]
        heavies = [b for b in blocks if len(b) >= 2]
        if len(singles) != 2 or len(heavies) != 2:
            continue
        (s1,), (s2,) = (tuple(s) for s in singles)
        h1, h2 = heavies
        w1, w2 = _msum(mu, h1), _msum(mu, h2)
        if not (w1 > 1 and w2 > 1) or _is_int(w1) or _is_int(w2):
            continue
        direct = mu[s1] + w1 == 1 and mu[s2] + w2 == 1
        swapped = mu[s2] + w1 == 1 and mu[s1] + w2 == 1
        if not (direct or swapped):
            continue
        eps = 2 if mu[s1] == mu[s2] else 1
        keys.add(_t2b_key(frozenset({s1}), frozenset({s2}),
                          frozenset(h1), frozenset(h2), direct, eps))
    return keys


def _t2b_key(s1, s2, h1, h2, direct, eps):
    # with equal singleton weights both pairings are valid, so the key
    # forgets the pairing; otherwise the pairing is part of the identity
    if eps == 2:
        return (frozenset({s1, s2}), frozenset({h1, h2}), 2)
    if direct:
        pairing = frozenset({(s1, h1), (s2, h2)})
    else:
        pairing = frozenset({(s2, h1), (s1, h2)})
    return (pairing, 1)


def record_key(rec):
    """Comparable key for an enumerated record, matching the oracle keys."""
    if rec.family == "T1a":
        return (rec.blocks[0], rec.blocks[1])
    if rec.family == "T1b":
        return (rec.blocks[0], rec.blocks[1], rec.blocks[2])
    if rec.family == "T2a":
        return (rec.blocks[0], frozenset({rec.blocks[1], rec.blocks[2]}))
    return _t2b_key(rec.blocks[0], rec.blocks[1], rec.blocks[2], rec.blocks[3],
                    True, rec.epsilon)


def _sort_key(record: PartitionRecord):
    """The record order of the enumerators: by the sorted blocks."""
    return tuple(tuple(sorted(b)) for b in record.blocks)


def ref_enum_T1a(mu) -> list[PartitionRecord]:
    """Reference for ``enum_T1a`` on Fraction subset sums.  Two-block
    partitions {I0, I1}: |I0| = 2, mu(I0) < 1 and non-integral."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for pair in combinations(range(n), 2):
        light = mu.subset_sum(pair)
        if light >= 1 or light.denominator == 1:
            continue
        heavy = frozenset(range(n)) - set(pair)
        out.append(PartitionRecord("T1a", (frozenset(pair), heavy), (1 - light,), (n - 2,), mu))
    out.sort(key=_sort_key)
    return out


def ref_enum_T1b(mu) -> list[PartitionRecord]:
    """Reference for ``enum_T1b`` on Fraction subset sums.  Three-block
    partitions {I00, I01, I1}: a weight-1 pair, a negative singleton, and a
    heavy block of non-integral weight > 1."""
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
            out.append(PartitionRecord("T1b", (frozenset(pair), frozenset({single}),
                                               frozenset(heavy)), (hw - 1,), (len(heavy),), mu))
    out.sort(key=_sort_key)
    return out


def ref_enum_T2a(mu) -> list[PartitionRecord]:
    """Reference for ``enum_T2a`` on Fraction subset sums.  Three-block
    partitions {I0, I1, I2}: a negative singleton and two heavy blocks of
    non-integral weight > 1; the unordered pair {I1, I2} appears once."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for single in range(n):
        if mu[single] >= 0:
            continue
        rest = [i for i in range(n) if i != single]
        for block1, block2 in ref_splits(rest):
            w1, w2 = mu.subset_sum(block1), mu.subset_sum(block2)
            if w1 <= 1 or w2 <= 1:
                continue
            if w1.denominator == 1 or w2.denominator == 1:
                continue
            out.append(PartitionRecord(
                "T2a", (frozenset({single}), frozenset(block1), frozenset(block2)),
                (w1 - 1, w2 - 1), (len(block1), len(block2)), mu))
    out.sort(key=_sort_key)
    return out


def ref_enum_T2b(mu) -> list[PartitionRecord]:
    """Brute-force reference for ``enum_T2b``: every singleton pair against
    every two-block split of the rest, on Fraction subset sums."""
    mu = WeightVector.coerce(mu)
    n = mu.n
    out = []
    for s1, s2 in combinations(range(n), 2):
        rest = [i for i in range(n) if i != s1 and i != s2]
        for block1, block2 in ref_splits(rest):
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
            out.append(PartitionRecord(
                "T2b", (frozenset({first}), frozenset({second}), frozenset(block1),
                        frozenset(block2)),
                (w1 - 1, w2 - 1), (len(block1), len(block2)), mu, epsilon))
    out.sort(key=_sort_key)
    return out


def ref_paired_blocks(n: int, sums, target: int):
    """Reference for ``partitions._paired_blocks`` on sorted index tuples:
    each pairing as ``(a, block_a, c, block_c)`` with a, c indices."""
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


def ref_family_blocks(family: str, n: int, sums, den: int):
    """Reference for ``partitions._family_blocks``: the kernel as it was on
    sorted index tuples, each partition as ``(blocks, epsilon)`` with the
    blocks as index tuples, sorted by blocks (the record order).  A block is
    heavy when its sum s exceeds den and den does not divide s."""
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
                total = sums[_mask(heavy)]
                if total > den and total % den:
                    out.append(((pair, (single,), heavy), 1))
    elif family == "T2a":
        for single in [i for i in everyone if sums[1 << i] < 0]:
            for blocks in ref_splits([i for i in everyone if i != single]):
                totals = [sums[_mask(block)] for block in blocks]
                if all(total > den and total % den for total in totals):
                    out.append((((single,), *blocks), 1))
    else:
        for a, block_a, c, block_c in ref_paired_blocks(n, sums, den):
            if block_c[0] < block_a[0]:
                a, block_a, c, block_c = c, block_c, a, block_a
            epsilon = 2 if sums[1 << a] == sums[1 << c] else 1
            if epsilon == 2 and c < a:
                continue  # the same blocks, paired the other way
            out.append((((a,), (c,), block_a, block_c), epsilon))
    out.sort()
    return out


def random_generic_sample(rng: random.Random, n: int, q: int = 101) -> WeightVector:
    """A weight vector with prime denominator q avoiding every wall and
    every integral proper subset sum."""
    while True:
        nums = [rng.randint(-q + 1, q - 1) for _ in range(n - 1)]
        last = 2 * q - sum(nums)
        if last >= q:
            continue
        nums.append(last)
        good = True
        for mask in range(1, (1 << n) - 1):
            total = sum(nums[i] for i in range(n) if mask >> i & 1)
            if total % q == 0:
                good = False
                break
        if good:
            return WeightVector(tuple(Fraction(a, q) for a in nums))


def _level_orders(rng: random.Random, n: int, d: int, choices, top: int):
    """n orders summing to -2d, none a multiple of d: n - 1 drawn from
    ``choices`` and the last closing the sum, redrawn until it lies in
    [1 - d, top].  At d = 2 every order is odd, so n must be even."""
    if d == 2 and n % 2:
        raise ValueError("level 2 needs an even number of odd orders")
    while True:
        ks = [rng.choice(choices) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if 1 - d <= last <= top and last % d:
            return [*ks, last]


def level_vector(rng: random.Random, n: int, d: int) -> WeightVector:
    """A level-d weight vector -k_i/d with no integer entry, the orders
    drawn from [1 - d, d - 1] and the last one closing the sum in [1 - d, 2d]."""
    orders = _level_orders(rng, n, d, [k for k in range(1 - d, d) if k % d], 2 * d)
    return WeightVector(tuple(Fraction(-k, d) for k in orders))


def chart_orders(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    """Shuffled orders of a single-polygon level-d signature: all negative
    but the one that closes the sum, which may be reflex."""
    largest = -2 * d - (n - 1) * (1 - d)  # so any closing order the draws give
    orders = _level_orders(rng, n, d, [k for k in range(1 - d, 0) if k % d], largest)
    rng.shuffle(orders)
    return tuple(orders)


def mu_bar_form(block, n: int) -> MultiPoly:
    """The excess weight mu(block) - 1 as a linear form in n variables, the
    reference for the coefficient templates of an_polynomial."""
    return MultiPoly.linear(-1, [1 if i in block else 0 for i in range(n)], n)


def integer_entry_point(domain: SignDomain, rng: random.Random | None = None):
    """A point of the domain's closure with one zero entry, found by moving
    that entry's mass onto the other coordinates."""
    rng = rng or random.Random(0)
    s = domain.sample
    n = s.n

    def try_move(i, weights):
        total = sum(weights)
        if total == 0:
            return None
        moved = list(s.entries)
        for j in range(n):
            if j != i:
                moved[j] += s[i] * Fraction(weights[j], total)
        moved[i] = Fraction(0)
        if any(x >= 1 for x in moved):
            return None
        point = WeightVector(tuple(moved))
        return point if domain.same_pattern(point) else None

    for i in sorted(range(n), key=lambda k: abs(s[k])):
        for j in range(n):
            if j != i:
                point = try_move(i, [1 if k == j else 0 for k in range(n)])
                if point is not None:
                    return point
        for _ in range(120):
            weights = [0 if k == i else rng.randint(0, 6) for k in range(n)]
            point = try_move(i, weights)
            if point is not None:
                return point
    return None


def adjacent_domain_pair(rng: random.Random, sample: WeightVector,
                         n_boundary: int = 3):
    """Two sign domains across exactly one wall, plus on-wall sample points.

    Returns (domain_a, domain_b, wall_block, boundary_points) or None if the
    random direction search fails.
    """
    dom = SignDomain(sample)
    n = sample.n
    for _ in range(400):
        raw = [rng.randint(-4, 4) for _ in range(n)]
        shift = sum(raw)
        v = [Fraction(a * n - shift, n) for a in raw]
        if all(x == 0 for x in v):
            continue
        crossings = []
        for block in dom.signs:
            vb = sum((v[i] for i in block), Fraction(0))
            if vb == 0:
                continue
            gap0 = 2 * sample.subset_sum(block) - 2
            t = -gap0 / (2 * vb)
            if t > 0:
                crossings.append((t, block))
        if not crossings:
            continue
        crossings.sort(key=lambda item: item[0])
        t1, wall = crossings[0]
        later = [t for t, b in crossings[1:]]
        if later and later[0] == t1:
            continue
        t2 = later[0] if later else 2 * t1
        boundary = [sample[i] + t1 * v[i] for i in range(n)]
        if any(x >= 1 for x in boundary):
            continue
        point_b = None
        for k in (2, 3, 5, 7, 11):
            tmid = t1 + (t2 - t1) / k
            candidate = [sample[i] + tmid * v[i] for i in range(n)]
            if any(x >= 1 for x in candidate):
                continue
            try:
                dom_b = SignDomain(candidate)
            except WallError:
                continue
            flipped = [b for b in dom.signs if dom.signs[b] != dom_b.signs[b]]
            if flipped == [wall]:
                point_b = dom_b
                break
        if point_b is None:
            continue
        points = _boundary_points(dom, wall, boundary, rng, n_boundary)
        if points is None:
            continue
        return dom, point_b, wall, points
    return None


def _on_wall_only(dom: SignDomain, wall, point) -> bool:
    pt = WeightVector.coerce(point)
    if any(x >= 1 for x in pt):
        return False
    for block in dom.signs:
        gap = 2 * pt.subset_sum(block) - 2
        if block == wall:
            if gap != 0:
                return False
        elif gap == 0:
            return False
    return True


def _boundary_points(dom, wall, base, rng, count):
    if not _on_wall_only(dom, wall, base):
        return None
    n = len(base)
    points = [WeightVector(tuple(base))]
    inside = sorted(wall)
    outside = sorted(set(range(n)) - set(wall))
    candidates = []
    if len(inside) >= 2:
        candidates.append((inside[0], inside[1]))
    if len(outside) >= 2:
        candidates.append((outside[0], outside[1]))
    attempt = 0
    while len(points) < count and attempt < 100:
        attempt += 1
        i, j = candidates[attempt % len(candidates)]
        eps = Fraction(rng.randint(1, 9), 997 * (attempt + 1))
        jittered = list(base)
        jittered[i] += eps
        jittered[j] -= eps
        if any(x >= 1 for x in jittered):
            continue
        if _on_wall_only(dom, wall, jittered):
            points.append(WeightVector(tuple(jittered)))
    if len(points) < count:
        return None
    return points


# -- a Fraction-dict reference for MultiPoly ---------------------------------
# Polynomials are {exponent tuple: nonzero Fraction} dicts; every operation
# works coefficient by coefficient, as MultiPoly did before it kept integer
# numerators over one denominator.

def _ref_clean(terms):
    return {exps: c for exps, c in terms.items() if c}


def ref_add(p, q):
    out = dict(p)
    for exps, c in q.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return _ref_clean(out)


def ref_scale(p, scalar):
    return _ref_clean({exps: c * scalar for exps, c in p.items()})


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def ref_pow(p, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_evaluate(p, point):
    total = Fraction(0)
    for exps, c in p.items():
        term = c
        for x, e in zip(point, exps):
            term *= Fraction(x) ** e
        total += term
    return total


def ref_substitute_linear(p, forms, target_vars):
    """Substitute the form dicts for the variables one factor at a time:
    each term starts as its constant and is multiplied by its form once per
    unit of exponent."""
    out = {}
    for exps, c in p.items():
        term = {(0,) * target_vars: c}
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = ref_mul(term, form)
        out = ref_add(out, term)
    return out


def random_poly_terms(rng: random.Random, nvars: int, count: int = 5, degree: int = 2):
    """Seeded {exponents: Fraction} terms; some coefficients may be zero."""
    terms = {}
    for _ in range(count):
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
    return terms


def random_linear_terms(rng: random.Random, nvars: int):
    """A seeded degree-<=1 form {exponents: Fraction} in nvars variables."""
    terms = {(0,) * nvars: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))}
    for i in range(nvars):
        if rng.random() < 0.6:
            exps = tuple(int(k == i) for k in range(nvars))
            terms[exps] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
    return terms


def ref_odd_signatures(n: int) -> list[tuple[int, ...]]:
    """Brute force over every multiset of n odd orders >= -1 summing to -4:
    each as its positive orders, nondecreasing, then its -1 entries, sorted
    by the number of positive orders and then lexicographically."""
    out = []
    for orders in combinations_with_replacement(range(-1, n, 2), n):
        if sum(orders) == -4:
            poles = orders.count(-1)
            out.append(orders[poles:] + orders[:poles])
    return sorted(out, key=lambda k: (n - k.count(-1), k))
