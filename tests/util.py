"""Shared test helpers: naive oracles and generic-point generators."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from flatsphere.closed_forms import partitions_into
from flatsphere.core import WeightVector
from flatsphere.piecewise import MultiPoly, SignDomain, WallError


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
