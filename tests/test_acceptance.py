"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances: all arithmetic is rational), and the
timed criteria assert their stated runtime budgets.  Each passing criterion
prints one ``ACCEPTANCE <k>: pass`` line (run pytest with ``-s`` to see
them).

Known reference discrepancy: two printed cells of the five-point table are
arithmetically inconsistent with their own rows (see the decisions ledger
and README); criterion 3 asserts the printed values verbatim and therefore
fails on exactly those cells.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from flatsphere.closed_forms import (
    _f_nab_ring,
    f_nab,
    f_p22_bridge,
    identity_n_minus_1,
    sum_dependence_check,
    v_kontsevich,
)
from flatsphere.core import (
    PiValue,
    Signature,
    WeightVector,
    minimal_denominator,
    parse_weights,
    weights_from_signature,
)
from flatsphere.flat_charts import is_single_polygon, mv_ratio, mv_table_entry
from flatsphere.piecewise import MultiPoly, SignDomain, an_polynomial, wall_continuity_check
from flatsphere.recursion import (
    QuadSignature,
    a4_closed,
    a5_direct,
    a_n,
    enumerate_odd_signatures,
    j_n,
    mv_quadratic_aez,
    quad_V,
    quad_V_closed,
    quad_V_recursive,
    recursive_rhs_dform,
    vol1,
)
from flatsphere.tables import expected_rows

from util import adjacent_domain_pair, integer_entry_point, random_generic_sample

F = Fraction


def _done(criterion: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {criterion}: pass ({detail}, {elapsed:.2f}s)")


def test_criterion_01_table_one_intersection_column():
    started = time.monotonic()
    cache: dict = {}
    for row in expected_rows(4):
        kappa = row.signature()
        mu = weights_from_signature(kappa)
        assert minimal_denominator(mu) == row.d
        value = a4_closed(mu)
        assert value == row.col3, f"{row.label}: {value} != {row.col3}"
        assert F(1, row.d) * j_n(mu, cache) == row.col3
    _done(1, started, 1.0, "15/15 rows")


def test_criterion_02_table_two_intersection_column():
    started = time.monotonic()
    cache: dict = {}
    for row in expected_rows(5):
        kappa = row.signature()
        mu = weights_from_signature(kappa)
        assert a_n(mu, cache) == row.col3, f"{row.label}"
        assert a5_direct(mu, kappa.level) == row.col3, f"{row.label} via charts"
    _done(2, started, 1.0, "47/47 rows, both routes")


def test_criterion_03_table_ratio_and_volume_columns():
    started = time.monotonic()
    cache: dict = {}
    mismatches = []
    checked = 0
    for n in (4, 5):
        for row in expected_rows(n):
            kappa = row.signature()
            if not is_single_polygon(kappa):
                continue
            checked += 1
            ratio = mv_ratio(kappa)
            volume = mv_table_entry(kappa, cache)
            if ratio != row.ratio:
                mismatches.append(
                    f"d={row.d} {row.label}: ratio {ratio} != printed {row.ratio}")
            if volume != row.mv:
                mismatches.append(
                    f"d={row.d} {row.label}: mv {volume} != printed {row.mv}")
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    if mismatches:
        pytest.fail(
            "reference cells not reproduced; independent evidence (the "
            "residue-enumeration lattice oracle, a symbolic determinant "
            "recomputation, and the polygon-orientation experiment) "
            "adjudicates these cells as typos in the source table -- see "
            "README 'Known reference discrepancies':\n  "
            + "\n  ".join(mismatches)
        )
    print(f"ACCEPTANCE 3: pass ({checked} single-polygon rows, {elapsed:.2f}s)")


def _quadratic_test_set():
    fixed = [kappa for n in (4, 6, 8) for kappa in enumerate_odd_signatures(n)]
    rng = random.Random(2024)
    ten = enumerate_odd_signatures(10)
    randoms = []
    for _ in range(100):
        orders = list(rng.choice(ten).orders)
        rng.shuffle(orders)
        randoms.append(QuadSignature(tuple(orders)))
    return fixed, randoms


def test_criterion_04_quadratic_closed_formula():
    started = time.monotonic()
    fixed, randoms = _quadratic_test_set()
    cache: dict = {}
    memo: dict = {}
    for kappa in fixed + randoms:
        closed = quad_V_closed(kappa)
        assert quad_V(kappa, cache) == closed, kappa.orders
        assert quad_V_recursive(kappa, memo) == closed, kappa.orders
    _done(4, started, 120.0, f"{len(fixed)} exhaustive + {len(randoms)} random")


def test_criterion_05_kontsevich_volumes():
    started = time.monotonic()
    fixed, randoms = _quadratic_test_set()
    cache: dict = {}
    for kappa in fixed + randoms:
        aez = mv_quadratic_aez(kappa)
        product = PiValue(F(2), 2)
        for k in kappa.orders:
            product = product * v_kontsevich(k)
        assert aez == product, kappa.orders
        n = kappa.n
        mu = weights_from_signature(Signature(kappa.orders, 2))
        chain = vol1(mu, cache) * F(
            2 * (n - 2) * (-1) ** ((n - 2) // 2) * 2 ** (n - 2), 2)
        assert aez == chain, kappa.orders
    pillow = mv_quadratic_aez(QuadSignature((-1, -1, -1, -1)))
    assert pillow == PiValue(F(2), 2)
    _done(5, started, 60.0, "product form, chain form, pillowcase")


def test_criterion_06_factorial_identity_and_bridge():
    started = time.monotonic()
    count = 0
    for n in (4, 6, 8):
        for kappa in enumerate_odd_signatures(n):
            lhs, rhs = identity_n_minus_1(kappa)
            assert lhs == rhs == math.factorial(n - 1), kappa.orders
            poles = sum(1 for k in kappa.orders if k == -1)
            positives = sum(1 for k in kappa.orders if k > 0)
            for minus in range(0, min(2, poles) + 1):
                if positives + minus < 1:
                    continue
                blhs, brhs = f_p22_bridge(kappa, minus_ones=minus)
                assert blhs == brhs == math.factorial(n - 1), (kappa.orders, minus)
            count += 1
    _done(6, started, 30.0, f"{count} signatures with bridge")


def test_criterion_07_symmetric_function_checks():
    started = time.monotonic()
    shifts = [F(0), F(1), F(2), F(1, 2)]
    for n in range(2, 9):
        for a in shifts:
            for b in shifts:
                assert sum_dependence_check(n, a, b, 100, seed=1000 * n + 17)
    # the two closed displays
    rng = random.Random(7)
    for _ in range(10):
        xs = [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(2)]
        assert f_nab(2, F(1, 3), F(5), xs) == 2
    x1, x2, x3, a, b = (MultiPoly.variable(i, 5) for i in range(5))
    display = f_nab(3, a, b, [x1, x2, x3])
    assert display == 4 * (x1 + x2 + x3) + 3 * (a + b + MultiPoly.constant(2, 5))
    # MultiPoly inputs, alone or with rational shifts, take the ring path
    assert isinstance(display, MultiPoly)
    assert display == _f_nab_ring(3, a, b, [x1, x2, x3])
    mixed = f_nab(3, F(1, 2), F(2), [x1, x2, x3])
    assert isinstance(mixed, MultiPoly)
    assert mixed == 4 * (x1 + x2 + x3) + MultiPoly.constant(3 * F(9, 2), 5)
    _done(7, started, 120.0, "n<=8, 16 shift pairs, 100 trials each")


def _random_signature_weights(rng: random.Random, n: int):
    while True:
        d = rng.randint(2, 12)
        ks = [rng.randint(1 - d, d + 3) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if last < 1 - d:
            continue
        return weights_from_signature(Signature(tuple(ks) + (last,), d)), d


def test_criterion_08_level_form_equivalence():
    started = time.monotonic()
    rng = random.Random(88)
    cache: dict = {}
    for index in range(200):
        n = 5 + index % 3
        mu, d = _random_signature_weights(rng, n)
        e = minimal_denominator(mu)
        literal = recursive_rhs_dform(mu, d, cache)
        assert literal == F(d, e) ** (n - 3) * j_n(mu, cache), (mu.entries, d)
    _done(8, started, 120.0, "200 seeded weight vectors, n in {5,6,7}")


def test_criterion_09_piecewise_pieces():
    started = time.monotonic()
    rng = random.Random(909)
    samples = [random_generic_sample(rng, 5) for _ in range(9)]
    samples += [random_generic_sample(rng, 6) for _ in range(9)]
    samples.append(WeightVector(tuple(F(a, 11) for a in (9, 5, 4, 3, 1))))
    samples.append(WeightVector(tuple(F(a, 22) for a in (18, 10, 8, 5, 2, 1))))

    integer_checks = 0
    for sample in samples:
        n = sample.n
        domain = SignDomain(sample)
        piece = an_polynomial(domain)
        assert piece.total_degree() <= n - 3
        assert all(isinstance(c, F) for c in piece.terms.values())
        hits = 0
        attempts = 0
        denominator = sample[0].denominator
        while hits < 20 and attempts < 4000:
            attempts += 1
            jitter = [rng.randint(-60, 60) for _ in range(n)]
            shift = sum(jitter)
            point = [
                sample[i] + F(jitter[i] * n - shift, n * denominator * 1009)
                for i in range(n)
            ]
            if any(x >= 1 for x in point):
                continue
            if not domain.same_pattern(point):
                continue
            assert piece.evaluate(point) == a_n(point)
            hits += 1
        assert hits == 20, f"only {hits} interior points for {sample}"
        point = integer_entry_point(domain, rng)
        if point is not None:
            assert piece.evaluate(point.entries) == 0
            assert a_n(point) == 0
            integer_checks += 1
    assert integer_checks >= 2, "no integer-entry wall points exercised"

    pairs = 0
    attempts = 0
    while pairs < 5 and attempts < 40:
        attempts += 1
        base = random_generic_sample(rng, 5 + pairs % 2)
        built = adjacent_domain_pair(rng, base, n_boundary=10)
        if built is None:
            continue
        dom_a, dom_b, _, points = built
        assert wall_continuity_check(dom_a, dom_b, points)
        pairs += 1
    assert pairs == 5, "could not build five adjacent-domain pairs"
    _done(9, started, 300.0,
          f"20 domains, 400 interior points, {integer_checks} integer-entry "
          "points, 5 wall crossings")


def test_criterion_10_vanishing_and_symmetry():
    started = time.monotonic()
    rng = random.Random(321)
    produced = 0
    while produced < 50:
        n = rng.randint(4, 7)
        integer_value = F(rng.choice((0, -1, -2)))
        rest = [F(rng.randint(-20, 20), 21) for _ in range(n - 2)]
        last = 2 - integer_value - sum(rest)
        if last >= 1:
            continue
        entries = [integer_value] + rest + [last]
        rng.shuffle(entries)
        assert a_n(WeightVector(tuple(entries))) == 0
        produced += 1

    cache: dict = {}
    vectors = [
        "2/3,2/3,1/3,1/3",
        "3/4,3/4,3/4,-1/4",
        "2/3,1/3,1/3,1/3,1/3",
        "5/6,5/6,5/6,5/6,-4/3",
        "1/2,1/2,1/2,1/2,1/2,-1/2",
        "-1/4,-1/2,5/8,5/8,3/4,3/4",
    ]
    for text in vectors:
        mu = parse_weights(text)
        reference = a_n(mu, cache)
        for perm in itertools.permutations(range(mu.n)):
            value = a_n(WeightVector(tuple(mu[i] for i in perm)), cache)
            assert value == reference, (text, perm)
    _done(10, started, 120.0, "50 vanishing cases, exhaustive symmetry n<=6")
