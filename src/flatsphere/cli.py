"""Command-line surface: exact values, table reproduction, property suites.

Exit codes: 0 success, 1 input validation error, 2 verification mismatch
(--diff or check-suite failures).
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import click

from . import closed_forms, partitions, piecewise, recursion, tables
from .core import (
    PiValue,
    Signature,
    ValidationError,
    WeightVector,
    _fields,
    minimal_denominator,
    parse_rational,
    parse_signature,
    parse_weights,
    weights_from_signature,
)


class CountingCache(dict):
    """Memo dict that counts hits for --verbose reporting."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


CACHE_VERSION = 1


def _load_cache(path: str) -> CountingCache:
    cache = CountingCache()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if raw.get("version") != CACHE_VERSION:
            raise ValueError(f"unknown version {raw.get('version')!r}")
        for key, text in raw["entries"].items():
            # validate before trusting; memo keys are sorted weight tuples
            mu = WeightVector(tuple(sorted(map(parse_rational, key.split(",")))))
            value = parse_rational(text)
            if (minimal_denominator(mu) ** (mu.n - 3) * value).denominator != 1:
                raise ValueError(f"{key}: j_n of {value} is not an integer")
            if cache.setdefault(mu.entries, value) != value:
                raise ValueError(f"{key}: conflicting values")
            # up to n = 5, a_n is a closed form or the five-point leaf, with
            # no memo below it: check the value exactly
            if mu.n <= 5 and value != (exact := recursion.a_n(mu, {})):
                raise ValueError(f"{key}: {value} is not a_n = {exact}")
    except FileNotFoundError:
        pass
    except OSError as exc:
        _fail(f"cannot read cache file {path}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        click.echo(f"warning: ignoring corrupt cache file {path}: {exc}", err=True)
        return CountingCache()
    return cache


def _save_cache(path: str, cache: dict) -> None:
    """Replace the file atomically, so no reader sees half of it."""
    entries = {",".join(str(x) for x in key): str(value)
               for key, value in cache.items()}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".flatsphere-cache-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"version": CACHE_VERSION, "entries": entries}, fh, indent=0)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def _memo_session(path: str | None, verbose: bool):
    """The memo of one command: loaded from the --cache file, then, once the
    body has run, reported on stderr with --verbose and saved back."""
    cache = _load_cache(path) if path else CountingCache()
    yield cache
    if verbose:
        click.echo(f"cache: {cache.hits} hits, {len(cache)} entries", err=True)
    if path:
        _save_cache(path, cache)


def _weights_up_to(text: str | None, option: str, command: str,
                   ceiling: int) -> WeightVector:
    """The weights of a required option, at most ``ceiling`` of them; exit 1
    on any invalid input."""
    if not text:
        _fail(f"{option} is required")
    try:
        mu = parse_weights(text)
    except ValidationError as exc:
        _fail(str(exc))
    if mu.n > ceiling:
        _fail(f"{command} takes at most n = {ceiling} weights, got {mu.n}")
    return mu


def _parse_weights_opt(weights: str | None, signature: str | None,
                       neg_orders: bool) -> WeightVector:
    """The weights of --weights or --signature; exit 1 on any invalid input."""
    if weights and signature:
        _fail("pass either --weights or --signature, not both")
    if not (weights or signature):
        _fail("one of --weights or --signature is required")
    try:
        if weights:
            return parse_weights(weights)
        return weights_from_signature(parse_signature(signature, neg_orders))
    except ValidationError as exc:
        _fail(str(exc))


@click.group()
def main():
    """Exact volumes of moduli of flat cone metrics on the sphere."""


def _vector_options(command):
    """The options of ``an`` and ``volume``, in their --help order."""
    for option in reversed((
        click.option("--weights", help='comma-separated weights, e.g. "2/3,1/3,1/3,1/3,1/3"'),
        click.option("--signature", help='orders "k1,...,kn:d"'),
        click.option("--neg-orders", is_flag=True, help="negate signature orders (table labels)"),
        click.option("--cache", "cache_path", type=click.Path(), help="memo cache JSON file"),
        click.option("--approx", is_flag=True, help="append decimal renderings"),
        click.option("--verbose", is_flag=True, help="report memo hits and entries on stderr"),
    )):
        command = option(command)
    return command


@main.command("an")
@_vector_options
def cmd_an(weights, signature, neg_orders, cache_path, approx, verbose):
    """Print the normalized intersection value, its integer form, and the
    minimal denominator."""
    mu = _parse_weights_opt(weights, signature, neg_orders)
    with _memo_session(cache_path, verbose) as cache:
        value = recursion.a_n(mu, cache)
        e = minimal_denominator(mu)
        click.echo(f"A = {value}")
        click.echo(f"J = {Fraction(e) ** (mu.n - 3) * value}")
        click.echo(f"e = {e}")
        if approx:
            click.echo(f"A ~ {float(value):.12g}")


@main.command("volume")
@_vector_options
def cmd_volume(weights, signature, neg_orders, cache_path, approx, verbose):
    """Print the normalized volume as an exact pi-multiple."""
    mu = _parse_weights_opt(weights, signature, neg_orders)
    with _memo_session(cache_path, verbose) as cache:
        value = recursion.vol1(mu, cache)
        click.echo(f"vol1 = {value}")
        if approx:
            click.echo(f"vol1 ~ {value.approx():.12g}")


@main.command("table")
@click.option("--n", "npoints", type=int, help="4 or 5")
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--diff", is_flag=True, help="compare against embedded expected values")
@click.option("--columns", default="col3,ratio,mv",
              help="columns checked by --diff (comma list of col3,ratio,mv)")
@click.option("--cache", "cache_path", type=click.Path())
@click.option("--verbose", is_flag=True)
def cmd_table(npoints, as_csv, as_json, diff, columns, cache_path, verbose):
    """Recompute a reference table; with --diff, verify it cell by cell."""
    if npoints not in (4, 5):
        _fail("--n must be 4 or 5")
    if not columns.replace(",", " ").strip():  # commas and blanks name no column
        _fail("--columns needs at least one of col3,ratio,mv")
    try:
        wanted = _fields(columns, "column")
    except ValidationError as exc:
        _fail(str(exc))
    if any(c not in ("col3", "ratio", "mv") for c in wanted):
        _fail("--columns entries must be among col3,ratio,mv")
    if as_csv and as_json:
        _fail("pass either --csv or --json, not both")
    if diff and (as_csv or as_json):
        _fail("--diff prints its own report; drop --csv and --json")
    failures = 0
    with _memo_session(cache_path, verbose) as cache:
        if diff:
            lines, failures = tables.diff_table(npoints, cache, wanted)
            for line in lines:
                click.echo(line)
        elif as_csv:
            click.echo(tables.table_csv(npoints, cache), nl=False)
        elif as_json:
            click.echo(json.dumps(tables.table_json(npoints, cache), indent=1))
        else:
            click.echo(tables.table_text(npoints, cache))
    if failures:
        click.echo(f"{failures} row(s) mismatched", err=True)
        sys.exit(2)


# one piece takes about 0.3 s at n = 8, 1.7 s at n = 9 and 42 s (166 MB
# peak) at n = 10 (Python 3.11 on a shared 2-CPU VM), so n = 10 is not
# interactive
PIECEWISE_MAX_N = 9

# explain lists every record of the four families: on the seeded level-7
# vector level_vector(random.Random(1), n, 7) it takes 2.9 s (91 MB) at
# n = 15, 7.0 s (192 MB) at n = 16 and 18.5 s (432 MB) at n = 17 (Python
# 3.11 on a shared 2-CPU VM), about 2.5x per weight
EXPLAIN_MAX_N = 16


@main.command("piecewise")
@click.option("--sample", required=False, help="generic rational weight sample")
@click.option("--pretty", is_flag=True, help="indent the JSON output")
def cmd_piecewise(sample, pretty):
    """Print the volume polynomial on the sample's sign domain as JSON."""
    point = _weights_up_to(sample, "--sample", "piecewise", PIECEWISE_MAX_N)
    try:
        domain = piecewise.SignDomain(point)
    except ValidationError as exc:
        _fail(str(exc))
    poly = piecewise.an_polynomial(domain)
    payload = {
        "n": domain.n,
        "sample": [str(x) for x in point],
        "signs": domain.signs_json(),
        "degree": poly.total_degree(),
        "value_at_sample": str(poly.evaluate(point.entries)),
        "terms": poly.to_json(),
    }
    click.echo(json.dumps(payload, indent=1 if pretty else None))


@main.command("explain")
@click.option("--weights", required=False)
@click.option("--pretty", is_flag=True)
def cmd_explain(weights, pretty):
    """Print the primary partition families of a weight vector as JSON."""
    mu = _weights_up_to(weights, "--weights", "explain", EXPLAIN_MAX_N)
    families = partitions.enum_all(mu)
    payload = {
        "weights": [str(x) for x in mu],
        "families": {tag: [rec.to_json() for rec in recs]
                     for tag, recs in families.items()},
        "counts": {tag: len(recs) for tag, recs in families.items()},
    }
    click.echo(json.dumps(payload, indent=1 if pretty else None))


def _suite_kontsevich(max_n: int, seed: int, report) -> None:
    cache: dict = {}
    for n in range(4, max_n + 1, 2):
        for kappa in recursion.enumerate_odd_signatures(n):
            aez = recursion.mv_quadratic_aez(kappa)
            product = PiValue(Fraction(2), 2)
            for k in kappa.orders:
                product = product * closed_forms.v_kontsevich(k)
            agree = aez == product
            chain = recursion.vol1(weights_from_signature(kappa), cache) * Fraction(
                2 * (n - 2) * (-1) ** ((n - 2) // 2) * 2 ** (n - 2), 2)
            agree = agree and aez == chain
            report(f"kontsevich {kappa.orders}", agree)


def _suite_identity(max_n: int, seed: int, report) -> None:
    for n in range(4, max_n + 1, 2):
        for kappa in recursion.enumerate_odd_signatures(n):
            lhs, rhs = closed_forms.identity_n_minus_1(kappa)
            good = lhs == rhs
            for minus in range(3):
                try:  # too few simple poles, or an empty P
                    blhs, brhs = closed_forms.f_p22_bridge(kappa, minus_ones=minus)
                except ValidationError:
                    continue
                good &= blhs == brhs
            report(f"identity {kappa.orders}", good)


def _suite_sympoly(max_n: int, seed: int, report) -> None:
    shifts = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
    for n in range(2, max_n + 1):
        good = all(
            closed_forms.sum_dependence_check(n, a, b, 20, seed=seed + n)
            for a in shifts for b in shifts
        )
        report(f"sympoly n={n}", good)


def _suite_oracle5(max_n: int, seed: int, report) -> None:
    if max_n < 5:
        return
    cache: dict = {}
    for row in tables.expected_rows(5):
        kappa = row.signature()
        mu = weights_from_signature(kappa)
        good = recursion.a5_direct(mu, kappa.level) == recursion.a_n(mu, cache)
        report(f"oracle5 d={row.d} ({row.label_text()})", good)
    rng = random.Random(seed)
    good = True
    for _ in range(50):
        mu, d = _random_rational_weights(rng, 5)
        good &= recursion.a5_direct(mu, d) == recursion.a_n(mu, cache)
    report("oracle5 random", good)


def _random_rational_weights(rng: random.Random, n: int):
    while True:
        d = rng.randint(2, 12)
        ks = [rng.randint(1 - d, d + 3) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if last < 1 - d:
            continue
        ks.append(last)
        return weights_from_signature(Signature(tuple(ks), d)), d


def _suite_dform(max_n: int, seed: int, report) -> None:
    rng = random.Random(seed)
    cache: dict = {}
    for n in range(5, max_n + 1):
        good = True
        for _ in range(25):
            mu, d = _random_rational_weights(rng, n)
            e = minimal_denominator(mu)
            lhs = recursion.recursive_rhs_dform(mu, d, cache)
            rhs = Fraction(d, e) ** (n - 3) * recursion.j_n(mu, cache)
            good &= lhs == rhs
        report(f"dform n={n}", good)


def _random_positive_weights(rng: random.Random, n: int) -> WeightVector:
    """n positive weights below 1 summing to 2: 2q cut into n parts."""
    while True:
        q = rng.choice((7, 12, 29, 60))
        cuts = sorted(rng.sample(range(1, 2 * q), n - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * q])]
        if max(parts) < q:
            return WeightVector(tuple(Fraction(p, q) for p in parts))


def _suite_mcmullen(max_n: int, seed: int, report) -> None:
    """a_n against McMullen's partition sum on seeded all-positive vectors,
    n = 4 up to max_n.  The partition sum is known to differ from a_n when a
    weight is negative, so only positive weights are drawn."""
    rng = random.Random(seed)
    cache: dict = {}
    for n in range(4, max_n + 1):
        good = True
        for _ in range(3):
            mu = _random_positive_weights(rng, n)
            good &= closed_forms.mcmullen_an(mu) == recursion.a_n(mu, cache)
        report(f"mcmullen n={n}", good)


def _wall_point_agrees(mu: WeightVector, rng: random.Random) -> bool:
    """Continuity at a wall point mu (an integral subset sum, no integral
    entry): the piece of a chamber next to mu, reached by a seeded zero-sum
    shift of about 1e-6, takes a_n's value at mu.  A piece sums only T1a and
    T2a terms, while a_n at mu also sums its T1b and T2b terms."""
    n = mu.n
    while True:
        raw = [rng.randint(-9, 9) for _ in range(n)]
        raw[-1] -= sum(raw)
        try:
            domain = piecewise.SignDomain([x + Fraction(r, 10 ** 6)
                                           for x, r in zip(mu.entries, raw)])
            break
        except piecewise.WallError:
            continue
    return piecewise.an_polynomial(domain).evaluate(mu.entries) == recursion.a_n(mu, {})


def _suite_walls(max_n: int, seed: int, report) -> None:
    """a_n against a neighbouring piece at seeded wall points with a T1b or
    T2b record (T2b needs n >= 6), six per n from 5 up to max_n."""
    rng = random.Random(seed)
    for n in range(5, max_n + 1):
        good, points = True, 0
        while points < 6:
            mu, _ = _random_rational_weights(rng, n)
            if any(s % mu._den == 0 for s in mu._nums):
                continue  # a_n vanishes there and the volume jumps
            if partitions.enum_T1b(mu) or partitions.enum_T2b(mu):
                good &= _wall_point_agrees(mu, rng)
                points += 1
        report(f"walls n={n}", good)


# each suite with the largest n it checks (None: as large as --max-n asks);
# sympoly's is the largest n closed_forms.sum_dependence_check takes (its
# n = 9 line runs 640 f_nab calls, about 0.5 s);
# mcmullen's 9 is set by a_n, which takes 0.01-2.2 s per seed-0 vector at
# n = 10, 10-53 s at n = 11 and 0.8-78 s at n = 12, not by the oracle;
# walls' 8 by the pieces: at seed 0 its n = 8 points take 4.3 s and its
# n = 9 points 53 s (Python 3.11 on a shared 2-CPU VM)
_SUITES = {
    "kontsevich": (_suite_kontsevich, None),
    "identity": (_suite_identity, None),
    "sympoly": (_suite_sympoly, closed_forms._SUM_CHECK_MAX_N),
    "oracle5": (_suite_oracle5, 5),
    "dform": (_suite_dform, 7),
    "mcmullen": (_suite_mcmullen, 9),
    "walls": (_suite_walls, 8),
}


@main.command("check")
@click.option("--suite", "suite_name", required=False)
@click.option("--max-n", "max_n", type=int, default=8)
@click.option("--seed", type=int, default=0)
def cmd_check(suite_name, max_n, seed):
    """Run a named property suite at desk scale; nonzero exit on failure."""
    known = ", ".join(sorted(_SUITES))
    if suite_name is None:  # not required=True: a usage error would exit 2
        _fail(f"--suite is required (choose from {known})")
    if suite_name not in _SUITES:
        _fail(f"unknown suite {suite_name!r} (choose from {known})")
    results = []

    def report(name: str, good: bool) -> None:
        click.echo(f"{'ok  ' if good else 'FAIL'} {name}")
        results.append(good)

    suite, ceiling = _SUITES[suite_name]
    if ceiling is not None and max_n > ceiling:
        click.echo(f"note: suite {suite_name!r} stops at n = {ceiling}, "
                   f"below --max-n {max_n}", err=True)
    suite(max_n if ceiling is None else min(max_n, ceiling), seed, report)
    if not results:
        _fail(f"suite {suite_name!r} ran no checks at --max-n {max_n}")
    failures = results.count(False)
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(2)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
