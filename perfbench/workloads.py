"""Seeded inputs, item runners and exact output checks for each workload.

Inputs are drawn here with the benchmark's own generators, from the seed
alone; flatsphere only ever sees the generated vectors, signatures and
samples.  Every workload is a cycle of distinct passes; a pass is one batch
of items that starts from fresh state (its own memo), so repeating passes
repeats the same work.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import flatsphere
from flatsphere import closed_forms, flat_charts, piecewise, recursion, tables

DEFAULT_SEED = 0


class CountingMemo(dict):
    """The memo passed through the public ``cache`` argument; counts lookups."""

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


class MemoStats:
    """Totals over every memo a pass created."""

    def __init__(self):
        self.memos: list[CountingMemo] = []

    def new(self) -> CountingMemo:
        memo = CountingMemo()
        self.memos.append(memo)
        return memo

    def totals(self) -> dict[str, int]:
        return {
            "hits": sum(m.hits for m in self.memos),
            "misses": sum(m.misses for m in self.memos),
            "entries": sum(len(m) for m in self.memos),
        }


# -- generators ---------------------------------------------------------------

def level_vector(rng: random.Random, n: int, d: int,
                 distinct: int | None = None) -> tuple[Fraction, ...]:
    """A level-d weight vector -k_i/d with no integer entry.

    Orders are drawn from [1-d, d-1] without multiples of d; the last order
    closes the sum to -2d and must also avoid multiples of d (an integer
    weight makes a_n vanish trivially) and stay in [1-d, 2d].  With
    ``distinct``, the vector must hold exactly that many distinct weights.
    """
    choices = [k for k in range(1 - d, d) if k % d]
    while True:
        ks = [rng.choice(choices) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if (1 - d <= last <= 2 * d and last % d
                and distinct in (None, len({*ks, last}))):
            return tuple(Fraction(-k, d) for k in (*ks, last))


def chart_signature(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    """Orders of a single-polygon signature: all but the last order are
    negative, the last closes the sum to -2d; none is a multiple of d."""
    choices = [k for k in range(1 - d, 0) if k % d]
    while True:
        ks = [rng.choice(choices) for _ in range(n - 1)]
        last = -2 * d - sum(ks)
        if last >= 1 - d and last % d:
            orders = [*ks, last]
            rng.shuffle(orders)
            return tuple(orders)


_SAMPLE_DENOMINATORS = (23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                        83, 89, 97)


def generic_sample(rng: random.Random, n: int, light: int) -> tuple[Fraction, ...]:
    """A rational weight vector off every wall: no proper subset of the
    weights sums to an integer (that includes integer entries and the
    two-block walls mu(I) = 1), so it anchors a sign domain.  Exactly
    ``light`` pairs of weights sum to less than 1."""
    while True:
        denom = rng.choice(_SAMPLE_DENOMINATORS)
        ks = [rng.randint(-denom, denom - 1) for _ in range(n - 1)]
        last = 2 * denom - sum(ks)
        if not -2 * denom <= last < denom:
            continue
        ks.append(last)
        if sum(1 for a, b in combinations(ks, 2) if a + b < denom) != light:
            continue
        if any(sum(sub) % denom == 0
               for size in range(1, n) for sub in combinations(ks, size)):
            continue
        return tuple(Fraction(k, denom) for k in ks)


def weights_text(mu) -> str:
    return ",".join(str(x) for x in mu)


def _minimal_denominator(mu) -> int:
    return math.lcm(*(x.denominator for x in mu))


def _pi_text(coefficient: Fraction, power: int) -> str:
    if coefficient == 0:
        return "0"
    return str(coefficient) if power == 0 else f"{coefficient}*pi^{power}"


def _parse_pi(text: str) -> tuple[Fraction, int]:
    coeff, _, power = text.partition("*pi^")
    return Fraction(coeff), int(power or 0)


# -- workloads ----------------------------------------------------------------

class Workload:
    """One seeded workload: passes of items, a runner and a checker.

    ``expected_layers`` are the layers whose traced call count must not be
    zero; ``cli_args`` is the representative CLI command.  Latency
    percentiles come from the first ``latency_passes`` passes of a run, so the
    sample count, and with it the tail percentile, is the same on every run;
    each workload's count leaves at least 20 samples below the tail.
    """

    name = ""
    passes_in_cycle = 1
    latency_passes = 3
    expected_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, reference: dict | None, root):
        self.root = root
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.passes = [self.make_pass(rng) for _ in range(self.passes_in_cycle)]
        self.reference = reference if seed == DEFAULT_SEED else None

    def make_pass(self, rng: random.Random) -> list:
        raise NotImplementedError

    def start_pass(self, stats: MemoStats):
        """Fresh per-pass state handed to every item of the pass."""
        return stats

    def run(self, item, state):
        raise NotImplementedError

    def check(self, pass_index: int, item_index: int, item, result) -> str | None:
        """None when the result is exactly right, else a message."""
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Extra checks once per run (shuffled copies, reordering)."""
        return []

    def cli_args(self, scratch_dir) -> list[str]:
        raise NotImplementedError

    def cli_expected(self, stdout: str) -> str | None:
        """None when the CLI's stdout equals the in-process value."""
        want = self.cli_want
        if stdout == want:
            return None
        return f"stdout {stdout[:200]!r} != in-process {want[:200]!r}"

    @functools.cached_property
    def cli_want(self) -> str:
        """The CLI command's expected output, computed in-process."""
        raise NotImplementedError

    def inprocess_query(self):
        """A call doing the library work behind the CLI command, for
        cli.overhead_s; any preparation happens before it is returned."""
        raise NotImplementedError


class AnCold(Workload):
    """n = 9 vectors, two per level 3..7, each with a fresh memo."""

    name = "an-cold"
    passes_in_cycle = 8
    n = 9
    # d = 2 is absent: nine odd orders cannot sum to -4.  Levels above 7 are
    # absent: one such vector takes 2-8 s and its cost varies 2x with the
    # seed, so a run would hold too few of them to be steady.
    levels = (3, 3, 4, 4, 5, 5, 6, 6, 7, 7)
    expected_layers = ("core", "partitions", "recursion", "cli")

    def make_pass(self, rng):
        # repeated weights share memo entries, so the number of distinct
        # weights drives the cost of a vector (71 to 216 memo entries at
        # d = 6 for 4 to 8 distinct weights); fixing it per level keeps the
        # seeds comparable
        return [level_vector(rng, self.n, d, distinct=min(6, d + 1))
                for d in self.levels]

    def run(self, mu, stats):
        memo = stats.new()
        return recursion.a_n(mu, memo), recursion.j_n(mu, memo)

    def check(self, p, i, mu, result):
        a, j = result
        if j.denominator != 1:
            return f"j_n = {j} is not an integer"
        if j != Fraction(_minimal_denominator(mu)) ** (len(mu) - 3) * a:
            return f"j_n = {j} is not e^(n-3) * a_n"
        if self.reference is not None:
            want = self.reference[self.name][p][i]
            if [str(a), str(j)] != want:
                return f"a_n, j_n = {a}, {j}; the reference has {want}"
        return None

    def check_run(self):
        problems = []
        rng = random.Random(f"shuffle:{self.seed}")
        for mu in self.passes[0][:2]:
            shuffled = list(mu)
            rng.shuffle(shuffled)
            if recursion.a_n(tuple(shuffled), {}) != recursion.a_n(mu, {}):
                problems.append(f"a_n changes under reordering of {weights_text(mu)}")
        return problems

    def cli_args(self, scratch_dir):
        return ["an", "--weights", weights_text(self.passes[0][0])]

    @functools.cached_property
    def cli_want(self):
        mu = self.passes[0][0]
        a, j = self.run(mu, MemoStats())
        return f"A = {a}\nJ = {j}\ne = {_minimal_denominator(mu)}\n"

    def inprocess_query(self):
        return lambda: self.run(self.passes[0][0], MemoStats())


class AnShared(Workload):
    """100 vectors at n = 6 and 7, levels {2,3,4,6}, sharing one memo."""

    name = "an-shared"
    passes_in_cycle = 8
    latency_passes = 8
    batch = 100
    # d = 2 needs even n (odd orders summing to -4)
    levels = {6: (2, 3, 4, 6), 7: (3, 4, 6)}
    expected_layers = ("core", "partitions", "recursion", "cli")

    def make_pass(self, rng):
        out = []
        for i in range(self.batch):
            n = 6 + i % 2
            levels = self.levels[n]
            out.append(level_vector(rng, n, levels[(i // 2) % len(levels)]))
        return out

    def start_pass(self, stats):
        return stats.new()

    def run(self, mu, memo):
        return (recursion.a_n(mu, memo), recursion.j_n(mu, memo),
                recursion.vol1(mu, memo))

    def check(self, p, i, mu, result):
        a, j, vol = result
        n = len(mu)
        if j.denominator != 1:
            return f"j_n = {j} is not an integer"
        if j != Fraction(_minimal_denominator(mu)) ** (n - 3) * a:
            return f"j_n = {j} is not e^(n-3) * a_n"
        coeff = Fraction((-1) ** (n - 3), math.factorial(n - 2)) * a
        if str(vol) != _pi_text(coeff, n - 2):
            return f"vol1 = {vol} does not match a_n = {a}"
        if self.reference is not None:
            want = self.reference[self.name][p][i]
            if [str(a), str(j), str(vol)] != want:
                return f"values {a}, {j}, {vol}; the reference has {want}"
        return None

    def check_run(self):
        rng = random.Random(f"shuffle:{self.seed}")
        fresh, shared = {}, {}
        problems = []
        for mu in self.passes[0][:10]:
            shuffled = list(mu)
            rng.shuffle(shuffled)
            if recursion.a_n(tuple(shuffled), fresh) != recursion.a_n(mu, shared):
                problems.append(f"a_n changes under reordering of {weights_text(mu)}")
        return problems

    def cli_args(self, scratch_dir):
        memo = {}
        for mu in self.passes[0]:
            self.run(mu, memo)
        path = (scratch_dir / "an-shared-cache.json").relative_to(self.root)
        entries = {weights_text(key): str(value) for key, value in memo.items()}
        (self.root / path).write_text(
            json.dumps({"version": 1, "entries": entries}), encoding="utf-8")
        return ["volume", "--weights", weights_text(self.passes[0][0]),
                "--cache", str(path)]

    @functools.cached_property
    def cli_want(self):
        return f"vol1 = {recursion.vol1(self.passes[0][0], {})}\n"

    def inprocess_query(self):
        # the CLI answers from the pre-filled cache, as this does
        memo = {}
        for mu in self.passes[0]:
            recursion.a_n(mu, memo)
        return lambda: recursion.vol1(self.passes[0][0], memo)


class TablesCharts(Workload):
    """Both golden tables recomputed and diffed, plus seeded single-polygon
    signatures at n = 6..8 and levels {3,4,6}."""

    name = "tables-charts"
    passes_in_cycle = 8
    expected_layers = ("core", "recursion", "flat_charts", "tables", "cli")
    # the three cells of README "Known reference discrepancies", with the
    # adjudicated values the computation must produce instead
    ADJUDICATED = {
        (6, (3, 3, 2, 2, 2), "mv"): "2/729*pi^3",
        (6, (4, 4, 4, 3, -3), "ratio"): "-16/27",
        (6, (4, 4, 4, 3, -3), "mv"): "1/243*pi^3",
    }

    def __init__(self, seed, reference, root):
        data = root / "src" / "flatsphere" / "data" / "reference_tables.json"
        with open(data, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        super().__init__(seed, reference, root)
        self.mismatched_cells: set = set()
        self._check_memo: dict = {}

    def make_pass(self, rng):
        items = [("row", 4, i) for i in range(len(self.golden["table_n4"]))]
        items += [("row", 5, i) for i in range(len(self.golden["table_n5"]))]
        for n in (6, 7, 8):
            for d in (3, 4, 6):
                for _ in range(2):
                    items.append(("chart", d, chart_signature(rng, n, d)))
        return items

    def start_pass(self, stats):
        rows = {4: tables.expected_rows(4), 5: tables.expected_rows(5)}
        return rows, stats.new()

    def run(self, item, state):
        rows, memo = state
        kind, a, b = item
        if kind == "row":
            return tables.compute_row(rows[a][b], memo)
        kappa = flatsphere.Signature(b, a)
        return (flat_charts.mv_ratio(kappa),
                flat_charts.mv_table_entry(kappa, memo))

    def check(self, p, i, item, result):
        kind, a, b = item
        if kind == "chart":
            ratio, entry = result
            coeff, power = _parse_pi(str(entry))
            want_coeff = (Fraction((-1) ** (len(b) - 3), math.factorial(len(b) - 2))
                          * recursion.a_n(tuple(Fraction(-k, a) for k in b),
                                          self._check_memo)
                          * ratio / a)
            if (coeff, power) != (want_coeff, len(b) - 2):
                return f"mv entry {entry} != a_n * ratio rule"
            if self.reference is not None:
                want = self.reference[self.name][p][i - self._rows]
                if [str(ratio), str(entry)] != want:
                    return f"ratio, mv = {ratio}, {entry}; the reference has {want}"
            return None
        entry = self.golden[f"table_n{a}"][b]
        label = tuple(entry["label"])
        cells = {"col3": (result.col3, entry["col3"]),
                 "ratio": (result.ratio, entry["ratio"]),
                 "mv": (result.mv, entry["mv"])}
        for column, (computed, printed) in cells.items():
            if computed is None:
                if column == "col3":
                    return "col3 missing"
                continue
            adjudicated = self.ADJUDICATED.get((entry["d"], label, column))
            if column == "mv":
                same = _parse_pi(str(computed)) == _parse_pi(printed)
            else:
                same = computed == Fraction(printed)
            if not same:
                self.mismatched_cells.add((a, b, column))
                if adjudicated is None:
                    return f"{column} {computed} != reference {printed}"
            if adjudicated is not None and str(computed) != adjudicated:
                return f"{column} {computed} != adjudicated {adjudicated}"
        return None

    @property
    def _rows(self) -> int:
        return len(self.golden["table_n4"]) + len(self.golden["table_n5"])

    def check_run(self):
        rng = random.Random(f"shuffle:{self.seed}")
        problems = []
        for _, d, orders in self.passes[0][self._rows:self._rows + 3]:
            shuffled = list(orders)
            rng.shuffle(shuffled)
            if (flat_charts.mv_ratio(flatsphere.Signature(tuple(shuffled), d))
                    != flat_charts.mv_ratio(flatsphere.Signature(orders, d))):
                problems.append(f"mv_ratio changes under reordering of {orders}:{d}")
        return problems

    def cli_args(self, scratch_dir):
        return ["table", "--n", "5", "--csv"]

    @functools.cached_property
    def cli_want(self):
        rows, memo = self.start_pass(MemoStats())
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["d", "kappa", "col3", "ratio", "mv_volume"])
        for row in rows[5]:
            computed = tables.compute_row(row, memo)
            writer.writerow([row.d, row.label_text(), str(computed.col3),
                             "unsupported" if computed.ratio is None else str(computed.ratio),
                             "unsupported" if computed.mv is None else str(computed.mv)])
        return buffer.getvalue()

    def inprocess_query(self):
        return lambda: tables.table_csv(5, {})


class Symbolic(Workload):
    """Polynomial pieces at n = 6 and 7 and f_nab trials at n = 7 and 8."""

    name = "symbolic"
    passes_in_cycle = 6
    expected_layers = ("core", "piecewise", "closed_forms", "cli")
    shifts = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))
    # Each light pair (weights summing to less than 1) adds a recursive term
    # to a piece, so their number drives its cost (2.3 s at 11 light pairs
    # to 4.3 s at 18, n = 7).  Samples keep the most common count of seeded
    # draws, so the seeds stay comparable.
    light_pairs = {6: 9, 7: 15}

    def make_pass(self, rng):
        items = [("piece", generic_sample(rng, n, self.light_pairs[n]))
                 for n in (6, 6, 6, 7, 7)]
        # six trials at n = 7 and eighteen at n = 8, so the median latency
        # falls inside the n = 8 trials rather than at the edge between them
        for t in range(24):
            n = 7 if t % 4 == 0 else 8
            a, b = rng.choice(self.shifts), rng.choice(self.shifts)
            if t % 2 == 0:
                xs = [Fraction(rng.randint(-100, 100), rng.randint(1, 100))
                      for _ in range(n)]
                ys = [Fraction(rng.randint(-100, 100), rng.randint(1, 100))
                      for _ in range(n - 1)]
                ys.append(sum(xs) - sum(ys))
                items.append(("f_nab", n, a, b, tuple(xs), tuple(ys)))
            else:
                items.append(("sum_dependence", n, a, b, rng.randrange(1 << 30)))
        return items

    def run(self, item, state):
        kind = item[0]
        if kind == "piece":
            return piecewise.an_polynomial(piecewise.SignDomain(item[1]))
        if kind == "f_nab":
            _, n, a, b, xs, ys = item
            return closed_forms.f_nab(n, a, b, xs), closed_forms.f_nab(n, a, b, ys)
        _, n, a, b, seed = item
        return closed_forms.sum_dependence_check(n, a, b, 1, seed=seed)

    def check(self, p, i, item, result):
        kind = item[0]
        if kind == "piece":
            sample = item[1]
            value, want = result.evaluate(sample), recursion.a_n(sample, {})
            if value != want:
                return f"piece at {weights_text(sample)} gives {value}, a_n {want}"
            return None
        if kind == "f_nab":
            left, right = result
            return None if left == right else f"f_nab sides differ: {left} != {right}"
        return None if result is True else "sum_dependence_check returned False"

    def cli_args(self, scratch_dir):
        return ["piecewise", "--sample", weights_text(self.passes[0][0][1])]

    def cli_expected(self, stdout):
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return None if got == self.cli_want else "piecewise JSON differs from an_polynomial"

    @functools.cached_property
    def cli_want(self):
        sample = self.passes[0][0][1]
        domain = piecewise.SignDomain(sample)
        poly = piecewise.an_polynomial(domain)
        return {
            "n": len(sample),
            "sample": [str(x) for x in sample],
            "signs": domain.signs_json(),
            "degree": poly.total_degree(),
            "value_at_sample": str(recursion.a_n(sample, {})),
            "terms": poly.to_json(),
        }

    def inprocess_query(self):
        sample = self.passes[0][0][1]
        return lambda: json.dumps(
            piecewise.an_polynomial(piecewise.SignDomain(sample)).to_json())


WORKLOADS = {cls.name: cls for cls in (AnCold, AnShared, TablesCharts, Symbolic)}


def reference_values(workload: Workload) -> list[list[list[str]]]:
    """Per pass and item, the values the default-seed reference stores."""
    out = []
    for items in workload.passes:
        stats = MemoStats()
        state = workload.start_pass(stats)
        row = []
        for item in items:
            result = workload.run(item, state)
            if workload.name == "tables-charts":
                if item[0] == "chart":
                    row.append([str(result[0]), str(result[1])])
            else:
                row.append([str(x) for x in result])
        out.append(row)
    return out

