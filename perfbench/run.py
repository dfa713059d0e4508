"""Seeded end-to-end and per-layer benchmark of flatsphere.

    python3 perfbench/run.py --workload an-cold --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it reports the per-layer metrics from a traced run.  Human
readable lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, items and
the layer-to-metric mapping are described in ``perfbench/metrics.json``.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

LAUNCH_ROUNDS = 10
INPROCESS_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120
GAUGE_REFERENCE_S = 0.004
GAUGE_SPACING_S = 0.2

SETUP_CODE = ("import flatsphere, flatsphere.cli\n"
              "from flatsphere import tables\n"
              "tables.expected_rows(4)\n"
              "tables.expected_rows(5)\n")
CLI_CODE = "import sys\nfrom flatsphere.cli import main\nsys.exit(main())\n"

LAYERS = ("core", "partitions", "recursion", "flat_charts", "tables",
          "piecewise", "closed_forms", "cli")


def import_flatsphere():
    """Import flatsphere from this checkout's src/, or exit with an error."""
    if not (SRC / "flatsphere" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'flatsphere'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import flatsphere
    if Path(flatsphere.__file__).resolve().parent != SRC / "flatsphere":
        sys.exit(f"error: imported flatsphere from {flatsphere.__file__}")
    return flatsphere


def _gauge_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 13 - 6, i % 97 + 1)
    return total


class Gauge:
    """Machine-speed gauge.

    On a shared machine the same pass can take 1.8x as long from one minute
    to the next, which repeating work does not average out.  The gauge times
    a fixed pure-Python Fraction loop that does not touch flatsphere, every
    GAUGE_SPACING_S between items; its factor is that time over
    GAUGE_REFERENCE_S.  Every time the benchmark reports is the measured time
    divided by the factor of the samples around it: the time at the
    reference speed.  The raw times are printed as notes.
    """

    def __init__(self):
        self.at: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _gauge_loop()
        ended = time.perf_counter()
        self.at.append(ended)
        self.factors.append((ended - started) / GAUGE_REFERENCE_S)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= GAUGE_SPACING_S

    def factor(self, start: float, end: float) -> float:
        """Median factor of the samples within GAUGE_SPACING_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - GAUGE_SPACING_S)
        hi = bisect.bisect_right(self.at, end + GAUGE_SPACING_S)
        near = self.factors[lo:hi] or [self.factors[min(lo, len(self.factors) - 1)]]
        return statistics.median(near)

    def timed(self, call) -> tuple[float, float, object]:
        """Run call between two samples: its raw and normalised times."""
        self.sample()
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        self.sample()
        raw = ended - started
        return raw, raw / self.factor(started, ended), result


def pin_to_one_cpu() -> None:
    """Keep this process and the interpreters it launches on one CPU, the one
    the gauge measures: on a shared machine two CPUs can run at different
    speeds at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(code: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


class Launches:
    """Fresh-interpreter launches: set-up alternating with the workload's CLI
    command, each CLI stdout checked.  A run makes them in two halves, before
    and after the timed window, so the medians span the run."""

    def __init__(self, workload, gauge: Gauge):
        OUT_DIR.mkdir(exist_ok=True)
        self.workload = workload
        self.gauge = gauge
        self.args = workload.cli_args(OUT_DIR)
        self.setup: list[tuple[float, float]] = []
        self.cli: list[tuple[float, float]] = []
        self.problems: list[str] = []

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            raw, norm, proc = self.gauge.timed(lambda: _launch(SETUP_CODE, []))
            if proc.returncode:
                raise RuntimeError(f"set-up launch failed: {proc.stderr}")
            self.setup.append((raw, norm))
            raw, norm, proc = self.gauge.timed(lambda: _launch(CLI_CODE, self.args))
            self.cli.append((raw, norm))
            problem = (f"exit {proc.returncode}: {proc.stderr.strip()}"
                       if proc.returncode else self.workload.cli_expected(proc.stdout))
            if problem:
                self.problems.append(f"cli {self.args[0]}: {problem}")

    def medians(self) -> tuple[float, float]:
        """Normalised setup_s and cli_s."""
        return (statistics.median(norm for _, norm in self.setup),
                statistics.median(norm for _, norm in self.cli))

    def note(self) -> str:
        return (f"setup_s and cli_s are medians of {len(self.setup)} launches each"
                f" (raw {statistics.median(raw for raw, _ in self.setup):.4f} s and "
                f"{statistics.median(raw for raw, _ in self.cli):.4f} s); the command "
                f"is: flatsphere {' '.join(self.args)}")


@dataclass
class Pass:
    """One pass: when it started, its set-up time and each item's bounds."""

    index: int
    started: float
    prep_s: float
    stats: object
    items: list[tuple[float, float]] = field(default_factory=list)
    results: list = field(default_factory=list)

    def raw_s(self) -> float:
        return self.prep_s + sum(end - start for start, end in self.items)

    def normalised(self, gauge: Gauge) -> tuple[float, list[float]]:
        """Pass time and item latencies at the reference speed."""
        latencies = [(end - start) / gauge.factor(start, end)
                     for start, end in self.items]
        prep = self.prep_s / gauge.factor(self.started, self.started + self.prep_s)
        return prep + sum(latencies), latencies


def run_pass(workload, index: int, gauge: Gauge, tracer=None) -> Pass:
    """One pass over the workload's batch, sampling the gauge between items;
    in a traced pass each sample is a span of its own ("gauge.sample"), so
    its time counts in no layer."""
    from workloads import MemoStats

    gauge.sample()
    stats = MemoStats()
    started = time.perf_counter()
    root = tracer.open("bench.pass") if tracer else None
    state = workload.start_pass(stats)
    run = Pass(index, started, time.perf_counter() - started, stats)
    for number, item in enumerate(workload.passes[index]):
        if gauge.due():
            mark = tracer.open("gauge.sample") if tracer else None
            gauge.sample()
            if tracer:
                tracer.close(mark)
        if tracer:
            tracer.item_id = number
            span = tracer.open("bench.item")
        t0 = time.perf_counter()
        try:
            result = workload.run(item, state)
        except Exception as exc:  # counted as a failed item, never hidden
            result = exc
        run.items.append((t0, time.perf_counter()))
        if tracer:
            tracer.close(span)
        run.results.append(result)
    if tracer:
        tracer.close(root)
        tracer.item_id = -1
    gauge.sample()
    return run


def verify(workload, passes: list[Pass]) -> tuple[int, list[str]]:
    """Check every executed item; returns failed executions and messages.

    The first result of each distinct item is checked exactly; a repeat must
    equal it.
    """
    seen: dict[tuple[int, int], object] = {}
    failed, problems = 0, []
    verdicts: dict[tuple[int, int], str | None] = {}
    for run in passes:
        for number, result in enumerate(run.results):
            key = (run.index, number)
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            elif key in seen:
                problem = (verdicts[key] if seen[key] == result
                           else "differs from an earlier pass over the same item")
            else:
                seen[key] = result
                try:
                    problem = workload.check(run.index, number,
                                             workload.passes[run.index][number], result)
                except Exception as exc:  # a check that cannot run is a failure
                    problem = f"check raised {type(exc).__name__}: {exc}"
                verdicts[key] = problem
            if problem:
                failed += 1
                problems.append(f"pass {run.index} item {number}: {problem}")
    return failed, problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value: the sample at sorted index N - 11."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _tally(items: int, failed_items: int, run_problems, launches) -> dict:
    """Attempted and failed over items, CLI launches and the once-per-run
    checks taken together."""
    return {"attempted": items + len(launches.cli) + 1,
            "failed": failed_items + len(launches.problems) + bool(run_problems)}


def measure_end_to_end(workload, seconds: int) -> dict:
    gauge = Gauge()
    launches = Launches(workload, gauge)
    launches.run(LAUNCH_ROUNDS // 2)
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes) % len(workload.passes), gauge))
        if (len(passes) >= workload.latency_passes
                and time.perf_counter() - started >= seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_started = time.perf_counter()
    failed, problems = verify(workload, passes)
    run_problems = workload.check_run()
    checks_s = time.perf_counter() - checks_started
    launches.run(LAUNCH_ROUNDS - LAUNCH_ROUNDS // 2)
    problems += run_problems + launches.problems

    timed = [run.normalised(gauge) for run in passes]
    window = sum(pass_s for pass_s, _ in timed)
    sample = [lat for _, lats in timed[:workload.latency_passes] for lat in lats]
    attempted = sum(len(run.items) for run in passes)
    raw_window = sum(run.raw_s() for run in passes)
    percentile, tail_s = tail(sample)
    setup_s, cli_s = launches.medians()
    metrics = {
        "items_per_s": (attempted / window, "1/s"),
        "latency_p50_ms": (statistics.median(sample) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "wall_s": (statistics.median(pass_s for pass_s, _ in timed), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "cli_s": (cli_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"{attempted} items in {len(passes)} passes; {raw_window:.2f} s raw, "
        f"{window:.2f} s at the reference speed (median gauge factor "
        f"{statistics.median(gauge.factors):.3f} over {len(gauge.factors)} samples)",
        f"raw items_per_s {attempted / raw_window:.4f}, raw wall_s "
        f"{statistics.median(run.raw_s() for run in passes):.4f}",
        f"latency_p50_ms and latency_tail_ms (p{percentile:.1f}) over the "
        f"{len(sample)} items of the first {workload.latency_passes} passes",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} items); "
        f"the checks took {checks_s:.2f} s after the window",
        launches.note(),
    ]
    return {"metrics": metrics, "notes": notes, "problems": problems,
            **_tally(attempted, failed, run_problems, launches)}


def _cli_inprocess(workload, tracer) -> dict[str, float]:
    """Self times of one traced in-process CLI invocation."""
    from flatsphere import cli

    args = workload.cli_args(OUT_DIR)
    tracer.take()
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        cli.main.main(args=args, standalone_mode=False)
    problem = workload.cli_expected(captured.getvalue())
    if problem:
        raise RuntimeError(f"in-process cli: {problem}")
    return tracer.self_times()


def measure_layers(workload, seconds: int) -> dict:
    from tracing import Tracer, write_spans

    gauge = Gauge()
    tracer = Tracer()
    plain_times, traced_times, self_runs, passes = [], [], [], []
    counts = memo = spans = None
    started = time.perf_counter()
    while True:
        run = run_pass(workload, 0, gauge)
        plain_times.append(run.normalised(gauge)[0])
        passes.append(run)
        tracer.install()
        try:
            run = run_pass(workload, 0, gauge, tracer)
        finally:
            tracer.uninstall()
        passes.append(run)
        factor = gauge.factor(run.started, run.items[-1][1])
        traced_times.append(run.normalised(gauge)[0])
        self_runs.append({name: value / factor
                          for name, value in tracer.self_times().items()})
        if counts is None:
            counts, memo = dict(tracer.counts), run.stats.totals()
            spans = tracer.take()
        elif dict(tracer.counts) != counts:
            raise RuntimeError("counts differ between traced passes over the "
                               "same items")
        tracer.take()
        if time.perf_counter() - started >= seconds:
            break

    failed, problems = verify(workload, passes)
    run_problems = workload.check_run()
    problems += run_problems
    tracer.install()
    try:
        _, _, cli_self = gauge.timed(lambda: _cli_inprocess(workload, tracer))
        cli_factor = gauge.factor(gauge.at[-2], gauge.at[-1])
        cli_spans = tracer.take()
    finally:
        tracer.uninstall()

    launches = Launches(workload, gauge)
    launches.run(LAUNCH_ROUNDS)
    problems += launches.problems
    setup_s, cli_s = launches.medians()
    query = workload.inprocess_query()
    inprocess = statistics.median(gauge.timed(query)[1]
                                  for _ in range(INPROCESS_REPEATS))

    wall = statistics.median(traced_times)
    self_s = {name: statistics.median(run.get(name, 0.0) for run in self_runs)
              for name in set().union(*self_runs)}

    def layer_self(layer: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in counts.items()
                   if k.startswith(layer + ".") and ".records." not in k)

    def count(name: str) -> tuple[int, str]:
        return counts.get(name, 0), "count"

    def self_of(name: str) -> tuple[float, str]:
        return self_s.get(name, 0.0), "s"

    lookups = memo["hits"] + memo["misses"]
    metrics = {
        "partitions.calls": (layer_calls("partitions"), "count"),
        "partitions.records.T1a": count("partitions.records.T1a"),
        "partitions.records.T1b": count("partitions.records.T1b"),
        "partitions.records.T2a": count("partitions.records.T2a"),
        "partitions.records.T2b": count("partitions.records.T2b"),
        "core.weight_vectors": count("core.weight_vectors"),
        "core.canonicalize.calls": count("core.canonicalize"),
        "recursion.a_n.nodes": count("recursion.a_n"),
        "recursion.memo.hits": (memo["hits"], "count"),
        "recursion.memo.misses": (memo["misses"], "count"),
        "recursion.memo.entries": (memo["entries"], "count"),
        "recursion.memo.hit_ratio": (memo["hits"] / lookups if lookups else 0.0,
                                     "ratio"),
        "flat_charts.mv_ratio.calls": count("flat_charts.mv_ratio"),
        "flat_charts.cyclo_mul": count("flat_charts.cyclo_mul"),
        "flat_charts.cyclo_inverse": count("flat_charts.cyclo_inverse"),
        "flat_charts.area_form.self_s": self_of("flat_charts.area_form"),
        "flat_charts.det.self_s": self_of("flat_charts.det"),
        "flat_charts.lattice_index.self_s": self_of("flat_charts.lattice_index"),
        "tables.rows": count("tables.rows"),
        "tables.known_mismatch_cells": (
            len(getattr(workload, "mismatched_cells", ())), "count"),
        "piecewise.an_polynomial.calls": count("piecewise.an_polynomial"),
        "piecewise.multipoly_mul": count("piecewise.multipoly_mul"),
        "piecewise.substitute_linear.self_s": self_of("piecewise.substitute_linear"),
        "piecewise.sign_domain.self_s": self_of("piecewise.sign_domain"),
        "closed_forms.f_nab.calls": count("closed_forms.f_nab"),
        "closed_forms.rising_product.calls": count("closed_forms.rising_product"),
        "closed_forms.f_nab.self_s": self_of("closed_forms.f_nab"),
        "cli.self_s": (sum((v for k, v in cli_self.items() if k.startswith("cli.")),
                           0.0) / cli_factor, "s"),
        "cli.overhead_s": (cli_s - setup_s - inprocess, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / statistics.median(plain_times) - 1, "ratio"),
    }
    for layer in LAYERS[:-1] + ("bench",):
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
        metrics[f"{layer}.share"] = (layer_self(layer) / wall, "ratio")

    missing = [layer for layer in workload.expected_layers
               if layer != "cli" and layer_calls(layer) == 0]
    if not any(k.startswith("cli.") for k in cli_self):
        missing.append("cli")
    if missing:
        raise RuntimeError(f"traced run recorded no calls in layer(s) "
                           f"{', '.join(missing)} on {workload.name}")

    trace_path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.tsv.gz"
    write_spans(trace_path, [spans, cli_spans])
    notes = [
        f"{len(traced_times)} traced and {len(plain_times)} untraced passes over "
        f"pass 0 ({len(workload.passes[0])} items); counts are per pass; times "
        f"are at the reference speed",
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    attempted = sum(len(run.results) for run in passes)
    return {"metrics": metrics, "notes": notes, "problems": problems,
            **_tally(attempted, failed, run_problems, launches)}


def _format(value) -> float | int:
    return value if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("an-cold", "an-shared", "tables-charts", "symbolic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_flatsphere()
    pin_to_one_cpu()
    from workloads import DEFAULT_SEED, WORKLOADS

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, reference, ROOT)
    if args.trace:
        report = measure_layers(workload, args.seconds)
    else:
        report = measure_end_to_end(workload, args.seconds)

    for name, (value, unit) in report["metrics"].items():
        print(f"{workload.name}  {name:<36} {_format(value):>14.6g} {unit}")
    for note in report["notes"]:
        print(f"{workload.name}  note: {note}")
    for problem in report["problems"]:
        print(f"{workload.name}  FAIL: {problem}", file=sys.stderr)
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": _format(value), "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
