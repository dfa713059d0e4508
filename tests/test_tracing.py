"""The benchmark's tracer must resolve every target it patches.

``perfbench/tracing.py`` patches public functions by name; renaming or
deleting one of them would make ``perfbench/run.py --trace 1`` fail, so the
target list is checked here against the package.
"""
import importlib
from fractions import Fraction

import flatsphere.recursion
from flatsphere import closed_forms, flat_charts, piecewise, tables
from flatsphere.core import Signature

from util import load_perfbench


def _resolve(module_name, path):
    owner = importlib.import_module(f"flatsphere.{module_name}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_install_resolves_every_target_and_uninstall_restores():
    tracing = load_perfbench("tracing")
    original_a_n = flatsphere.recursion.a_n
    tracer = tracing.Tracer()
    try:
        tracer.install()
        originals = {}
        for module_name, path, metric, _ in tracing.TARGETS:
            patched = _resolve(module_name, path)
            assert hasattr(patched, "__wrapped__"), f"{metric}: {path} not patched"
            originals[module_name, path] = patched.__wrapped__
        assert flatsphere.recursion.a_n is not original_a_n
    finally:
        tracer.uninstall()
    assert flatsphere.recursion.a_n is original_a_n
    for (module_name, path), original in originals.items():
        assert _resolve(module_name, path) is original, path


def test_symbolic_layers_record_calls():
    # `--trace 1` on the symbolic workload fails when the piecewise or the
    # closed_forms layer records no call; one piece and one f_nab call must
    # reach both, wherever their internals recurse
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    sample = [Fraction(a, 11) for a in (10, 4, 2, 2, 2, 2)]
    try:
        tracer.install()
        piecewise.an_polynomial(piecewise.SignDomain(sample))
        closed_forms.f_nab(5, Fraction(1), Fraction(2), [Fraction(k, 3) for k in range(5)])
    finally:
        tracer.uninstall()
    # the piece maps sub-pieces by renaming, not through
    # MultiPoly.substitute_linear
    for metric in ("piecewise.an_polynomial", "piecewise.sign_domain",
                   "piecewise.multipoly_mul", "closed_forms.f_nab"):
        assert tracer.counts[metric] > 0, metric


def test_chart_layers_record_calls():
    # `--trace 1` on tables-charts fails when an expected layer records no
    # call; one golden row and one chart entry must reach every layer but
    # cli, however little of the chart path the tracer still wraps
    tracing = load_perfbench("tracing")
    expected = load_perfbench("workloads").TablesCharts.expected_layers
    layers = {"core", "recursion", "flat_charts", "tables"}
    assert layers == set(expected) - {"cli"}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tables.compute_row(tables.expected_rows(5)[0], {})
        flat_charts.mv_table_entry(Signature((-5, -5, -4, -3, -2, -2, 9), 6), {})
    finally:
        tracer.uninstall()
    recorded = {metric.split(".")[0] for metric, count in tracer.counts.items()
                if count}
    assert layers <= recorded, layers - recorded


def test_five_point_row_records_each_row_layer_once():
    # `--trace 1` on tables-charts needs the row path to pass through these
    # spans; one five-point single-polygon row with a fresh memo records
    # each exactly once
    tracing = load_perfbench("tracing")
    row = next(row for row in tables.expected_rows(5)
               if flat_charts.is_single_polygon(row.signature()))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        computed = tables.compute_row(row, {})
    finally:
        tracer.uninstall()
    assert computed.mv is not None
    for metric in ("tables.rows", "core.weights_from_signature", "recursion.a_n",
                   "flat_charts.mv_ratio"):
        assert tracer.counts[metric] == 1, metric


def test_a_n_records_every_boundary_family():
    # `--trace 1` counts records per family by wrapping the enumerators
    # under their module names; a_n must call them through those names
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    mu = [Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3), Fraction(5, 6),
          Fraction(-1, 6), Fraction(-1, 6), Fraction(5, 6)]
    try:
        tracer.install()
        flatsphere.recursion.a_n(mu, {})
    finally:
        tracer.uninstall()
    top_level = {"T1a": 14, "T1b": 3, "T2a": 2, "T2b": 6}
    for family, count in top_level.items():
        assert tracer.counts[f"partitions.enum_{family}"] > 0, family
        assert tracer.counts[f"partitions.records.{family}"] >= count, family


def test_an_layers_record_calls():
    # `--trace 1` on an-cold and an-shared fails when an expected layer
    # records no call; one a_n call at n = 7 must reach every one but cli,
    # however the recursion walks its children
    tracing = load_perfbench("tracing")
    workloads = load_perfbench("workloads")
    layers = {"core", "partitions", "recursion"}
    for workload in (workloads.AnCold, workloads.AnShared):
        assert layers == set(workload.expected_layers) - {"cli"}
    tracer = tracing.Tracer()
    mu = [Fraction(a, 6) for a in (5, 5, 5, 3, 1, -2, -5)]
    try:
        tracer.install()
        flatsphere.recursion.a_n(mu, {})
    finally:
        tracer.uninstall()
    recorded = {metric.split(".")[0] for metric, count in tracer.counts.items()
                if count}
    assert layers <= recorded, layers - recorded
