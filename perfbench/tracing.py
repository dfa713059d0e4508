"""Outside-in tracing of flatsphere's public functions.

The tracer replaces each listed function or method with a wrapper at every
name it is bound under in the loaded ``flatsphere`` modules (for example
``enum_T1a`` is bound in ``partitions``, ``recursion`` and the package, and
``a_n`` recurses through its module global), so every call is seen.  Library
files are never edited; ``uninstall`` puts the originals back.

A span wrapper records name, start, end, parent span and the current item
id into flat arrays kept in memory; a count wrapper only bumps a counter.
Self time of a span is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

# (module, attribute path, metric name, kind).  kind "span" records a span
# and counts calls under the metric name; "count" only counts calls.  A span
# name's layer is the text before the first dot.
TARGETS = [
    ("core", "canonicalize", "core.canonicalize", "span"),
    ("core", "minimal_denominator", "core.minimal_denominator", "span"),
    ("core", "weights_from_signature", "core.weights_from_signature", "span"),
    ("core", "parse_rational", "core.parse_rational", "span"),
    ("core", "parse_weights", "core.parse_weights", "span"),
    ("core", "parse_signature", "core.parse_signature", "span"),
    ("core", "WeightVector.__post_init__", "core.weight_vectors", "span"),
    ("partitions", "enum_T1a", "partitions.enum_T1a", "span"),
    ("partitions", "enum_T1b", "partitions.enum_T1b", "span"),
    ("partitions", "enum_T2a", "partitions.enum_T2a", "span"),
    ("partitions", "enum_T2b", "partitions.enum_T2b", "span"),
    ("partitions", "enum_all", "partitions.enum_all", "span"),
    ("partitions", "enum_P", "partitions.enum_P", "span"),
    ("partitions", "enum_P0", "partitions.enum_P0", "span"),
    ("recursion", "a_n", "recursion.a_n", "span"),
    ("recursion", "j_n", "recursion.j_n", "span"),
    ("recursion", "vol1", "recursion.vol1", "span"),
    ("recursion", "a4_closed", "recursion.a4_closed", "span"),
    ("recursion", "recursive_rhs_dform", "recursion.recursive_rhs_dform", "span"),
    ("recursion", "quad_V", "recursion.quad_V", "span"),
    ("recursion", "quad_V_closed", "recursion.quad_V_closed", "span"),
    ("recursion", "quad_V_recursive", "recursion.quad_V_recursive", "span"),
    ("recursion", "a5_direct", "recursion.a5_direct", "span"),
    ("recursion", "mv_quadratic_aez", "recursion.mv_quadratic_aez", "span"),
    ("flat_charts", "mv_ratio", "flat_charts.mv_ratio", "span"),
    ("flat_charts", "mv_table_entry", "flat_charts.mv_table_entry", "span"),
    ("flat_charts", "area_form", "flat_charts.area_form", "span"),
    ("flat_charts", "lattice_index", "flat_charts.lattice_index", "span"),
    ("flat_charts", "chart_constraint", "flat_charts.chart_constraint", "span"),
    ("flat_charts", "is_single_polygon", "flat_charts.is_single_polygon", "span"),
    ("flat_charts", "quadint_gcd", "flat_charts.quadint_gcd", "span"),
    ("flat_charts", "HermitianForm.det", "flat_charts.det", "span"),
    ("flat_charts", "Cyclo24.__mul__", "flat_charts.cyclo_mul", "count"),
    ("flat_charts", "Cyclo24.inverse", "flat_charts.cyclo_inverse", "count"),
    ("tables", "expected_rows", "tables.expected_rows", "span"),
    ("tables", "compute_row", "tables.rows", "span"),
    ("tables", "diff_table", "tables.diff_table", "span"),
    ("tables", "table_csv", "tables.table_csv", "span"),
    ("tables", "table_json", "tables.table_json", "span"),
    ("tables", "table_text", "tables.table_text", "span"),
    ("piecewise", "an_polynomial", "piecewise.an_polynomial", "span"),
    ("piecewise", "SignDomain.__init__", "piecewise.sign_domain", "span"),
    ("piecewise", "MultiPoly.substitute_linear", "piecewise.substitute_linear", "span"),
    ("piecewise", "MultiPoly.evaluate", "piecewise.evaluate", "span"),
    ("piecewise", "MultiPoly.__mul__", "piecewise.multipoly_mul", "count"),
    ("piecewise", "wall_continuity_check", "piecewise.wall_continuity_check", "span"),
    ("closed_forms", "f_nab", "closed_forms.f_nab", "span"),
    ("closed_forms", "rising_product", "closed_forms.rising_product", "count"),
    ("closed_forms", "sum_dependence_check", "closed_forms.sum_dependence_check", "span"),
    ("closed_forms", "double_factorial", "closed_forms.double_factorial", "span"),
    ("closed_forms", "v_kontsevich", "closed_forms.v_kontsevich", "span"),
    ("closed_forms", "identity_n_minus_1", "closed_forms.identity_n_minus_1", "span"),
    ("closed_forms", "f_p22_bridge", "closed_forms.f_p22_bridge", "span"),
    ("cli", "cmd_an.callback", "cli.an", "span"),
    ("cli", "cmd_volume.callback", "cli.volume", "span"),
    ("cli", "cmd_table.callback", "cli.table", "span"),
    ("cli", "cmd_piecewise.callback", "cli.piecewise", "span"),
    ("cli", "cmd_explain.callback", "cli.explain", "span"),
    ("cli", "cmd_check.callback", "cli.check", "span"),
]

RECORD_FAMILIES = {
    "partitions.enum_T1a": "partitions.records.T1a",
    "partitions.enum_T1b": "partitions.records.T1b",
    "partitions.enum_T2a": "partitions.records.T2a",
    "partitions.enum_T2b": "partitions.records.T2b",
}


class Tracer:
    """Spans and counts for one traced run; install() patches, uninstall()
    restores."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def take(self) -> tuple:
        """Hand over the spans recorded so far and start afresh; counts are
        reset too, patches stay installed."""
        spans = (list(self.names), self.start, self.end, self.name,
                 self.parent, self.item)
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.item = array("i"), array("i"), array("i")
        self.counts.clear()
        return spans

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        covered = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[idx] - self.start[idx]
        totals = [0.0] * len(self.names)
        for idx, nid in enumerate(self.name):
            totals[nid] += self.end[idx] - self.start[idx] - covered[idx]
        return {self.names[nid]: total for nid, total in enumerate(totals)}

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, fn, metric: str):
        family = RECORD_FAMILIES.get(metric)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            idx = tracer.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if family is not None:
                counts[family] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        importlib.import_module("flatsphere.cli")
        loaded = [m for name, m in sys.modules.items()
                  if name == "flatsphere" or name.startswith("flatsphere.")]
        for module_name, path, metric, kind in TARGETS:
            owner = importlib.import_module(f"flatsphere.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(original, metric)
            # a method can sit under several names (__mul__ and __rmul__);
            # a function under several modules
            holders = [owner] if owner_path else loaded
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()


def write_spans(path, snapshots) -> None:
    """Write the spans of each snapshot from Tracer.take() as tab-separated
    lines, gzip-compressed; times are seconds from the first span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
        fh.write("snapshot\tspan\tname\tparent\titem\tstart_s\tend_s\n")
        t0 = min((snap[1][0] for snap in snapshots if snap[1]), default=0.0)
        for number, (names, start, end, name, parent, item) in enumerate(snapshots):
            for idx in range(len(start)):
                fh.write(f"{number}\t{idx}\t{names[name[idx]]}\t{parent[idx]}"
                         f"\t{item[idx]}\t{start[idx] - t0:.9f}\t{end[idx] - t0:.9f}\n")
