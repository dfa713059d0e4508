"""Embedded reference tables for the four- and five-point strata, and the
machinery to recompute and diff every cell."""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .core import PiValue, Signature, ValidationError, weights_from_signature
from .flat_charts import is_single_polygon, mv_ratio
from .recursion import a_n, vol1


@dataclass(frozen=True, slots=True)
class TableRow:
    """One reference row: level, (-k_i) label, and the three value columns."""

    d: int
    label: tuple[int, ...]
    col3: Fraction
    ratio: Fraction
    mv: PiValue

    @property
    def n(self) -> int:
        return len(self.label)

    def signature(self) -> Signature:
        return Signature(tuple(-x for x in self.label), self.d)

    def label_text(self) -> str:
        return ",".join(str(x) for x in self.label)


@dataclass(frozen=True, slots=True)
class ComputedRow:
    """Freshly computed values for a reference row; chart-backed columns are
    None when the row has several reflex angles."""

    row: TableRow
    col3: Fraction
    ratio: Optional[Fraction]
    mv: Optional[PiValue]

    def mismatches(self) -> list[str]:
        out = []
        if self.col3 != self.row.col3:
            out.append(f"col3 computed {self.col3} != expected {self.row.col3}")
        if self.ratio is not None and self.ratio != self.row.ratio:
            out.append(f"ratio computed {self.ratio} != expected {self.row.ratio}")
        if self.mv is not None and self.mv != self.row.mv:
            out.append(f"mv computed {self.mv} != expected {self.row.mv}")
        return out


@functools.cache
def _parsed_rows() -> dict[int, tuple[TableRow, ...]]:
    """The embedded reference tables, parsed once per process."""
    with resources.files("flatsphere.data").joinpath(
            "reference_tables.json").open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        n: tuple(
            TableRow(
                d=entry["d"],
                label=tuple(entry["label"]),
                col3=Fraction(entry["col3"]),
                ratio=Fraction(entry["ratio"]),
                mv=PiValue.parse(entry["mv"]),
            )
            for entry in data[f"table_n{n}"]
        )
        for n in (4, 5)
    }


def expected_rows(n: int) -> list[TableRow]:
    """The reference rows for n marked points (n in {4, 5}), as a new list
    of the shared frozen rows."""
    rows = _parsed_rows().get(n)
    if rows is None:
        raise ValidationError("reference tables cover n = 4 and n = 5 only")
    return list(rows)


def compute_row(row: TableRow, cache=None) -> ComputedRow:
    """Recompute a row from scratch: the intersection column through the
    recursion, the ratio and lattice volume through the polygon chart."""
    kappa = row.signature()
    mu = weights_from_signature(kappa)
    col3 = a_n(mu, cache)
    if is_single_polygon(kappa):
        ratio = mv_ratio(kappa)
        mv = vol1(mu, cache) * (ratio / kappa.level)
    else:
        ratio = None
        mv = None
    return ComputedRow(row=row, col3=col3, ratio=ratio, mv=mv)


def diff_table(n: int, cache=None) -> list[str]:
    """Mismatch report lines against the embedded reference; empty if clean."""
    problems = []
    for row in expected_rows(n):
        computed = compute_row(row, cache)
        for message in computed.mismatches():
            problems.append(f"d={row.d} ({row.label_text()}): {message}")
    return problems


def _cell(value) -> str:
    return "unsupported" if value is None else str(value)


def table_csv(n: int, cache=None) -> str:
    """CSV rendering with columns (d, kappa, col3, ratio, mv_volume)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["d", "kappa", "col3", "ratio", "mv_volume"])
    for row in expected_rows(n):
        computed = compute_row(row, cache)
        writer.writerow([row.d, row.label_text(), str(computed.col3),
                         _cell(computed.ratio), _cell(computed.mv)])
    return buffer.getvalue()


def table_json(n: int, cache=None) -> list[dict]:
    out = []
    for row in expected_rows(n):
        computed = compute_row(row, cache)
        out.append({
            "d": row.d,
            "kappa": row.label_text(),
            "col3": str(computed.col3),
            "ratio": _cell(computed.ratio),
            "mv_volume": _cell(computed.mv),
        })
    return out


def table_text(n: int, cache=None) -> str:
    lines = [f"{'d':>2}  {'kappa':<16} {'col3':>8}  {'ratio':>12}  mv_volume"]
    for row in expected_rows(n):
        computed = compute_row(row, cache)
        lines.append(
            f"{row.d:>2}  {row.label_text():<16} {str(computed.col3):>8}"
            f"  {_cell(computed.ratio):>12}  {_cell(computed.mv)}")
    return "\n".join(lines)
