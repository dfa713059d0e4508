"""Embedded reference tables for the four- and five-point strata, and the
machinery to recompute and diff every cell."""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional

from .core import PiValue, Signature, ValidationError, weights_from_signature
from .flat_charts import mv_ratio
from .recursion import _volume, a_n


@dataclass(frozen=True, slots=True)
class TableRow:
    """One reference row: level, (-k_i) label, and the three value columns."""

    d: int
    label: tuple[int, ...]
    col3: Fraction
    ratio: Fraction
    mv: PiValue
    _signature: Signature = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.label)

    def signature(self) -> Signature:
        """The row's signature, built and validated once, with the row."""
        return self._signature

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

    def mismatches(self) -> list[tuple[str, str]]:
        """(column, message) per differing cell; unsupported (None) cells are skipped."""
        cells = (("col3", self.col3, self.row.col3),
                 ("ratio", self.ratio, self.row.ratio),
                 ("mv", self.mv, self.row.mv))
        return [(column, f"{column} computed {got} != expected {want}")
                for column, got, want in cells if got is not None and got != want]


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
                _signature=Signature(tuple([-x for x in entry["label"]]), entry["d"]),
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
    recursion, the ratio through the polygon chart, the volume from both."""
    kappa = row.signature()
    mu = weights_from_signature(kappa)
    col3 = a_n(mu, cache)
    try:
        ratio = mv_ratio(kappa)
    except ValidationError:  # no single-polygon chart, as in is_single_polygon
        return ComputedRow(row=row, col3=col3, ratio=None, mv=None)
    mv = _volume(row.n, col3) * (ratio / kappa.level)
    return ComputedRow(row=row, col3=col3, ratio=ratio, mv=mv)


def diff_table(n: int, cache, columns) -> tuple[list[str], int]:
    """The report lines of ``table --diff`` (``ok`` per clean row, one
    ``MISMATCH`` per differing cell) and the number of mismatched rows."""
    lines = []
    failures = 0
    for row in expected_rows(n):
        computed = compute_row(row, cache)
        messages = [m for column, m in computed.mismatches() if column in columns]
        tag = f"d={row.d} ({row.label_text()})"
        if messages:
            failures += 1
            lines += [f"{tag}: MISMATCH {m}" for m in messages]
        elif computed.ratio is None and {"ratio", "mv"} & set(columns):
            lines.append(f"{tag}: ok (ratio/mv unsupported)")
        else:
            lines.append(f"{tag}: ok")
    return lines, failures


def _cell(value) -> str:
    return "unsupported" if value is None else str(value)


def table_json(n: int, cache=None) -> list[dict]:
    """One dict of rendered cells per reference row, in table order; the CSV
    and text renderings format these same cells."""
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


def table_csv(n: int, cache=None) -> str:
    """CSV rendering with columns (d, kappa, col3, ratio, mv_volume)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, ["d", "kappa", "col3", "ratio", "mv_volume"],
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(table_json(n, cache))
    return buffer.getvalue()


def table_text(n: int, cache=None) -> str:
    lines = [f"{'d':>2}  {'kappa':<16} {'col3':>8}  {'ratio':>12}  mv_volume"]
    for cells in table_json(n, cache):
        lines.append(
            f"{cells['d']:>2}  {cells['kappa']:<16} {cells['col3']:>8}"
            f"  {cells['ratio']:>12}  {cells['mv_volume']}")
    return "\n".join(lines)
