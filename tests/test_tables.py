import csv
import io
from fractions import Fraction

import pytest

from flatsphere.core import PiValue, Signature, ValidationError
from flatsphere.tables import (ComputedRow, compute_row, expected_rows, table_csv,
                               table_json)

F = Fraction

# cells of the embedded golden table that the implementation adjudicates as
# transcription errors in the source: the printed values below are mutually
# inconsistent with their own rows, and the computed values are pinned here
ADJUDICATED = {
    (6, (3, 3, 2, 2, 2)): {"mv": PiValue(F(2, 729), 3)},
    (6, (4, 4, 4, 3, -3)): {"ratio": F(-16, 27), "mv": PiValue(F(1, 243), 3)},
}


def test_expected_rows_are_fresh_lists_of_shared_rows():
    first = expected_rows(5)
    second = expected_rows(5)
    assert first == second and first is not second
    first.clear()
    first.append("junk")
    third = expected_rows(5)
    assert third == second and len(third) == 47
    with pytest.raises(ValidationError):
        expected_rows(6)


def test_result_types_carry_no_instance_dict():
    row = expected_rows(4)[0]
    computed = compute_row(row, {})
    for value in (row, computed, computed.mv, row.mv):
        assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        row.d = 3


def test_rows_carry_their_signature(monkeypatch):
    # compute_row used to build and re-validate the row's Signature per call
    rows = expected_rows(5)
    assert all(row.signature() is row.signature() for row in rows)
    assert rows[0].signature() == Signature(tuple(-x for x in rows[0].label), rows[0].d)
    built = []
    original = Signature.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Signature, "__post_init__", counting)
    table_csv(5, {})
    assert built == []


def test_row_counts():
    assert len(expected_rows(4)) == 15
    assert len(expected_rows(5)) == 47


def test_product_rule_consistency_of_fixture():
    # each golden row should satisfy mv = col3 * ratio * (sign * pi^(n-2)
    # / ((n-2)! * d)); the two adjudicated cells are the known exceptions
    bad = []
    for n, factor_sign in ((4, -1), (5, 1)):
        for row in expected_rows(n):
            coeff = row.col3 * row.ratio * F(factor_sign, row.d) / (
                2 if n == 4 else 6)
            if PiValue(coeff, n - 2) != row.mv:
                bad.append((row.d, row.label))
    assert bad == [(6, (3, 3, 2, 2, 2))]


def test_computed_rows_match_except_adjudicated_cells():
    cache = {}
    for n in (4, 5):
        for row in expected_rows(n):
            computed = compute_row(row, cache)
            assert computed.col3 == row.col3
            if computed.ratio is None:
                continue
            erratum = ADJUDICATED.get((row.d, row.label), {})
            expected_ratio = erratum.get("ratio", row.ratio)
            expected_mv = erratum.get("mv", row.mv)
            assert computed.ratio == expected_ratio, row.label
            assert computed.mv == expected_mv, row.label


def test_mv_volume_positive_on_supported_rows():
    cache = {}
    for n in (4, 5):
        for row in expected_rows(n):
            computed = compute_row(row, cache)
            if computed.mv is not None:
                assert computed.mv.coefficient > 0, row.label


def test_unsupported_rows_are_exactly_the_multireflex_ones():
    cache = {}
    flagged = []
    for row in expected_rows(5):
        computed = compute_row(row, cache)
        if computed.ratio is None:
            flagged.append(row.label)
    assert flagged == [(5, 5, 4, -1, -1), (5, 5, 5, -1, -2)]


def test_csv_schema():
    text = table_csv(4)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 15
    assert list(rows[0]) == ["d", "kappa", "col3", "ratio", "mv_volume"]
    last = rows[-1]
    assert last["kappa"] == "5,5,5,-3"
    assert last["col3"] == "-1/2"
    assert last["mv_volume"] == "1/9*pi^2"


def test_json_values_are_exact_strings():
    rows = table_json(4)
    assert rows[0] == {
        "d": 2,
        "kappa": "1,1,1,1",
        "col3": "1/2",
        "ratio": "-1",
        "mv_volume": "1/8*pi^2",
    }


def test_mismatches_name_their_column():
    row = expected_rows(5)[0]
    computed = ComputedRow(row=row, col3=row.col3 + 1, ratio=None, mv=row.mv * 2)
    assert computed.mismatches() == [
        ("col3", f"col3 computed {row.col3 + 1} != expected {row.col3}"),
        ("mv", f"mv computed {row.mv * 2} != expected {row.mv}"),
    ]
