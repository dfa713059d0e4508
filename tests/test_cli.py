import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatsphere import cli, tables
from flatsphere.cli import main
from flatsphere.core import parse_weights, weights_from_signature

from util import an_reference


TABLE_N4_CSV = """\
d,kappa,col3,ratio,mv_volume
2,"1,1,1,1",1/2,-1,1/8*pi^2
3,"2,2,1,1",1/3,-16/9,8/81*pi^2
4,"3,2,2,1",1/4,-1,1/32*pi^2
4,"3,3,1,1",1/4,-2,1/16*pi^2
4,"3,3,3,-1",-1/4,2,1/16*pi^2
6,"4,3,3,2",1/3,-4/9,1/81*pi^2
6,"4,4,3,1",1/6,-8/9,1/81*pi^2
6,"5,3,2,2",1/6,-8/9,1/81*pi^2
6,"5,3,3,1",1/6,-4/3,1/54*pi^2
6,"5,4,2,1",1/6,-16/9,2/81*pi^2
6,"5,4,4,-1",-1/6,16/9,2/81*pi^2
6,"5,5,1,1",1/6,-16/3,2/27*pi^2
6,"5,5,3,-1",-1/6,8/3,1/27*pi^2
6,"5,5,4,-2",-1/3,16/9,4/81*pi^2
6,"5,5,5,-3",-1/2,8/3,1/9*pi^2
"""

TABLE_N5_CSV = """\
d,kappa,col3,ratio,mv_volume
3,"2,1,1,1,1",1/9,64/27,32/2187*pi^3
3,"2,2,2,1,-1",-2/9,-64/27,64/2187*pi^3
3,"2,2,2,2,-2",-2/9,-64/27,64/2187*pi^3
4,"2,2,2,1,1",1/8,1,1/192*pi^3
4,"3,2,1,1,1",1/16,2,1/192*pi^3
4,"3,2,2,2,-1",-3/16,-1,1/128*pi^3
4,"3,3,2,1,-1",-1/8,-2,1/96*pi^3
4,"3,3,2,2,-2",-1/4,-1,1/96*pi^3
4,"3,3,3,1,-2",-1/4,-2,1/48*pi^3
4,"3,3,3,2,-3",-3/16,-2,1/64*pi^3
6,"3,3,2,2,2",1/6,16/27,2/729*pi^3
6,"3,3,3,2,1",1/9,8/9,2/729*pi^3
6,"4,3,2,2,1",1/12,32/27,2/729*pi^3
6,"4,3,3,1,1",1/18,16/9,2/729*pi^3
6,"4,3,3,3,-1",-5/36,-8/9,5/1458*pi^3
6,"4,4,2,1,1",1/18,64/27,8/2187*pi^3
6,"4,4,3,2,-1",-1/9,-32/27,8/2187*pi^3
6,"4,4,3,3,-2",-2/9,-16/27,8/2187*pi^3
6,"4,4,4,1,-1",-1/18,-64/27,8/2187*pi^3
6,"4,4,4,3,-3",-1/4,-16/27,1/243*pi^3
6,"5,2,2,2,1",1/36,64/27,4/2187*pi^3
6,"5,3,2,1,1",1/36,32/9,2/729*pi^3
6,"5,3,3,2,-1",-1/12,-16/9,1/243*pi^3
6,"5,3,3,3,-2",-2/9,-8/9,4/729*pi^3
6,"5,4,1,1,1",1/36,64/9,4/729*pi^3
6,"5,4,2,2,-1",-1/12,-64/27,4/729*pi^3
6,"5,4,3,1,-1",-1/18,-32/9,4/729*pi^3
6,"5,4,3,2,-2",-1/6,-32/27,4/729*pi^3
6,"5,4,3,3,-3",-1/4,-8/9,1/162*pi^3
6,"5,4,4,1,-2",-1/9,-64/27,16/2187*pi^3
6,"5,4,4,2,-3",-1/4,-32/27,2/243*pi^3
6,"5,4,4,3,-4",-2/9,-32/27,16/2187*pi^3
6,"5,4,4,4,-5",-5/36,-64/27,20/2187*pi^3
6,"5,5,2,1,-1",-1/18,-64/9,8/729*pi^3
6,"5,5,2,2,-2",-1/9,-64/27,16/2187*pi^3
6,"5,5,3,1,-2",-1/9,-32/9,8/729*pi^3
6,"5,5,3,2,-3",-1/6,-16/9,2/243*pi^3
6,"5,5,3,3,-4",-2/9,-16/9,8/729*pi^3
6,"5,5,4,-1,-1",1/18,unsupported,unsupported
6,"5,5,4,1,-3",-1/6,-32/9,4/243*pi^3
6,"5,5,4,2,-4",-2/9,-64/27,32/2187*pi^3
6,"5,5,4,3,-5",-5/36,-32/9,10/729*pi^3
6,"5,5,5,-1,-2",1/9,unsupported,unsupported
6,"5,5,5,1,-4",-2/9,-64/9,32/729*pi^3
6,"5,5,5,2,-5",-5/36,-64/9,20/729*pi^3
6,"5,5,5,4,-7",7/36,64/9,28/729*pi^3
6,"5,5,5,5,-8",4/9,64/9,64/729*pi^3
"""


@pytest.fixture()
def runner():
    return CliRunner()


class TestAn:
    def test_table_example(self, runner):
        result = runner.invoke(main, ["an", "--weights", "2/3,1/3,1/3,1/3,1/3"])
        assert result.exit_code == 0
        assert "A = 1/9" in result.output
        assert "J = 1" in result.output
        assert "e = 3" in result.output

    def test_pillowcase(self, runner):
        result = runner.invoke(main, ["an", "--weights", "1/2,1/2,1/2,1/2"])
        assert "A = 1/2" in result.output

    def test_integer_entry(self, runner):
        result = runner.invoke(main, ["an", "--weights", "0,2/3,2/3,2/3"])
        assert result.exit_code == 0
        assert "A = 0" in result.output

    def test_signature_with_neg_orders(self, runner):
        result = runner.invoke(
            main, ["an", "--signature", "5,5,5,5,-8:6", "--neg-orders"])
        assert "A = 4/9" in result.output

    def test_validation_failure_exit_one(self, runner):
        result = runner.invoke(main, ["an", "--weights", "1/2,1/2"])
        assert result.exit_code == 1
        assert "error" in result.output

    def test_approx_keeps_exact_field(self, runner):
        result = runner.invoke(
            main, ["an", "--weights", "1/2,1/2,1/2,1/2", "--approx"])
        assert "A = 1/2" in result.output
        assert "A ~ 0.5" in result.output


class TestMalformedText:
    def test_huge_exponent_fails_at_once(self, runner):
        # Fraction("1e999999999") would build 10**999999999 and never return
        result = runner.invoke(main, ["an", "--weights", "1e999999999,1/2,1/2,1/2"])
        assert result.exit_code == 1
        assert result.stderr == ("error: invalid rational '1e999999999': "
                                 "exponents are not accepted\n")
        assert result.stdout == ""

    def test_cache_key_with_huge_exponent_ignored(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps(
            {"version": 1, "entries": {"1e999999999,1/2,1/2,1/2": "1/2"}}))
        result = runner.invoke(main, ["an", "--weights", "1/2,1/2,1/2,1/2",
                                      "--cache", str(cache)])
        assert result.exit_code == 0
        assert result.stderr == (f"warning: ignoring corrupt cache file {cache}: "
                                 "invalid rational '1e999999999': exponents are not accepted\n")
        assert result.stdout == "A = 1/2\nJ = 1\ne = 2\n"
        # the file is voided, and a four-point input adds no entry
        assert json.loads(cache.read_text()) == {"version": 1, "entries": {}}

    @pytest.mark.parametrize("args,message", [
        (["an", "--weights", "1/2,,1/2,1/2,1/2"], "empty weight at position 2"),
        (["an", "--weights", "1/2,1/2,1/2,1/2,"], "empty weight at position 5"),
        (["volume", "--signature", "-1,-1,,-1,-1:2"], "empty order at position 3"),
        (["explain", "--weights", "1/2, ,1/2,1/2,1/2"], "empty weight at position 2"),
        (["table", "--n", "4", "--diff", "--columns", "col3,,mv"], "empty column at position 2"),
        (["table", "--n", "4", "--diff", "--columns", "col3,"], "empty column at position 2"),
    ])
    def test_empty_field_fails(self, runner, args, message):
        # dropping the field would read four weights and print A = 1/2
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {message} of ")
        assert result.stdout == ""


class TestVolume:
    def test_value(self, runner):
        result = runner.invoke(main, ["volume", "--weights", "1/2,1/2,1/2,1/2"])
        assert result.exit_code == 0
        assert "vol1 = -1/4*pi^2" in result.output

    def test_options_and_help_texts_as_an(self):
        def options(command):
            return [(param.opts, param.is_flag, param.help) for param in command.params]

        assert options(cli.cmd_volume) == options(cli.cmd_an)
        assert len(options(cli.cmd_an)) == 6 and all(h for *_, h in options(cli.cmd_an))


class TestTable:
    def test_diff_n4_clean(self, runner):
        result = runner.invoke(main, ["table", "--n", "4", "--diff"])
        assert result.exit_code == 0
        assert result.output.count(": ok") == 15

    def test_diff_n5_col3_clean(self, runner):
        result = runner.invoke(
            main, ["table", "--n", "5", "--diff", "--columns", "col3"])
        assert result.exit_code == 0
        assert result.output.count(": ok") == 47

    def test_diff_n5_reports_reference_typos(self, runner):
        # two printed reference cells are arithmetically inconsistent with
        # their own rows; the diff surfaces them and exits nonzero
        result = runner.invoke(main, ["table", "--n", "5", "--diff"])
        assert result.exit_code == 2
        assert "(3,3,2,2,2): MISMATCH mv" in result.output
        assert "(4,4,4,3,-3): MISMATCH ratio" in result.output
        assert result.output.count("MISMATCH") == 3

    def test_csv_round_trip(self, runner):
        result = runner.invoke(main, ["table", "--n", "4", "--csv"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 15
        first = rows[0]
        assert first["d"] == "2"
        assert first["kappa"] == "1,1,1,1"
        assert first["col3"] == "1/2"
        assert first["ratio"] == "-1"
        assert first["mv_volume"] == "1/8*pi^2"

    def test_json_marks_unsupported(self, runner):
        result = runner.invoke(main, ["table", "--n", "5", "--json"])
        rows = json.loads(result.output)
        assert len(rows) == 47
        flagged = [r for r in rows if r["ratio"] == "unsupported"]
        assert {r["kappa"] for r in flagged} == {"5,5,4,-1,-1", "5,5,5,-1,-2"}
        assert all(r["col3"] != "unsupported" for r in rows)

    def test_csv_n4_output_pinned(self, runner):
        result = runner.invoke(main, ["table", "--n", "4", "--csv"])
        assert result.exit_code == 0
        assert result.output == TABLE_N4_CSV

    def test_csv_n5_output_pinned(self, runner):
        result = runner.invoke(main, ["table", "--n", "5", "--csv"])
        assert result.exit_code == 0
        assert result.output == TABLE_N5_CSV

    def test_appendix_b_flag_removed(self, runner):
        result = runner.invoke(main, ["table", "--appendix-b", "--n", "4"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_bad_n(self, runner):
        result = runner.invoke(main, ["table", "--n", "7"])
        assert result.exit_code == 1

    def test_rejects_csv_with_json(self, runner):
        result = runner.invoke(main, ["table", "--n", "4", "--csv", "--json"])
        assert result.exit_code == 1
        assert "--csv or --json" in result.output
        assert "kappa" not in result.output

    @pytest.mark.parametrize("fmt", ["--csv", "--json"])
    def test_diff_rejects_output_format(self, runner, fmt):
        result = runner.invoke(main, ["table", "--n", "4", "--diff", fmt])
        assert result.exit_code == 1
        assert "--diff" in result.output
        assert ": ok" not in result.output

    @pytest.mark.parametrize("columns", ["", ",", " , "])
    def test_diff_rejects_empty_column_list(self, runner, columns):
        # an empty list would check nothing and report every row ok
        result = runner.invoke(
            main, ["table", "--n", "5", "--diff", "--columns", columns])
        assert result.exit_code == 1
        assert "--columns" in result.output
        assert ": ok" not in result.output


class TestCache:
    def test_cold_and_warm_identical(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        args = ["an", "--weights", "5/6,5/6,5/6,5/6,5/6,-5/6,-4/3",
                "--cache", str(cache)]
        cold = runner.invoke(main, args)
        assert cold.exit_code == 0 and cache.exists()
        warm = runner.invoke(main, args)
        assert warm.output == cold.output

    def test_verbose_reports_hits(self, runner, tmp_path):
        # the cold run shares six-point children; the warm one answers the
        # seven-point input from the file
        cache = tmp_path / "memo.json"
        args = ["an", "--weights", "5/6,5/6,5/6,5/6,5/6,-5/6,-4/3",
                "--cache", str(cache), "--verbose"]
        assert runner.invoke(main, args).stderr == "cache: 4 hits, 3 entries\n"
        assert len(json.loads(cache.read_text())["entries"]) == 3
        assert runner.invoke(main, args).stderr == "cache: 1 hits, 3 entries\n"

    def test_corrupt_cache_recovers(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text("{broken")
        result = runner.invoke(
            main, ["an", "--weights", "1/2,1/2,1/2,1/2", "--cache", str(cache)])
        assert result.exit_code == 0
        assert "warning" in result.output
        assert "A = 1/2" in result.output

    def test_wrong_schema_recovers(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps({"entries": {"1/2,1/2": "not-a-number"}}))
        result = runner.invoke(
            main, ["an", "--weights", "1/2,1/2,1/2,1/2", "--cache", str(cache)])
        assert result.exit_code == 0
        assert "A = 1/2" in result.output

    def _an_with_cache(self, runner, cache, *extra):
        return runner.invoke(
            main, ["an", "--weights", "2/3,1/3,1/3,1/3,1/3", "--cache", str(cache),
                   *extra])

    def test_unknown_version_rejected(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps(
            {"version": 99, "entries": {"1/3,1/3,1/3,1/3,2/3": "7/3"}}))
        result = self._an_with_cache(runner, cache)
        assert result.exit_code == 0
        assert "warning: ignoring corrupt cache file" in result.output
        assert "A = 1/9" in result.output and "J = 1\n" in result.output
        # the file is voided, and a five-point input adds no entry
        assert json.loads(cache.read_text()) == {"version": 1, "entries": {}}

    def test_keys_canonicalised(self, runner, tmp_path):
        # a key in any order serves the input it sorts to, and is saved sorted
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps({"version": 1, "entries": {
            "2/3,1/3,1/3,1/3,1/3": "1/9", "3/4,-1/2,3/4,3/4,-1/2,3/4": "3/8"}}))
        result = runner.invoke(main, ["an", "--weights", "3/4,3/4,-1/2,3/4,3/4,-1/2",
                                      "--cache", str(cache), "--verbose"])
        assert "warning" not in result.output
        assert result.stdout == "A = 3/8\nJ = 24\ne = 4\n"
        assert result.stderr == "cache: 1 hits, 2 entries\n"
        assert json.loads(cache.read_text())["entries"] == {
            "1/3,1/3,1/3,1/3,2/3": "1/9", "-1/2,-1/2,3/4,3/4,3/4,3/4": "3/8"}

    def test_conflicting_orderings_rejected(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps({"version": 1, "entries": {
            "2/3,1/3,1/3,1/3,1/3": "1/9", "1/3,1/3,1/3,1/3,2/3": "2/9"}}))
        result = self._an_with_cache(runner, cache)
        assert "conflicting values" in result.output
        assert "A = 1/9" in result.output

    def test_non_integral_j_rejected(self, runner, tmp_path):
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps(
            {"version": 1, "entries": {"1/3,1/3,1/3,1/3,2/3": "1/7"}}))
        result = self._an_with_cache(runner, cache)
        assert "warning: ignoring corrupt cache file" in result.output
        assert "j_n of 1/7 is not an integer" in result.output
        assert "A = 1/9" in result.output

    @pytest.mark.parametrize("weights,stored,exact", [
        ("2/3,2/3,2/3", "5", "1"),
        ("1/3,1/3,2/3,2/3", "7", "1/3"),
    ])
    def test_wrong_value_below_n5_rejected(self, runner, tmp_path, weights,
                                           stored, exact):
        # j_n of the stored value is an integer, so only the exact check sees it
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps({"version": 1, "entries": {weights: stored}}))
        result = runner.invoke(main, ["an", "--weights", weights,
                                      "--cache", str(cache)])
        assert result.exit_code == 0
        assert "warning: ignoring corrupt cache file" in result.output
        assert f"{stored} is not a_n = {exact}" in result.output
        assert f"A = {exact}\n" in result.output
        assert json.loads(cache.read_text())["entries"] == {}

    def test_wrong_value_at_n5_rejected(self, runner, tmp_path):
        # J = 9 * 2/9 = 2 is an integer; the five-point leaf checks it exactly
        cache = tmp_path / "memo.json"
        cache.write_text(json.dumps(
            {"version": 1, "entries": {"1/3,1/3,1/3,1/3,2/3": "2/9"}}))
        result = self._an_with_cache(runner, cache)
        assert result.exit_code == 0
        assert "warning: ignoring corrupt cache file" in result.output
        assert "2/9 is not a_n = 1/9" in result.output
        assert "A = 1/9\n" in result.output and "J = 1\n" in result.output
        assert json.loads(cache.read_text())["entries"] == {}

    def test_five_point_node_stores_no_children(self, runner, tmp_path):
        # nor itself: a five-point input never enters the memo
        cache = tmp_path / "memo.json"
        result = self._an_with_cache(runner, cache)
        assert result.exit_code == 0 and "A = 1/9\n" in result.output
        assert json.loads(cache.read_text()) == {"version": 1, "entries": {}}

    def test_file_with_small_children_loads_and_keeps_them(self, runner, tmp_path):
        # a file written while the memo stored every three-, four- and
        # five-point child loads with no warning, serves the values of a
        # fresh run, and is saved back with every entry in its order; only
        # an input of six or more weights is answered from it
        full = {}
        an_reference(parse_weights("1/5,-2/5,-4/5,4/5,4/5,3/5,4/5"), full)
        assert {len(key) for key in full} == {3, 4, 5, 6, 7}
        text = json.dumps({"version": 1, "entries": {
            ",".join(map(str, key)): str(value) for key, value in full.items()}}, indent=0)
        cache = tmp_path / "memo.json"
        # the input, and a six-, five-, four- and three-point entry of the file
        for key in [next(k for k in full if len(k) == size) for size in (7, 6, 5, 4, 3)]:
            weights = ",".join(map(str, key))
            cache.write_text(text)
            result = runner.invoke(main, ["an", "--weights", weights, "--cache", str(cache),
                                          "--verbose"])
            assert result.exit_code == 0
            hits = int(len(key) >= 6)
            assert result.stderr == f"cache: {hits} hits, {len(full)} entries\n", weights
            assert result.stdout == runner.invoke(main, ["an", "--weights", weights]).stdout
            assert cache.read_text() == text

    def test_unreadable_path_fails_cleanly(self, runner, tmp_path):
        result = runner.invoke(main, ["an", "--weights", "1/2,1/2,1/2,1/2",
                                      "--cache", str(tmp_path)])
        assert result.exit_code == 1
        assert not isinstance(result.exception, IsADirectoryError)
        assert result.output.startswith(f"error: cannot read cache file {tmp_path}: ")
        assert result.output.count("\n") == 1

    def test_failed_write_keeps_old_file(self, runner, tmp_path, monkeypatch):
        cache = tmp_path / "memo.json"
        old = json.dumps({"version": 1, "entries": {"1/2,1/2,1/2,1/2": "1/2"}})
        cache.write_text(old)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", fail)
        result = self._an_with_cache(runner, cache)
        assert result.exit_code == 1
        assert result.stderr == f"error: cannot write cache file {cache}: disk full\n"
        assert cache.read_text() == old
        assert [p.name for p in tmp_path.iterdir()] == ["memo.json"]

    def test_unwritable_directory_fails_cleanly(self, runner, tmp_path, monkeypatch):
        # the values are printed, then the save fails: one error line, exit 1
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("tempfile.mkstemp", refuse)
        cache = tmp_path / "memo.json"
        result = self._an_with_cache(runner, cache)
        assert result.exit_code == 1
        assert result.stdout == "A = 1/9\nJ = 1\ne = 3\n"
        assert result.stderr == f"error: cannot write cache file {cache}: Permission denied\n"
        assert not cache.exists()

    @pytest.mark.parametrize("args", [["an", "--weights", "1/2,1/2,1/2,1/2"],
                                      ["table", "--n", "4"]])
    def test_missing_directory_fails_before_any_work(self, runner, tmp_path, args):
        cache = tmp_path / "no-such-dir" / "memo.json"
        result = runner.invoke(main, [*args, "--cache", str(cache)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (f"error: cannot write cache file {cache}: "
                                 "No such file or directory\n")


PIECES_PINNED = json.loads(
    (Path(__file__).parent / "data" / "pieces_pinned.json").read_text())


class TestPiecewise:
    def test_json_payload(self, runner):
        result = runner.invoke(
            main, ["piecewise", "--sample", "9/11,5/11,4/11,3/11,1/11"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 5
        assert payload["degree"] <= 2
        assert {"block", "sign"} <= set(payload["signs"][0])
        assert all(len(term) == 2 for term in payload["terms"])

    def test_on_wall_sample_rejected(self, runner):
        result = runner.invoke(
            main, ["piecewise", "--sample", "2/3,1/3,1/3,1/3,1/3"])
        assert result.exit_code == 1
        assert "wall" in result.output

    def test_sample_above_ceiling_rejected(self, runner):
        # a generic n = 10 sample: one piece would take minutes, so the CLI
        # stops at n = 9 and names the ceiling
        sample = "-7/101,5/101,24/101,29/101,18/101,-62/101,86/101,86/101,18/101,5/101"
        result = runner.invoke(main, ["piecewise", "--sample", sample])
        assert result.exit_code == 1
        assert "at most n = 9" in result.output
        assert "wall" not in result.output

    @pytest.mark.parametrize(
        "case", PIECES_PINNED["piecewise_cli"], ids=lambda case: case["sample"])
    def test_output_pinned(self, runner, case):
        # stdout as printed before the symbolic recursion was memoised; the
        # samples cover n = 5..7, unsorted entries and repeated weights
        result = runner.invoke(main, ["piecewise", "--sample", case["sample"]])
        assert result.exit_code == 0
        assert result.output == case["stdout"]


EXPLAIN_PINNED = json.loads(
    (Path(__file__).parent / "data" / "explain_pinned.json").read_text())


KERNEL_PINNED = json.loads(
    (Path(__file__).parent / "data" / "kernel_outputs_pinned.json").read_text())


CLI_PINNED = json.loads(
    (Path(__file__).parent / "data" / "cli_pinned.json").read_text())


class TestCliPinned:
    """stdout, stderr and exit code of every command as the CLI printed them
    before its memo, parsing and check rules were each stated once: ``an``
    and ``volume`` with every option, ``table --n 4|5`` in every form,
    ``piecewise`` and ``explain`` with their error and ceiling cases, and
    every ``check`` suite at ``--max-n 6`` (sympoly's ceiling case since
    raised from n = 8 to 9 on purpose).  A ``{cache}`` argument stands
    for a memo file, seeded with ``cache_in`` when the case has one and
    compared with ``cache_out`` afterwards."""

    @pytest.mark.parametrize("case", CLI_PINNED, ids=lambda case: case["name"])
    def test_output(self, runner, tmp_path, case):
        cache = tmp_path / "memo.json"
        if "cache_in" in case:
            cache.write_text(case["cache_in"])
        args = [str(cache) if arg == "{cache}" else arg for arg in case["args"]]
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout.replace(str(cache), "{cache}") == case["stdout"]
        assert result.stderr.replace(str(cache), "{cache}") == case["stderr"]
        assert result.exit_code == case["exit_code"]
        if "cache_out" in case:
            assert cache.read_text() == case["cache_out"]


class TestBlockOrderPinned:
    """Output printed before the partition kernel walked bitmasks: records
    still come in the order of their blocks as index tuples, so ``explain``
    and the entry order of ``--cache`` files are unchanged.  The vectors are
    the README example and 20 seeded level vectors at n = 5..9."""

    @pytest.mark.parametrize("weights", sorted(KERNEL_PINNED["explain"]))
    def test_explain(self, runner, weights):
        result = runner.invoke(main, ["explain", "--weights", weights])
        assert result.exit_code == 0
        assert result.output == KERNEL_PINNED["explain"][weights]

    @pytest.mark.parametrize("name", sorted(KERNEL_PINNED["cache"]))
    def test_cache_file(self, runner, tmp_path, name):
        case = KERNEL_PINNED["cache"][name]
        cache = tmp_path / "memo.json"
        result = runner.invoke(main, [*case["args"], "--cache", str(cache)])
        assert result.exit_code == 0
        assert result.output == case["stdout"]
        assert cache.read_text() == case["file"]

    def test_table_carries_the_file_through(self, runner, tmp_path):
        # a row's vector has five or fewer weights, so no row reads or
        # writes the memo: a fresh file stays empty, and a full one, a
        # seven-point entry included, is saved back as it was loaded
        cache = tmp_path / "memo.json"
        args = ["table", "--n", "5", "--cache", str(cache), "--verbose"]
        cold = runner.invoke(main, args)
        assert "cache: 0 hits, 0 entries" in cold.output
        assert json.loads(cache.read_text()) == {"version": 1, "entries": {}}
        full = {}
        an_reference(parse_weights("1/5,-2/5,-4/5,4/5,4/5,3/5,4/5"), full)
        for row in tables.expected_rows(5):
            an_reference(weights_from_signature(row.signature()), full)
        text = json.dumps({"version": 1, "entries": {
            ",".join(map(str, key)): str(value) for key, value in full.items()}}, indent=0)
        cache.write_text(text)
        warm = runner.invoke(main, args)
        assert f"cache: 0 hits, {len(full)} entries" in warm.output
        assert warm.stdout == cold.stdout
        assert cache.read_text() == text


class TestExplain:
    @pytest.mark.parametrize("weights", sorted(EXPLAIN_PINNED))
    def test_output_pinned(self, runner, weights):
        # pins block order inside each record (which heavy block comes
        # first, singletons before heavies) and record order, which the
        # set-based oracle keys of the partition tests ignore; the three
        # vectors give T1a, T1b, T2a and T2b records, T2b with epsilon 1 and 2
        result = runner.invoke(main, ["explain", "--weights", weights])
        assert result.exit_code == 0
        assert result.output == EXPLAIN_PINNED[weights]

    def test_weights_above_ceiling_rejected(self, runner):
        # 17 weights: listing every record would take about 20 s and 400 MB,
        # so the CLI stops at n = 16 and names the ceiling
        weights = ",".join(["1/7"] * 16 + ["-2/7"])
        result = runner.invoke(main, ["explain", "--weights", weights])
        assert result.exit_code == 1
        assert "at most n = 16" in result.output
        assert "families" not in result.output
        # n = 16 itself runs; these weights have only T1a records
        result = runner.invoke(main, ["explain", "--weights", ",".join(["1/8"] * 16)])
        assert result.exit_code == 0
        assert json.loads(result.output)["counts"] == {"T1a": 120, "T1b": 0, "T2a": 0, "T2b": 0}

    def test_family_counts(self, runner):
        result = runner.invoke(
            main, ["explain", "--weights", "5/6,5/6,5/6,5/6,-4/3"])
        payload = json.loads(result.output)
        assert payload["counts"] == {"T1a": 4, "T1b": 0, "T2a": 3, "T2b": 0}
        rec = payload["families"]["T1a"][0]
        assert rec["family"] == "T1a"
        assert rec["min_denoms"] == [6]


class TestCheck:
    @pytest.mark.parametrize("suite,args", [
        ("identity", ["--max-n", "6"]),
        ("kontsevich", ["--max-n", "6"]),
        ("sympoly", ["--max-n", "4"]),
        ("dform", ["--max-n", "5", "--seed", "2"]),
        ("mcmullen", ["--max-n", "6"]),
        ("walls", ["--max-n", "6", "--seed", "3"]),
    ])
    def test_suites_pass(self, runner, suite, args):
        result = runner.invoke(main, ["check", "--suite", suite, *args])
        assert result.exit_code == 0, result.output
        assert "all checks passed" in result.output

    @pytest.mark.parametrize("suite", ["kontsevich", "identity", "sympoly",
                                       "dform", "oracle5"])
    def test_suite_running_no_checks_fails(self, runner, suite):
        # below each suite's smallest n nothing is checked, which must not
        # read as a pass
        result = runner.invoke(main, ["check", "--suite", suite, "--max-n", "1"])
        assert result.exit_code == 1
        assert f"suite {suite!r} ran no checks at --max-n 1" in result.output
        assert "all checks passed" not in result.output

    def test_max_n_above_ceiling_notes_it_on_stderr(self, runner):
        # sympoly checks n <= 9 only, the largest n sum_dependence_check
        # takes; stdout stays the plain report
        result = runner.invoke(main, ["check", "--suite", "sympoly", "--max-n", "10"])
        assert result.exit_code == 0, result.output
        assert result.stderr == "note: suite 'sympoly' stops at n = 9, below --max-n 10\n"
        assert result.stdout.endswith("ok   sympoly n=9\nall checks passed\n")
        result = runner.invoke(main, ["check", "--suite", "sympoly", "--max-n", "3"])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

    @pytest.mark.parametrize("suite,ceiling", [("kontsevich", 16), ("identity", 16),
                                               ("dform", 9), ("mcmullen", 10)])
    def test_budget_ceiling_notes_it_on_stderr(self, runner, monkeypatch, suite, ceiling):
        # the suite itself is stubbed: at its ceiling it takes up to 6 s
        ran = []

        def stub(max_n, seed, report):
            ran.append(max_n)
            report(f"{suite} stub", True)

        monkeypatch.setitem(cli._SUITES, suite, (stub, cli._SUITES[suite][1]))
        result = runner.invoke(main, ["check", "--suite", suite, "--max-n", str(ceiling)])
        assert result.exit_code == 0 and result.stderr == ""
        result = runner.invoke(main, ["check", "--suite", suite, "--max-n", "20"])
        assert result.exit_code == 0, result.output
        assert result.stderr == (f"note: suite {suite!r} stops at n = {ceiling}, "
                                 "below --max-n 20\n")
        assert ran == [ceiling, ceiling]

    def test_mcmullen_starts_at_four_points(self, runner):
        result = runner.invoke(main, ["check", "--suite", "mcmullen", "--max-n", "3"])
        assert result.exit_code == 1
        assert "suite 'mcmullen' ran no checks at --max-n 3" in result.output
        assert "all checks passed" not in result.output

    def test_walls_report_each_n_from_five(self, runner):
        result = runner.invoke(main, ["check", "--suite", "walls", "--max-n", "6"])
        assert result.exit_code == 0, result.output
        assert result.output == "ok   walls n=5\nok   walls n=6\nall checks passed\n"
        result = runner.invoke(main, ["check", "--suite", "walls", "--max-n", "4"])
        assert result.exit_code == 1
        assert "suite 'walls' ran no checks at --max-n 4" in result.output

    def test_oracle5(self, runner):
        result = runner.invoke(main, ["check", "--suite", "oracle5"])
        assert result.exit_code == 0, result.output

    def test_unknown_suite(self, runner):
        result = runner.invoke(main, ["check", "--suite", "bogus"])
        assert result.exit_code == 1

    def test_deterministic_under_seed(self, runner):
        a = runner.invoke(main, ["check", "--suite", "dform", "--max-n", "5",
                                 "--seed", "9"])
        b = runner.invoke(main, ["check", "--suite", "dform", "--max-n", "5",
                                 "--seed", "9"])
        assert a.output == b.output
