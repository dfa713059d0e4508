"""Check re-pinned memo files against those of an earlier revision.

    python tests/check_cache_repin.py REV

Run from the root of a checkout.  Compares ``tests/data/cli_pinned.json``
and the ``cache`` cases of ``tests/data/kernel_outputs_pinned.json`` with
the same files at git revision REV, written when the memo held every
three-, four- and five-point child.  Each memo file a case writes from
scratch (``cache_out``, ``file``) must be REV's file minus its entries of
five or fewer weights other than the input, in the same order with the
same values.  A case seeded with ``cache_in`` keeps what it loads, and a
``table`` file holds only its rows' own inputs, so their files must be
unchanged.  A ``cache: H hits, E entries`` line on stderr may change,
with E the number of entries left; every other field of every case must
be equal.  Prints
the cases that changed and exits 1 on the first violation.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

CLI = "tests/data/cli_pinned.json"
KERNEL = "tests/data/kernel_outputs_pinned.json"
REPORT = re.compile(r"^cache: \d+ hits, (\d+) entries$", re.M)


def at_revision(rev: str, path: str):
    return json.loads(subprocess.run(["git", "show", f"{rev}:{path}"], check=True,
                                     capture_output=True, text=True).stdout)


def input_key(args: list[str]) -> str:
    """The memo key of the --weights argument: its sorted weights."""
    weights = args[args.index("--weights") + 1].split(",")
    return ",".join(map(str, sorted(map(Fraction, weights))))


def expected_file(old: str, key: str) -> str:
    """REV's file with the entries of five or fewer weights but the input
    left out, written as the CLI writes a memo file."""
    entries = json.loads(old)["entries"]
    kept = {k: v for k, v in entries.items() if k == key or k.count(",") >= 5}
    return json.dumps({"version": 1, "entries": kept}, indent=0)


def fail(message: str):
    sys.exit(f"error: {message}")


def check_case(name: str, old: dict, new: dict, file_field: str) -> bool:
    if set(old) != set(new):
        fail(f"{name}: fields {sorted(old)} became {sorted(new)}")
    changed = False
    entries = None
    # a case seeded with cache_in keeps what it loads, and every entry of a
    # table's file is a row's own input, so those files are as before
    if file_field in old and "cache_in" not in old and "--weights" in old["args"]:
        want = expected_file(old[file_field], input_key(old["args"]))
        if new[file_field] != want:
            fail(f"{name}: {file_field} is not the old file minus its small entries")
        changed = new[file_field] != old[file_field]
        entries = len(json.loads(want)["entries"])
    for field in sorted(set(old) - ({file_field} if entries is not None else set())):
        if old[field] == new[field]:
            continue
        if field != "stderr" or REPORT.sub("", old[field]) != REPORT.sub("", new[field]):
            fail(f"{name}: {field} changed")
        counts = {int(e) for e in REPORT.findall(new[field])}
        if entries is not None and counts != {entries}:
            fail(f"{name}: stderr reports {counts} entries, the file holds {entries}")
        changed = True
    if changed:
        print(f"re-pinned: {name}")
    return changed


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev = sys.argv[1]
    old_cli, new_cli = at_revision(rev, CLI), json.loads(Path(CLI).read_text())
    if [c["name"] for c in old_cli] != [c["name"] for c in new_cli]:
        fail("the CLI cases differ in name or order")
    count = sum(check_case(old["name"], old, new, "cache_out")
                for old, new in zip(old_cli, new_cli))
    old_kernel, new_kernel = at_revision(rev, KERNEL), json.loads(Path(KERNEL).read_text())
    if old_kernel["explain"] != new_kernel["explain"]:
        fail("an explain case changed")
    if list(old_kernel["cache"]) != list(new_kernel["cache"]):
        fail("the kernel cache cases differ in name or order")
    count += sum(check_case(name, old_kernel["cache"][name], new_kernel["cache"][name], "file")
                 for name in old_kernel["cache"])
    print(f"{count} case(s) re-pinned; every other pinned case is unchanged")


if __name__ == "__main__":
    main()
