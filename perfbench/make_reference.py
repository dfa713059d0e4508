"""Recompute perfbench/reference.json: the default seed's exact values.

    python3 perfbench/make_reference.py

run.py compares every value the default seed produces with this file, so
regenerate it only when the workload generators change, never to absorb a
changed result.
"""
import json

from run import BENCH_DIR, ROOT, import_flatsphere

import_flatsphere()
from workloads import DEFAULT_SEED, WORKLOADS, reference_values  # noqa: E402

reference = {"seed": DEFAULT_SEED}
for name in ("an-cold", "an-shared", "tables-charts"):
    reference[name] = reference_values(WORKLOADS[name](DEFAULT_SEED, None, ROOT))
with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
    json.dump(reference, fh, indent=0)
    fh.write("\n")
