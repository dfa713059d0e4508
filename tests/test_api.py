"""The package surface: ``flatsphere.__all__`` is the library API the README
documents, and ``from flatsphere import *`` binds exactly it."""
import re
import types
from pathlib import Path

import flatsphere
from flatsphere import closed_forms, core, flat_charts, partitions, recursion

README = Path(__file__).resolve().parent.parent / "README.md"

# names the package no longer re-exports; each stays in its module
NOT_EXPORTED = {
    flat_charts: ("Cyclo24", "HermitianForm", "QuadInt", "area_form", "lattice_index"),
    partitions: ("PartitionRecord", "enum_P", "enum_P0", "enum_T1a", "enum_T1b",
                 "enum_T2a", "enum_T2b"),
    core: ("canonicalize",),
    recursion: ("a4_closed", "a5_direct", "recursive_rhs_dform"),
    closed_forms: ("identity_n_minus_1", "f_p22_bridge", "sum_dependence_check"),
}


def test_star_import_binds_no_module_and_no_internal_name():
    namespace = {}
    exec("from flatsphere import *", namespace)
    del namespace["__builtins__"]
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
    for module, names in NOT_EXPORTED.items():
        for name in names:
            assert name not in namespace and not hasattr(flatsphere, name), name
            assert callable(getattr(module, name)), name


def test_readme_lists_the_public_api():
    section = README.read_text(encoding="utf-8").split("### Public API\n", 1)[1]
    section = section.split("\n#", 1)[0]
    listed = [name for line in section.splitlines() if line.startswith(("- ", "  "))
              for name in re.findall(r"`(\w+)`", line)]
    assert sorted(listed) == sorted(flatsphere.__all__)
