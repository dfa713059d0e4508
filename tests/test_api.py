"""The package surface: ``flatsphere.__all__`` is the library API the README
documents, ``from flatsphere import *`` binds exactly it, each name loads
its submodule only when first read, and every top-level definition in the
package is reachable from that API or a command."""
import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flatsphere
from flatsphere import closed_forms, core, flat_charts, partitions, recursion
from flatsphere.cli import main

from util import load_perfbench

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


SRC = Path(flatsphere.__file__).resolve().parent.parent
# what every command loads: the recursion and the cli itself
BASE = {"flatsphere.cli", "flatsphere.closed_forms", "flatsphere.core",
        "flatsphere.partitions", "flatsphere.recursion"}


def _fresh(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's package; it
    leaves its findings as JSON in ``out``, returned with the source modules
    of flatsphere loaded by then under "loaded" (the data directory, which
    reading the golden tables imports, is not one)."""
    probe = (f"import json, sys\nout = {{}}\n{code}\n"
             "out['loaded'] = sorted(m for m in sys.modules if m.startswith('flatsphere.')"
             " and (getattr(sys.modules[m], '__file__', None) or '').endswith('.py'))\n"
             "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("args,more", [
    (None, set()),
    (["an", "--weights", "2/3,1/3,1/3,1/3,1/3"], set()),
    (["volume", "--weights", "2/3,1/3,1/3,1/3,1/3", "--cache", "memo.json"], set()),
    (["table", "--n", "4"], {"flatsphere.flat_charts", "flatsphere.tables"}),
    (["piecewise", "--sample", "9/11,5/11,4/11,3/11,1/11"], {"flatsphere.piecewise"}),
], ids=["import", "an", "volume-cache", "table", "piecewise"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, more):
    # `an` and `volume` need the recursion alone; `table` and `piecewise`
    # still load theirs
    code = "import flatsphere.cli\n"
    if args is not None:
        code += ("import contextlib, io\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    flatsphere.cli.main.main(args={args!r}, standalone_mode=False)\n")
    assert set(_fresh(code, tmp_path)["loaded"]) == BASE | more


def test_names_load_on_first_use(tmp_path):
    out = _fresh("import flatsphere\n"
                 "out['on_import'] = sorted(m for m in sys.modules if m.startswith('flatsphere.'))\n"
                 "out['all'] = flatsphere.__all__\n"
                 "out['dir'] = dir(flatsphere)\n"
                 "out['homes'] = {n: getattr(flatsphere, n).__module__ for n in out['all']}\n"
                 "try:\n    flatsphere.no_such_name\nexcept AttributeError as exc:\n"
                 "    out['unknown'] = str(exc)\n", tmp_path)
    assert out["on_import"] == []
    assert out["all"] == flatsphere.__all__
    assert set(out["all"]) <= set(out["dir"])
    assert sorted(out["homes"]) == sorted(out["all"])
    assert all(home.startswith("flatsphere.") for home in out["homes"].values())
    assert out["unknown"] == "module 'flatsphere' has no attribute 'no_such_name'"


PACKAGE = Path(flatsphere.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _reads(node: ast.AST):
    """Every node below ``node`` but annotations, which no module evaluates
    (each has ``from __future__ import annotations``)."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child
                yield from _reads(child)


def _package_graph():
    """Per module of the package, its top-level functions and classes with
    the (module, name) pairs each one's code reads, and the pairs its other
    module-level statements read, which run on import.  A name resolves
    through the module's own definitions and its relative imports, those
    inside functions included; ``module.name`` resolves when ``module`` is
    a package module."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    defs, imports = {}, {}
    for module, tree in trees.items():
        defs[module] = {node.name: node for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        imports[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imports[module][alias.asname or alias.name] = target

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
            if name is None or module not in defs:
                return None
        return module, name

    def reads(module, node):
        found = set()
        for child in [node, *_reads(node)]:
            if isinstance(child, ast.Name):
                found.add(resolve(module, child.id))
            elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                target = imports[module].get(child.value.id)
                if target is not None and target[1] is None and target[0] in defs:
                    found.add(resolve(target[0], child.attr))
        return found - {None}

    edges = {(module, name): reads(module, node)
             for module in trees for name, node in defs[module].items()}
    on_import = set().union(*[reads(module, node) for module, tree in trees.items()
                              for node in tree.body if node not in defs[module].values()])
    return edges, on_import


def _acceptance_imports() -> set:
    """The (module, name) pairs tests/test_acceptance.py imports from the
    package's modules."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    return {(node.module.split(".")[1], alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flatsphere.")
            for alias in node.names}


# Definitions no code path of the API or the commands reaches, each group
# kept for its reason:
REACHABLE_FROM_OUTSIDE = {
    # the perfbench tracer wraps each of its targets by name and raises
    # KeyError on one that is gone
    *[(module, path.split(".")[0])
      for module, path, *_ in load_perfbench("tracing").TARGETS],
    # the acceptance criteria import these from their modules
    *_acceptance_imports(),
    # the module protocol: Python calls them on attribute lookup and dir()
    ("__init__", "__getattr__"), ("__init__", "__dir__"),
}


def test_every_top_level_definition_is_reachable():
    edges, on_import = _package_graph()
    roots = {*on_import, *REACHABLE_FROM_OUTSIDE}
    roots |= {(getattr(flatsphere, name).__module__.split(".")[1], name)
              for name in flatsphere.__all__}
    roots |= {("cli", "main")} | {("cli", command.callback.__name__)
                                  for command in main.commands.values()}
    assert REACHABLE_FROM_OUTSIDE <= set(edges)
    reached, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo += edges.get(node, ())
    assert sorted(set(edges) - reached) == []
