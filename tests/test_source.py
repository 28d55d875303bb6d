"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import numpy as np

from looptile import inspector
from looptile.executor import execute_untiled
from looptile.problems import EIGHT_LOOP, FIG2, default_registry, global_setup

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "looptile"


def test_no_assert_statements():
    # python -O strips asserts: invariants must be checked by code that raises
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_codegen_imports_no_layer_above_it():
    # codegen generates, compiles and loads C; inspecting, binding and
    # running a schedule are the layers above, which import it
    tree = ast.parse((PACKAGE / "codegen.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    found = sorted(n for n in names
                   if {"inspector", "executor", "distsim"} & set(n.split(".")))
    assert not found, f"codegen imports {found}"


def test_every_c_entry_point_is_bound():
    # a looptile_* function in inspector.c without a signature is dead code,
    # and a signature without a function fails only on first load
    source = (PACKAGE / "inspector.c").read_text()
    defined = set(re.findall(r"^\w+ (looptile_\w+)\(", source, re.MULTILINE))
    assert defined == set(inspector._C_SIGNATURES)


def test_readme_library_use_runs_as_its_comments_say():
    # the README's library-use block: run_distributed gathers the serial
    # values, and the setup_ranks loop equals three serial steps
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)

    registry = default_registry()
    for problem, depth, steps, got in ((FIG2, 3, 1, ns["result"].datasets),
                                       (EIGHT_LOOP, 4, 3, ns["values"])):
        chain, datasets, bindings = global_setup(ns["mesh"], problem, depth)
        for _ in range(steps):
            execute_untiled(chain, bindings, datasets, registry)
        assert set(got) == set(datasets)
        for name, ds in datasets.items():
            np.testing.assert_array_equal(got[name], ds.values, err_msg=name)
