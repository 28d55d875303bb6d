"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

from looptile import inspector

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "looptile"


def test_no_assert_statements():
    # python -O strips asserts: invariants must be checked by code that raises
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_every_c_entry_point_is_bound():
    # a looptile_* function in inspector.c without a signature is dead code,
    # and a signature without a function fails only on first load
    source = (PACKAGE / "inspector.c").read_text()
    defined = set(re.findall(r"^\w+ (looptile_\w+)\(", source, re.MULTILINE))
    assert defined == set(inspector._C_SIGNATURES)
