"""One reference per kernel across the test modules.

Bit identity is transitive, so a change that keeps a kernel's bits is
checked against the kernel's one kept reference (``kernel_refs.py``), not
against a copy of its parent. No test module defines a ``parent_*``
function, and no ``reference_*`` name is defined in two modules.
"""

import ast
from collections import defaultdict
from pathlib import Path

MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_module_keeps_a_parent_copy():
    found = [f"{path.name}: {name}" for path in MODULES for name in sorted(_functions(path))
             if name.startswith("parent_")]
    assert found == []


def test_each_reference_is_defined_in_one_module():
    where = defaultdict(list)
    for path in MODULES:
        for name in _functions(path):
            if name.startswith("reference_"):
                where[name].append(path.name)
    assert {name: paths for name, paths in where.items() if len(paths) > 1} == {}
