"""An audit of the public API's optional parameters.

Every defaulted parameter of a function in ``xlsched.__all__`` should be
passed somewhere in the program: by a call in ``src/xlsched`` or in
``perfbench``, by name or by position. The scan below lists the ones no such
call passes, and the table ``KEPT`` names each one kept anyway with its
reason. A new option that nothing passes, or a kept one that lost its
reason, fails here until the table is changed with it.
"""

import ast
import inspect
from pathlib import Path

import pytest

import xlsched

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "xlsched", ROOT / "perfbench")

_SPREAD = "the config's solver section, spread with ** by experiments.solve_offline"
_LATTICE = "the lattice solves: perfbench passes it through an alias of the solver, the acceptance gate directly"
_GAP_TOL = "the relative-gap stop, which the certified solves planned in ROADMAP.md need"

KEPT = {
    ("brute_force", "tie_tol"): "the oracle's tie contract: which grid assignments tie the optimum",
    ("recover_primal", "price"): "the public recovery at given prices; the solvers call offline._recover",
    ("recover_primal", "handoff_prices"): "as price",
    ("solve_independent", "epsilon"): _SPREAD,
    ("solve_independent", "alpha0"): _SPREAD,
    ("solve_independent", "beta0"): _SPREAD,
    ("solve_independent", "gap_tol"): _GAP_TOL,
    ("solve_independent", "grid"): _LATTICE,
    ("solve_interdependent", "epsilon"): _SPREAD,
    ("solve_interdependent", "alpha0"): _SPREAD,
    ("solve_interdependent", "beta0"): _SPREAD,
    ("solve_interdependent", "inner_epsilon"): _SPREAD,
    ("solve_interdependent", "gap_tol"): _GAP_TOL,
    ("solve_interdependent", "grid"): _LATTICE,
    ("solve_interdependent", "sweep_log"): "the acceptance gate checks by it that no sweep raises the objective",
}


def _optional_parameters():
    """(function, parameter) -> position among the positional parameters
    (None for keyword-only ones), for every defaulted parameter of a
    function in the package's ``__all__``."""
    found = {}
    for name in xlsched.__all__:
        fn = getattr(xlsched, name)
        if not inspect.isfunction(fn):
            continue
        positional = 0
        for p in inspect.signature(fn).parameters.values():
            is_positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if p.default is not p.empty and p.kind != p.VAR_KEYWORD:
                found[(name, p.name)] = positional if is_positional else None
            positional += is_positional
    return found


def _name(node):
    """The name a call target or an argument refers to: ``f`` or ``mod.f``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _passed(functions, modules):
    """The (function, parameter) pairs some call in the parsed ``modules``
    passes; ``functions`` maps a name to its optional parameters' positions.

    A direct call passes its keywords and its first positional parameters
    (all of them after a ``*`` argument). A call that takes the function as
    an argument, such as perfbench's ``_attempt(rnd, what, fn, *args,
    **kwargs)``, passes it its keywords. A ``**`` argument passes nothing.
    """
    passed = set()
    for module in modules:
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            named = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            name = _name(node.func)
            for param, position in functions.get(name, {}).items():
                by_position = position is not None and (starred or position < len(node.args))
                if by_position or param in named:
                    passed.add((name, param))
            for arg in node.args:
                for param in functions.get(_name(arg), {}):
                    if param in named:
                        passed.add((_name(arg), param))
    return passed


def test_every_unpassed_option_is_kept_for_a_reason():
    optional = _optional_parameters()
    functions = {}
    for (fn, param), position in optional.items():
        functions.setdefault(fn, {})[param] = position
    modules = [ast.parse(path.read_text(), str(path)) for tree in SCANNED for path in sorted(tree.rglob("*.py"))]
    unpassed = set(optional) - _passed(functions, modules)
    assert sorted(unpassed) == sorted(KEPT)


# f(x, a=..., *, b=...): ``a`` is the second positional parameter, ``b`` keyword-only
_F = {"f": {"a": 1, "b": None}}


@pytest.mark.parametrize("call,passed", [
    ("f(x)", set()),
    ("f(x, y)", {"a"}),
    ("f(x, a=1)", {"a"}),
    ("f(x, b=2)", {"b"}),
    ("mod.f(x, y, b=2)", {"a", "b"}),
    ("f(*args)", {"a"}),
    ("f(x, **kwargs)", set()),
    ("attempt(rnd, f, x, b=2)", {"b"}),
    ("attempt(rnd, f, x, y)", set()),
    ("g(x, y, a=1, b=2)", set()),
])
def test_the_scan_counts_a_call_as_its_docstring_says(call, passed):
    assert _passed(_F, [ast.parse(call)]) == {("f", p) for p in passed}
